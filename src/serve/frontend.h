// sbx/serve/frontend.h
//
// ServeFrontend is the in-process serving API: it owns the shared base
// filter, the shard array, and the user-id routing table, and maps
// protocol requests to responses. The socket server (server.h) and any
// embedded caller (tests, sbx_loadgen --verify) use the exact same
// dispatch path, so "what the daemon answers" is defined here once.
//
// Consistency contract (the ISSUE's correctness bar):
//
//  * every classify batch is one ScoreEngine::score_batch call on the
//    calling thread's engine;
//  * a user with an empty overlay classifies bit-identically to the base
//    filter — the batch runs on the base's ScoreTable, built once by the
//    constructor and shared by every thread, so served classify builds no
//    per-thread engine table. Ids interned after the table was built (by
//    another user's train) have no base counts and read as the zero-count
//    entry;
//  * a user whose overlay was trained on messages M classifies
//    bit-identically to a standalone Filter copy trained on M — the batch
//    runs on the engine's fresh source, whose exact 64-bit count sums give
//    the same doubles a merged database would;
//  * one classify batch reads one overlay snapshot: mutations that land
//    mid-batch affect later requests, never a half-scored batch;
//  * classify never writes the token interner. It acquires the overlay
//    snapshot first, then tokenizes lookup-only
//    (Filter::message_known_token_ids), dropping tokens the interner has
//    never seen. In that order a lookup miss is authoritative — every
//    token with counts in the snapshot was interned before it was
//    published (TokenInterner::probe) — so a dropped token has zero counts
//    in base and overlay, scores x, and never enters delta(E): the score
//    and verdict are bit-identical to scoring fully interned ids. The
//    constructor refuses classifier options under which that last step
//    fails. Train, untrain, WAL replay and replication still intern, as
//    they must to add counts.
//
// Durability (PR 7): constructed with a Durability, the frontend recovers
// its own data dir: (1) install each shard's checkpoint chain, (2) replay
// each WAL through the per-record path a standby uses, (3) cut the torn
// tail and delete compaction leftovers, and only then (4) attach the WAL
// and seed the seqno counter past the highest shard watermark. That order
// keeps replay from logging a record again. From then on every
// Train/Untrain is WAL-logged before it publishes. Without a Durability,
// recover() (recovery.h) fills the frontend as a read-only mirror.
//
// Replication (PR 9): the frontend carries a Role. A primary with an
// attached Replicator ships every committed WAL record to the standby; a
// standby (set_standby) refuses Classify/Train/Untrain over dispatch with
// ErrorCode::kNotPrimary (+ optional redirect endpoint) and instead
// absorbs ReplicateBatch frames. Each shipped record takes the path
// recovery's replay takes: route, topology check, tokenize,
// ModelShard::apply_logged. promote() flips a standby to primary with no
// replay gap: every shipped record was applied (and logged) as it
// arrived, so promotion only has to advance the seqno counter past the
// replicated watermark.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/protocol.h"
#include "serve/recovery.h"
#include "serve/shard.h"
#include "serve/wal.h"
#include "spambayes/filter.h"
#include "spambayes/score_engine.h"

namespace sbx::serve {

class Replicator;

/// What this node answers for. Standbys refuse writes (and classify —
/// their models trail the primary by the ship lag) until promoted.
enum class Role : std::uint8_t { kPrimary = 0, kStandby = 1 };

struct FrontendConfig {
  std::size_t shard_count = 4;
  std::size_t user_count = 64;
  /// Request-id dedup window per user (0 disables idempotent retries).
  std::size_t dedup_window = 64;
};

/// Connection-level counters owned by the socket server but reported
/// through the frontend's stats endpoint. Atomics, so the stats path reads
/// them without touching server locks.
struct ServerCounters {
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> active{0};
};

class ServeFrontend {
 public:
  /// Takes ownership of the shared base filter (immutable from here on)
  /// and builds the shard/user routing table. With a Durability, it
  /// recovers the durability's data dir (see the header comment; the
  /// counts land in stats()), and from then on the shards log every
  /// mutation to their WAL before publishing. Throws InvalidArgument on a
  /// zero shard or user count, and when the base's classifier options
  /// would admit a zero-count token into delta(E) (lookup-only classify
  /// would then change scores); recovery's errors (ParseError on a broken
  /// checkpoint chain, IoError) propagate.
  ServeFrontend(spambayes::Filter base, FrontendConfig config,
                std::unique_ptr<Durability> durability = nullptr);
  ~ServeFrontend();

  ServeFrontend(const ServeFrontend&) = delete;
  ServeFrontend& operator=(const ServeFrontend&) = delete;

  ClassifyBatchResponse classify_batch(const ClassifyBatchRequest& request);
  TrainResponse train(const TrainRequest& request);
  UntrainResponse untrain(const UntrainRequest& request);
  StatsResponse stats() const;

  // --- Replication / roles ------------------------------------------------

  Role role() const { return role_.load(std::memory_order_acquire); }

  /// Marks this node a standby before serving starts. `redirect_hint` (may
  /// be empty) is the endpoint kNotPrimary rejections point writers at.
  /// Not safe to call once requests are in flight — standbys start as
  /// standbys; the only live transition is promote().
  void set_standby(std::string redirect_hint);

  /// Flips this node to primary and advances the durability seqno counter
  /// past everything absorbed as a standby, so freshly drawn seqnos never
  /// collide with replicated ones. Idempotent; returns the watermark.
  PromoteResponse promote();

  /// Standby side of WAL shipping: applies each shipped record through the
  /// path recovery's replay takes (ModelShard::apply_logged skips
  /// per-shard seqnos already applied or checkpointed, so resends are
  /// idempotent, across a standby restart too), waits for the covering
  /// fsync, then acks the batch's highest seqno. The ack therefore implies
  /// standby durability under the standby's own fsync policy.
  ReplicateAckResponse replicate_batch(const ReplicateBatchRequest& request);

  /// Primary side: owns the shipper and wires it into every shard. Call
  /// after construction (which recovers), before serving.
  void attach_replicator(std::unique_ptr<Replicator> replicator);

  Replicator* replicator() { return replicator_.get(); }

  /// Maps any request to its response, converting sbx::Error into
  /// ErrorResponse (the connection-level catch-all). ShutdownRequest gets
  /// a ShutdownResponse; acting on it is the server's job.
  Response dispatch(const Request& request);

  const spambayes::Filter& base() const { return base_; }
  /// The base's score table, built once by the constructor: what a user
  /// without an overlay is scored through.
  const spambayes::ScoreTable& base_table() const { return *base_table_; }
  std::size_t user_count() const { return route_.size(); }
  std::size_t shard_count() const { return shards_.size(); }

  /// The routed (shard, local slot) of a user id — exposed so tests can
  /// target users that share / don't share a shard.
  struct RouteEntry {
    std::uint32_t shard = 0;
    std::uint32_t local = 0;
  };
  RouteEntry route(std::uint64_t user_id) const;

  /// Lock-free read of a user's published overlay snapshot (null = no
  /// feedback yet) — the state classify_batch scores against. Throws
  /// InvalidArgument for an unknown user.
  OverlaySnapshot overlay(std::uint64_t user_id) const;

  // --- Durability / recovery wiring ---------------------------------------

  /// Null when running in-memory only.
  Durability* durability() { return durability_.get(); }

  /// Final WAL flush (graceful drain). With a replicator attached, drains
  /// the ship queue (bounded wait) and stops the shipper first.
  void sync_durability();

  /// Points stats() at the socket server's connection counters (the server
  /// detaches on destruction).
  void attach_server_counters(const ServerCounters* counters) {
    server_counters_.store(counters, std::memory_order_release);
  }

 private:
  const RouteEntry& route_checked(std::uint64_t user_id) const;
  MutationResult apply(std::uint8_t op, std::uint64_t user_id,
                       std::uint64_t request_id, bool as_spam,
                       std::uint32_t copies, const std::string& message);
  ErrorResponse not_primary(const char* what);

  friend RecoveryStats recover(ServeFrontend& frontend,
                               const std::string& data_dir);
  /// Steps 1-3 of the Durability paragraph above; a mirror (no
  /// Durability) only installs and replays, and writes nothing.
  RecoveryStats recover_from(const std::string& data_dir);
  /// The one path for a record that carries a seqno (replicate_batch and
  /// recovery): route, topology check, tokenize, ModelShard::apply_logged.
  LoggedApplyResult apply_logged_record(std::uint32_t shard,
                                        const WalRecord& record);
  std::uint64_t applied_watermark() const;  // max over the shards

  spambayes::Filter base_;
  // Immutable once built; every classifying thread reads it.
  std::shared_ptr<const spambayes::ScoreTable> base_table_;
  std::unique_ptr<Durability> durability_;
  std::unique_ptr<Replicator> replicator_;
  std::atomic<Role> role_{Role::kPrimary};
  // Written once by set_standby before serving starts; read-only after.
  std::string redirect_hint_;
  std::vector<std::unique_ptr<ModelShard>> shards_;
  std::vector<RouteEntry> route_;  // indexed by user id
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  RecoveryStats recovery_stats_;  // written once, by the constructor
  std::atomic<const ServerCounters*> server_counters_{nullptr};
  std::atomic<std::uint64_t> classify_requests_{0};
  std::atomic<std::uint64_t> train_requests_{0};
  std::atomic<std::uint64_t> untrain_requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> standby_applied_records_{0};
};

}  // namespace sbx::serve
