// sbx/serve/shard.h
//
// A ModelShard owns a fixed set of UserModel slots and enforces the
// serving layer's concurrency contract:
//
//  * classify reads are lock-free — overlay(local) acquire-loads the last
//    published snapshot and never blocks, no matter how many trains are
//    in flight;
//  * train/untrain mutations are applied single-threaded per shard — one
//    mutation mutex serializes them, so UserModel's copy-mutate-publish
//    sequence never races with itself and per-user feedback is applied in
//    a well-defined order.
//
// The shard is the unit of mutation parallelism: with S shards, up to S
// feedback streams commit concurrently while any number of classify
// readers proceed untouched.
//
// Two entry points mutate a user:
//
//  * apply_mutation takes a live request, which carries no seqno: dedup
//    check, prepare the new overlay (may throw; nothing logged), draw a
//    seqno, WAL append, replicator enqueue, publish, remember the dedup
//    entry, maybe checkpoint — all under the mutation lock. The append
//    sits between prepare and publish: a state no reader ever saw is never
//    logged, and a state any reader saw is always recoverable.
//  * apply_logged takes a record that already carries a seqno (a standby's
//    shipped record, or recovery's WAL replay) and skips it at or below
//    the shard's watermark, which an installed checkpoint chain raises to
//    its seqno (note_checkpoint). It logs only once a WAL is attached, and
//    recovery replays before the frontend attaches one.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "serve/user_model.h"
#include "util/thread_annotations.h"

namespace sbx::serve {

class Durability;
class Replicator;
struct WalRecord;

/// Aggregate shard counters (relaxed reads; exact once mutations quiesce).
struct ShardStats {
  std::uint64_t users = 0;
  std::uint64_t overlay_users = 0;  // users with a non-empty overlay
  std::uint64_t classified_messages = 0;
  std::uint64_t mutations = 0;
  std::uint64_t deduped = 0;  // retries absorbed by the request-id window
};

/// One remembered mutation outcome, keyed by client request id. Replaying
/// the stored counts (instead of re-applying) is what makes Train/Untrain
/// retries idempotent.
struct DedupEntry {
  std::uint64_t request_id = 0;
  std::uint8_t op = 0;  // kWalOpTrain / kWalOpUntrain
  std::uint32_t spam = 0;  // overlay counts right after the mutation
  std::uint32_t ham = 0;
};

/// One mutation as the shard applies (and logs) it. `message` borrows the
/// request's raw text — valid for the duration of the call only.
struct MutationRequest {
  std::uint8_t op = 0;  // kWalOpTrain / kWalOpUntrain
  std::uint64_t user_id = 0;
  std::uint64_t request_id = 0;  // 0 = no idempotency requested
  bool as_spam = true;
  std::uint32_t copies = 1;
  const std::string* message = nullptr;
};

struct MutationResult {
  std::uint64_t generation = 0;
  std::uint32_t spam = 0;
  std::uint32_t ham = 0;
  bool deduped = false;
  /// Group-commit ticket the ack must wait on (0 = nothing to wait for).
  std::uint64_t commit_ticket = 0;
  /// Replication ship ticket the ack must wait on under --repl-ack=quorum
  /// (0 = nothing enqueued).
  std::uint64_t repl_ticket = 0;
};

/// Outcome of applying one record that carries a seqno.
struct LoggedApplyResult {
  bool applied = false;  // false = seqno at or below the watermark (skipped)
  std::uint64_t commit_ticket = 0;
};

class ModelShard {
 public:
  explicit ModelShard(std::size_t user_count);

  ModelShard(const ModelShard&) = delete;
  ModelShard& operator=(const ModelShard&) = delete;

  std::size_t user_count() const { return user_count_; }

  /// Sets the per-user request-id dedup window length (0 disables dedup).
  /// A WAL-less mirror configures dedup too, so it absorbs retried
  /// requests exactly like the durable server it verifies against. Call
  /// before recovery, which fills the windows. Taken under the mutation
  /// lock, so a late reconfigure cannot tear a concurrent mutation's dedup
  /// window out from under it.
  void configure_dedup(std::size_t dedup_window)
      SBX_EXCLUDES(mutation_mutex_);

  /// Wires this shard to its WAL (durability->wal(shard_index)). Call
  /// after recovery: from here on apply_logged appends what it applies.
  /// Taken under the mutation lock (same reasoning as configure_dedup).
  void attach_durability(Durability* durability, std::size_t shard_index)
      SBX_EXCLUDES(mutation_mutex_);

  /// Wires this shard to the primary-side WAL shipper. Call after
  /// attach_durability — replication ships the same records the WAL
  /// stores, so a replicator without a WAL is a configuration error.
  void attach_replicator(Replicator* replicator)
      SBX_EXCLUDES(mutation_mutex_);

  /// Records the global user id behind a local slot (snapshots persist
  /// global ids; routing is rebuilt from the manifest on recovery).
  void set_uid_of_local(std::size_t local, std::uint64_t uid)
      SBX_EXCLUDES(mutation_mutex_);

  /// Lock-free read of user `local`'s published overlay (null = empty).
  /// Throws InvalidArgument for an out-of-range slot.
  OverlaySnapshot overlay(std::size_t local) const;

  /// Applies one mutation under the shard mutation lock: dedup → prepare
  /// → WAL append → publish → remember → maybe checkpoint. Throws
  /// InvalidArgument for a bad mutation (e.g. untrain of an untrained
  /// message; nothing is logged or published) and IoError when the WAL
  /// cannot be written (ditto).
  MutationResult apply_mutation(std::size_t local, const MutationRequest& req,
                                const spambayes::TokenIdSet& ids)
      SBX_EXCLUDES(mutation_mutex_);

  /// Recovery path: installs a snapshot's overlay and dedup window
  /// verbatim (no WAL, no counters, not dirty).
  void replay_install(std::size_t local, OverlaySnapshot overlay,
                      std::vector<DedupEntry> dedup)
      SBX_EXCLUDES(mutation_mutex_);

  /// Recovery path: raises the applied watermark to the seqno the
  /// installed checkpoint chain covers, so apply_logged skips every
  /// record the chain already folds in.
  void note_checkpoint(std::uint64_t seqno) SBX_EXCLUDES(mutation_mutex_);

  /// The one path for a record that carries a seqno (see the header).
  /// Past the watermark it prepares, appends the record verbatim (seqno
  /// kept) if a WAL is attached, publishes, remembers the dedup entry,
  /// marks the user dirty, raises the watermark and may checkpoint. Throws
  /// if the record no longer applies: records are only logged after a
  /// successful prepare, so that means corrupted state.
  LoggedApplyResult apply_logged(std::size_t local, const WalRecord& record,
                                 const spambayes::TokenIdSet& ids)
      SBX_EXCLUDES(mutation_mutex_);

  /// Highest seqno applied, logged or covered by an installed checkpoint
  /// (promotion and recovery seed the seqno counter past it).
  std::uint64_t last_seqno() const SBX_EXCLUDES(mutation_mutex_);

  /// Attributes `messages` classified messages to user `local`.
  void record_classified(std::size_t local, std::uint64_t messages);

  ShardStats stats() const;

 private:
  UserModel& user(std::size_t local);
  const UserModel& user(std::size_t local) const;

  /// Dedup window lookup (caller holds the mutation lock).
  const DedupEntry* find_dedup(std::size_t local, std::uint64_t request_id)
      const SBX_REQUIRES(mutation_mutex_);
  void remember_dedup(std::size_t local, DedupEntry entry)
      SBX_REQUIRES(mutation_mutex_);

  /// Checkpoint when enough records accumulated (caller holds the lock).
  void maybe_snapshot() SBX_REQUIRES(mutation_mutex_);

  std::size_t user_count_;
  // UserModel slots are internally safe for lock-free reads; their
  // mutation methods take mutation_mutex_ as a REQUIRES() capability
  // parameter, so the single-writer half of the contract is checked at
  // the UserModel boundary rather than by guarding the array.
  std::unique_ptr<UserModel[]> users_;
  mutable util::Mutex mutation_mutex_{util::LockRank::kShard,
                                      "ModelShard::mutation_mutex_"};

  // Durability wiring (null = in-memory only, the pre-PR-7 behavior).
  // Everything below changes only under the mutation lock — including
  // the setup calls (configure_dedup / attach_durability), which used to
  // rely on a prose "call before any mutation" contract.
  Durability* durability_ SBX_GUARDED_BY(mutation_mutex_) = nullptr;
  Replicator* replicator_ SBX_GUARDED_BY(mutation_mutex_) = nullptr;
  std::size_t shard_index_ SBX_GUARDED_BY(mutation_mutex_) = 0;
  std::size_t dedup_window_ SBX_GUARDED_BY(mutation_mutex_) = 0;
  // Highest seqno applied, logged or covered by an installed checkpoint.
  std::uint64_t last_seqno_ SBX_GUARDED_BY(mutation_mutex_) = 0;
  // The three per-slot vectors below are sized by the constructor: replay
  // runs before a WAL is attached and must already find them.
  std::vector<std::uint64_t> uid_of_local_ SBX_GUARDED_BY(mutation_mutex_);
  // Per local slot, FIFO.
  std::vector<std::deque<DedupEntry>> dedup_ SBX_GUARDED_BY(mutation_mutex_);
  // Per local slot: mutated since the last checkpoint (feeds incremental
  // snapshots; snapshot installs are clean by definition). Replay marks
  // too: the next checkpoint truncates the WAL those users came from.
  std::vector<std::uint8_t> dirty_ SBX_GUARDED_BY(mutation_mutex_);
  std::atomic<std::uint64_t> deduped_{0};
};

}  // namespace sbx::serve
