// sbx/serve/replication.h
//
// Primary-side WAL shipping to a warm standby. The shipper is a single
// background thread draining a ticket-ordered queue of committed WAL
// records into protocol-v3 ReplicateBatch frames; the standby (a second
// sbx_serve started with --standby) applies each record through the same
// replay path recovery uses, ModelShard::apply_logged, and acks with a
// seqno watermark — so the standby is provably bit-identical to the
// primary at every acked watermark, and promotion (--promote / SIGUSR1)
// has no replay gap.
//
// Ordering contract: ModelShard::apply_mutation enqueues under its shard
// mutation lock, immediately after the local WAL append. That guarantees
// the queue holds each shard's records in ascending seqno order (the
// global interleave across shards is whatever the commit interleave was,
// which is exactly what the standby needs: per-shard order is the only
// order replay depends on).
//
// Delivery contract: records stay queued until the standby acks the batch
// containing them. A transport failure reconnects with backoff and
// resends the same batch; the standby skips records at or below each
// shard's applied watermark, so resends are idempotent. That holds across
// a standby restart too: installing its checkpoint chain raises each
// shard's watermark to the chain's seqno. Tickets are
// queue positions (assigned at enqueue), NOT seqnos — concurrent shards
// can draw seqnos in one order and enqueue in another, and quorum waiting
// must follow queue order to be correct.
//
// Ack policies (--repl-ack):
//   kNone    ship nothing (replication disabled; the default off state)
//   kAsync   ship in the background; client acks never wait
//   kQuorum  a mutation's ack waits until the standby acked its record
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>

#include "serve/wal.h"
#include "util/thread_annotations.h"

namespace sbx::serve {

enum class ReplAckPolicy : std::uint8_t { kNone = 0, kAsync = 1, kQuorum = 2 };

ReplAckPolicy repl_ack_policy_from_string(const std::string& s);
std::string to_string(ReplAckPolicy policy);

struct ReplicationConfig {
  /// Standby endpoint in the Server spelling ("unix:PATH", "tcp:PORT",
  /// "tcp:HOST:PORT").
  std::string target;
  ReplAckPolicy ack = ReplAckPolicy::kAsync;
  long connect_timeout_ms = 5'000;
  long op_timeout_ms = 10'000;
  /// Records per ReplicateBatch frame (the ship window).
  std::uint32_t batch_max = 64;
  int backoff_base_ms = 10;
  int backoff_cap_ms = 2'000;
  std::uint64_t jitter_seed = 1;
};

/// Relaxed-read telemetry (exact once shipping quiesces).
struct ReplicationStats {
  std::uint64_t shipped_seqno = 0;   // highest seqno handed to the wire
  std::uint64_t acked_seqno = 0;     // highest seqno the standby acked
  std::uint64_t lag_records = 0;     // enqueued, not yet acked
  std::uint64_t shipped_records = 0; // cumulative, resends included
  std::uint64_t acked_records = 0;   // cumulative
  std::uint64_t reconnects = 0;
};

class Replicator {
 public:
  /// Starts the shipper thread immediately. Throws InvalidArgument on an
  /// empty target or kNone policy (a disabled replicator is a null
  /// pointer, not an object).
  explicit Replicator(ReplicationConfig config);
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  const ReplicationConfig& config() const { return config_; }

  /// Queues one committed WAL record for shipping and returns its ship
  /// ticket. Called by ModelShard under its mutation lock (see the
  /// ordering contract above).
  std::uint64_t enqueue(std::uint32_t shard, const WalRecord& record)
      SBX_EXCLUDES(mutex_);

  /// Blocks until the standby has acked `ticket` (kQuorum only; a no-op
  /// for other policies or ticket 0). Released without the ack when the
  /// replicator stops mid-wait — shutdown must not strand request
  /// threads; the client sees the connection close and retries.
  void wait_acked(std::uint64_t ticket) SBX_EXCLUDES(mutex_);

  /// Best-effort drain for graceful shutdown: waits until the queue is
  /// empty or `timeout_ms` passes. Returns true when fully acked.
  bool flush(long timeout_ms) SBX_EXCLUDES(mutex_);

  /// Stops the shipper thread (one final send attempt for an in-flight
  /// batch, no backoff loops) and releases every wait_acked caller.
  /// Idempotent.
  void stop() SBX_EXCLUDES(mutex_);

  ReplicationStats stats() const SBX_EXCLUDES(mutex_);

 private:
  struct PendingRecord {
    std::uint32_t shard = 0;
    WalRecord record;
    std::uint64_t ticket = 0;
  };

  void ship_loop() SBX_EXCLUDES(mutex_);
  bool stopping() const {
    return stopping_.load(std::memory_order_acquire);
  }
  /// Backoff sleep that wakes early on stop().
  void interruptible_sleep_ms(int ms) SBX_EXCLUDES(mutex_);

  ReplicationConfig config_;

  mutable util::Mutex mutex_{util::LockRank::kReplicator,
                              "Replicator::mutex_"};
  util::CondVar queue_cv_ ;  // signaled on enqueue and stop
  util::CondVar ack_cv_;     // signaled on ack progress, drain and stop
  std::deque<PendingRecord> queue_ SBX_GUARDED_BY(mutex_);
  std::uint64_t next_ticket_ SBX_GUARDED_BY(mutex_) = 0;
  std::uint64_t acked_ticket_ SBX_GUARDED_BY(mutex_) = 0;

  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> shipped_seqno_{0};
  std::atomic<std::uint64_t> acked_seqno_{0};
  std::atomic<std::uint64_t> shipped_records_{0};
  std::atomic<std::uint64_t> acked_records_{0};
  std::atomic<std::uint64_t> reconnects_{0};

  std::thread shipper_;  // last member: joined by stop(), started in ctor
};

}  // namespace sbx::serve
