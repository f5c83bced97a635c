// sbx/serve/wal.h
//
// Per-shard write-ahead log for serving mutations (Train/Untrain). Each
// record is framed [u32 body_len][u32 crc32(body)][body] and the body is
// encoded with the same wire codec as the socket protocol:
//
//   body := u8 wal_version (=1), u8 op (1=train, 2=untrain), u64 seqno,
//           u64 user_id, u64 request_id, u8 as_spam, u32 copies,
//           string message
//
// The log stores the *raw message text*, not token ids: interner ids are
// assigned in first-seen order and are not stable across process restarts,
// so replay re-tokenizes through the same pipeline the live request took.
//
// Durability contract: a record is appended (and optionally fsynced, per
// FsyncMode) BEFORE the mutation publishes to readers, and under kBatch
// the client ack is withheld until a group-commit fsync covers the record
// (Durability::await_durable) — so any state a client ever observed is
// reconstructible from snapshot + log. seqnos are drawn from one
// process-global counter, which lets recovery skip records already folded
// into a snapshot.
//
// Torn-write handling: read_wal() verifies length bounds and CRC per
// record and stops at the first frame that doesn't check out — a torn or
// corrupt tail (the expected state after kill -9 mid-append) is dropped,
// never replayed, and a durable frontend's recovery cuts it off the file
// before the next append. A missing log file reads as empty.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace sbx::serve {

inline constexpr std::uint8_t kWalFormatVersion = 1;
inline constexpr std::uint8_t kWalOpTrain = 1;
inline constexpr std::uint8_t kWalOpUntrain = 2;

/// When appends reach the disk platter.
///   kNone   never fsync (page cache only; survives kill -9, not power loss)
///   kBatch  group commit: appends only count; sync() fsyncs when anything
///           is pending, and acks wait for the covering sync
///   kAlways fsync after every record
enum class FsyncMode : std::uint8_t { kNone = 0, kBatch = 1, kAlways = 2 };

FsyncMode fsync_mode_from_string(const std::string& s);
std::string to_string(FsyncMode mode);

/// One logged mutation. `seqno` orders records across all shards.
struct WalRecord {
  std::uint8_t op = kWalOpTrain;
  std::uint64_t seqno = 0;
  std::uint64_t user_id = 0;
  std::uint64_t request_id = 0;
  bool as_spam = true;
  std::uint32_t copies = 1;
  std::string message;
};

/// Append-only writer over one shard's log file. The owning ModelShard
/// already serializes append/truncate under its mutation mutex, but sync()
/// may arrive from a different thread (the group-commit leader or the
/// server's final drain flush), so the file offset and pending-fsync state
/// are additionally serialized by an internal io mutex. Counter reads are
/// safe from any thread.
class WalWriter {
 public:
  WalWriter(std::string path, FsyncMode mode);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Encodes, CRC-frames and appends one record, then applies the fsync
  /// policy (kAlways fsyncs inline; kBatch defers to the next sync()).
  /// Throws IoError on any write/fsync failure (a mutation that cannot be
  /// logged must not publish).
  void append(const WalRecord& record) SBX_EXCLUDES(io_mutex_);

  /// Flushes pending batched writes to disk. No-op for kNone, and skips
  /// the fsync entirely when nothing was appended since the last sync —
  /// that makes a group-commit window over many shards pay only for the
  /// logs it actually dirtied. Safe to call concurrently with append.
  void sync() SBX_EXCLUDES(io_mutex_);

  /// Cuts the log back to its first `valid_bytes` and fsyncs it: empties
  /// it once its records are folded into a snapshot, or drops the torn
  /// tail recovery found (read_wal's bytes_used), so appends stay readable.
  void truncate(std::uint64_t valid_bytes = 0) SBX_EXCLUDES(io_mutex_);

  const std::string& path() const { return path_; }

  /// Cumulative counters since construction (truncate does not reset
  /// them — they feed monotonic stats).
  std::uint64_t records() const {
    return records_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

  /// Records appended since the last truncate() — the snapshot trigger.
  std::uint64_t records_since_truncate() const {
    return since_truncate_.load(std::memory_order_relaxed);
  }

 private:
  std::string path_;
  FsyncMode mode_;
  int fd_ = -1;  // const after the constructor
  util::Mutex io_mutex_{util::LockRank::kWal, "WalWriter::io_mutex_"};
  // Records appended since the last fsync (kBatch bookkeeping).
  std::uint32_t unsynced_ SBX_GUARDED_BY(io_mutex_) = 0;
  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> since_truncate_{0};
};

/// Outcome of a log scan. `bytes_used` covers the valid prefix;
/// `bytes_total` the whole file — the difference is the dropped tail.
struct WalReadStats {
  std::uint64_t records = 0;
  std::uint64_t bytes_used = 0;
  std::uint64_t bytes_total = 0;
  std::uint64_t dropped_torn = 0;     // truncated mid-frame
  std::uint64_t dropped_corrupt = 0;  // framed but failed CRC/decode
};

/// Scans `path`, invoking `sink` for each valid record in order. Stops at
/// the first torn or corrupt frame (everything after is dropped — records
/// are only meaningful in seqno order). A missing file yields zero stats.
/// Throws IoError only on filesystem-level read failures.
WalReadStats read_wal(const std::string& path,
                      const std::function<void(const WalRecord&)>& sink);

/// Encodes a record body (without the [len][crc] frame) — exposed for
/// tests that craft corrupt logs byte-by-byte and for the replication
/// shipper, which sends the same bytes the log stores.
std::vector<std::uint8_t> encode_wal_body(const WalRecord& record);

/// Strictly decodes a record body (the inverse of encode_wal_body).
/// Throws ParseError on version/op/layout mismatch or trailing bytes.
WalRecord decode_wal_body(std::span<const std::uint8_t> body);

}  // namespace sbx::serve
