// sbx/serve/recovery.h
//
// Crash-safe persistence for the serving layer: the data-directory layout,
// the per-shard checkpoint chains, the startup
// manifest and the group-commit fsync window. The recovery replay itself
// is ServeFrontend's: a frontend constructed with a Durability rebuilds
// itself from the data dir to the exact state an uninterrupted run would
// hold, and recover() below fills a frontend without one as a read-only
// mirror of a data dir.
//
// Data directory layout:
//
//   <data-dir>/MANIFEST            topology fingerprint (text)
//   <data-dir>/shard-NNNN/wal.log  mutation log (wal.h framing)
//   <data-dir>/shard-NNNN/snap-NNNNNN.inc
//                                  checkpoint segments, one index
//                                  sequence per shard
//
// Every checkpoint is one file kind: a header (index, parent, seqno,
// users), the user states, and a trailing `crc` line over all of it. A
// root segment (parent "root") holds every user with state; the first
// checkpoint of a shard without a chain is a root, and so is every
// compaction. Any other segment holds only the users dirtied since its
// predecessor and names the predecessor's content CRC as its parent.
//
// Recovery invariant: overlay contents after recovery (durable or
// mirror) are bit-identical to an uninterrupted process that
// applied the same mutations — checkpoints embed exact
// TokenDatabase::save() bytes, and WAL replay re-tokenizes the logged raw
// message text through the identical pipeline the live request took.
// (Overlay *generation* stamps are process-local and differ across
// restarts by design; nothing durable depends on them.)
//
// Checkpoint atomicity: segments are written tmp → fsync → rename → fsync
// parent dir, then the WAL is truncated. A crash between rename and
// truncate is safe because the segment records the highest folded seqno:
// installing the chain raises each shard's applied watermark to it, and
// ModelShard::apply_logged skips records at or below the watermark.
//
// The live chain is the newest segment, walked back through parent CRCs
// to a root. A segment that fails its CRC, or that does not reach a root,
// is unrecoverable corruption and throws — EXCEPT segments below the root
// whose seqno is at or below the root's: those are leftovers of a
// compaction interrupted between the root's rename and the unlinks, which
// a read-only mirror skips and a durable frontend deletes. A data dir
// checkpointed by an older layout (shard-NNNN/snapshot.db, or segments
// with the SBXSNAPINC 1 magic) is refused: the WAL no longer holds what
// those files fold in.
//
// Group commit (fsync=batch): appends mark their log dirty and draw a
// commit ticket; Durability::await_durable makes the first waiter in a
// commit window fsync every dirty log once, covering every ticket drawn
// before the fsync — later waiters in the same window return without
// touching the disk.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/shard.h"
#include "serve/wal.h"
#include "util/thread_annotations.h"

namespace sbx::serve {

class ServeFrontend;

/// How the serving layer persists mutations.
struct DurabilityConfig {
  std::string data_dir;
  FsyncMode fsync = FsyncMode::kBatch;
  /// Snapshot a shard (and truncate its log) once this many records
  /// accumulate since the last snapshot; 0 = never snapshot automatically.
  std::uint64_t snapshot_every = 0;
};

/// A chain with this many segments past its root is compacted into a new
/// root at the next checkpoint (bounds recovery's segment walk).
inline constexpr std::uint64_t kCompactChainAfterSegments = 8;

// --- Paths -----------------------------------------------------------------

std::string shard_dir(const std::string& data_dir, std::size_t shard);
std::string wal_path_in(const std::string& data_dir, std::size_t shard);
std::string checkpoint_path_in(const std::string& data_dir, std::size_t shard,
                               std::uint64_t index);

// --- Manifest --------------------------------------------------------------

/// The topology fingerprint persisted next to the logs. Recovery only
/// makes sense into an identically-shaped frontend (routing and the base
/// model derive deterministically from these), so sbx_serve refuses to
/// start when the manifest disagrees with its flags.
struct Manifest {
  std::uint64_t users = 0;
  std::uint64_t shards = 0;
  std::uint64_t base_size = 0;
  double spam_fraction = 0.5;
  std::uint64_t base_seed = 0;

  bool operator==(const Manifest&) const = default;
};

void write_manifest(const std::string& data_dir, const Manifest& manifest);

/// nullopt when no manifest exists; throws ParseError on a corrupt one.
std::optional<Manifest> read_manifest(const std::string& data_dir);

// --- Checkpoints -----------------------------------------------------------

/// One user's durable state inside a checkpoint.
struct UserSnapshotState {
  std::uint64_t uid = 0;
  OverlaySnapshot overlay;          // null = user has no overlay
  std::vector<DedupEntry> dedup;    // oldest first
};

/// One checkpoint segment (see the header comment).
struct Checkpoint {
  std::uint64_t index = 0;                  // position in the file name
  std::optional<std::uint32_t> parent_crc;  // predecessor's; nullopt = root
  std::uint64_t seqno = 0;  // highest seqno folded into this segment
  std::vector<UserSnapshotState> users;

  bool root() const { return !parent_crc.has_value(); }
};

struct CheckpointWriteResult {
  std::uint32_t crc = 0;    // content CRC (the next segment's parent)
  std::uint64_t bytes = 0;  // file size written
};

/// Atomically writes one segment (tmp + fsync + rename + parent dir
/// fsync); its trailing `crc` line commits the content CRC the next
/// segment must name as parent.
CheckpointWriteResult write_checkpoint_file(const std::string& path,
                                            const Checkpoint& checkpoint);

/// nullopt when the file does not exist. Checks the trailing CRC over the
/// whole content before it parses a single count, and bounds every count
/// by the bytes left, so a damaged or legacy file throws ParseError naming
/// `path` (a damaged checkpoint is unrecoverable state loss and must fail
/// loudly, unlike a torn WAL tail which is expected after a crash). On
/// success `out_crc`, if non-null, receives the validated content CRC.
std::optional<Checkpoint> read_checkpoint_file(
    const std::string& path, std::uint32_t* out_crc = nullptr);

/// Everything recovery (and Durability::adopt_chain) needs to know about
/// one shard's checkpoint chain on disk.
struct SnapshotChainScan {
  std::vector<Checkpoint> segments;  // live chain: root first, ascending
  std::uint64_t snapshot_seqno = 0;  // effective checkpoint watermark
  std::uint32_t tail_crc = 0;        // CRC the next segment chains onto
  std::vector<std::string> stale_paths;  // compaction leftovers
};

/// Loads and validates one shard's checkpoint chain. Throws ParseError on
/// a chain that cannot be explained as a root plus compaction leftovers,
/// and on a legacy layout (see the header comment).
SnapshotChainScan scan_snapshot_chain(const std::string& data_dir,
                                      std::size_t shard);

// --- Durability (live write side) ------------------------------------------

/// Owns the open WAL writers, the global mutation seqno counter, the
/// group-commit window and the per-shard checkpoint chains for a serving
/// process. Constructed once, attached to the frontend's shards.
class Durability {
 public:
  /// Creates the data-dir layout and opens one WalWriter per shard. The
  /// checkpoint chains start empty; a frontend's recovery adopts the chains
  /// it finds on disk before any checkpoint extends them.
  Durability(DurabilityConfig config, std::size_t shard_count);

  Durability(const Durability&) = delete;
  Durability& operator=(const Durability&) = delete;

  const DurabilityConfig& config() const { return config_; }
  std::size_t shard_count() const { return wals_.size(); }
  WalWriter& wal(std::size_t shard) { return *wals_.at(shard); }
  std::uint64_t snapshot_every() const { return config_.snapshot_every; }

  /// Next global mutation seqno (strictly increasing across all shards).
  std::uint64_t draw_seqno() {
    return next_seqno_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Advances the seqno counter past everything recovery replayed.
  void note_recovered_seqno(std::uint64_t max_seen);

  // --- Group commit --------------------------------------------------------

  /// Draws a commit ticket for a record just appended to a WAL. The
  /// release order pairs with await_durable's acquire load: a ticket a
  /// window leader observes covers a write() that already happened.
  std::uint64_t note_append() {
    return appended_.fetch_add(1, std::memory_order_release) + 1;
  }

  /// Blocks until `ticket` is covered by an fsync (fsync=batch only; the
  /// other modes are durable — or explicitly not — at append time). The
  /// first caller into an open window becomes its leader: it fsyncs every
  /// dirty log once and releases every ticket drawn before its fsync;
  /// concurrent callers queue on the window mutex and find their ticket
  /// already committed.
  void await_durable(std::uint64_t ticket) SBX_EXCLUDES(commit_mutex_);

  std::uint64_t group_commit_windows() const {
    return windows_.load(std::memory_order_relaxed);
  }

  // --- Checkpoint chain ----------------------------------------------------

  /// Continues `shard`'s checkpoint chain from the tail `scan` found.
  void adopt_chain(std::size_t shard, const SnapshotChainScan& scan)
      SBX_EXCLUDES(chain_mutex_);

  /// True when the next checkpoint of `shard` is a root: the shard has
  /// no chain yet, or its chain is due for compaction. A root must carry
  /// every user with state, any other checkpoint the users dirtied since
  /// the last one. Per-shard calls are serialized by the shard's mutation
  /// lock, so the answer holds until that shard's next checkpoint().
  bool checkpoint_wants_root(std::size_t shard) SBX_EXCLUDES(chain_mutex_);

  /// Writes `shard`'s next checkpoint segment, folding everything up to
  /// `seqno`; once a root is durable, the segments below it are unlinked.
  /// Then truncates the shard's WAL and counts the checkpoint.
  void checkpoint(std::size_t shard, std::uint64_t seqno,
                  std::vector<UserSnapshotState> users)
      SBX_EXCLUDES(chain_mutex_);

  /// Bytes written in segments that are not roots.
  std::uint64_t incremental_snapshot_bytes() const {
    return inc_bytes_.load(std::memory_order_relaxed);
  }

  // --- Shutdown / stats ----------------------------------------------------

  /// Final flush (graceful shutdown / drain).
  void sync_all();

  std::uint64_t total_records() const;
  std::uint64_t total_bytes() const;
  std::uint64_t snapshots_taken() const {
    return snapshots_.load(std::memory_order_relaxed);
  }

 private:
  /// One shard's checkpoint-chain tail, extended under chain_mutex_.
  struct ChainState {
    std::uint64_t next_index = 1;
    std::uint32_t last_crc = 0;
    std::uint64_t segments = 0;  // live segments, root included; 0 = none

    bool wants_root() const {
      return segments == 0 || segments > kCompactChainAfterSegments;
    }
  };

  // config_ and wals_ are const after the constructor (the WalWriters
  // themselves serialize their file state behind their own io mutex);
  // counters are atomics; the commit window and the checkpoint chains have
  // their own mutexes below.
  DurabilityConfig config_;
  std::vector<std::unique_ptr<WalWriter>> wals_;
  std::atomic<std::uint64_t> next_seqno_{1};
  std::atomic<std::uint64_t> snapshots_{0};

  // Group-commit window. committed_ is the highest ticket covered by an
  // fsync; appended_ is the highest ticket drawn.
  std::atomic<std::uint64_t> appended_{0};
  util::Mutex commit_mutex_{util::LockRank::kCommit,
                            "Durability::commit_mutex_"};
  std::uint64_t committed_ SBX_GUARDED_BY(commit_mutex_) = 0;
  std::atomic<std::uint64_t> windows_{0};

  // Checkpoint chains, one per shard. File writes happen under the mutex
  // (WAL truncation after it) — checkpoints are rare and per-shard callers
  // already hold their shard's mutation lock, so contention here is a
  // non-event.
  util::Mutex chain_mutex_{util::LockRank::kChain,
                           "Durability::chain_mutex_"};
  std::vector<ChainState> chains_ SBX_GUARDED_BY(chain_mutex_);
  std::atomic<std::uint64_t> inc_bytes_{0};
};

// --- Recovery --------------------------------------------------------------

struct RecoveryStats {
  std::uint64_t snapshot_users = 0;      // user entries restored from the chain
  std::uint64_t snapshot_segments = 0;   // chain segments applied, roots too
  std::uint64_t replayed_records = 0;    // WAL records re-applied
  std::uint64_t torn_dropped = 0;        // torn/corrupt tail frames dropped
  std::uint64_t duration_ms = 0;
  std::uint64_t max_seqno = 0;           // highest seqno observed
};

/// Fills `frontend`, a read-only mirror (sbx_loadgen --verify-data-dir,
/// tests), from `data_dir`: per shard, installs the checkpoint chain from
/// its root (later segments override earlier users), then replays WAL
/// records with seqno above the chain's watermark, through the same path a
/// durable frontend's own recovery and a standby's shipped records take.
/// It never writes to `data_dir`: a torn WAL tail is dropped from the
/// replay, not from the file, and compaction leftovers are skipped, not
/// deleted. The frontend must be freshly constructed with the manifest's
/// topology and without a Durability (InvalidArgument otherwise: a
/// durable frontend recovers, and repairs, its own data dir when
/// constructed).
RecoveryStats recover(ServeFrontend& frontend, const std::string& data_dir);

}  // namespace sbx::serve
