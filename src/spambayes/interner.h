// sbx/spambayes/interner.h
//
// Token interning: a process-wide string -> TokenId table with arena-backed
// storage. Every distinct token spelling is stored exactly once and mapped
// to a dense uint32 id; the hot paths (TokenDatabase train/untrain,
// ScoreEngine) then operate on flat id arrays with no string hashing and
// no per-token allocation. The id -> spelling direction is a lock-free
// chunked lookup, so reporting and the scorer's deterministic tie-break
// (compare spellings only on an exact score-distance tie) stay cheap.
//
// Concurrency contract:
//  * intern() is safe from any thread. The warm path (token already
//    interned) is entirely lock-free: one probe of an open-addressing table
//    whose slots publish ids with release semantics. Only first-time
//    insertions and table growth take the writer mutex; superseded tables
//    are retired, never freed, so stale readers stay safe (the table is
//    append-only — no deletions, ever).
//  * find() is one lock-free probe and never takes the writer mutex. A
//    miss means "not interned as of the table this probe saw"; it is
//    authoritative for any token whose interning happens-before the probe
//    (see probe() for the argument the serving layer's lookup-only
//    classify rests on). A token another thread is inserting concurrently
//    may be reported absent — callers that need it must intern() it.
//  * spelling(id) is lock-free and wait-free for any id previously returned
//    by intern(): ids are published with release semantics into chunks that
//    never move once allocated.
//  * ids are assigned in first-intern order. Nothing in the system may
//    depend on the numeric order of ids (it varies with thread scheduling);
//    determinism always comes from comparing spellings.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "util/thread_annotations.h"

namespace sbx::spambayes {

/// Dense token identifier assigned by a TokenInterner.
using TokenId = std::uint32_t;

/// A list of token ids in occurrence order (may contain duplicates).
using TokenIdList = std::vector<TokenId>;

/// A deduplicated, ascending-sorted id set — the canonical message
/// representation every train, untrain and score takes.
using TokenIdSet = std::vector<TokenId>;

/// Append-only string interning table. See the header comment for the
/// concurrency contract.
class TokenInterner {
 public:
  TokenInterner();
  ~TokenInterner();
  TokenInterner(const TokenInterner&) = delete;
  TokenInterner& operator=(const TokenInterner&) = delete;

  /// Returns the id for `token`, inserting it on first sight. The spelling
  /// is copied into the interner's arena; the caller's buffer may die.
  TokenId intern(std::string_view token) SBX_EXCLUDES(write_mutex_);

  /// Returns the id for `token` if it is interned; never inserts and never
  /// locks (one probe of the current table). A miss is authoritative for
  /// every token whose intern() happened-before this call; see probe().
  std::optional<TokenId> find(std::string_view token) const;

  /// The spelling of an interned id. Lock-free; the returned view lives as
  /// long as the interner. Throws InvalidArgument for ids never returned by
  /// intern().
  std::string_view spelling(TokenId id) const;

  /// Number of distinct tokens interned so far.
  std::size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Total arena bytes reserved for spellings (capacity, not live bytes).
  std::size_t arena_bytes() const SBX_EXCLUDES(write_mutex_);

 private:
  // id -> spelling chunks: 4096 entries each, up to 16.7M ids. Chunks are
  // allocated on demand and never move, which is what makes spelling()
  // lock-free.
  static constexpr std::size_t kChunkBits = 12;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 12;
  static constexpr std::size_t kArenaBlockBytes = std::size_t{1} << 16;
  static constexpr std::size_t kInitialTableCapacity = 1024;

  struct Chunk {
    std::array<std::string_view, kChunkSize> entries;
  };

  /// Open-addressing hash table over interned ids. Slots hold id + 1 (0 =
  /// empty) and are published with release stores; lookups linear-probe and
  /// compare spellings. Append-only: capacity doubles by building a new
  /// table and atomically swapping the pointer; old tables are retired.
  struct Table {
    explicit Table(std::size_t capacity_in);
    std::size_t capacity;
    std::size_t mask;
    std::unique_ptr<std::atomic<std::uint32_t>[]> slots;
  };

  /// Spelling lookup without the public bounds check — valid for any id
  /// read from a published table slot.
  std::string_view spelling_unchecked(TokenId id) const {
    const Chunk* chunk =
        chunks_[id >> kChunkBits].load(std::memory_order_acquire);
    return chunk->entries[id & (kChunkSize - 1)];
  }

  /// Lock-free probe of `table`; nullopt when `token` has no slot there.
  ///
  /// Why a miss on the table find() acquires is authoritative for lookup-
  /// only classify (serve/frontend.h): classify first acquire-loads the
  /// user's overlay snapshot, then probes.
  ///  1. Every token with nonzero counts in that snapshot was interned
  ///     before the snapshot's release-store publish: train tokenizes
  ///     (interning) before apply_mutation, and recovery and replication
  ///     intern before they install. The base database is trained before
  ///     the frontend exists. So the intern's place() into the then-current
  ///     table, and that table's publish in table_, happen-before the probe.
  ///  2. A table grown after that intern is built under write_mutex_ from
  ///     every id below size_, the token's id included, and is published
  ///     in table_ with a release store only once fully built.
  /// Whichever table the probe's acquire-load of table_ returns therefore
  /// holds the token, so a miss means zero counts in the base and in the
  /// snapshot — a token that scores x and never enters delta(E).
  std::optional<TokenId> probe(const Table& table, std::size_t hash,
                               std::string_view token) const;

  /// Inserts an id into `table` at its hash position. Static and
  /// annotation-free on purpose: it also runs against not-yet-published
  /// grow tables that no thread can see.
  static void place(Table& table, std::size_t hash, TokenId id);

  /// Copies `token` into the arena (writer mutex held — compiler-checked).
  std::string_view store(std::string_view token) SBX_REQUIRES(write_mutex_);

  // Lock-free read side: the current table pointer, the id -> spelling
  // chunks and the published size are atomics with release/acquire
  // pairing; they are deliberately NOT guarded by the writer mutex.
  std::atomic<Table*> table_;
  mutable util::Mutex write_mutex_{util::LockRank::kLeaf,
                                   "TokenInterner::write_mutex_"};
  // Writer-side growth state: every table ever built (retired tables stay
  // readable), the spelling arena and its fill cursor.
  std::vector<std::unique_ptr<Table>> tables_ SBX_GUARDED_BY(write_mutex_);
  std::vector<std::unique_ptr<char[]>> arena_ SBX_GUARDED_BY(write_mutex_);
  std::size_t arena_block_used_ SBX_GUARDED_BY(write_mutex_) = 0;
  std::size_t arena_block_size_ SBX_GUARDED_BY(write_mutex_) = 0;
  std::size_t arena_total_ SBX_GUARDED_BY(write_mutex_) = 0;
  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
  std::atomic<std::uint32_t> size_{0};
};

/// The process-wide interner every Filter/TokenDatabase shares. Using one
/// table means a TokenizedDataset interned once is valid for every filter
/// copy an experiment makes.
TokenInterner& global_interner();

}  // namespace sbx::spambayes
