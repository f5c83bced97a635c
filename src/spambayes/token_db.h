// sbx/spambayes/token_db.h
//
// The SpamBayes training state: per-token email-presence counts
// (NS(w), NH(w)) plus the global email counts (NS, NH). Supports exact
// untraining (required by the RONI defense, which measures the marginal
// impact of individual messages) and batched training of identical messages
// (the dictionary attack sends thousands of identical emails; adding them
// with one O(|tokens|) update is mathematically identical because all
// counts are additive).
//
// Counts live in a two-level persistent array indexed by interned TokenId
// (see interner.h): a spine of reference-counted pointers to leaves of
// kLeafEntries ids each, where a null leaf means all zeros. A leaf has two
// forms. A sparse leaf, which counts at most kSparseMax ids, stores only
// those entries: a 256-bit presence bitmap and the counts packed in
// ascending offset order, so a lookup is a bit test and a popcount rank.
// A dense leaf stores all kLeafEntries counts and is indexed directly. A
// write that would take a sparse leaf past kSparseMax promotes it; a leaf
// never goes back. A lookup is two dependent loads (spine slot, leaf
// entry) plus one branch on the form, with no string hashing. Copying a
// database copies only the spine and shares every leaf; a mutation clones
// just the leaves it writes that another database still holds (path
// copying). So the serving layer's copy-on-write train and the
// experiments' "copy a clean filter, graft an attack onto the copy" both
// cost O(leaves touched), not O(highest TokenId ever interned), and a
// served user's overlay, whose ids are scattered thinly over the whole id
// range, costs about the tokens it counts. Every train, untrain and lookup
// takes interned ids; only the save()/load() wire format is keyed by
// spelling, resolved through the process-wide interner.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#if __has_include(<sys/single_threaded.h>)
#include <sys/single_threaded.h>
#define SBX_HAS_SINGLE_THREADED 1
#else
#define SBX_HAS_SINGLE_THREADED 0
#endif

#include "spambayes/interner.h"

namespace sbx::spambayes {

/// Per-token presence counts.
struct TokenCounts {
  std::uint32_t spam = 0;  // NS(w): spam emails containing w
  std::uint32_t ham = 0;   // NH(w): ham emails containing w

  bool operator==(const TokenCounts&) const = default;
};

/// Mutable training database. Copyable (experiments snapshot a clean
/// database, then graft attacks onto copies).
class TokenDatabase {
 public:
  /// Ids per leaf. 256 (2 KiB dense) is a measured constant, not a knob:
  /// smaller leaves cut the bytes a served train clones but grow the spine
  /// and slow batch training, which loses the flat array's ascending
  /// prefetch; larger ones clone more per train (README "Token counts").
  static constexpr std::size_t kLeafEntries = 256;
  /// Most ids a sparse leaf counts; one more promotes it to dense. Also a
  /// measured constant: 92% of a served user's leaves count at most 32
  /// ids, and a larger bound slows the inserts of training.
  static constexpr std::size_t kSparseMax = 32;
  /// A leaf's fixed part: its reference count, form, rank bases and
  /// presence bitmap. The counts follow it in the same allocation.
  static constexpr std::size_t kLeafHeaderBytes = 48;
  /// Bytes of a dense leaf.
  static constexpr std::size_t kLeafBytes =
      kLeafHeaderBytes + kLeafEntries * sizeof(TokenCounts);
  /// Bytes of a sparse leaf allocated to count `ids` ids (<= kSparseMax).
  static constexpr std::size_t sparse_leaf_bytes(std::size_t ids) {
    return kLeafHeaderBytes + sparse_room(ids) * sizeof(TokenCounts);
  }

  TokenDatabase() = default;

  /// Records `copies` spam emails, each containing exactly the tokens in
  /// `ids` (a deduplicated id set, see unique_token_ids()).
  /// Throws InvalidArgument, leaving contents and generation unchanged,
  /// when a count would pass 2^32 - 1.
  void train_spam_ids(const TokenIdSet& ids, std::uint32_t copies = 1);

  /// Records `copies` ham emails with the given token set.
  void train_ham_ids(const TokenIdSet& ids, std::uint32_t copies = 1);

  /// Exactly reverses a train_spam call with the same arguments.
  /// Throws InvalidArgument if the counts would go negative (i.e. the
  /// message was never trained).
  void untrain_spam_ids(const TokenIdSet& ids, std::uint32_t copies = 1);

  /// Exactly reverses a train_ham call with the same arguments.
  void untrain_ham_ids(const TokenIdSet& ids, std::uint32_t copies = 1);

  /// Number of spam / ham training emails (NS, NH).
  std::uint32_t spam_count() const { return nspam_; }
  std::uint32_t ham_count() const { return nham_; }

  /// Counts for one interned token; zeros if the id was never trained here.
  /// The classifier's per-token inner loop — a spine load, a branch on the
  /// leaf's form and a leaf load.
  TokenCounts counts(TokenId id) const {
    return leaf_at(id / kLeafEntries)->get(id % kLeafEntries);
  }

  /// Number of distinct tokens with nonzero counts.
  std::size_t vocabulary_size() const { return vocab_; }

  /// One past the highest id the spine covers (spine length times
  /// kLeafEntries): every id with counts is below it, and it is what a
  /// walk over the counts (for_each_counted) visits. O(1).
  std::size_t id_range() const { return spine_.size() * kLeafEntries; }

  /// Cache-invalidation stamp with a process-wide uniqueness guarantee:
  /// every mutation (train_*/untrain_*, merge, load) assigns a value drawn
  /// from one process-global monotonic counter, so *no two distinct
  /// database states ever share a generation*. Copies keep the stamp (a
  /// copy IS the same state); the first mutation of either side moves the
  /// mutated one to a value never used before. Hence `generation() ==
  /// cached_generation` proves the contents are bit-identical to what was
  /// cached — the invariant ScoreEngine's score tables rest on. No-op
  /// calls (copies == 0) do not bump.
  std::uint64_t generation() const { return generation_; }

  /// Merges another database into this one (counts add; used to combine
  /// per-shard training). Throws InvalidArgument, changing nothing, if any
  /// class total or token count would wrap past 2^32 - 1.
  void merge(const TokenDatabase& other);

  /// Serializes to a line-oriented text format (string-keyed; independent
  /// of interner id assignment — entries are written in spelling order):
  ///   SBXDB 1
  ///   <nspam> <nham>
  ///   <spam> <ham> <token...>   (one line per token; token may contain
  ///                              spaces and extends to end of line)
  void save(std::ostream& out) const;

  /// Parses the save() format. Throws ParseError on malformed input,
  /// including a spelling that appears on two token lines.
  static TokenDatabase load(std::istream& in);

  /// Convenience file wrappers; throw IoError on filesystem failure.
  void save_file(const std::string& path) const;
  static TokenDatabase load_file(const std::string& path);

  /// Snapshot of (token, counts) for every token with nonzero counts,
  /// sorted by spelling. Materialized per call; use for_each_counted() for
  /// hot loops.
  std::vector<std::pair<std::string, TokenCounts>> tokens() const;

  /// Calls fn(TokenId, const TokenCounts&) for every token with nonzero
  /// counts, in ascending id order.
  template <typename Fn>
  void for_each_counted(Fn&& fn) const {
    for (std::size_t l = 0; l < spine_.size(); ++l) {
      const Leaf* leaf = spine_[l].get();
      if (leaf == nullptr) continue;
      leaf->for_each_entry([&](std::size_t offset, const TokenCounts& c) {
        if (c.spam != 0 || c.ham != 0) {
          fn(static_cast<TokenId>(l * kLeafEntries + offset), c);
        }
      });
    }
  }

  /// Leaf memory gauge. `held` sums the bytes of every leaf this database
  /// references, `unshared` those of the leaves no other database holds
  /// right now, i.e. what this copy cost on top of the databases it was
  /// copied from; `held_leaves` and `unshared_leaves` count those leaves.
  /// A leaf occupies what its form needs: kLeafBytes dense, or
  /// kLeafHeaderBytes plus its room sparse (sparse_leaf_bytes()). The
  /// spine and allocator overhead are not included.
  struct LeafBytes {
    std::size_t held = 0;
    std::size_t unshared = 0;
    std::size_t held_leaves = 0;
    std::size_t unshared_leaves = 0;
  };
  LeafBytes leaf_bytes() const;

 private:
  static constexpr std::size_t kWords = kLeafEntries / 64;

  /// Entries a sparse leaf has room for when it is allocated to count
  /// `ids` ids: the next power of two, at least 4, so inserts in place
  /// amortize; a clone or growth allocates this for what it will hold.
  static constexpr std::size_t sparse_room(std::size_t ids) {
    return ids <= 4 ? 4 : std::bit_ceil(ids);
  }

  /// Set bits of `x`. Spelled out because the build targets baseline
  /// x86-64, where std::popcount is a libgcc call in the lookup path.
  static unsigned popcount64(std::uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555u;
    x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fu;
    return static_cast<unsigned>((x * 0x0101010101010101u) >> 56);
  }

  /// A leaf's header. Its `room` counts follow it in one allocation
  /// (Leaf::make); `room == kLeafEntries` marks the dense form, where entry
  /// i is id offset i. In the sparse form bit i of `bits` says offset i has
  /// an entry, entries are packed in ascending offset order, and `base[w]`
  /// is the number of set bits in the words before word w. A sparse entry
  /// may hold zero counts (an untrain or an undo left it); clones and
  /// growth drop those.
  struct Leaf {
    std::atomic<std::uint32_t> refs{1};
    std::uint16_t size = 0;  // sparse: entries stored
    std::uint16_t room = 0;  // entries allocated; kLeafEntries when dense
    std::array<std::uint8_t, kWords> base{};
    std::array<std::uint64_t, kWords> bits{};

    bool dense() const { return room == kLeafEntries; }
    TokenCounts* entries() {
      return std::launder(reinterpret_cast<TokenCounts*>(this + 1));
    }
    const TokenCounts* entries() const {
      return std::launder(reinterpret_cast<const TokenCounts*>(this + 1));
    }
    bool has(std::size_t i) const {
      return (bits[i / 64] >> (i % 64) & 1) != 0;
    }
    /// Position of offset i's entry in a sparse leaf (valid if has(i)).
    std::size_t rank(std::size_t i) const {
      const std::uint64_t below = (std::uint64_t{1} << (i % 64)) - 1;
      return base[i / 64] + popcount64(bits[i / 64] & below);
    }
    TokenCounts get(std::size_t i) const {
      if (dense()) return entries()[i];
      return has(i) ? entries()[rank(i)] : TokenCounts{};
    }
    /// Offset i's entry, or null if a sparse leaf stores none.
    TokenCounts* find(std::size_t i) {
      if (dense()) return &entries()[i];
      return has(i) ? &entries()[rank(i)] : nullptr;
    }
    /// Calls fn(offset, counts) for every stored entry (all of a dense
    /// leaf's), in ascending offset order.
    template <typename Fn>
    void for_each_entry(Fn&& fn) const {
      const TokenCounts* e = entries();
      if (dense()) {
        for (std::size_t i = 0; i < kLeafEntries; ++i) fn(i, e[i]);
        return;
      }
      // The k-th set bit is the k-th entry.
      std::size_t k = 0;
      for (std::size_t w = 0; w < kWords; ++w) {
        for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
          fn(w * 64 + static_cast<std::size_t>(std::countr_zero(b)), e[k++]);
        }
      }
    }
    /// Adds a zero entry for offset i to a sparse leaf that lacks one and
    /// has room for it; returns it.
    TokenCounts& insert(std::size_t i) {
      TokenCounts* e = entries();
      const std::size_t at = rank(i);
      for (std::size_t k = size; k > at; --k) e[k] = e[k - 1];
      e[at] = TokenCounts{};
      bits[i / 64] |= std::uint64_t{1} << (i % 64);
      for (std::size_t w = i / 64 + 1; w < kWords; ++w) ++base[w];
      ++size;
      return e[at];
    }
    std::size_t bytes() const {
      return kLeafHeaderBytes + room * sizeof(TokenCounts);
    }

    /// An empty leaf with room for `room` entries and one holder; a dense
    /// one's counts are for the caller to fill.
    static Leaf* make(std::size_t room);
    static void destroy(Leaf* leaf);
  };

  /// An intrusive counted reference to a leaf: 8 bytes in the spine, and
  /// the leaf and its count are one allocation of the size its form needs.
  /// The count follows libstdc++'s std::shared_ptr: a relaxed increment and
  /// an acq_rel decrement, so a holder's reads happen-before the free, and
  /// plain ones while the process has a single thread (a copy of a served
  /// overlay's spine costs 4x more with locked instructions).
  class LeafPtr {
   public:
    LeafPtr() = default;
    explicit LeafPtr(Leaf* leaf) : leaf_(leaf) {}  // adopts one reference
    LeafPtr(const LeafPtr& from) : leaf_(from.leaf_) {
      if (leaf_ == nullptr) return;
      if (single_threaded()) {
        leaf_->refs.store(leaf_->refs.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
      } else {
        leaf_->refs.fetch_add(1, std::memory_order_relaxed);
      }
    }
    LeafPtr(LeafPtr&& from) noexcept : leaf_(std::exchange(from.leaf_, {})) {}
    LeafPtr& operator=(LeafPtr from) noexcept {
      std::swap(leaf_, from.leaf_);
      return *this;
    }
    ~LeafPtr() {
      if (leaf_ == nullptr) return;
      std::uint32_t was = 0;
      if (single_threaded()) {
        was = leaf_->refs.load(std::memory_order_relaxed);
        leaf_->refs.store(was - 1, std::memory_order_relaxed);
      } else {
        was = leaf_->refs.fetch_sub(1, std::memory_order_acq_rel);
      }
      if (was == 1) Leaf::destroy(leaf_);
    }
    Leaf* get() const { return leaf_; }
    Leaf* operator->() const { return leaf_; }
    bool operator==(std::nullptr_t) const { return leaf_ == nullptr; }

   private:
    static bool single_threaded() {
#if SBX_HAS_SINGLE_THREADED
      return __libc_single_threaded != 0;
#else
      return false;
#endif
    }

    Leaf* leaf_ = nullptr;
  };

  /// What a null leaf reads as: sparse, with no entries.
  static const Leaf kZeroLeaf;

  /// Leaf `l` for reading; kZeroLeaf when it is null or past the spine, so
  /// readers need no null branch.
  const Leaf* leaf_at(std::size_t l) const {
    const Leaf* leaf = l < spine_.size() ? spine_[l].get() : nullptr;
    return leaf != nullptr ? leaf : &kZeroLeaf;
  }

  void add(const TokenIdSet& ids, std::uint32_t copies, bool spam);
  void remove(const TokenIdSet& ids, std::uint32_t copies, bool spam);

  /// Id `id`'s entry made safe to write, inserted (as zeros) if its leaf
  /// stores none. `ahead` is the ids the caller is about to write, `id`
  /// first. The leaf is written in place if this database holds it alone,
  /// after an acquire that orders other holders' last reads before the
  /// writes, and it already stores the entry or has room for it. Otherwise
  /// a new leaf replaces it: a dense clone, or one holding the old leaf's
  /// nonzero entries with room for those `ahead` has in this leaf
  /// (promoted to dense past kSparseMax). Grows the spine as needed.
  TokenCounts& writable_entry(TokenId id, std::span<const TokenId> ahead);

  /// The body of add() and remove(): for each id, runs check(id, counts),
  /// which may throw, then apply(counts&), which returns whether the entry
  /// went from or to all zeros; returns how many did. On a throw, runs
  /// undo(counts&) on every id already applied, so nothing has changed.
  template <typename Check, typename Apply, typename Undo>
  std::size_t update(const TokenIdSet& ids, Check&& check, Apply&& apply,
                     Undo&& undo);

  /// Next value of the process-global generation counter (atomic, starts
  /// at 1 so 0 can mean "nothing observed yet" in caches).
  static std::uint64_t next_generation();

  /// Whether no other database has ever held one of this database's
  /// leaves. Then each leaf is this database's alone, and writes to the
  /// entries its leaves store skip the reference-count test and the
  /// acquire. A copy
  /// clears the flag on both sides for good (a copy's later death is not
  /// tracked), and so does merge() when it shares a leaf; a move carries
  /// it over. Atomic because several threads may copy one const database
  /// at once.
  class NeverShared {
   public:
    NeverShared() = default;
    NeverShared(const NeverShared& from) : value_(false) { from.clear(); }
    NeverShared(NeverShared&& from) noexcept : value_(from.get()) {}
    NeverShared& operator=(const NeverShared& from) {
      clear();
      from.clear();
      return *this;
    }
    NeverShared& operator=(NeverShared&& from) noexcept {
      value_.store(from.get(), std::memory_order_relaxed);
      return *this;
    }
    bool get() const { return value_.load(std::memory_order_relaxed); }
    void clear() const { value_.store(false, std::memory_order_relaxed); }

   private:
    mutable std::atomic<bool> value_{true};
  };

  // Leaf l holds ids [l * kLeafEntries, (l + 1) * kLeafEntries).
  std::vector<LeafPtr> spine_;
  std::size_t vocab_ = 0;  // entries with nonzero counts
  std::uint32_t nspam_ = 0;
  std::uint32_t nham_ = 0;
  std::uint64_t generation_ = next_generation();
  NeverShared never_shared_;
};

}  // namespace sbx::spambayes
