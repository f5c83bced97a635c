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
// (see interner.h): a spine of shared_ptrs to fixed leaves of kLeafEntries
// TokenCounts each, where a null leaf means all zeros. A lookup is two
// dependent loads (spine slot, leaf entry) with no string hashing. Copying
// a database copies only the spine and shares every leaf; a mutation
// clones just the leaves it writes that another database still holds
// (path copying). So the serving layer's copy-on-write train and the
// experiments' "copy a clean filter, graft an attack onto the copy" both
// cost O(leaves touched), not O(highest TokenId ever interned). Every
// train, untrain and lookup takes interned ids; only the save()/load() wire
// format is keyed by spelling, resolved through the process-wide interner.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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
  /// TokenCounts per leaf. 256 entries (2 KiB) is a measured constant, not
  /// a knob: smaller leaves cut the bytes a served train clones but grow the
  /// spine and slow batch training, which loses the flat array's ascending
  /// prefetch; larger ones clone more per train (README "Token counts").
  static constexpr std::size_t kLeafEntries = 256;
  static constexpr std::size_t kLeafBytes =
      kLeafEntries * sizeof(TokenCounts);

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
  /// The classifier's per-token inner loop — a spine load and a leaf load.
  TokenCounts counts(TokenId id) const {
    return leaf_at(id / kLeafEntries)->entries[id % kLeafEntries];
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
      for (std::size_t i = 0; i < kLeafEntries; ++i) {
        const TokenCounts& c = leaf->entries[i];
        if (c.spam != 0 || c.ham != 0) {
          fn(static_cast<TokenId>(l * kLeafEntries + i), c);
        }
      }
    }
  }

  /// Leaf memory gauge, in bytes (multiples of kLeafBytes). `held` counts
  /// every leaf this database references; `unshared` only the leaves no
  /// other database holds right now, i.e. what this copy cost on top of
  /// the databases it was copied from. The spine is not included.
  struct LeafBytes {
    std::size_t held = 0;
    std::size_t unshared = 0;
  };
  LeafBytes leaf_bytes() const;

 private:
  struct Leaf {
    std::array<TokenCounts, kLeafEntries> entries{};
  };

  /// What a null leaf reads as.
  static const Leaf kZeroLeaf;

  /// Leaf `l` for reading; kZeroLeaf when it is null or past the spine, so
  /// readers need no null branch.
  const Leaf* leaf_at(std::size_t l) const {
    const Leaf* leaf = l < spine_.size() ? spine_[l].get() : nullptr;
    return leaf != nullptr ? leaf : &kZeroLeaf;
  }

  void add(const TokenIdSet& ids, std::uint32_t copies, bool spam);
  void remove(const TokenIdSet& ids, std::uint32_t copies, bool spam);

  /// Leaf `l` made safe to write: if this database holds it alone, after
  /// an acquire that orders other holders' last reads before the writes;
  /// else cloned (shared) or created (null), growing the spine as needed.
  Leaf& writable_leaf(std::size_t l);

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
  /// leaves. Then each leaf is this database's alone, and writes skip the
  /// use_count() test and the acquire. A copy clears the flag on both
  /// sides for good (a copy's later death is not tracked), and so does
  /// merge() when it shares a leaf; a move carries it over. Atomic because
  /// several threads may copy one const database at once.
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
  std::vector<std::shared_ptr<Leaf>> spine_;
  std::size_t vocab_ = 0;  // entries with nonzero counts
  std::uint32_t nspam_ = 0;
  std::uint32_t nham_ = 0;
  std::uint64_t generation_ = next_generation();
  NeverShared never_shared_;
};

}  // namespace sbx::spambayes
