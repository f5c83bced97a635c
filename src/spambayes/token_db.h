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
// Counts live in a flat std::vector<TokenCounts> indexed by interned
// TokenId (see interner.h): train/untrain/lookup are raw array accesses
// with no string hashing, and snapshotting a database (experiments copy a
// clean filter, then graft attacks onto the copy) is a single memcpy-style
// vector copy instead of a rehash. The string-keyed API and the save()/
// load() wire format are preserved through the process-wide interner.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spambayes/interner.h"
#include "spambayes/tokenizer.h"

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
  TokenDatabase() = default;

  /// Records `copies` spam emails, each containing exactly the tokens in
  /// `ids` (a deduplicated id set, see unique_token_ids()). The *_ids
  /// methods are the hot path; the string-set methods intern and forward.
  /// (Distinct names, not overloads: a two-element braced string list would
  /// otherwise ambiguously match vector<uint32_t>'s iterator-pair
  /// constructor.)
  /// Throws InvalidArgument, leaving contents and generation unchanged,
  /// when a count would pass 2^32 - 1.
  void train_spam_ids(const TokenIdSet& ids, std::uint32_t copies = 1);
  void train_spam(const TokenSet& tokens, std::uint32_t copies = 1);

  /// Records `copies` ham emails with the given token set.
  void train_ham_ids(const TokenIdSet& ids, std::uint32_t copies = 1);
  void train_ham(const TokenSet& tokens, std::uint32_t copies = 1);

  /// Exactly reverses a train_spam call with the same arguments.
  /// Throws InvalidArgument if the counts would go negative (i.e. the
  /// message was never trained).
  void untrain_spam_ids(const TokenIdSet& ids, std::uint32_t copies = 1);
  void untrain_spam(const TokenSet& tokens, std::uint32_t copies = 1);

  /// Exactly reverses a train_ham call with the same arguments.
  void untrain_ham_ids(const TokenIdSet& ids, std::uint32_t copies = 1);
  void untrain_ham(const TokenSet& tokens, std::uint32_t copies = 1);

  /// Number of spam / ham training emails (NS, NH).
  std::uint32_t spam_count() const { return nspam_; }
  std::uint32_t ham_count() const { return nham_; }

  /// Counts for one interned token; zeros if the id was never trained here.
  /// The classifier's per-token inner loop — a bounds check and an indexed
  /// load.
  TokenCounts counts(TokenId id) const {
    return id < counts_.size() ? counts_[id] : TokenCounts{};
  }

  /// Counts for one token spelling; zeros if unseen.
  TokenCounts counts(std::string_view token) const;

  /// Number of distinct tokens with nonzero counts.
  std::size_t vocabulary_size() const { return vocab_; }

  /// Cache-invalidation stamp with a process-wide uniqueness guarantee:
  /// every mutation (train_*/untrain_*, merge, load) assigns a value drawn
  /// from one process-global monotonic counter, so *no two distinct
  /// database states ever share a generation*. Copies keep the stamp (a
  /// copy IS the same state); the first mutation of either side moves the
  /// mutated one to a value never used before. Hence `generation() ==
  /// cached_generation` proves the contents are bit-identical to what was
  /// cached — the invariant ScoreEngine's memoization rests on. No-op
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

  /// Parses the save() format. Throws ParseError on malformed input.
  static TokenDatabase load(std::istream& in);

  /// Convenience file wrappers; throw IoError on filesystem failure.
  void save_file(const std::string& path) const;
  static TokenDatabase load_file(const std::string& path);

  /// Snapshot of (token, counts) for every token with nonzero counts,
  /// sorted by spelling. Materialized per call; iterate the flat
  /// id_counts() table for hot loops.
  std::vector<std::pair<std::string, TokenCounts>> tokens() const;

  /// The raw id-indexed table (ids at or past the end are all-zero).
  const std::vector<TokenCounts>& id_counts() const { return counts_; }

 private:
  void add(const TokenIdSet& ids, std::uint32_t copies, bool spam);
  void remove(const TokenIdSet& ids, std::uint32_t copies, bool spam);

  /// Next value of the process-global generation counter (atomic, starts
  /// at 1 so 0 can mean "nothing observed yet" in caches).
  static std::uint64_t next_generation();

  std::vector<TokenCounts> counts_;  // indexed by TokenId
  std::size_t vocab_ = 0;            // entries with nonzero counts
  std::uint32_t nspam_ = 0;
  std::uint32_t nham_ = 0;
  std::uint64_t generation_ = next_generation();
};

}  // namespace sbx::spambayes
