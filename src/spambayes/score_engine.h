// sbx/spambayes/score_engine.h
//
// The one SpamBayes scorer (paper §2.3, Eq. 1-4): per-token f(w), the
// delta(E) selection of the strongest tokens and the Fisher/chi-square
// combination into I(E). Classifier, Filter, the serving frontend and the
// experiment loops all end in one selection/combine routine, which runs
// over one of two per-token value sources:
//
//  * Memoized (score_ids; score_batch without an overlay): f(w), its
//    log(f)/log1p(-f) pair, its distance from 0.5 and an admission flag,
//    computed once per (token, database generation) into a flat vector
//    indexed by TokenId. The database only changes at training events, so
//    classify loops skip the libm calls entirely once warm.
//  * Fresh (score_fresh; score_batch with an overlay): f(w) from the
//    64-bit sum of a base's and an overlay's counts, per message, with
//    logs only for the <= max_discriminators selected tokens. It never
//    reads, writes or invalidates the memo.
//
// Both run the same floating-point operations on the same inputs in the
// same candidate order, so they agree bit for bit with each other and
// with a database trained on base + overlay messages
// (tests/spambayes/interned_equivalence_test.cpp, EXPECT_EQ on doubles).
//
// Input order: a message is a set of distinct ids in any order. delta(E)
// is selected and summed in a strict total order (distance from 0.5 desc,
// spelling asc), so the score bits do not depend on the order the ids
// arrive in; only the evidence view follows the input order. Served
// classify relies on this and passes its ids in first-occurrence order,
// unsorted (Filter::message_known_token_ids).
//
// Invalidation: TokenDatabase::generation() is process-globally unique
// per mutation, so `generation() == cached` proves the memo exact; any
// train/untrain/merge/load moves it and the next memoized call refills
// lazily. A batch scores one snapshot: mutating a database it reads from
// the sink throws on the next message.
//
// Thread ownership: an engine is mutable scratch, one per thread.
// for_current_thread() hands out a thread_local engine, which is what lets
// a shared *const* Filter be classified from many threads at once.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "spambayes/classifier.h"
#include "spambayes/interner.h"
#include "spambayes/options.h"
#include "spambayes/token_db.h"

namespace sbx::spambayes {

/// One scored message as seen by a batch sink: the aggregate fields of
/// ScoreIdResult plus an evidence view. `evidence` aliases the engine's
/// reused scratch buffer — valid only for the duration of the sink call
/// (copy it if you need it afterwards). This is what makes the batch path
/// allocation-free per message.
struct BatchScore {
  double score = 0.5;
  double spam_evidence = 0.0;
  double ham_evidence = 0.0;
  std::size_t tokens_used = 0;
  Verdict verdict = Verdict::unsure;
  std::span<const TokenIdEvidence> evidence;  // in input-id order
};

/// The scorer. Owns the per-token memo and per-message scratch buffers.
class ScoreEngine {
 public:
  explicit ScoreEngine(ClassifierOptions opts = {});

  /// Scores one deduplicated id set (any order; evidence entries follow
  /// the input order) against `db` through the memo.
  ScoreIdResult score_ids(const TokenDatabase& db, const TokenIdList& ids);

  /// Scores `ids` against the summed counts of `base` and `overlay` (null:
  /// `base` alone) on the fresh source, leaving the memo untouched.
  ScoreIdResult score_fresh(const TokenDatabase& base,
                            const TokenDatabase* overlay,
                            const TokenIdList& ids);

  /// Zero-allocation batch path: scores ids_of(i) for i in [0, count) and
  /// calls sink(i, const BatchScore&) for each. ids_of must return a
  /// reference to a TokenIdList (deduplicated ids, any order). With a
  /// null `overlay` the batch runs on the memo over `base`; otherwise on
  /// the fresh source over base + overlay. The databases are one snapshot
  /// for the whole batch: mutating either from the sink throws
  /// sbx::InvalidArgument on the next message (generation mismatch).
  template <typename GetIds, typename Sink>
  void score_batch(const TokenDatabase& base, const TokenDatabase* overlay,
                   std::size_t count, GetIds&& ids_of, Sink&& sink) {
    if (overlay == nullptr) bind(base);
    const std::uint64_t base_generation = base.generation();
    const std::uint64_t overlay_generation =
        overlay != nullptr ? overlay->generation() : 0;
    BatchScore out;
    for (std::size_t i = 0; i < count; ++i) {
      check_generation(base, base_generation);
      if (overlay != nullptr) check_generation(*overlay, overlay_generation);
      score_one(base, overlay, ids_of(i), evidence_, out);
      sink(i, static_cast<const BatchScore&>(out));
    }
  }

  /// Convenience overload over a contiguous array of id lists.
  template <typename Sink>
  void score_ids_batch(const TokenDatabase& db,
                       std::span<const TokenIdList> messages, Sink&& sink) {
    score_batch(
        db, nullptr, messages.size(),
        [&](std::size_t i) -> const TokenIdList& { return messages[i]; },
        std::forward<Sink>(sink));
  }

  /// Swaps the classifier options. Invalidates the memo only when a
  /// memo-relevant parameter (s, x, minimum_prob_strength) actually
  /// changed; cutoffs and max_discriminators apply at combine time and
  /// cost nothing to swap.
  void rebind_options(const ClassifierOptions& opts);

  const ClassifierOptions& options() const { return opts_; }

  /// Generation of the last database this engine memoized (0 = none
  /// yet). Exposed for tests of the invalidation contract.
  std::uint64_t cached_generation() const { return generation_; }

  /// The calling thread's engine, rebound to `opts`. Filter::classify_ids
  /// and Filter::classify_batch route through this, which keeps a shared
  /// const Filter safely classifiable from any number of threads.
  static ScoreEngine& for_current_thread(const ClassifierOptions& opts);

 private:
  /// log(f) and log1p(-f) of a discriminator's score f.
  struct LogTerms {
    double log_f = 0.0;
    double log_1mf = 0.0;
  };

  /// Memoized per-token values, exact for the bound (generation, options)
  /// pair iff epoch == engine epoch. logs/spell_prefix are only meaningful
  /// when strong (weak tokens are never selected into delta(E)).
  struct TokenMemo {
    double f = 0.5;
    LogTerms logs;
    double distance = 0.0;
    std::uint64_t spell_prefix = 0;
    std::uint64_t epoch = 0;  // 0 never matches (engine epochs start at 1)
    bool strong = false;
  };

  /// Sort key packing (distance desc, spelling-prefix asc) into one
  /// 128-bit integer: the high lane is the bitwise complement of the
  /// distance's IEEE-754 bits (distance >= 0, so raw bits order doubles
  /// numerically and the complement flips the direction), the low lane
  /// the spelling's first 8 bytes as a big-endian integer. Ascending key
  /// order is then exactly the (distance desc, spelling asc) total order,
  /// except for prefix collisions, which the comparator resolves with a
  /// full spelling comparison.
  // GCC/Clang extension; __extension__ silences -Wpedantic (the build has
  // no 128-bit-free fallback need on the supported toolchains).
  __extension__ typedef unsigned __int128 SortKey;

  struct Candidate {
    SortKey key;
    std::uint32_t index;  // into the message's evidence
  };

  /// The clamp + libm calls behind LogTerms. With s > 0 the smoothed
  /// score is strictly inside (0,1); the clamp keeps a degenerate
  /// configuration (s == 0) from producing log(0).
  static LogTerms log_terms(double f);

  /// Re-syncs the memo to db's generation, invalidating it when it moved.
  void bind(const TokenDatabase& db);

  /// Throws when db no longer matches the generation a batch bound.
  void check_generation(const TokenDatabase& db, std::uint64_t bound) const;

  /// The memo entry for `id`, filled on first use this epoch.
  const TokenMemo& memo_for(const TokenDatabase& db, TokenId id);

  /// Scores one message into `evidence` (cleared first) and `out`: the
  /// memo over `base` when `overlay` is null (bind(base) first), else the
  /// fresh source over base + overlay.
  void score_one(const TokenDatabase& base, const TokenDatabase* overlay,
                 const TokenIdList& ids,
                 std::vector<TokenIdEvidence>& evidence, BatchScore& out);

  /// score_one into a self-contained ScoreIdResult.
  ScoreIdResult score_to_result(const TokenDatabase& base,
                                const TokenDatabase* overlay,
                                const TokenIdList& ids);

  ClassifierOptions opts_;
  std::vector<TokenMemo> memo_;  // indexed by TokenId
  std::uint64_t epoch_ = 1;      // bumped on every invalidation
  std::uint64_t generation_ = 0;  // db generation the memo is exact for
  double ns_ = 0.0;               // db.spam_count() as double, cached
  double nh_ = 0.0;
  // Per-message scratch, reused across the whole batch:
  std::vector<TokenIdEvidence> evidence_;
  std::vector<Candidate> candidates_;
};

}  // namespace sbx::spambayes
