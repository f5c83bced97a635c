// sbx/spambayes/classifier.h
//
// The public face of the Robinson/Fisher scoring core of SpamBayes (paper
// §2.3, Eq. 1-4): per-token spam scores smoothed toward a prior, combined
// across the most significant tokens with Fisher's method, thresholded
// into ham / unsure / spam.
//
// Classifier holds no scoring logic of its own. Its score_ids methods
// forward to ScoreEngine's fresh source (score_engine.h), the one
// implementation of delta(E) selection and the Fisher combination, on a
// per-thread engine kept apart from the one Filter uses. They
// score interned id arrays against one database or the virtual merge of a
// base database and an overlay; evidence carries ids, whose spellings
// TokenInterner::spelling resolves. The types and verdict cutoffs every
// scoring path shares live here too.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "spambayes/interner.h"
#include "spambayes/options.h"
#include "spambayes/token_db.h"

namespace sbx::spambayes {

/// Three-way SpamBayes verdict.
enum class Verdict { ham, unsure, spam };

/// Human-readable verdict name ("ham" / "unsure" / "spam").
std::string_view to_string(Verdict v);

/// True when `v` is no spammier than `goal` under the ordering
/// ham < unsure < spam — the success test every Exploratory (evasion)
/// attack applies to its goal verdict.
bool verdict_at_most(Verdict v, Verdict goal);

/// One token's contribution to a score, exposed for analysis (Figure 4
/// plots these before/after an attack). Resolve the spelling on demand via
/// TokenInterner::spelling.
struct TokenIdEvidence {
  TokenId id = 0;
  double score = 0.5;  // f(w) from Eq. 2
  bool used = false;   // selected into delta(E)?
};

/// Full scoring breakdown for one message.
struct ScoreIdResult {
  double score = 0.5;           // I(E) in [0,1], Eq. 3
  double spam_evidence = 0.0;   // H(E) in the paper's notation, Eq. 4
  double ham_evidence = 0.0;    // S(E)
  std::size_t tokens_used = 0;  // n = |delta(E)|
  Verdict verdict = Verdict::unsure;
  std::vector<TokenIdEvidence> evidence;  // one per distinct id, input order
};

/// Stateless scorer over a TokenDatabase snapshot. Every scoring method
/// forwards to ScoreEngine::score_fresh, so repeated calls never build a
/// score table (use Filter::classify_ids or a ScoreEngine for long
/// loops).
class Classifier {
 public:
  explicit Classifier(ClassifierOptions opts = {});

  /// f(w) per Eq. 1-2 for an interned token against the given database.
  double token_score(const TokenDatabase& db, TokenId id) const;

  /// Scores a deduplicated id set. `ids` may be in any order (the score is
  /// order-independent; evidence entries follow the input order). The
  /// deterministic tie-break compares interned spellings, never raw id
  /// values, so results do not depend on interning order.
  ScoreIdResult score_ids(const TokenDatabase& db,
                          const TokenIdList& ids) const;

  /// Overlay-aware scoring view: scores `ids` against the virtual merge of
  /// a shared immutable `base` database and a per-user `overlay` delta,
  /// without materializing the merge. Per-token counts and the class
  /// totals NS/NH are summed in 64 bits — exactly the values a database
  /// trained on both message sets would hold (counts are additive) — so
  /// every score is bit-identical to score_ids() on such a merged database
  /// whenever its uint32 counts do not wrap.
  ScoreIdResult score_ids(const TokenDatabase& base,
                          const TokenDatabase& overlay,
                          const TokenIdList& ids) const;

  /// Maps a score I(E) to a verdict using the configured cutoffs:
  /// ham for [0, theta0], unsure for (theta0, theta1], spam for (theta1, 1].
  Verdict verdict_for(double score) const;

  /// Verdict with explicit cutoffs (the dynamic-threshold defense swaps
  /// thresholds without re-scoring).
  static Verdict verdict_for(double score, double ham_cutoff,
                             double spam_cutoff);

  const ClassifierOptions& options() const { return opts_; }

 private:
  ClassifierOptions opts_;
};

}  // namespace sbx::spambayes
