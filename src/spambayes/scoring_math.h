// sbx/spambayes/scoring_math.h
//
// The single definition of Eq. 1-2 (per-token spam score smoothed toward
// the prior) and of the delta(E) admission test. ScoreEngine (the only
// scorer) evaluates them for its score tables and for fresh counts of one
// database or base + overlay; the serving frontend uses them to check its
// lookup-only precondition, and the obfuscation attack to rank words the
// interner may not hold.
#pragma once

#include <cmath>

#include "spambayes/options.h"
#include "spambayes/token_db.h"

namespace sbx::spambayes::detail {

/// Eq. 1-2 over raw presence counts. Expressed through per-class presence
/// ratios, which is exactly NH*NS(w) / (NH*NS(w) + NS*NH(w)) when both
/// class counts are nonzero and degrades gracefully when one class is
/// empty; Eq. 2 then shrinks toward the prior x with strength s. Counts
/// arrive as doubles: every integer count below 2^53 converts exactly, so
/// a uint32 count and a wider sum of the same value give the same bits.
inline double score_from_counts(double spam, double ham, double ns,
                                double nh, const ClassifierOptions& opts) {
  const double spam_ratio = ns > 0 ? spam / ns : 0.0;
  const double ham_ratio = nh > 0 ? ham / nh : 0.0;
  double ps = 0.5;
  if (spam_ratio + ham_ratio > 0) {
    ps = spam_ratio / (spam_ratio + ham_ratio);
  }
  const double n_w = spam + ham;
  const double s = opts.unknown_word_strength;
  const double x = opts.unknown_word_prob;
  return (s * x + n_w * ps) / (s + n_w);
}

inline double score_from_counts(TokenCounts c, double ns, double nh,
                                const ClassifierOptions& opts) {
  return score_from_counts(c.spam, c.ham, ns, nh, opts);
}

/// A token's distance from neutral, |f - 0.5| — the delta(E) sort key.
inline double distance_from_neutral(double f) { return std::fabs(f - 0.5); }

/// The delta(E) admission test: only tokens strictly farther than
/// minimum_prob_strength from 0.5 are discriminators. A NaN distance
/// compares false, so it is never admitted.
inline bool admits(double distance, const ClassifierOptions& opts) {
  return distance > opts.minimum_prob_strength;
}

}  // namespace sbx::spambayes::detail
