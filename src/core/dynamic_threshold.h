// sbx/core/dynamic_threshold.h
//
// Dynamic threshold defense (§5.2). Distribution-shifting attacks raise the
// scores of ham and spam alike; rankings are more robust than absolute
// scores, so the defense re-derives the theta0/theta1 cutoffs from data
// instead of SpamBayes' static 0.15/0.9:
//
//   1. split the (possibly poisoned) training set in half;
//   2. train a filter F on one half;
//   3. score the other half (the validation set V) with F;
//   4. with g(t) = NS<(t) / (NS<(t) + NH>(t)) — NS<(t) spam scored below t,
//      NH>(t) ham scored above t — pick theta0 with g(theta0) ~ ham_target
//      and theta1 with g(theta1) ~ spam_target. The paper evaluates
//      (0.05, 0.95) ("Threshold-.05") and (0.10, 0.90) ("Threshold-.10").
//
// The resulting thresholds are applied to the production filter trained on
// the full training set (the paper leaves this final step unspecified; see
// DESIGN.md §5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "corpus/dataset.h"
#include "spambayes/filter.h"
#include "util/random.h"

namespace sbx::core {

/// Selected cutoff pair.
struct ThresholdPair {
  double theta0 = 0.15;
  double theta1 = 0.9;
};

/// Defense parameters. `ham_target`/`spam_target` are the g(t) levels for
/// theta0/theta1; the paper's two variants are (0.05, 0.95) and (0.10,
/// 0.90).
struct DynamicThresholdConfig {
  double ham_target = 0.05;
  double spam_target = 0.95;
};

/// Scored validation email: the classifier score plus ground truth.
struct ScoredExample {
  double score = 0.5;
  corpus::TrueLabel label = corpus::TrueLabel::ham;
};

/// Computes g(t) for one threshold over a scored validation set.
double threshold_utility(const std::vector<ScoredExample>& scored, double t);

/// Picks (theta0, theta1) from a scored validation set per the rule above.
/// theta0 is the largest candidate threshold with g <= ham_target; theta1
/// the smallest with g >= spam_target; candidates are midpoints between
/// adjacent distinct scores plus the extremes {0, 1}. Guarantees
/// theta0 <= theta1.
ThresholdPair select_thresholds(const std::vector<ScoredExample>& scored,
                                const DynamicThresholdConfig& config);

/// End-to-end defense over a tokenized training set (which may already
/// contain attack messages): half/half split with `rng`, train on one half,
/// score the other, select thresholds. `extra_spam_batches` lets the
/// experiment harness inject batched attack copies into both halves the
/// way they would arrive in a real poisoned inbox (split evenly).
struct SpamBatch {
  spambayes::TokenIdSet ids;
  std::uint32_t copies = 1;

  SpamBatch() = default;
  SpamBatch(spambayes::TokenIdSet ids_in, std::uint32_t copies_in)
      : ids(std::move(ids_in)), copies(copies_in) {}
};

ThresholdPair compute_dynamic_thresholds(
    const corpus::TokenizedDataset& training,
    const std::vector<std::size_t>& training_indices,
    const std::vector<SpamBatch>& extra_spam_batches,
    const spambayes::FilterOptions& filter_options,
    const DynamicThresholdConfig& config, util::Rng& rng);

}  // namespace sbx::core
