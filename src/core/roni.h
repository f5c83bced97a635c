// sbx/core/roni.h
//
// Reject On Negative Impact (RONI) defense (§5.1): before admitting a query
// email Q into the training set, measure its marginal effect. Sample a
// small training set T and validation set V from the clean pool several
// times; train with and without Q; if adding Q consistently knocks down the
// number of correctly classified ham messages in V, reject Q.
//
// The paper's preliminary numbers — T=20, V=50, 5 resamples — find every
// dictionary-attack email costs >= 6.8 ham-as-ham messages on average while
// non-attack spam costs at most 4.4, so a simple threshold separates them
// perfectly (and, as the paper notes, fails against the focused attack,
// whose impact only shows on the future target).
#pragma once

#include <cstddef>
#include <vector>

#include "corpus/dataset.h"
#include "spambayes/filter.h"
#include "util/random.h"

namespace sbx::core {

/// RONI parameters (defaults are the paper's §5.1 configuration).
struct RoniConfig {
  std::size_t train_size = 20;       // |T|
  std::size_t validation_size = 50;  // |V|
  std::size_t resamples = 5;         // independent (T, V) draws
  /// Reject when the mean decrease in ham-classified-as-ham on V exceeds
  /// this many messages. Default: midpoint of the paper's 4.4 / 6.8
  /// separation.
  double rejection_threshold = 5.5;
};

/// Outcome of assessing one query email.
struct RoniAssessment {
  /// Mean over resamples of [ham-as-ham on V before] - [after] training Q.
  double mean_ham_as_ham_decrease = 0.0;
  /// Per-resample decreases (size == resamples).
  std::vector<double> per_trial;
  /// True when the email should be excluded from training.
  bool rejected = false;
};

/// The RONI filter. Stateless apart from configuration; the clean pool and
/// RNG are supplied per call so experiments control determinism.
class RoniDefense {
 public:
  RoniDefense(RoniConfig config, spambayes::FilterOptions filter_options);

  /// Measures the impact of training the query email, given as its id set
  /// (Filter::message_token_ids), as spam, using (T, V) pairs resampled
  /// from `pool`. The pool must contain at least train_size +
  /// validation_size messages. Every trial trains, untrains and
  /// classifies over id arrays only.
  RoniAssessment assess(const spambayes::TokenIdSet& query_ids,
                        const corpus::TokenizedDataset& pool,
                        util::Rng& rng) const;

  const RoniConfig& config() const { return config_; }

 private:
  RoniConfig config_;
  spambayes::FilterOptions filter_options_;
};

}  // namespace sbx::core
