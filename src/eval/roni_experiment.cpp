// §5.1 driver: the RONI defense against dictionary-attack and non-attack
// spam queries.
#include "eval/corpus_pool.h"
#include "eval/experiments.h"
#include "eval/runner.h"

namespace sbx::eval {
namespace {

/// One RONI assessment outcome, merged in query order by the Runner.
struct AssessmentOutcome {
  double impact = 0.0;
  bool rejected = false;
};

void merge_outcome(RoniVariantResult& variant, const AssessmentOutcome& o) {
  variant.impact.add(o.impact);
  variant.assessed += 1;
  variant.rejected += o.rejected ? 1 : 0;
}

}  // namespace

RoniExperimentResult run_roni_experiment(const corpus::TrecLikeGenerator& gen,
                                         const std::vector<RoniQuery>& queries,
                                         const RoniExperimentConfig& config) {
  Runner runner(config.seed, config.threads);

  const std::shared_ptr<const corpus::TokenizedDataset> shared_pool =
      tokenized_pool(gen, config.pool_size, config.spam_fraction,
                     runner.fork(1), config.filter.tokenizer);
  const corpus::TokenizedDataset& pool = *shared_pool;
  const spambayes::Tokenizer tokenizer(config.filter.tokenizer);

  const core::RoniDefense defense(config.roni, config.filter);

  RoniExperimentResult result;
  result.nonattack_spam.name = "non-attack spam";

  // --- non-attack spam queries: fresh spam emails, one assessment each ---
  {
    util::Rng query_rng = runner.fork(2);
    std::vector<spambayes::TokenIdSet> spam_queries;
    spam_queries.reserve(config.nonattack_queries);
    for (std::size_t i = 0; i < config.nonattack_queries; ++i) {
      spam_queries.push_back(spambayes::unique_token_ids(
          tokenizer.tokenize_ids(gen.generate_spam(query_rng))));
    }
    runner.map_reduce(
        spam_queries.size(), query_rng,
        [&](std::size_t i, util::Rng& rng) {
          const core::RoniAssessment a =
              defense.assess(spam_queries[i], pool, rng);
          return AssessmentOutcome{a.mean_ham_as_ham_decrease, a.rejected};
        },
        [&](std::size_t, AssessmentOutcome o) {
          merge_outcome(result.nonattack_spam, o);
        });
  }

  // --- attack queries, `attack_repetitions` assessments each ---
  for (std::size_t ai = 0; ai < queries.size(); ++ai) {
    const RoniQuery& query = queries[ai];
    RoniVariantResult variant;
    variant.name = query.name;
    const spambayes::TokenIdSet attack_ids = spambayes::unique_token_ids(
        tokenizer.tokenize_ids(query.message));

    util::Rng attack_rng = runner.fork(100 + ai);
    runner.map_reduce(
        config.attack_repetitions, attack_rng,
        [&](std::size_t, util::Rng& rng) {
          const core::RoniAssessment a =
              defense.assess(attack_ids, pool, rng);
          return AssessmentOutcome{a.mean_ham_as_ham_decrease, a.rejected};
        },
        [&](std::size_t, AssessmentOutcome o) { merge_outcome(variant, o); });
    result.attack_variants.push_back(std::move(variant));
  }
  return result;
}

RoniExperimentResult run_roni_experiment(
    const corpus::TrecLikeGenerator& gen,
    const std::vector<const core::DictionaryAttack*>& attacks,
    const RoniExperimentConfig& config) {
  std::vector<RoniQuery> queries;
  queries.reserve(attacks.size());
  for (const core::DictionaryAttack* attack : attacks) {
    queries.push_back(RoniQuery{attack->name(), attack->attack_message()});
  }
  return run_roni_experiment(gen, queries, config);
}

}  // namespace sbx::eval
