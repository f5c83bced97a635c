// Figure 1 driver: identical-copy Causative attacks under K-fold
// cross-validation. Generic over the PoisonSpec — spam-labeled dictionary
// poisoning (the paper's §3.2 attacks) runs bit-identically to the
// historical driver, while ham-labeled specs (ham-labeled, backdoor)
// train their copies as ham and, when the spec carries BadNets trigger
// tokens, every test-fold spam is additionally re-classified with the
// trigger stamped in.
#include <algorithm>

#include "core/attack_math.h"
#include "eval/corpus_pool.h"
#include "eval/experiments.h"
#include "eval/runner.h"

namespace sbx::eval {

PoisonSpec poison_spec_from(const core::DictionaryAttack& attack) {
  PoisonSpec spec;
  spec.name = attack.name();
  spec.payload_size = attack.dictionary_size();
  spec.message = attack.attack_message();
  spec.train_as = corpus::TrueLabel::spam;
  return spec;
}

spambayes::TokenIdSet trigger_token_ids(
    const PoisonSpec& spec, const spambayes::Tokenizer& tokenizer) {
  if (spec.trigger.empty()) return {};
  std::string joined;
  for (const auto& token : spec.trigger) {
    if (!joined.empty()) joined.push_back(' ');
    joined += token;
  }
  return spambayes::unique_token_ids(tokenizer.tokenize_text_ids(joined));
}

DictionaryCurve run_dictionary_curve(const corpus::TrecLikeGenerator& gen,
                                     const PoisonSpec& spec,
                                     const DictionaryCurveConfig& config) {
  Runner runner(config.seed, config.threads);

  // Pool sized so each fold trains on ~training_set_size messages:
  // train = pool * (K-1)/K. Configurations in flight together that sample
  // an equal pool (a sweep over the attack axis) share one
  // (corpus_pool.h); the corpus stream is not read again.
  const std::size_t pool_size =
      config.training_set_size * config.folds / (config.folds - 1);
  const std::shared_ptr<const corpus::TokenizedDataset> pool =
      tokenized_pool(gen, pool_size, config.spam_fraction, runner.fork(1),
                     config.filter.tokenizer);
  const corpus::TokenizedDataset& tokenized = *pool;

  const spambayes::Tokenizer tokenizer(config.filter.tokenizer);
  // §4.2 compares attack tokens against the tokens of the *training* inbox;
  // scale the pool-wide count (collected during tokenize_dataset — no
  // second tokenization pass) down to one fold's training share.
  const std::size_t clean_tokens =
      tokenized.raw_tokens * (config.folds - 1) / config.folds;

  // Tokenize the attack message once; the raw list carries the §4.2
  // numerator, its deduplicated ids feed training.
  const spambayes::TokenIdList attack_raw =
      tokenizer.tokenize_ids(spec.message);
  const std::size_t attack_tokens_per_message = attack_raw.size();
  const spambayes::TokenIdSet attack_ids =
      spambayes::unique_token_ids(attack_raw);
  const bool train_as_spam = spec.train_as == corpus::TrueLabel::spam;

  // The BadNets trigger, as the ids stamping it onto a message produces.
  const bool has_trigger = !spec.trigger.empty();
  const spambayes::TokenIdSet trigger_ids =
      trigger_token_ids(spec, tokenizer);

  util::Rng fold_rng = runner.fork(2);
  const std::vector<corpus::FoldSplit> folds =
      corpus::k_fold_splits(tokenized.size(), config.folds, fold_rng);

  // Fractions evaluated in ascending order so attack copies can be added
  // incrementally; a leading 0 gives the control measurement.
  std::vector<double> fractions = config.attack_fractions;
  std::sort(fractions.begin(), fractions.end());
  fractions.insert(fractions.begin(), 0.0);

  std::vector<ConfusionMatrix> per_fraction(fractions.size());
  std::vector<util::RunningStats> fold_spread(fractions.size());
  std::vector<ConfusionMatrix> per_fraction_triggered(fractions.size());

  struct FoldResult {
    std::vector<ConfusionMatrix> plain;
    std::vector<ConfusionMatrix> triggered;
  };

  runner.map_reduce(
      folds.size(), /*salt=*/100,
      [&](std::size_t f, util::Rng&) {
        const corpus::FoldSplit& split = folds[f];
        spambayes::Filter filter(config.filter);
        train_on_indices(filter, tokenized, split.train);

        // Stamped test-fold spam (trigger measurement only): id sets are
        // precomputed per fold, re-classified at every fraction.
        std::vector<std::size_t> spam_test;
        std::vector<spambayes::TokenIdSet> stamped;
        if (has_trigger) {
          for (std::size_t i : split.test) {
            if (tokenized.items[i].label != corpus::TrueLabel::spam) continue;
            spam_test.push_back(i);
            spambayes::TokenIdList ids = tokenized.items[i].ids;
            ids.insert(ids.end(), trigger_ids.begin(), trigger_ids.end());
            stamped.push_back(spambayes::unique_token_ids(std::move(ids)));
          }
        }

        std::size_t trained_attack = 0;
        FoldResult local;
        local.plain.resize(fractions.size());
        local.triggered.resize(fractions.size());
        for (std::size_t pi = 0; pi < fractions.size(); ++pi) {
          const std::size_t want =
              core::attack_message_count(split.train.size(), fractions[pi]);
          if (want > trained_attack) {
            const auto copies =
                static_cast<std::uint32_t>(want - trained_attack);
            if (train_as_spam) {
              filter.train_spam_ids(attack_ids, copies);
            } else {
              filter.train_ham_ids(attack_ids, copies);
            }
            trained_attack = want;
          }
          local.plain[pi] = classify_indices(filter, tokenized, split.test);
          if (has_trigger) {
            filter.classify_batch(
                stamped.size(),
                [&](std::size_t i) -> const spambayes::TokenIdList& {
                  return stamped[i];
                },
                [&](std::size_t i, const spambayes::BatchScore& scored) {
                  local.triggered[pi].add(tokenized.items[spam_test[i]].label,
                                          scored.verdict);
                });
          }
        }
        return local;
      },
      [&](std::size_t, FoldResult local) {
        for (std::size_t pi = 0; pi < fractions.size(); ++pi) {
          per_fraction[pi].merge(local.plain[pi]);
          fold_spread[pi].add(local.plain[pi].ham_misclassified_rate());
          per_fraction_triggered[pi].merge(local.triggered[pi]);
        }
      });

  DictionaryCurve curve;
  curve.attack_name = spec.name;
  curve.dictionary_size = spec.payload_size;
  curve.has_trigger = has_trigger;
  const std::size_t train_size = folds.front().train.size();
  for (std::size_t pi = 0; pi < fractions.size(); ++pi) {
    DictionaryCurvePoint point;
    point.attack_fraction = fractions[pi];
    point.attack_messages =
        core::attack_message_count(train_size, fractions[pi]);
    point.attack_token_ratio =
        clean_tokens == 0
            ? 0.0
            : static_cast<double>(point.attack_messages *
                                  attack_tokens_per_message) /
                  static_cast<double>(clean_tokens);
    point.matrix = per_fraction[pi];
    point.ham_misclassified_by_fold = fold_spread[pi];
    point.triggered = per_fraction_triggered[pi];
    curve.points.push_back(std::move(point));
  }
  return curve;
}

}  // namespace sbx::eval
