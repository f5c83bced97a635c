// Figure 1 driver: identical-copy Causative attacks under K-fold
// cross-validation. Generic over the PoisonSpec — spam-labeled dictionary
// poisoning (the paper's §3.2 attacks) runs bit-identically to the
// historical driver, while ham-labeled specs (ham-labeled, backdoor)
// train their copies as ham and, when the spec carries BadNets trigger
// tokens, every test-fold spam is additionally re-classified with the
// trigger stamped in. Figure 5's dynamic-threshold defense rides the same
// walk: each configured variant derives its thresholds per (fold,
// fraction) and re-reads the fold's one set of scores under them.
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

  const std::vector<core::DynamicThresholdConfig>& variants =
      config.defense_variants;
  std::vector<DictionaryCurvePoint> points(fractions.size());
  for (DictionaryCurvePoint& point : points) {
    point.defended.resize(variants.size());
    // Summed in fold order by the merge, divided by the fold count below.
    point.mean_thresholds.assign(variants.size(), {0.0, 0.0});
  }

  // Each fold returns its own points, a one-fold curve. Only the defense
  // draws from the fold stream (its validation splits).
  runner.map_reduce(
      folds.size(), /*salt=*/3000,
      [&](std::size_t f, util::Rng& rng) {
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
        std::vector<DictionaryCurvePoint> local(fractions.size());
        for (std::size_t pi = 0; pi < fractions.size(); ++pi) {
          DictionaryCurvePoint& point = local[pi];
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

          // Dynamic thresholds from a half/half split of the poisoned
          // training set, derived before the test fold is scored.
          // Ham-labeled poison is invisible to the derivation (it never
          // sits in the spam folder the defense re-scores), so only
          // spam-labeled copies form a batch.
          point.defended.resize(variants.size());
          point.mean_thresholds.resize(variants.size());
          if (!variants.empty()) {
            std::vector<core::SpamBatch> batches;
            if (train_as_spam && trained_attack > 0) {
              batches.emplace_back(
                  attack_ids, static_cast<std::uint32_t>(trained_attack));
            }
            for (std::size_t vi = 0; vi < variants.size(); ++vi) {
              util::Rng split_rng = rng.fork(17 * (pi + 1) + vi);
              point.mean_thresholds[vi] = core::compute_dynamic_thresholds(
                  tokenized, split.train, batches, config.filter,
                  variants[vi], split_rng);
            }
          }

          // One scoring pass; every variant's cutoffs re-read its scores.
          filter.classify_batch(
              split.test.size(),
              [&](std::size_t i) -> const spambayes::TokenIdList& {
                return tokenized.items[split.test[i]].ids;
              },
              [&](std::size_t i, const spambayes::BatchScore& scored) {
                const corpus::TrueLabel label =
                    tokenized.items[split.test[i]].label;
                point.matrix.add(label, scored.verdict);
                for (std::size_t vi = 0; vi < variants.size(); ++vi) {
                  const core::ThresholdPair& cut = point.mean_thresholds[vi];
                  point.defended[vi].add(
                      label, spambayes::Classifier::verdict_for(
                                 scored.score, cut.theta0, cut.theta1));
                }
              });
          if (has_trigger) {
            filter.classify_batch(
                stamped.size(),
                [&](std::size_t i) -> const spambayes::TokenIdList& {
                  return stamped[i];
                },
                [&](std::size_t i, const spambayes::BatchScore& scored) {
                  point.triggered.add(tokenized.items[spam_test[i]].label,
                                      scored.verdict);
                });
          }
        }
        return local;
      },
      [&](std::size_t, std::vector<DictionaryCurvePoint> local) {
        for (std::size_t pi = 0; pi < fractions.size(); ++pi) {
          DictionaryCurvePoint& point = points[pi];
          const DictionaryCurvePoint& fold = local[pi];
          point.matrix.merge(fold.matrix);
          point.ham_misclassified_by_fold.add(
              fold.matrix.ham_misclassified_rate());
          point.triggered.merge(fold.triggered);
          for (std::size_t vi = 0; vi < variants.size(); ++vi) {
            point.defended[vi].merge(fold.defended[vi]);
            point.mean_thresholds[vi].theta0 += fold.mean_thresholds[vi].theta0;
            point.mean_thresholds[vi].theta1 += fold.mean_thresholds[vi].theta1;
          }
        }
      });

  DictionaryCurve curve;
  curve.attack_name = spec.name;
  curve.dictionary_size = spec.payload_size;
  curve.has_trigger = has_trigger;
  const std::size_t train_size = folds.front().train.size();
  const auto fold_count = static_cast<double>(folds.size());
  for (std::size_t pi = 0; pi < fractions.size(); ++pi) {
    DictionaryCurvePoint& point = points[pi];
    point.attack_fraction = fractions[pi];
    point.attack_messages =
        core::attack_message_count(train_size, fractions[pi]);
    point.attack_token_ratio =
        clean_tokens == 0
            ? 0.0
            : static_cast<double>(point.attack_messages *
                                  attack_tokens_per_message) /
                  static_cast<double>(clean_tokens);
    for (core::ThresholdPair& sum : point.mean_thresholds) {
      sum.theta0 /= fold_count;
      sum.theta1 /= fold_count;
    }
  }
  curve.points = std::move(points);
  return curve;
}

}  // namespace sbx::eval
