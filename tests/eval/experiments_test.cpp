// Integration tests: the experiment drivers at reduced scale must
// reproduce the paper's qualitative shapes (monotone attack curves, attack
// ordering, defense effects) and be deterministic and thread-invariant.
#include "eval/experiments.h"

#include <gtest/gtest.h>

#include "core/attack_math.h"

namespace sbx::eval {
namespace {

const corpus::TrecLikeGenerator& generator() {
  static const corpus::TrecLikeGenerator gen;
  return gen;
}

DictionaryCurveConfig small_dictionary_config() {
  DictionaryCurveConfig config;
  config.training_set_size = 600;
  config.folds = 3;
  config.attack_fractions = {0.01, 0.05};
  config.seed = 77;
  return config;
}

TEST(DictionaryExperiment, BaselineAccurateAndAttackDegrades) {
  core::DictionaryAttack attack =
      core::DictionaryAttack::usenet(generator().lexicons());
  DictionaryCurve curve = run_dictionary_curve(generator(), attack,
                                               small_dictionary_config());
  ASSERT_EQ(curve.points.size(), 3u);  // control + 2 fractions
  // Control: the clean filter is accurate on ham; spam has a hard tail
  // (plain-text scams) that lands in unsure at this small training size.
  EXPECT_DOUBLE_EQ(curve.points[0].attack_fraction, 0.0);
  EXPECT_LT(curve.points[0].matrix.ham_misclassified_rate(), 0.05);
  EXPECT_LT(curve.points[0].matrix.spam_misclassified_rate(), 0.20);
  // Attack: ham misclassification grows monotonically (up to saturation)
  // and substantially.
  EXPECT_GT(curve.points[1].matrix.ham_misclassified_rate(),
            curve.points[0].matrix.ham_misclassified_rate());
  EXPECT_GE(curve.points[2].matrix.ham_misclassified_rate(),
            curve.points[1].matrix.ham_misclassified_rate());
  EXPECT_GT(curve.points[2].matrix.ham_misclassified_rate(), 0.5);
  // The attack barely touches spam classification (§4.1: "their effect on
  // spam is marginal").
  EXPECT_LT(curve.points[2].matrix.spam_as_ham_rate(), 0.05);
}

TEST(DictionaryExperiment, AttackMessageCountsUseFinalFraction) {
  core::DictionaryAttack attack =
      core::DictionaryAttack::aspell(generator().lexicons());
  DictionaryCurve curve = run_dictionary_curve(generator(), attack,
                                               small_dictionary_config());
  // train size = 600 -> 1% = 6 messages (6/606 ~ 0.99%).
  EXPECT_EQ(curve.points[1].attack_messages,
            core::attack_message_count(600, 0.01));
  EXPECT_GT(curve.points[1].attack_token_ratio, 0.0);
}

TEST(DictionaryExperiment, UsenetBeatsAspellOnHamCoverage) {
  DictionaryCurveConfig config = small_dictionary_config();
  // Compare below the saturation point: at this corpus size both attacks
  // reach 100% by ~2%, so measure at 1% where coverage differences show.
  config.training_set_size = 1'000;
  config.attack_fractions = {0.01};
  DictionaryCurve usenet = run_dictionary_curve(
      generator(), core::DictionaryAttack::usenet(generator().lexicons()),
      config);
  DictionaryCurve aspell = run_dictionary_curve(
      generator(), core::DictionaryAttack::aspell(generator().lexicons()),
      config);
  DictionaryCurve optimal = run_dictionary_curve(
      generator(), core::DictionaryAttack::optimal(generator()), config);
  // Figure 1's ordering: optimal >= usenet >= aspell (on the solid lines).
  EXPECT_GE(optimal.points[1].matrix.ham_misclassified_rate() + 0.02,
            usenet.points[1].matrix.ham_misclassified_rate());
  EXPECT_GT(usenet.points[1].matrix.ham_misclassified_rate(),
            aspell.points[1].matrix.ham_misclassified_rate());
}

TEST(DictionaryExperiment, DeterministicAndThreadInvariant) {
  core::DictionaryAttack attack =
      core::DictionaryAttack::usenet(generator().lexicons(), 25'000);
  DictionaryCurveConfig config = small_dictionary_config();
  config.threads = 1;
  DictionaryCurve serial = run_dictionary_curve(generator(), attack, config);
  config.threads = 4;
  DictionaryCurve parallel =
      run_dictionary_curve(generator(), attack, config);
  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].matrix.count(corpus::TrueLabel::ham,
                                            spambayes::Verdict::spam),
              parallel.points[i].matrix.count(corpus::TrueLabel::ham,
                                              spambayes::Verdict::spam));
    EXPECT_EQ(serial.points[i].matrix.count(corpus::TrueLabel::ham,
                                            spambayes::Verdict::unsure),
              parallel.points[i].matrix.count(corpus::TrueLabel::ham,
                                              spambayes::Verdict::unsure));
  }
}

FocusedConfig small_focused_config() {
  FocusedConfig config;
  config.inbox_size = 400;
  config.target_count = 6;
  config.repetitions = 2;
  config.seed = 99;
  return config;
}

TEST(FocusedExperiment, SuccessGrowsWithKnowledge) {
  auto points = run_focused_knowledge(generator(), {0.1, 0.5, 0.9}, 30,
                                      small_focused_config());
  ASSERT_EQ(points.size(), 3u);
  for (const auto& p : points) {
    EXPECT_EQ(p.targets, 12u);  // 6 targets x 2 repetitions
    EXPECT_EQ(p.as_ham + p.as_unsure + p.as_spam, p.targets);
    // Pre-attack the targets are ham (clean filter).
    EXPECT_EQ(p.control_as_ham, p.targets);
  }
  auto success = [](const FocusedKnowledgePoint& p) {
    return static_cast<double>(p.as_unsure + p.as_spam) / p.targets;
  };
  EXPECT_LE(success(points[0]), success(points[1]) + 1e-9);
  EXPECT_LE(success(points[1]), success(points[2]) + 1e-9);
  EXPECT_GT(success(points[2]), 0.5);  // high knowledge is devastating
}

TEST(FocusedExperiment, SizeSweepMonotone) {
  auto points = run_focused_size(generator(), 0.5, {0.02, 0.05, 0.10},
                                 small_focused_config());
  ASSERT_EQ(points.size(), 3u);
  EXPECT_LE(points[0].as_unsure_or_spam, points[1].as_unsure_or_spam);
  EXPECT_LE(points[1].as_unsure_or_spam, points[2].as_unsure_or_spam);
  EXPECT_EQ(points[0].attack_messages,
            core::attack_message_count(400, 0.02));
  // Spam-or-unsure always dominates spam-only.
  for (const auto& p : points) {
    EXPECT_GE(p.as_unsure_or_spam, p.as_spam);
    EXPECT_EQ(p.targets, 12u);
  }
}

TEST(FocusedExperiment, Deterministic) {
  auto a = run_focused_knowledge(generator(), {0.5}, 20,
                                 small_focused_config());
  auto b = run_focused_knowledge(generator(), {0.5}, 20,
                                 small_focused_config());
  EXPECT_EQ(a[0].as_ham, b[0].as_ham);
  EXPECT_EQ(a[0].as_unsure, b[0].as_unsure);
  EXPECT_EQ(a[0].as_spam, b[0].as_spam);
}

TEST(TokenShift, GuessedTokensRiseMissedTokensFall) {
  FocusedConfig config = small_focused_config();
  auto examples = run_token_shift(generator(), 0.5, 40, config, 20);
  ASSERT_FALSE(examples.empty());
  for (const auto& ex : examples) {
    EXPECT_GT(ex.message_score_after, ex.message_score_before - 1e-9);
    std::size_t guessed_up = 0, guessed = 0, missed_up = 0, missed = 0;
    for (const auto& t : ex.tokens) {
      if (t.in_attack) {
        guessed += 1;
        guessed_up += t.score_after > t.score_before ? 1 : 0;
      } else if (t.score_after != t.score_before) {
        missed += 1;
        missed_up += t.score_after > t.score_before ? 1 : 0;
      }
    }
    ASSERT_GT(guessed, 0u);
    // Figure 4: every guessed token's score increases...
    EXPECT_EQ(guessed_up, guessed);
    // ...while the moved non-guessed tokens overwhelmingly decrease.
    if (missed > 0) {
      EXPECT_LT(static_cast<double>(missed_up) / missed, 0.3);
    }
  }
}

RoniExperimentConfig small_roni_config() {
  RoniExperimentConfig config;
  config.pool_size = 250;
  config.nonattack_queries = 12;
  config.attack_repetitions = 3;
  config.seed = 123;
  return config;
}

TEST(RoniExperiment, SeparatesAttacksFromSpam) {
  core::DictionaryAttack usenet =
      core::DictionaryAttack::usenet(generator().lexicons());
  core::DictionaryAttack aspell =
      core::DictionaryAttack::aspell(generator().lexicons());
  const std::vector<const core::DictionaryAttack*> attacks = {&usenet,
                                                              &aspell};
  RoniExperimentResult result =
      run_roni_experiment(generator(), attacks, small_roni_config());

  EXPECT_EQ(result.nonattack_spam.assessed, 12u);
  EXPECT_EQ(result.nonattack_spam.rejected, 0u);  // no false positives
  ASSERT_EQ(result.attack_variants.size(), 2u);
  for (const auto& v : result.attack_variants) {
    EXPECT_EQ(v.assessed, 3u);
    EXPECT_EQ(v.rejected, 3u) << v.name;  // 100% detection
    EXPECT_GT(v.impact.min(), result.nonattack_spam.impact.max());
  }
}

DictionaryCurveConfig small_threshold_config() {
  DictionaryCurveConfig config;
  config.training_set_size = 600;
  config.folds = 3;
  config.attack_fractions = {0.05};
  config.seed = 321;
  config.defense_variants = {{0.05, 0.95}, {0.10, 0.90}};
  return config;
}

TEST(ThresholdExperiment, DefenseKeepsHamOutOfSpamFolder) {
  core::DictionaryAttack attack =
      core::DictionaryAttack::usenet(generator().lexicons());
  auto points = run_dictionary_curve(generator(), attack,
                                     small_threshold_config())
                    .points;
  ASSERT_EQ(points.size(), 2u);  // control + 5%
  const auto& attacked = points[1];
  // Without the defense the attack ruins ham classification.
  EXPECT_GT(attacked.matrix.ham_misclassified_rate(), 0.5);
  // With it, ham stays out of the spam folder...
  for (const auto& defended : attacked.defended) {
    EXPECT_LT(defended.ham_as_spam_rate(),
              attacked.matrix.ham_as_spam_rate() + 1e-9);
    EXPECT_LT(defended.ham_misclassified_rate(),
              attacked.matrix.ham_misclassified_rate());
  }
  // ...and the chosen thresholds moved up to chase the shifted scores.
  EXPECT_GT(attacked.mean_thresholds[0].theta1, 0.9);
}

TEST(ThresholdExperiment, ControlPointLeavesAccuracyIntact) {
  core::DictionaryAttack attack =
      core::DictionaryAttack::usenet(generator().lexicons());
  auto points = run_dictionary_curve(generator(), attack,
                                     small_threshold_config())
                    .points;
  const auto& control = points[0];
  for (const auto& defended : control.defended) {
    EXPECT_LT(defended.ham_misclassified_rate(), 0.10);
  }
}

// The defense only re-reads the walk's scores: adding variants leaves
// every field a run without them fills bit-identical, the trigger
// measurement included.
TEST(ThresholdExperiment, VariantsLeaveThePlainWalkBitIdentical) {
  PoisonSpec spec = poison_spec_from(
      core::DictionaryAttack::usenet(generator().lexicons()));
  spec.trigger = {"zqxtrigger", "vvkpromo"};
  DictionaryCurveConfig plain_config = small_threshold_config();
  plain_config.defense_variants.clear();
  const DictionaryCurve plain =
      run_dictionary_curve(generator(), spec, plain_config);
  const DictionaryCurve defended =
      run_dictionary_curve(generator(), spec, small_threshold_config());

  ASSERT_TRUE(plain.has_trigger);
  ASSERT_EQ(defended.points.size(), plain.points.size());
  for (std::size_t i = 0; i < plain.points.size(); ++i) {
    const DictionaryCurvePoint& a = plain.points[i];
    const DictionaryCurvePoint& b = defended.points[i];
    EXPECT_TRUE(a.defended.empty());
    EXPECT_TRUE(a.mean_thresholds.empty());
    EXPECT_EQ(b.defended.size(), 2u);
    EXPECT_EQ(b.mean_thresholds.size(), 2u);
    for (auto label : {corpus::TrueLabel::ham, corpus::TrueLabel::spam}) {
      for (auto verdict : {spambayes::Verdict::ham, spambayes::Verdict::unsure,
                           spambayes::Verdict::spam}) {
        EXPECT_EQ(b.matrix.count(label, verdict),
                  a.matrix.count(label, verdict));
        EXPECT_EQ(b.triggered.count(label, verdict),
                  a.triggered.count(label, verdict));
      }
    }
    EXPECT_EQ(b.ham_misclassified_by_fold.mean(),
              a.ham_misclassified_by_fold.mean());
    EXPECT_EQ(b.ham_misclassified_by_fold.stddev(),
              a.ham_misclassified_by_fold.stddev());
  }
}

TEST(Helpers, TrainAndClassifyIndices) {
  util::Rng rng(7);
  corpus::Dataset data = generator().sample_mailbox(60, 0.5, rng);
  corpus::TokenizedDataset tokenized =
      corpus::tokenize_dataset(data, spambayes::Tokenizer());
  std::vector<std::size_t> train, test;
  for (std::size_t i = 0; i < 40; ++i) train.push_back(i);
  for (std::size_t i = 40; i < 60; ++i) test.push_back(i);
  spambayes::Filter filter;
  train_on_indices(filter, tokenized, train);
  EXPECT_EQ(filter.database().spam_count() + filter.database().ham_count(),
            40u);
  ConfusionMatrix m = classify_indices(filter, tokenized, test);
  EXPECT_EQ(m.total(), 20u);
}

TEST(Helpers, RawTokenCountCountsDuplicates) {
  corpus::Dataset d;
  d.items.push_back(
      {email::Message({}, "alpha alpha beta\n"), corpus::TrueLabel::ham});
  EXPECT_EQ(corpus::tokenize_dataset(d, spambayes::Tokenizer()).raw_tokens,
            3u);
}

}  // namespace
}  // namespace sbx::eval
