// Tests for core defenses: RONI impact measurement and rejection, dynamic
// threshold utility/selection and end-to-end behaviour.
#include <gtest/gtest.h>

#include "core/dictionary_attack.h"
#include "core/dynamic_threshold.h"
#include "core/roni.h"
#include "corpus/generator.h"
#include "support/token_ids.h"
#include "util/error.h"

namespace sbx::core {
namespace {

corpus::TokenizedDataset tokenized_pool(const corpus::TrecLikeGenerator& gen,
                                        std::size_t n, util::Rng& rng) {
  corpus::Dataset pool = gen.sample_mailbox(n, 0.5, rng);
  return corpus::tokenize_dataset(pool, spambayes::Tokenizer());
}

class RoniTest : public ::testing::Test {
 protected:
  static const corpus::TrecLikeGenerator& generator() {
    static const corpus::TrecLikeGenerator gen;
    return gen;
  }
};

TEST_F(RoniTest, ValidatesConfiguration) {
  EXPECT_THROW(RoniDefense({0, 50, 5, 5.5}, {}), InvalidArgument);
  EXPECT_THROW(RoniDefense({20, 0, 5, 5.5}, {}), InvalidArgument);
  EXPECT_THROW(RoniDefense({20, 50, 0, 5.5}, {}), InvalidArgument);
}

TEST_F(RoniTest, RequiresLargeEnoughPool) {
  RoniDefense defense({20, 50, 5, 5.5}, {});
  util::Rng rng(1);
  auto pool = tokenized_pool(generator(), 30, rng);
  EXPECT_THROW(defense.assess(test::ids({"x"}), pool, rng), InvalidArgument);
}

TEST_F(RoniTest, DictionaryAttackEmailRejected) {
  RoniDefense defense({}, {});
  util::Rng rng(2);
  auto pool = tokenized_pool(generator(), 300, rng);
  DictionaryAttack attack = DictionaryAttack::usenet(generator().lexicons());
  spambayes::Tokenizer tok;
  auto attack_tokens =
      spambayes::unique_token_ids(tok.tokenize_ids(attack.attack_message()));
  RoniAssessment a = defense.assess(attack_tokens, pool, rng);
  EXPECT_TRUE(a.rejected);
  EXPECT_GT(a.mean_ham_as_ham_decrease, 5.5);
  EXPECT_EQ(a.per_trial.size(), RoniConfig{}.resamples);
}

TEST_F(RoniTest, OrdinarySpamAccepted) {
  RoniDefense defense({}, {});
  util::Rng rng(3);
  auto pool = tokenized_pool(generator(), 300, rng);
  spambayes::Tokenizer tok;
  util::Rng spam_rng(4);
  for (int i = 0; i < 5; ++i) {
    auto tokens = spambayes::unique_token_ids(
        tok.tokenize_ids(generator().generate_spam(spam_rng)));
    RoniAssessment a = defense.assess(tokens, pool, rng);
    EXPECT_FALSE(a.rejected) << "spam email " << i << " impact "
                             << a.mean_ham_as_ham_decrease;
  }
}

TEST_F(RoniTest, DeterministicGivenRng) {
  RoniDefense defense({}, {});
  auto pool = [&] {
    util::Rng rng(5);
    return tokenized_pool(generator(), 200, rng);
  }();
  spambayes::Tokenizer tok;
  auto tokens = spambayes::unique_token_ids(tok.tokenize_ids(
      DictionaryAttack::aspell(generator().lexicons()).attack_message()));
  util::Rng r1(6), r2(6);
  RoniAssessment a1 = defense.assess(tokens, pool, r1);
  RoniAssessment a2 = defense.assess(tokens, pool, r2);
  EXPECT_EQ(a1.per_trial, a2.per_trial);
  EXPECT_EQ(a1.rejected, a2.rejected);
}

TEST(ThresholdUtility, MatchesDefinition) {
  // g(t) = NS<(t) / (NS<(t) + NH>(t)).
  std::vector<ScoredExample> scored = {
      {0.1, corpus::TrueLabel::ham},  {0.2, corpus::TrueLabel::ham},
      {0.3, corpus::TrueLabel::spam}, {0.8, corpus::TrueLabel::spam},
      {0.9, corpus::TrueLabel::spam},
  };
  // t = 0.5: spam below = 1 (0.3); ham above = 0 -> g = 1.
  EXPECT_DOUBLE_EQ(threshold_utility(scored, 0.5), 1.0);
  // t = 0.15: spam below = 0, ham above = 1 -> g = 0.
  EXPECT_DOUBLE_EQ(threshold_utility(scored, 0.15), 0.0);
  // t = 0.25: spam below 0, ham above 0 -> perfect separator -> 0.5.
  EXPECT_DOUBLE_EQ(threshold_utility(scored, 0.25), 0.5);
}

TEST(SelectThresholds, PerfectlySeparableCollapsesToGap) {
  std::vector<ScoredExample> scored;
  for (int i = 0; i < 20; ++i) {
    scored.push_back({0.05 + i * 0.01, corpus::TrueLabel::ham});
    scored.push_back({0.70 + i * 0.01, corpus::TrueLabel::spam});
  }
  ThresholdPair pair = select_thresholds(scored, {0.05, 0.95});
  // Both thresholds land in the (0.24, 0.70) gap.
  EXPECT_GT(pair.theta0, 0.24);
  EXPECT_LT(pair.theta0, 0.70);
  EXPECT_LE(pair.theta0, pair.theta1);
  EXPECT_GT(pair.theta1, 0.24);
  EXPECT_LT(pair.theta1, 0.70);
}

TEST(SelectThresholds, OverlappingScoresCreateUnsureBand) {
  // Ham mass at low scores, spam mass at high scores, a mixed region in
  // the middle: theta0 must sit below the mixed region, theta1 above it.
  std::vector<ScoredExample> scored;
  for (int i = 0; i < 50; ++i) {
    scored.push_back({0.02 + 0.002 * i, corpus::TrueLabel::ham});
    scored.push_back({0.90 + 0.002 * i, corpus::TrueLabel::spam});
  }
  for (int i = 0; i < 20; ++i) {
    scored.push_back({0.40 + 0.01 * i, corpus::TrueLabel::ham});
    scored.push_back({0.40 + 0.01 * i, corpus::TrueLabel::spam});
  }
  ThresholdPair pair = select_thresholds(scored, {0.05, 0.95});
  EXPECT_LT(pair.theta0, 0.45);
  EXPECT_GT(pair.theta1, 0.55);
  EXPECT_LT(pair.theta0, pair.theta1);
}

TEST(SelectThresholds, ShiftInvariance) {
  // §5.2's motivation: rankings are invariant to monotone shifts, so
  // shifting every score up must not change which EXAMPLES fall below
  // theta0 / above theta1.
  std::vector<ScoredExample> base;
  for (int i = 0; i < 30; ++i) {
    base.push_back({0.05 + 0.003 * i, corpus::TrueLabel::ham});
    base.push_back({0.55 + 0.003 * i, corpus::TrueLabel::spam});
  }
  ThresholdPair p1 = select_thresholds(base, {0.10, 0.90});
  std::vector<ScoredExample> shifted = base;
  for (auto& e : shifted) e.score += 0.3;
  ThresholdPair p2 = select_thresholds(shifted, {0.10, 0.90});
  auto count_below = [](const std::vector<ScoredExample>& v, double t) {
    std::size_t n = 0;
    for (const auto& e : v) n += e.score <= t ? 1 : 0;
    return n;
  };
  EXPECT_EQ(count_below(base, p1.theta0), count_below(shifted, p2.theta0));
  EXPECT_EQ(count_below(base, p1.theta1), count_below(shifted, p2.theta1));
}

TEST(SelectThresholds, Validation) {
  EXPECT_THROW(select_thresholds({}, {0.05, 0.95}), InvalidArgument);
  std::vector<ScoredExample> one = {{0.5, corpus::TrueLabel::ham}};
  EXPECT_THROW(select_thresholds(one, {0.9, 0.1}), InvalidArgument);
  EXPECT_THROW(select_thresholds(one, {-0.1, 0.95}), InvalidArgument);
}

TEST(SelectThresholds, AllSpamOrAllHam) {
  std::vector<ScoredExample> all_spam;
  for (int i = 0; i < 10; ++i) {
    all_spam.push_back({0.8 + 0.01 * i, corpus::TrueLabel::spam});
  }
  ThresholdPair p = select_thresholds(all_spam, {0.05, 0.95});
  EXPECT_LE(p.theta0, p.theta1);
  std::vector<ScoredExample> all_ham;
  for (int i = 0; i < 10; ++i) {
    all_ham.push_back({0.1 + 0.01 * i, corpus::TrueLabel::ham});
  }
  p = select_thresholds(all_ham, {0.05, 0.95});
  EXPECT_LE(p.theta0, p.theta1);
}

TEST(ComputeDynamicThresholds, EndToEndOnCleanData) {
  corpus::TrecLikeGenerator gen;
  util::Rng rng(11);
  auto pool = tokenized_pool(gen, 400, rng);
  std::vector<std::size_t> indices(pool.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;

  util::Rng split_rng(12);
  ThresholdPair pair = compute_dynamic_thresholds(
      pool, indices, {}, spambayes::FilterOptions{}, {0.05, 0.95},
      split_rng);
  // Clean, separable data: thresholds land strictly inside (0, 1).
  EXPECT_GT(pair.theta0, 0.0);
  EXPECT_LT(pair.theta1, 1.0 + 1e-12);
  EXPECT_LE(pair.theta0, pair.theta1);
}

TEST(ComputeDynamicThresholds, AttackShiftsThresholdsUp) {
  corpus::TrecLikeGenerator gen;
  util::Rng rng(13);
  auto pool = tokenized_pool(gen, 400, rng);
  std::vector<std::size_t> indices(pool.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;

  spambayes::Tokenizer tok;
  auto attack_tokens = spambayes::unique_token_ids(tok.tokenize_ids(
      DictionaryAttack::usenet(gen.lexicons()).attack_message()));

  util::Rng r1(14), r2(14);
  ThresholdPair clean = compute_dynamic_thresholds(
      pool, indices, {}, {}, {0.05, 0.95}, r1);
  ThresholdPair attacked = compute_dynamic_thresholds(
      pool, indices, {{attack_tokens, 40}}, {}, {0.05, 0.95}, r2);
  // Under attack every score inflates; the data-driven thresholds chase
  // them upward (this is the defense's entire point).
  EXPECT_GT(attacked.theta1, clean.theta0);
  EXPECT_GE(attacked.theta0, clean.theta0);
}

TEST(ComputeDynamicThresholds, Validation) {
  corpus::TokenizedDataset empty;
  util::Rng rng(15);
  EXPECT_THROW(
      compute_dynamic_thresholds(empty, {}, {}, {}, {0.05, 0.95}, rng),
      InvalidArgument);
}

}  // namespace
}  // namespace sbx::core
