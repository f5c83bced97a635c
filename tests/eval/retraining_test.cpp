// Tests for eval/retraining: timeline mechanics, poison persistence under
// cumulative vs window retraining, RONI gating, dynamic thresholds.
#include "eval/retraining.h"

#include <gtest/gtest.h>

#include "core/dictionary_attack.h"
#include "util/error.h"

namespace sbx::eval {
namespace {

const corpus::TrecLikeGenerator& generator() {
  static const corpus::TrecLikeGenerator gen;
  return gen;
}

spambayes::TokenIdSet usenet_ids() {
  static const spambayes::TokenIdSet ids = [] {
    spambayes::Tokenizer tok;
    return spambayes::unique_token_ids(tok.tokenize_ids(
        core::DictionaryAttack::usenet(generator().lexicons())
            .attack_message()));
  }();
  return ids;
}

RetrainingConfig small_config() {
  RetrainingConfig config;
  config.weeks = 5;
  config.messages_per_week = 200;
  config.test_messages = 150;
  config.seed = 404;
  config.roni.resamples = 2;
  return config;
}

TEST(Retraining, CleanTimelineStaysAccurate) {
  auto reports = run_retraining_timeline(generator(), {}, small_config());
  ASSERT_EQ(reports.size(), 5u);
  for (const auto& r : reports) {
    EXPECT_LT(r.test.ham_misclassified_rate(), 0.05) << "week " << r.week;
    EXPECT_EQ(r.attack_offered, 0u);
    EXPECT_GT(r.training_size, 0u);
  }
  // Cumulative scope grows week over week.
  EXPECT_GT(reports.back().training_size, reports.front().training_size);
}

TEST(Retraining, CumulativePoisonPersists) {
  std::vector<AttackInjection> injections = {{1, usenet_ids(), 4}};
  auto reports =
      run_retraining_timeline(generator(), injections, small_config());
  // Before the attack: clean.
  EXPECT_LT(reports[0].test.ham_misclassified_rate(), 0.05);
  // From the attack week on: badly degraded, and still degraded at the end.
  EXPECT_GT(reports[1].test.ham_misclassified_rate(), 0.5);
  EXPECT_GT(reports.back().test.ham_misclassified_rate(), 0.2);
  EXPECT_EQ(reports[1].attack_offered, 4u);
  EXPECT_EQ(reports[1].attack_admitted, 4u);  // no gate
}

TEST(Retraining, WindowForgetsPoison) {
  RetrainingConfig config = small_config();
  config.cumulative = false;
  config.window_weeks = 2;
  std::vector<AttackInjection> injections = {{1, usenet_ids(), 4}};
  auto reports = run_retraining_timeline(generator(), injections, config);
  // Poisoned while week 1 is inside the window...
  EXPECT_GT(reports[1].test.ham_misclassified_rate(), 0.5);
  EXPECT_GT(reports[2].test.ham_misclassified_rate(), 0.5);
  // ...recovered once it ages out (weeks 3+ train on weeks {2,3}, {3,4}).
  EXPECT_LT(reports[3].test.ham_misclassified_rate(), 0.05);
  EXPECT_LT(reports[4].test.ham_misclassified_rate(), 0.05);
}

TEST(Retraining, RoniGateBlocksInjection) {
  RetrainingConfig config = small_config();
  config.roni_gate = true;
  std::vector<AttackInjection> injections = {{1, usenet_ids(), 4}};
  auto reports = run_retraining_timeline(generator(), injections, config);
  EXPECT_EQ(reports[1].attack_offered, 4u);
  EXPECT_EQ(reports[1].attack_admitted, 0u);
  for (const auto& r : reports) {
    EXPECT_LT(r.test.ham_misclassified_rate(), 0.05) << "week " << r.week;
  }
}

TEST(Retraining, DynamicThresholdsReported) {
  RetrainingConfig config = small_config();
  config.dynamic_thresholds = true;
  auto reports = run_retraining_timeline(generator(), {}, config);
  for (const auto& r : reports) {
    // Re-derived thresholds differ from the static defaults and are sane.
    EXPECT_GE(r.thresholds.theta0, 0.0);
    EXPECT_LE(r.thresholds.theta1, 1.0);
    EXPECT_LE(r.thresholds.theta0, r.thresholds.theta1);
  }
}

TEST(Retraining, InjectionsOutsideTimelineIgnored) {
  std::vector<AttackInjection> injections = {{99, usenet_ids(), 4}};
  auto reports =
      run_retraining_timeline(generator(), injections, small_config());
  for (const auto& r : reports) {
    EXPECT_EQ(r.attack_offered, 0u);
  }
}

TEST(Retraining, Validation) {
  RetrainingConfig config = small_config();
  config.weeks = 0;
  EXPECT_THROW(run_retraining_timeline(generator(), {}, config),
               InvalidArgument);
  config = small_config();
  config.cumulative = false;
  config.window_weeks = 0;
  EXPECT_THROW(run_retraining_timeline(generator(), {}, config),
               InvalidArgument);
}

TEST(Retraining, Deterministic) {
  std::vector<AttackInjection> injections = {{1, usenet_ids(), 2}};
  auto a = run_retraining_timeline(generator(), injections, small_config());
  auto b = run_retraining_timeline(generator(), injections, small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].test.count(corpus::TrueLabel::ham,
                              spambayes::Verdict::spam),
              b[i].test.count(corpus::TrueLabel::ham,
                              spambayes::Verdict::spam));
    EXPECT_EQ(a[i].training_size, b[i].training_size);
  }
}

}  // namespace
}  // namespace sbx::eval
