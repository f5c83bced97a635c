// eval::Runner: per-trial RNG streams depend only on (seed, salt, index),
// results come back in trial order, exceptions propagate, and — the
// determinism contract — the thread count never changes results. The
// contract is verified bit-exactly (including floating-point aggregates)
// on the dictionary and focused experiment drivers.
#include "eval/runner.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "core/dictionary_attack.h"
#include "eval/experiments.h"

namespace sbx::eval {
namespace {

TEST(Runner, MapReturnsResultsInTrialOrder) {
  Runner runner(1, 4);
  auto results = runner.map(
      32, /*salt=*/5, [](std::size_t i, util::Rng&) { return 3 * i + 1; });
  ASSERT_EQ(results.size(), 32u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], 3 * i + 1);
  }
}

TEST(Runner, TrialStreamsAreMasterForksByIndex) {
  Runner runner(42, 4);
  auto draws = runner.map(
      8, /*salt=*/100, [](std::size_t, util::Rng& rng) { return rng(); });
  util::Rng reference(42);
  for (std::size_t i = 0; i < draws.size(); ++i) {
    EXPECT_EQ(draws[i], reference.fork(100 + i)()) << "trial " << i;
  }
}

TEST(Runner, ParentScopedStreamsMatchParentForks) {
  Runner runner(7, 4);
  util::Rng parent = runner.fork(2);
  util::Rng reference = util::Rng(7).fork(2);
  auto draws = runner.map(
      6, parent, [](std::size_t, util::Rng& rng) { return rng(); });
  for (std::size_t i = 0; i < draws.size(); ++i) {
    EXPECT_EQ(draws[i], reference.fork(i)()) << "trial " << i;
  }
}

TEST(Runner, MergeRunsInTrialOrderOnCallingThread) {
  Runner runner(3, 4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> merged;
  runner.map_reduce(
      20, /*salt=*/0, [](std::size_t i, util::Rng&) { return i; },
      [&](std::size_t i, std::size_t result) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(i, result);
        merged.push_back(result);
      });
  ASSERT_EQ(merged.size(), 20u);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i], i);
  }
}

TEST(Runner, TrialExceptionsPropagate) {
  Runner runner(1, 4);
  EXPECT_THROW(runner.map(8, /*salt=*/0,
                          [](std::size_t i, util::Rng&) {
                            if (i == 3) throw std::runtime_error("boom");
                            return i;
                          }),
               std::runtime_error);
}

TEST(Runner, ZeroTrialsIsANoOp) {
  Runner runner(1, 4);
  auto results =
      runner.map(0, /*salt=*/0, [](std::size_t i, util::Rng&) { return i; });
  EXPECT_TRUE(results.empty());
}

// ---------------------------------------------------------------------------
// Bit-identical thread invariance on the real experiment drivers.
// ---------------------------------------------------------------------------

const corpus::TrecLikeGenerator& generator() {
  static const corpus::TrecLikeGenerator gen;
  return gen;
}

TEST(RunnerDeterminism, DictionaryCurveBitIdenticalAcrossThreadCounts) {
  core::DictionaryAttack attack =
      core::DictionaryAttack::usenet(generator().lexicons(), 25'000);
  DictionaryCurveConfig config;
  config.training_set_size = 400;
  config.folds = 4;
  config.attack_fractions = {0.01, 0.05};
  config.seed = 2008;
  config.defense_variants = {{0.05, 0.95}, {0.10, 0.90}};

  config.threads = 1;
  const DictionaryCurve serial =
      run_dictionary_curve(generator(), attack, config);
  config.threads = 4;
  const DictionaryCurve parallel =
      run_dictionary_curve(generator(), attack, config);

  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    const DictionaryCurvePoint& a = serial.points[i];
    const DictionaryCurvePoint& b = parallel.points[i];
    EXPECT_EQ(a.attack_messages, b.attack_messages);
    for (auto label : {corpus::TrueLabel::ham, corpus::TrueLabel::spam}) {
      for (auto verdict : {spambayes::Verdict::ham, spambayes::Verdict::unsure,
                           spambayes::Verdict::spam}) {
        EXPECT_EQ(a.matrix.count(label, verdict),
                  b.matrix.count(label, verdict));
      }
    }
    // The fold spread is a float accumulation: merge order must not depend
    // on the schedule, so the aggregates are bit-identical, not just close.
    EXPECT_EQ(a.ham_misclassified_by_fold.count(),
              b.ham_misclassified_by_fold.count());
    EXPECT_EQ(a.ham_misclassified_by_fold.mean(),
              b.ham_misclassified_by_fold.mean());
    EXPECT_EQ(a.ham_misclassified_by_fold.variance(),
              b.ham_misclassified_by_fold.variance());
    EXPECT_EQ(a.attack_token_ratio, b.attack_token_ratio);
    // Each defense variant's thresholds come from the per-fold streams
    // and are summed across folds: bit-identical too.
    ASSERT_EQ(a.defended.size(), 2u);
    ASSERT_EQ(b.defended.size(), 2u);
    for (std::size_t vi = 0; vi < a.defended.size(); ++vi) {
      for (auto label : {corpus::TrueLabel::ham, corpus::TrueLabel::spam}) {
        for (auto verdict :
             {spambayes::Verdict::ham, spambayes::Verdict::unsure,
              spambayes::Verdict::spam}) {
          EXPECT_EQ(a.defended[vi].count(label, verdict),
                    b.defended[vi].count(label, verdict));
        }
      }
      EXPECT_EQ(a.mean_thresholds[vi].theta0, b.mean_thresholds[vi].theta0);
      EXPECT_EQ(a.mean_thresholds[vi].theta1, b.mean_thresholds[vi].theta1);
    }
  }
}

TEST(RunnerDeterminism, FocusedKnowledgeBitIdenticalAcrossThreadCounts) {
  FocusedConfig config;
  config.inbox_size = 300;
  config.target_count = 4;
  config.repetitions = 3;
  config.seed = 2009;

  config.threads = 1;
  const auto serial =
      run_focused_knowledge(generator(), {0.3, 0.7}, 20, config);
  config.threads = 4;
  const auto parallel =
      run_focused_knowledge(generator(), {0.3, 0.7}, 20, config);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].guess_probability, parallel[i].guess_probability);
    EXPECT_EQ(serial[i].targets, parallel[i].targets);
    EXPECT_EQ(serial[i].as_ham, parallel[i].as_ham);
    EXPECT_EQ(serial[i].as_unsure, parallel[i].as_unsure);
    EXPECT_EQ(serial[i].as_spam, parallel[i].as_spam);
    EXPECT_EQ(serial[i].control_as_ham, parallel[i].control_as_ham);
  }
}

TEST(RunnerDeterminism, FocusedSizeBitIdenticalAcrossThreadCounts) {
  FocusedConfig config;
  config.inbox_size = 300;
  config.target_count = 4;
  config.repetitions = 3;
  config.seed = 2010;

  config.threads = 1;
  const auto serial =
      run_focused_size(generator(), 0.5, {0.02, 0.08}, config);
  config.threads = 4;
  const auto parallel =
      run_focused_size(generator(), 0.5, {0.02, 0.08}, config);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].attack_messages, parallel[i].attack_messages);
    EXPECT_EQ(serial[i].targets, parallel[i].targets);
    EXPECT_EQ(serial[i].as_spam, parallel[i].as_spam);
    EXPECT_EQ(serial[i].as_unsure_or_spam, parallel[i].as_unsure_or_spam);
  }
}

}  // namespace
}  // namespace sbx::eval
