// Tests for eval::Sweep: axis parsing, row-major grid expansion, and the
// acceptance contract — a sweep over >= 2 config axes serializes to
// byte-identical CSV/JSON at 1 vs 4 threads, including with nested
// parallelism (sweep trials that themselves fan out folds on the shared
// pool). The good-word and ham-labeled extension drivers run here at
// reduced scale through the registry.
#include "eval/sweep.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval/registry.h"
#include "util/error.h"

namespace sbx::eval {
namespace {

std::string config_value(const Config& config, const std::string& key) {
  for (const auto& [k, v] : config.items()) {
    if (k == key) return v;
  }
  return "";
}

/// Serializes a whole sweep result the way the CLI persists it: every
/// ResultDoc's JSON plus the summary CSV, concatenated.
std::string serialize(const SweepResult& result) {
  std::string out;
  for (const auto& doc : result.docs) out += doc.to_json();
  out += result.summary().to_csv();
  return out;
}

TEST(SweepAxis, ParsesKeyAndValues) {
  const SweepAxis axis = parse_sweep_axis("copies=0;50,101;204,526");
  EXPECT_EQ(axis.key, "copies");
  EXPECT_EQ(axis.values,
            (std::vector<std::string>{"0;50", "101;204", "526"}));
  EXPECT_THROW(parse_sweep_axis("no-equals"), InvalidArgument);
  EXPECT_THROW(parse_sweep_axis("=1,2"), InvalidArgument);
  EXPECT_THROW(parse_sweep_axis("k=1,,2"), InvalidArgument);
}

TEST(Sweep, ExpandsRowMajorWithFirstAxisOutermost) {
  const Experiment& experiment = builtin_registry().get("ham-labeled");
  const Config base = experiment.default_config();
  const std::vector<SweepAxis> axes = {
      {"probes", {"10", "20"}},
      {"spam_fraction", {"0.4", "0.6"}},
  };
  const std::vector<Config> grid = expand_sweep(base, axes);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(config_value(grid[0], "probes"), "10");
  EXPECT_EQ(config_value(grid[0], "spam_fraction"), "0.4");
  EXPECT_EQ(config_value(grid[1], "probes"), "10");
  EXPECT_EQ(config_value(grid[1], "spam_fraction"), "0.6");
  EXPECT_EQ(config_value(grid[2], "probes"), "20");
  EXPECT_EQ(config_value(grid[2], "spam_fraction"), "0.4");
  EXPECT_EQ(config_value(grid[3], "probes"), "20");
  EXPECT_EQ(config_value(grid[3], "spam_fraction"), "0.6");
  // Non-axis keys keep the base value.
  EXPECT_EQ(config_value(grid[3], "inbox_size"), "10000");
}

TEST(Sweep, RejectsUnknownAxisKeyAndBadValuesBeforeRunning) {
  const Experiment& experiment = builtin_registry().get("ham-labeled");
  const Config base = experiment.default_config();
  EXPECT_THROW(
      expand_sweep(base, {{"no_such_key", {"1"}}}),
      InvalidArgument);
  EXPECT_THROW(
      expand_sweep(base, {{"probes", {"10", "abc"}}}),
      ParseError);
}

TEST(Sweep, RejectsAKeyRepeatedAcrossAxes) {
  // Otherwise `--axis attack=usenet,optimal --axis attack=aspell` would
  // expand to two identical aspell configs, both labelled aspell.
  const Experiment& experiment = builtin_registry().get("ham-labeled");
  const Config base = experiment.default_config();
  EXPECT_THROW(expand_sweep(base, {{"probes", {"10", "20"}},
                                   {"spam_fraction", {"0.4"}},
                                   {"probes", {"30"}}}),
               InvalidArgument);
}

TEST(Sweep, ProgressReportsEveryConfigInOrder) {
  const Experiment& experiment = builtin_registry().get("ham-labeled");
  Config base = experiment.default_config();
  base.set("inbox_size", "200");
  base.set("probes", "10");
  base.set("copies", "0;20");

  SweepOptions options;
  options.threads = 2;
  std::vector<std::size_t> seen;
  options.progress = [&](std::size_t i, std::size_t total) {
    EXPECT_EQ(total, 4u);
    seen.push_back(i);
  };
  const SweepResult result = run_sweep(
      experiment, base,
      {{"probes", {"10", "20"}}, {"spam_fraction", {"0.4", "0.6"}}}, options);
  EXPECT_EQ(result.docs.size(), 4u);
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
  // Summary: one row per config, axis columns filled in.
  const util::Table summary = result.summary();
  ASSERT_EQ(summary.row_count(), 4u);
  EXPECT_EQ(summary.rows()[2][1], "20");
  EXPECT_EQ(summary.rows()[2][2], "0.4");
}

// ---------------------------------------------------------------------------
// The acceptance contract: byte-identical serialized output at 1 vs 4
// threads, over >= 2 axes.
// ---------------------------------------------------------------------------

TEST(SweepDeterminism, HamLabeledTwoAxesBitIdenticalAcrossThreadCounts) {
  const Experiment& experiment = builtin_registry().get("ham-labeled");
  Config base = experiment.default_config();
  base.set("inbox_size", "250");
  base.set("probes", "20");
  const std::vector<SweepAxis> axes = {
      {"copies", {"0;50", "101;204"}},
      {"spam_fraction", {"0.4", "0.6"}},
  };

  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  const std::string a = serialize(run_sweep(experiment, base, axes, serial));
  const std::string b = serialize(run_sweep(experiment, base, axes, parallel));
  EXPECT_EQ(a, b);  // byte identity, not approximate equality
  EXPECT_NE(a.find("\"experiment\": \"ham-labeled\""), std::string::npos);
}

TEST(SweepDeterminism, GoodWordTwoAxesBitIdenticalAcrossThreadCounts) {
  const Experiment& experiment = builtin_registry().get("good-word");
  Config base = experiment.default_config();
  base.set("inbox_size", "250");
  base.set("common_words", "300");
  base.set("probes", "4");
  base.set("max_words", "200");
  base.set("poison_probes", "15");
  const std::vector<SweepAxis> axes = {
      {"batch_size", {"5", "10"}},
      {"poison_fraction", {"0.01", "0.02"}},
  };

  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  const std::string a = serialize(run_sweep(experiment, base, axes, serial));
  const std::string b = serialize(run_sweep(experiment, base, axes, parallel));
  EXPECT_EQ(a, b);
}

// Nested parallelism: every sweep trial itself runs cross-validation folds
// through eval::Runner on the same shared pool (experiment_threads > 1).
// This is the sweep x folds configuration the shared pool exists for; the
// output must still be byte-identical to the fully serial run.
TEST(SweepDeterminism, NestedDictionarySweepBitIdenticalAcrossThreadCounts) {
  const Experiment& experiment = builtin_registry().get("dictionary");
  Config base = experiment.default_config();
  base.set("training_set_size", "300");
  base.set("folds", "3");
  base.set("attack_fractions", "0.02;0.05");
  base.set("dictionary_size", "5000");
  const std::vector<SweepAxis> axes = {
      {"training_set_size", {"300", "400"}},
      {"attack", {"usenet", "aspell"}},
  };

  SweepOptions serial;
  serial.threads = 1;
  serial.experiment_threads = 1;
  SweepOptions nested;
  nested.threads = 4;
  nested.experiment_threads = 3;  // folds also fan out on the shared pool
  const std::string a = serialize(run_sweep(experiment, base, axes, serial));
  const std::string b = serialize(run_sweep(experiment, base, axes, nested));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace sbx::eval
