// Built-in eval::Experiment adapters: one registry entry per experiment
// driver. Each adapter maps a validated Config onto the driver's config
// struct, runs it, and packs the driver's result structs into a ResultDoc
// whose table cells are formatted exactly as the paper-shaped figures
// print them: `sbx_experiments figure` renders these documents, and
// `sbx_experiments run/sweep` reuses the same documents unchanged.
//
// The good-word and ham-labeled measurement loops live here too, so they
// are runnable (and testable) through the registry like everything else.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/attack.h"
#include "core/attack_math.h"
#include "core/attack_registry.h"
#include "core/dictionary_attack.h"
#include "core/focused_attack.h"
#include "core/roni.h"
#include "corpus/generator.h"
#include "eval/attack_axis.h"
#include "eval/experiment.h"
#include "eval/filter_axis.h"
#include "eval/experiments.h"
#include "eval/registry.h"
#include "eval/retraining.h"
#include "spambayes/filter.h"
#include "util/error.h"
#include "util/stats.h"
#include "util/strings.h"

namespace sbx::eval {
namespace {

using util::Table;

template <typename... Args>
std::string strf(const char* format, Args... args) {
  char buf[320];
  // Audited: feeds human-readable report/note lines only, never the
  // round-trip JSON/CSV values (eval/result_doc.cpp, eval/attack_axis.cpp).
  // sbx-lint: allow(float-format): audited report-text helper, see above
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

/// get_uint for count parameters where zero is meaningless and would
/// propagate NaN (0/0 rates) or empty sampling into the output: the
/// fail-loudly contract extends past type checks to these degenerate
/// values. Keys where 0 is a documented sentinel (dictionary_size,
/// attack_copies) use plain get_uint.
std::size_t positive_uint(const Config& config, std::string_view key) {
  const std::uint64_t value = config.get_uint(key);
  if (value == 0) {
    throw InvalidArgument("config key '" + std::string(key) +
                          "' must be greater than 0");
  }
  return static_cast<std::size_t>(value);
}

/// spam_fraction for the focused drivers, whose attack emails clone the
/// victim inbox's spam headers: rejected, before any sampling, when
/// sample_mailbox's rounding leaves an `inbox_size` inbox without spam.
double spam_bearing_fraction(const Config& config, std::size_t inbox_size) {
  const double fraction = config.get_double("spam_fraction");
  if (std::llround(static_cast<double>(inbox_size) * fraction) < 1) {
    throw InvalidArgument(
        "config key 'spam_fraction' leaves the " + std::to_string(inbox_size) +
        "-message victim inbox without spam, whose headers the focused "
        "drivers' attack emails clone");
  }
  return fraction;
}

/// Help text for the generic attack-parameter pass-through every
/// attack-parametric experiment declares next to its `attack` key.
constexpr const char kAttackParamsHelp[] =
    "extra attack parameters as 'key=value;key=value', validated against "
    "the attack's own schema (sbx_experiments attacks describe <attack>)";

/// Resolves the experiment's `attack` key through the attack registry and
/// crafts the canonical poison. The craft rng is derived from the config
/// seed (attacks with random canonical parts — ham-labeled, backdoor —
/// stay deterministic per seed; the dictionary family never draws).
std::pair<BoundAttack, PoisonSpec> resolve_attack(
    const corpus::TrecLikeGenerator& gen, const Config& config) {
  BoundAttack bound = bind_attack(config.get_string("attack"), config);
  util::Rng craft_rng(config.get_uint("seed") ^ 0x63726166742d726eULL);
  PoisonSpec spec = resolve_poison(bound, gen, craft_rng);
  return {std::move(bound), std::move(spec)};
}

/// Shared base: name/description/paper_ref plus an owned schema.
class ExperimentBase : public Experiment {
 public:
  ExperimentBase(std::string name, std::string description,
                 std::string paper_ref)
      : name_(std::move(name)),
        description_(std::move(description)),
        paper_ref_(std::move(paper_ref)) {}

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }
  std::string paper_ref() const override { return paper_ref_; }
  const ConfigSchema& schema() const override { return schema_; }

 protected:
  ResultDoc make_doc(const Config& config) const {
    ResultDoc doc;
    doc.experiment = name_;
    doc.config = config.items();
    return doc;
  }

  ConfigSchema schema_;

 private:
  std::string name_;
  std::string description_;
  std::string paper_ref_;
};

// ---------------------------------------------------------------------------
// dictionary — Figure 1 (one attack variant per config).
// ---------------------------------------------------------------------------

/// The keys dictionary and threshold share, in schema order up to `folds`.
void add_curve_keys(ConfigSchema& schema, const char* training_help,
                    const char* default_fractions) {
  schema
      .add("training_set_size", ParamType::kUInt, "10000", training_help)
      .add("spam_fraction", ParamType::kDouble, "0.5",
           "spam share of the training set")
      .add("attack", ParamType::kString, "usenet",
           "registry attack crafting the poison (sbx_experiments attacks "
           "list): optimal | usenet | aspell | informed | ham-labeled | "
           "backdoor-trigger")
      .add("attack_params", ParamType::kString, "", kAttackParamsHelp)
      .add("dictionary_size", ParamType::kUInt, "0",
           "truncate the dictionary to this many words (0 = full)")
      .add("attack_fractions", ParamType::kDoubleList, default_fractions,
           "attack strength as fraction of the final training set")
      .add("folds", ParamType::kUInt, "10", "cross-validation folds");
}

/// The fold-walk parameters the keys of add_curve_keys set.
DictionaryCurveConfig curve_config(const Config& config,
                                   const RunContext& ctx) {
  DictionaryCurveConfig dc;
  dc.training_set_size = positive_uint(config, "training_set_size");
  dc.spam_fraction = config.get_double("spam_fraction");
  dc.attack_fractions = config.get_double_list("attack_fractions");
  dc.folds = positive_uint(config, "folds");
  dc.seed = config.get_uint("seed");
  dc.threads = ctx.threads;
  return dc;
}

class DictionaryExperiment : public ExperimentBase {
 public:
  DictionaryExperiment()
      : ExperimentBase(
            "dictionary",
            "dictionary-attack poisoning curve vs. percent control",
            "Figure 1 + Section 4.2 of Nelson et al. 2008") {
    add_curve_keys(schema_,
                   "clean training-set size (Table 1: 2,000 or 10,000)",
                   "0.001,0.005,0.01,0.02,0.05,0.1");
    schema_.add("seed", ParamType::kUInt, "20080401", "master RNG seed");
    add_tokenizer_axis(schema_);
  }

  std::vector<std::pair<std::string, std::string>> quick_overrides()
      const override {
    return {{"training_set_size", "2000"}};
  }

  ResultDoc run(const Config& config, const RunContext& ctx) const override {
    const corpus::TrecLikeGenerator generator;
    const auto [bound, spec] = resolve_attack(generator, config);

    DictionaryCurveConfig dc = curve_config(config, ctx);
    dc.filter = resolve_filter_options(config);

    ctx.note(strf("running %s attack vs. %zu-message training set, "
                  "%zu-fold CV...",
                  spec.name.c_str(), dc.training_set_size, dc.folds));
    const DictionaryCurve curve =
        run_dictionary_curve(generator, spec, dc);

    ResultDoc doc = make_doc(config);
    tag_attack(doc, *bound.attack);
    Table& table = doc.add_table(
        "curve", {"training set", "attack", "dict words", "control %",
                  "attack msgs", "ham->spam %", "ham->spam|unsure %",
                  "fold stddev", "spam->misc %", "token ratio"});
    Series misclassified{curve.attack_name + " (ham as spam or unsure, %)",
                         {}, {}};
    for (const auto& p : curve.points) {
      table.add_row(
          {std::to_string(dc.training_set_size), curve.attack_name,
           std::to_string(curve.dictionary_size),
           Table::cell(100.0 * p.attack_fraction, 1),
           std::to_string(p.attack_messages),
           Table::cell(100.0 * p.matrix.ham_as_spam_rate(), 1),
           Table::cell(100.0 * p.matrix.ham_misclassified_rate(), 1),
           Table::cell(100.0 * p.ham_misclassified_by_fold.stddev(), 1),
           Table::cell(100.0 * p.matrix.spam_misclassified_rate(), 1),
           Table::cell(p.attack_token_ratio, 2)});
      misclassified.x.push_back(100.0 * p.attack_fraction);
      misclassified.y.push_back(100.0 * p.matrix.ham_misclassified_rate());
    }
    doc.series.push_back(std::move(misclassified));

    doc.add_metric("dictionary_size",
                   static_cast<double>(curve.dictionary_size));
    doc.add_metric(
        "control_ham_misclassified_pct",
        100.0 * curve.points.front().matrix.ham_misclassified_rate());
    doc.add_metric(
        "final_ham_misclassified_pct",
        100.0 * curve.points.back().matrix.ham_misclassified_rate());
    doc.add_metric("final_attack_token_ratio",
                   curve.points.back().attack_token_ratio);
    doc.add_metric("attack_email_bytes",
                   static_cast<double>(spec.message.body().size()));

    // BadNets measurement: the attacker's trigger-stamped spam scored
    // against each poison level ("leak" = not filed as spam). Only
    // trigger-carrying attacks add this table, so every pre-existing
    // config serializes unchanged.
    if (curve.has_trigger) {
      Table& leak = doc.add_table(
          "trigger", {"control %", "attack msgs", "trigger spam->ham %",
                      "trigger spam->unsure %", "trigger leak %"});
      Series leaked{"trigger-stamped spam leaked (%)", {}, {}};
      for (const auto& p : curve.points) {
        leak.add_row(
            {Table::cell(100.0 * p.attack_fraction, 1),
             std::to_string(p.attack_messages),
             Table::cell(100.0 * p.triggered.spam_as_ham_rate(), 1),
             Table::cell(100.0 * p.triggered.spam_as_unsure_rate(), 1),
             Table::cell(100.0 * p.triggered.spam_misclassified_rate(), 1)});
        leaked.x.push_back(100.0 * p.attack_fraction);
        leaked.y.push_back(100.0 * p.triggered.spam_misclassified_rate());
      }
      doc.series.push_back(std::move(leaked));
      doc.add_metric(
          "control_trigger_leak_pct",
          100.0 * curve.points.front().triggered.spam_misclassified_rate());
      doc.add_metric(
          "final_trigger_leak_pct",
          100.0 * curve.points.back().triggered.spam_misclassified_rate());
    }
    return doc;
  }
};

// ---------------------------------------------------------------------------
// focused-knowledge — Figure 2.
// ---------------------------------------------------------------------------

class FocusedKnowledgeExperiment : public ExperimentBase {
 public:
  FocusedKnowledgeExperiment()
      : ExperimentBase("focused-knowledge",
                       "focused attack vs. attacker token knowledge p",
                       "Figure 2 of Nelson et al. 2008") {
    schema_
        .add("inbox_size", ParamType::kUInt, "5000",
             "victim inbox size (Table 1: 5,000)")
        .add("spam_fraction", ParamType::kDouble, "0.5",
             "spam share of the inbox")
        .add("target_count", ParamType::kUInt, "20",
             "target ham emails per repetition")
        .add("repetitions", ParamType::kUInt, "5",
             "independent experiment repetitions")
        .add("attack", ParamType::kString, "focused",
             "registry attack crafting the per-target poison "
             "(sbx_experiments attacks list)")
        .add("attack_params", ParamType::kString, "",
             kAttackParamsHelp)
        .add("attack_count", ParamType::kUInt, "300",
             "attack emails per target")
        .add("guess_probabilities", ParamType::kDoubleList, "0.1,0.3,0.5,0.9",
             "attacker token-guess probabilities p")
        .add("seed", ParamType::kUInt, "20080402", "master RNG seed");
  }

  std::vector<std::pair<std::string, std::string>> quick_overrides()
      const override {
    return {{"inbox_size", "1000"},
            {"target_count", "10"},
            {"repetitions", "2"},
            {"attack_count", "60"}};
  }

  ResultDoc run(const Config& config, const RunContext& ctx) const override {
    const corpus::TrecLikeGenerator generator;
    FocusedConfig fc;
    fc.inbox_size = positive_uint(config, "inbox_size");
    fc.spam_fraction = spam_bearing_fraction(config, fc.inbox_size);
    fc.target_count =
        positive_uint(config, "target_count");
    fc.repetitions = positive_uint(config, "repetitions");
    fc.seed = config.get_uint("seed");
    fc.threads = ctx.threads;

    const BoundAttack bound = bind_attack(config.get_string("attack"), config);
    ctx.note(strf("running %s attack on %zu-message inbox, "
                  "%zu targets x %zu repetitions...",
                  bound.attack->name().c_str(), fc.inbox_size, fc.target_count,
                  fc.repetitions));
    const auto points = run_focused_knowledge(
        generator, *bound.attack, bound.params,
        config.get_double_list("guess_probabilities"),
        positive_uint(config, "attack_count"), fc);

    ResultDoc doc = make_doc(config);
    tag_attack(doc, *bound.attack);
    Table& table = doc.add_table(
        "knowledge", {"guess prob p", "targets", "ham %", "unsure %",
                      "spam %", "attack success %", "control ham %"});
    Series success{"attack success (%)", {}, {}};
    for (const auto& p : points) {
      const double n = static_cast<double>(p.targets);
      table.add_row({Table::cell(p.guess_probability, 1),
                     std::to_string(p.targets),
                     Table::cell(100.0 * p.as_ham / n, 1),
                     Table::cell(100.0 * p.as_unsure / n, 1),
                     Table::cell(100.0 * p.as_spam / n, 1),
                     Table::cell(100.0 * (p.as_unsure + p.as_spam) / n, 1),
                     Table::cell(100.0 * p.control_as_ham / n, 1)});
      success.x.push_back(p.guess_probability);
      success.y.push_back(100.0 * (p.as_unsure + p.as_spam) / n);
    }
    doc.series.push_back(std::move(success));
    if (!points.empty()) {
      const auto& last = points.back();
      const double n = static_cast<double>(last.targets);
      doc.add_metric("max_p_attack_success_pct",
                     100.0 * (last.as_unsure + last.as_spam) / n);
      doc.add_metric("control_as_ham_pct", 100.0 * last.control_as_ham / n);
    }
    return doc;
  }
};

// ---------------------------------------------------------------------------
// focused-size — Figure 3.
// ---------------------------------------------------------------------------

class FocusedSizeExperiment : public ExperimentBase {
 public:
  FocusedSizeExperiment()
      : ExperimentBase("focused-size",
                       "focused attack vs. number of attack emails",
                       "Figure 3 of Nelson et al. 2008") {
    schema_
        .add("inbox_size", ParamType::kUInt, "5000", "victim inbox size")
        .add("spam_fraction", ParamType::kDouble, "0.5",
             "spam share of the inbox")
        .add("target_count", ParamType::kUInt, "20",
             "target ham emails per repetition")
        .add("repetitions", ParamType::kUInt, "5",
             "independent experiment repetitions")
        .add("attack", ParamType::kString, "focused",
             "registry attack crafting the per-target poison "
             "(sbx_experiments attacks list)")
        .add("attack_params", ParamType::kString, "",
             kAttackParamsHelp)
        .add("guess_probability", ParamType::kDouble, "0.5",
             "attacker token-guess probability p")
        .add("attack_fractions", ParamType::kDoubleList,
             "0.005,0.01,0.02,0.04,0.06,0.08,0.1",
             "attack size as fraction of the inbox")
        .add("seed", ParamType::kUInt, "20080402", "master RNG seed");
  }

  std::vector<std::pair<std::string, std::string>> quick_overrides()
      const override {
    return {{"inbox_size", "1000"},
            {"target_count", "10"},
            {"repetitions", "2"},
            {"attack_fractions", "0.01,0.02,0.05,0.1"}};
  }

  ResultDoc run(const Config& config, const RunContext& ctx) const override {
    const corpus::TrecLikeGenerator generator;
    FocusedConfig fc;
    fc.inbox_size = positive_uint(config, "inbox_size");
    fc.spam_fraction = spam_bearing_fraction(config, fc.inbox_size);
    fc.target_count =
        positive_uint(config, "target_count");
    fc.repetitions = positive_uint(config, "repetitions");
    fc.seed = config.get_uint("seed");
    fc.threads = ctx.threads;

    const BoundAttack bound = bind_attack(config.get_string("attack"), config);
    ctx.note(strf("running %s attack on %zu-message inbox, "
                  "%zu targets x %zu repetitions...",
                  bound.attack->name().c_str(), fc.inbox_size, fc.target_count,
                  fc.repetitions));
    const auto points = run_focused_size(
        generator, *bound.attack, bound.params,
        config.get_double("guess_probability"),
        config.get_double_list("attack_fractions"), fc);

    ResultDoc doc = make_doc(config);
    tag_attack(doc, *bound.attack);
    Table& table = doc.add_table(
        "size", {"control %", "attack msgs", "targets", "target->spam %",
                 "target->spam|unsure %"});
    Series solid{"target as unsure or spam (%)", {}, {}};
    Series dashed{"target as spam (%)", {}, {}};
    for (const auto& p : points) {
      const double n = static_cast<double>(p.targets);
      table.add_row({Table::cell(100.0 * p.attack_fraction, 1),
                     std::to_string(p.attack_messages),
                     std::to_string(p.targets),
                     Table::cell(100.0 * p.as_spam / n, 1),
                     Table::cell(100.0 * p.as_unsure_or_spam / n, 1)});
      solid.x.push_back(100.0 * p.attack_fraction);
      solid.y.push_back(100.0 * p.as_unsure_or_spam / n);
      dashed.x.push_back(100.0 * p.attack_fraction);
      dashed.y.push_back(100.0 * p.as_spam / n);
    }
    doc.series.push_back(std::move(solid));
    doc.series.push_back(std::move(dashed));
    if (!points.empty()) {
      const auto& last = points.back();
      const double n = static_cast<double>(last.targets);
      doc.add_metric("final_target_as_spam_pct", 100.0 * last.as_spam / n);
      doc.add_metric("final_target_misclassified_pct",
                     100.0 * last.as_unsure_or_spam / n);
    }
    return doc;
  }
};

// ---------------------------------------------------------------------------
// token-shift — Figure 4.
// ---------------------------------------------------------------------------

class TokenShiftExperiment : public ExperimentBase {
 public:
  TokenShiftExperiment()
      : ExperimentBase("token-shift",
                       "per-token score shift on representative targets",
                       "Figure 4 of Nelson et al. 2008") {
    schema_
        .add("inbox_size", ParamType::kUInt, "5000", "victim inbox size")
        .add("spam_fraction", ParamType::kDouble, "0.5",
             "spam share of the inbox")
        .add("guess_probability", ParamType::kDouble, "0.5",
             "attacker token-guess probability p")
        .add("attack_count", ParamType::kUInt, "300",
             "attack emails per target")
        .add("max_targets", ParamType::kUInt, "60",
             "targets scanned for the three outcome classes")
        .add("seed", ParamType::kUInt, "20080402", "master RNG seed");
  }

  std::vector<std::pair<std::string, std::string>> quick_overrides()
      const override {
    return {{"inbox_size", "1000"}, {"attack_count", "60"}};
  }

  ResultDoc run(const Config& config, const RunContext&) const override {
    const corpus::TrecLikeGenerator generator;
    FocusedConfig fc;
    fc.inbox_size = positive_uint(config, "inbox_size");
    fc.spam_fraction = spam_bearing_fraction(config, fc.inbox_size);
    fc.seed = config.get_uint("seed");

    const auto examples = run_token_shift(
        generator, config.get_double("guess_probability"),
        positive_uint(config, "attack_count"), fc,
        positive_uint(config, "max_targets"));

    ResultDoc doc = make_doc(config);
    // The driver is intrinsically the focused attack's token-level
    // diagnostic; tag it as such.
    tag_attack(doc, core::builtin_attack_registry().get("focused"));
    Table& table = doc.add_table(
        "tokens",
        {"example", "token", "score_before", "score_after", "in_attack"});
    for (const auto& ex : examples) {
      std::size_t guessed = 0;
      std::size_t guessed_up = 0;
      std::size_t missed_down = 0;
      std::size_t missed = 0;
      for (const auto& t : ex.tokens) {
        if (t.in_attack) {
          ++guessed;
          guessed_up += t.score_after > t.score_before ? 1 : 0;
        } else {
          ++missed;
          missed_down += t.score_after < t.score_before ? 1 : 0;
        }
        table.add_row({std::string(spambayes::to_string(ex.verdict_after)),
                       t.token, Table::cell(t.score_before, 4),
                       Table::cell(t.score_after, 4),
                       t.in_attack ? "1" : "0"});
      }
      doc.report.push_back(strf(
          "target -> %s after attack   (message score %.3f -> %.3f)",
          std::string(spambayes::to_string(ex.verdict_after)).c_str(),
          ex.message_score_before, ex.message_score_after));
      doc.report.push_back(strf(
          "  %zu/%zu guessed tokens increased; %zu/%zu missed tokens "
          "decreased",
          guessed_up, guessed, missed_down, missed));
      append_histogram(doc.report, ex);
      doc.report.push_back("");
    }
    doc.add_metric("examples_found", static_cast<double>(examples.size()));
    return doc;
  }

 private:
  /// 10-bucket before/after token-score histograms, as in the figure's
  /// marginal histograms.
  static void append_histogram(std::vector<std::string>& report,
                               const TokenShiftExample& ex) {
    int before[10] = {0};
    int after[10] = {0};
    for (const auto& t : ex.tokens) {
      auto bucket = [](double s) {
        int b = static_cast<int>(s * 10.0);
        return b < 0 ? 0 : (b > 9 ? 9 : b);
      };
      before[bucket(t.score_before)] += 1;
      after[bucket(t.score_after)] += 1;
    }
    std::string line = "  score bucket:   ";
    for (int b = 0; b < 10; ++b) line += strf("%5.1f", b / 10.0);
    report.push_back(line);
    line = "  tokens before:  ";
    for (int b = 0; b < 10; ++b) line += strf("%5d", before[b]);
    report.push_back(line);
    line = "  tokens after :  ";
    for (int b = 0; b < 10; ++b) line += strf("%5d", after[b]);
    report.push_back(line);
  }
};

// ---------------------------------------------------------------------------
// roni — Section 5.1.
// ---------------------------------------------------------------------------

class RoniExperiment : public ExperimentBase {
 public:
  RoniExperiment()
      : ExperimentBase("roni",
                       "RONI defense vs. seven dictionary-attack variants",
                       "Section 5.1 of Nelson et al. 2008") {
    schema_
        .add("pool_size", ParamType::kUInt, "1000",
             "clean pool RONI samples (T, V) from")
        .add("spam_fraction", ParamType::kDouble, "0.5",
             "spam share of the clean pool")
        .add("attack", ParamType::kString, "dictionary-suite",
             "what RONI assesses: 'dictionary-suite' = the paper's seven "
             "dictionary variants; otherwise a comma-separated list of "
             "registry attack names (e.g. 'usenet,aspell'), each assessed "
             "as its own variant")
        .add("attack_params", ParamType::kString, "",
             kAttackParamsHelp)
        .add("dictionary_size", ParamType::kUInt, "0",
             "payload truncation forwarded to a single registry attack "
             "(ignored by the suite; 0 = the attack's full default)")
        .add("nonattack_queries", ParamType::kUInt, "120",
             "non-attack spam queries (the false-positive class)")
        .add("attack_repetitions", ParamType::kUInt, "15",
             "assessments per attack variant")
        .add("train_size", ParamType::kUInt, "20", "RONI |T|")
        .add("validation_size", ParamType::kUInt, "50", "RONI |V|")
        .add("resamples", ParamType::kUInt, "5",
             "independent (T, V) draws per assessment")
        .add("rejection_threshold", ParamType::kDouble, "5.5",
             "mean ham-as-ham decrease that rejects a query")
        .add("seed", ParamType::kUInt, "20080403", "master RNG seed");
  }

  std::vector<std::pair<std::string, std::string>> quick_overrides()
      const override {
    return {{"nonattack_queries", "30"},
            {"attack_repetitions", "5"},
            {"pool_size", "400"}};
  }

  ResultDoc run(const Config& config, const RunContext& ctx) const override {
    const corpus::TrecLikeGenerator generator;
    const std::string attack_name = config.get_string("attack");

    // The queries RONI assesses, plus how the document is attack-tagged.
    std::vector<RoniQuery> queries;
    std::string tag_name;
    std::string tag_taxonomy;
    if (attack_name == "dictionary-suite") {
      // Seven dictionary-attack variants, as in §5.1.
      const auto& lexicons = generator.lexicons();
      const std::vector<core::DictionaryAttack> attacks = {
          core::DictionaryAttack::optimal(generator),
          core::DictionaryAttack::aspell(lexicons),
          core::DictionaryAttack::aspell_truncated(lexicons, 50'000),
          core::DictionaryAttack::aspell_truncated(lexicons, 25'000),
          core::DictionaryAttack::usenet(lexicons, 90'000),
          core::DictionaryAttack::usenet(lexicons, 50'000),
          core::DictionaryAttack::usenet(lexicons, 25'000),
      };
      for (const auto& a : attacks) {
        queries.push_back(RoniQuery{a.name(), a.attack_message()});
      }
      tag_name = "dictionary-suite";
      tag_taxonomy = core::DictionaryAttack::properties().description();
    } else {
      // One or more registry attacks ("usenet,aspell"), each a variant.
      // Every attack gets the same fresh craft rng the single-attack path
      // always used, so 'attack=usenet' is bit-identical to before and
      // each list element is independent of its neighbors.
      std::vector<std::string> names;
      for (const std::string& part : util::split(attack_name, ',')) {
        const std::string name(util::trim(part));
        if (name.empty()) continue;
        names.push_back(name);
        BoundAttack bound = bind_attack(name, config);
        util::Rng craft_rng(config.get_uint("seed") ^ 0x63726166742d726eULL);
        PoisonSpec spec = resolve_poison(bound, generator, craft_rng);
        queries.push_back(RoniQuery{spec.name, std::move(spec.message)});
        if (tag_taxonomy.empty()) {
          tag_taxonomy = bound.attack->properties().description();
        }
      }
      if (queries.empty()) {
        throw InvalidArgument("roni: attack list '" + attack_name +
                              "' names no attacks");
      }
      tag_name = util::join(names, "+");
    }

    RoniExperimentConfig rc;
    rc.pool_size = positive_uint(config, "pool_size");
    rc.spam_fraction = config.get_double("spam_fraction");
    rc.nonattack_queries = positive_uint(config, "nonattack_queries");
    rc.attack_repetitions = positive_uint(config, "attack_repetitions");
    rc.roni.train_size =
        positive_uint(config, "train_size");
    rc.roni.validation_size =
        positive_uint(config, "validation_size");
    rc.roni.resamples = positive_uint(config, "resamples");
    rc.roni.rejection_threshold = config.get_double("rejection_threshold");
    rc.seed = config.get_uint("seed");
    rc.threads = ctx.threads;

    ctx.note(strf("assessing %zu non-attack queries + %zu reps x %zu "
                  "attack variants through RONI...",
                  rc.nonattack_queries, rc.attack_repetitions,
                  queries.size()));
    const RoniExperimentResult result =
        run_roni_experiment(generator, queries, rc);

    ResultDoc doc = make_doc(config);
    doc.attack_name = tag_name;
    doc.attack_taxonomy = tag_taxonomy;
    Table& table = doc.add_table(
        "assessments", {"query class", "assessed", "mean impact",
                        "min impact", "max impact", "rejected %"});
    auto add = [&table](const RoniVariantResult& v) {
      table.add_row({v.name, std::to_string(v.assessed),
                     Table::cell(v.impact.mean(), 2),
                     Table::cell(v.impact.min(), 2),
                     Table::cell(v.impact.max(), 2),
                     Table::cell(100.0 * v.rejection_rate(), 1)});
    };
    add(result.nonattack_spam);
    for (const auto& v : result.attack_variants) add(v);

    double attack_min = 1e9;
    for (const auto& v : result.attack_variants) {
      attack_min = std::min(attack_min, v.impact.min());
    }
    doc.add_metric("nonattack_max_impact", result.nonattack_spam.impact.max());
    doc.add_metric("attack_min_impact", attack_min);
    doc.add_metric("nonattack_rejected_pct",
                   100.0 * result.nonattack_spam.rejection_rate());
    std::size_t attack_assessed = 0, attack_rejected = 0;
    for (const auto& v : result.attack_variants) {
      attack_assessed += v.assessed;
      attack_rejected += v.rejected;
    }
    doc.add_metric("attack_rejected_pct",
                   attack_assessed == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(attack_rejected) /
                             static_cast<double>(attack_assessed));
    doc.report.push_back("");
    doc.report.push_back(strf(
        "separation: non-attack spam impact max = %.2f; dictionary attack",
        result.nonattack_spam.impact.max()));
    doc.report.push_back(strf(
        "impact min = %.2f (paper: 4.4 vs 6.8). Detection should be 100%%",
        attack_min));
    doc.report.push_back("of attack emails with 0% false positives.");
    return doc;
  }
};

// ---------------------------------------------------------------------------
// threshold — Figure 5.
// ---------------------------------------------------------------------------

class ThresholdExperiment : public ExperimentBase {
 public:
  ThresholdExperiment()
      : ExperimentBase("threshold",
                       "dynamic threshold defense vs. the dictionary attack",
                       "Figure 5 + Section 5.2 of Nelson et al. 2008") {
    add_curve_keys(schema_, "clean training-set size",
                   "0.001,0.01,0.05,0.1");
    schema_
        .add("utility_targets", ParamType::kDoubleList, "0.05,0.1",
             "defense variants: each t selects thresholds (t, 1-t)")
        .add("seed", ParamType::kUInt, "20080401", "master RNG seed");
  }

  std::vector<std::pair<std::string, std::string>> quick_overrides()
      const override {
    return {{"training_set_size", "2000"}, {"folds", "5"}};
  }

  /// The paper's variant label: t = 0.05 -> "Threshold-.05".
  static std::string variant_name(double target) {
    std::string formatted = util::format_double(target, 2);
    if (formatted.size() > 1 && formatted[0] == '0') formatted.erase(0, 1);
    return "Threshold-" + formatted;
  }

  ResultDoc run(const Config& config, const RunContext& ctx) const override {
    const corpus::TrecLikeGenerator generator;
    auto [bound, spec] = resolve_attack(generator, config);
    // Figure 5 reports no trigger measurement, so the walk skips it.
    spec.trigger.clear();

    DictionaryCurveConfig dc = curve_config(config, ctx);
    const std::vector<double> targets =
        config.get_double_list("utility_targets");
    for (double t : targets) dc.defense_variants.push_back({t, 1.0 - t});

    ctx.note(strf("running threshold defense vs. %s attack, "
                  "%zu-message training set, %zu-fold CV...",
                  spec.name.c_str(), dc.training_set_size, dc.folds));
    const DictionaryCurve curve = run_dictionary_curve(generator, spec, dc);

    ResultDoc doc = make_doc(config);
    tag_attack(doc, *bound.attack);
    Table& table = doc.add_table(
        "defense", {"control %", "attack msgs", "variant", "theta0",
                    "theta1", "ham->spam %", "ham->spam|unsure %",
                    "spam->unsure %", "spam->ham %"});
    std::vector<Series> series;
    series.push_back({"no defense (ham misclassified, %)", {}, {}});
    for (double t : targets) {
      series.push_back({variant_name(t) + " (ham misclassified, %)", {}, {}});
    }
    for (const auto& p : curve.points) {
      auto add = [&](const std::string& variant, const ConfusionMatrix& m,
                     double t0, double t1, Series& line) {
        table.add_row({Table::cell(100.0 * p.attack_fraction, 1),
                       std::to_string(p.attack_messages), variant,
                       Table::cell(t0, 3), Table::cell(t1, 3),
                       Table::cell(100.0 * m.ham_as_spam_rate(), 1),
                       Table::cell(100.0 * m.ham_misclassified_rate(), 1),
                       Table::cell(100.0 * m.spam_as_unsure_rate(), 1),
                       Table::cell(100.0 * m.spam_as_ham_rate(), 1)});
        line.x.push_back(100.0 * p.attack_fraction);
        line.y.push_back(100.0 * m.ham_misclassified_rate());
      };
      add("No Defense", p.matrix, 0.15, 0.90, series[0]);
      for (std::size_t vi = 0; vi < targets.size(); ++vi) {
        add(variant_name(targets[vi]), p.defended[vi],
            p.mean_thresholds[vi].theta0, p.mean_thresholds[vi].theta1,
            series[vi + 1]);
      }
    }
    doc.series = std::move(series);
    const auto& last = curve.points.back();
    doc.add_metric("final_no_defense_ham_misclassified_pct",
                   100.0 * last.matrix.ham_misclassified_rate());
    if (!last.defended.empty()) {
      doc.add_metric("final_defended_ham_misclassified_pct",
                     100.0 * last.defended[0].ham_misclassified_rate());
      doc.add_metric("final_defended_spam_as_unsure_pct",
                     100.0 * last.defended[0].spam_as_unsure_rate());
    }
    return doc;
  }
};

// ---------------------------------------------------------------------------
// retraining — §2.1 deployment extension (one scenario per config).
// ---------------------------------------------------------------------------

class RetrainingExperiment : public ExperimentBase {
 public:
  RetrainingExperiment()
      : ExperimentBase(
            "retraining",
            "poison persistence across weekly retraining cycles",
            "Section 2.1 deployment scenario (extension)") {
    schema_
        .add("weeks", ParamType::kUInt, "8", "timeline length")
        .add("messages_per_week", ParamType::kUInt, "1000",
             "inbound mail per week")
        .add("spam_fraction", ParamType::kDouble, "0.5",
             "spam share of weekly mail")
        .add("test_messages", ParamType::kUInt, "400",
             "fresh mail scored after each retrain")
        .add("cumulative", ParamType::kBool, "true",
             "retrain on all mail ever received (false = sliding window)")
        .add("window_weeks", ParamType::kUInt, "3",
             "sliding-window width when cumulative=false")
        .add("roni_gate", ParamType::kBool, "false",
             "screen spam-labeled training mail through RONI")
        .add("dynamic_thresholds", ParamType::kBool, "false",
             "re-derive classification thresholds each cycle")
        .add("roni_resamples", ParamType::kUInt, "2",
             "RONI (T, V) resamples per candidate (2 suffices for the "
             "dictionary-vs-mail margin)")
        .add("attack", ParamType::kString, "usenet",
             "registry attack injected (sbx_experiments attacks list): "
             "optimal | usenet | aspell | informed | ham-labeled | "
             "backdoor-trigger")
        .add("attack_params", ParamType::kString, "",
             kAttackParamsHelp)
        .add("attack_week", ParamType::kUInt, "2",
             "week the poison lands in")
        .add("attack_copies", ParamType::kUInt, "0",
             "attack copies, trained under the attack's poison label "
             "(0 = messages_per_week / 50)")
        .add("seed", ParamType::kUInt, "20080405", "master RNG seed");
  }

  std::vector<std::pair<std::string, std::string>> quick_overrides()
      const override {
    return {{"messages_per_week", "300"}, {"test_messages", "200"}};
  }

  ResultDoc run(const Config& config, const RunContext& ctx) const override {
    const corpus::TrecLikeGenerator generator;
    const auto [bound, spec] = resolve_attack(generator, config);
    const spambayes::Tokenizer tokenizer;
    const spambayes::TokenIdSet attack_ids =
        spambayes::unique_token_ids(tokenizer.tokenize_ids(spec.message));

    RetrainingConfig rc;
    rc.weeks = positive_uint(config, "weeks");
    rc.messages_per_week =
        positive_uint(config, "messages_per_week");
    rc.spam_fraction = config.get_double("spam_fraction");
    rc.test_messages =
        positive_uint(config, "test_messages");
    rc.cumulative = config.get_bool("cumulative");
    rc.window_weeks =
        positive_uint(config, "window_weeks");
    rc.roni_gate = config.get_bool("roni_gate");
    rc.dynamic_thresholds = config.get_bool("dynamic_thresholds");
    rc.roni.resamples =
        positive_uint(config, "roni_resamples");
    rc.seed = config.get_uint("seed");

    std::uint32_t copies =
        static_cast<std::uint32_t>(config.get_uint("attack_copies"));
    if (copies == 0) {
      copies = static_cast<std::uint32_t>(rc.messages_per_week / 50);
    }
    AttackInjection injection(
        static_cast<std::size_t>(config.get_uint("attack_week")),
        attack_ids, copies);
    injection.label = spec.train_as;
    injection.trigger_ids = trigger_token_ids(spec, tokenizer);
    const std::vector<AttackInjection> injections = {injection};

    ctx.note(strf("running %zu-week timeline, %zu msgs/week...",
                  rc.weeks, rc.messages_per_week));
    const auto reports =
        run_retraining_timeline(generator, injections, rc);

    ResultDoc doc = make_doc(config);
    tag_attack(doc, *bound.attack);
    Table& table = doc.add_table(
        "timeline",
        {"week", "ham misc %", "spam misc %", "attack admitted", "theta1"});
    std::size_t admitted_total = 0;
    Series ham_misc{"ham misclassified (%)", {}, {}};
    for (const auto& r : reports) {
      table.add_row(
          {Table::cell(r.week),
           Table::cell(100.0 * r.test.ham_misclassified_rate(), 1),
           Table::cell(100.0 * r.test.spam_misclassified_rate(), 1),
           Table::cell(r.attack_admitted),
           Table::cell(r.thresholds.theta1, 3)});
      admitted_total += r.attack_admitted;
      ham_misc.x.push_back(static_cast<double>(r.week));
      ham_misc.y.push_back(100.0 * r.test.ham_misclassified_rate());
    }
    doc.series.push_back(std::move(ham_misc));
    doc.add_metric("attack_copies_offered", static_cast<double>(copies));
    doc.add_metric("attack_copies_admitted",
                   static_cast<double>(admitted_total));
    if (!reports.empty()) {
      doc.add_metric(
          "final_week_ham_misclassified_pct",
          100.0 * reports.back().test.ham_misclassified_rate());
    }

    // BadNets measurement: the weekly leak rate of trigger-stamped spam.
    // Only trigger-carrying attacks add this table, so every pre-existing
    // config serializes unchanged.
    if (!spec.trigger.empty()) {
      Table& leak = doc.add_table(
          "trigger", {"week", "trigger probes", "trigger leak %"});
      Series leaked{"trigger-stamped spam leaked (%)", {}, {}};
      for (const auto& r : reports) {
        const double probes =
            r.trigger_probes > 0 ? static_cast<double>(r.trigger_probes) : 1.0;
        leak.add_row({Table::cell(r.week), Table::cell(r.trigger_probes),
                      Table::cell(100.0 * r.trigger_leaked / probes, 1)});
        leaked.x.push_back(static_cast<double>(r.week));
        leaked.y.push_back(100.0 * r.trigger_leaked / probes);
      }
      doc.series.push_back(std::move(leaked));
      if (!reports.empty()) {
        const auto& last = reports.back();
        const double probes =
            last.trigger_probes > 0 ? static_cast<double>(last.trigger_probes)
                                    : 1.0;
        doc.add_metric("final_trigger_leak_pct",
                       100.0 * last.trigger_leaked / probes);
      }
    }
    return doc;
  }
};

// ---------------------------------------------------------------------------
// good-word — Exploratory evasion vs. Causative poisoning (extension).
// ---------------------------------------------------------------------------

class GoodWordExperiment : public ExperimentBase {
 public:
  GoodWordExperiment()
      : ExperimentBase(
            "good-word",
            "good-word evasion (Exploratory) vs. poisoning (Causative)",
            "Sections 3.1 + 6 (Lowd-Meek / Wittel-Wu contrast)") {
    schema_
        .add("inbox_size", ParamType::kUInt, "10000",
             "victim training-inbox size")
        .add("spam_fraction", ParamType::kDouble, "0.5",
             "spam share of the inbox")
        .add("attack", ParamType::kString, "good-word",
             "registry Exploratory attack evading the fixed filter "
             "(good-word | obfuscation)")
        .add("attack_params", ParamType::kString, "",
             kAttackParamsHelp)
        .add("common_words", ParamType::kUInt, "2000",
             "how many top ham-core words the evader pads with")
        .add("batch_size", ParamType::kUInt, "10",
             "words appended between filter queries")
        .add("max_words", ParamType::kUInt, "2000",
             "evasion word budget per message")
        .add("probes", ParamType::kUInt, "200",
             "spam messages tried per evasion goal")
        .add("poison_fraction", ParamType::kDouble, "0.01",
             "causative comparison: dictionary poisoning strength")
        .add("poison_probes", ParamType::kUInt, "300",
             "ham messages probed after poisoning")
        .add("seed", ParamType::kUInt, "20080407", "master RNG seed");
  }

  std::vector<std::pair<std::string, std::string>> quick_overrides()
      const override {
    return {{"inbox_size", "2000"}, {"probes", "60"}, {"poison_probes", "100"}};
  }

  ResultDoc run(const Config& config, const RunContext& ctx) const override {
    const corpus::TrecLikeGenerator generator;
    const std::size_t inbox_size =
        positive_uint(config, "inbox_size");
    util::Rng rng(config.get_uint("seed"));
    VictimInbox victim(generator, inbox_size,
                       config.get_double("spam_fraction"), {}, rng);
    spambayes::Filter& filter = victim.filter;

    // The attacker's evasion strategy comes from the registry: good-word
    // pads with the most common words of the victim's language — Wittel &
    // Wu's "common words" strategy (the attacker plausibly knows
    // high-frequency English, not the victim's mailbox) — while
    // obfuscation mangles the spammiest words character-by-character.
    const BoundAttack bound = bind_attack(config.get_string("attack"), config);

    ctx.note(strf("evading %zu-message victim filter, %zu probes per "
                  "goal...",
                  inbox_size, static_cast<std::size_t>(
                                  positive_uint(config, "probes"))));
    ResultDoc doc = make_doc(config);
    tag_attack(doc, *bound.attack);
    Table& table = doc.add_table(
        "evasion", {"goal", "spam tried", "evaded %", "median words added",
                    "median queries"});
    const int n = static_cast<int>(positive_uint(config, "probes"));
    const std::size_t max_words =
        positive_uint(config, "max_words");
    for (auto goal : {spambayes::Verdict::unsure, spambayes::Verdict::ham}) {
      std::size_t evaded = 0;
      std::vector<double> words, queries;
      util::Rng probe_rng(7);
      core::EvadeContext ectx{generator, bound.params, filter, max_words,
                              goal};
      for (int i = 0; i < n; ++i) {
        auto result =
            bound.attack->evade(ectx, generator.generate_spam(probe_rng));
        if (result.evaded) {
          ++evaded;
          words.push_back(static_cast<double>(result.words_added));
          queries.push_back(static_cast<double>(result.queries));
        }
      }
      table.add_row(
          {std::string(spambayes::to_string(goal)), std::to_string(n),
           Table::cell(100.0 * evaded / n, 1),
           evaded ? Table::cell(util::quantile(words, 0.5), 0)
                  : std::string("-"),
           evaded ? Table::cell(util::quantile(queries, 0.5), 0)
                  : std::string("-")});
      doc.add_metric(
          std::string("evaded_to_") +
              std::string(spambayes::to_string(goal)) + "_pct",
          100.0 * evaded / n);
    }

    // The causative comparison: the same victim, poisoned with a small
    // dictionary injection and zero filter queries.
    const double poison_fraction = config.get_double("poison_fraction");
    core::DictionaryAttack poison =
        core::DictionaryAttack::usenet(generator.lexicons());
    std::size_t copies =
        core::attack_message_count(inbox_size, poison_fraction);
    filter.train_spam_copies(poison.attack_message(),
                             static_cast<std::uint32_t>(copies));
    util::Rng ham_rng(8);
    int ham_lost = 0;
    const int poison_probes =
        static_cast<int>(positive_uint(config, "poison_probes"));
    for (int i = 0; i < poison_probes; ++i) {
      ham_lost += filter.classify(generator.generate_ham(ham_rng)).verdict !=
                          spambayes::Verdict::ham
                      ? 1
                      : 0;
    }
    doc.add_metric("poison_copies", static_cast<double>(copies));
    doc.add_metric("poisoned_ham_misdelivered_pct",
                   100.0 * ham_lost / poison_probes);
    doc.report.push_back(strf(
        "causative comparison: %zu poison emails (%g%%) -> %.1f%% of",
        copies, 100.0 * poison_fraction, 100.0 * ham_lost / poison_probes));
    doc.report.push_back(
        "ALL ham misdelivered, zero filter queries needed.");
    return doc;
  }
};

// ---------------------------------------------------------------------------
// ham-labeled — Causative Integrity extension.
// ---------------------------------------------------------------------------

class HamLabeledExperiment : public ExperimentBase {
 public:
  HamLabeledExperiment()
      : ExperimentBase("ham-labeled",
                       "ham-labeled poisoning whitens a spam campaign",
                       "Section 2.2 remark (more powerful attacks)") {
    schema_
        .add("inbox_size", ParamType::kUInt, "10000",
             "victim training-inbox size")
        .add("spam_fraction", ParamType::kDouble, "0.5",
             "spam share of the inbox")
        .add("copies", ParamType::kUIntList, "0,20,50,101,204,526",
             "ham-labeled attack copies swept")
        .add("probes", ParamType::kUInt, "400",
             "campaign-spam / fresh-ham probes per row")
        .add("seed", ParamType::kUInt, "20080406", "master RNG seed");
  }

  std::vector<std::pair<std::string, std::string>> quick_overrides()
      const override {
    return {{"inbox_size", "2000"}, {"probes", "150"}};
  }

  ResultDoc run(const Config& config, const RunContext&) const override {
    const corpus::TrecLikeGenerator generator;
    const std::size_t inbox_size =
        positive_uint(config, "inbox_size");
    util::Rng rng(config.get_uint("seed"));

    // Victim trains on a clean inbox.
    const VictimInbox victim(generator, inbox_size,
                             config.get_double("spam_fraction"), {}, rng);

    // The attack email comes from the registry's ham-labeled adapter: the
    // attacker's own campaign vocabulary (the generator's spam word list
    // plus the obfuscated junk tokens) under headers cloned from a real
    // ham message so the email passes as legitimate. What the attacker can
    // NOT whiten are the headers its future campaign will carry, so some
    // spam evidence always survives — that caps the attack at "escapes the
    // spam folder" rather than "always lands as ham".
    const core::Attack& attack =
        core::builtin_attack_registry().get("ham-labeled");
    const util::Config attack_params = attack.default_params();
    const std::optional<core::CanonicalPoison> poison =
        attack.canonical_poison(generator, attack_params, rng);
    const spambayes::TokenIdSet attack_ids =
        victim.filter.message_token_ids(poison->message);

    ResultDoc doc = make_doc(config);
    tag_attack(doc, attack);
    doc.report.push_back(strf(
        "payload: %zu campaign words; attack taxonomy: %s",
        poison->payload_size, attack.properties().description().c_str()));
    doc.report.push_back("");

    // RONI's verdict on the attack email (assessed as if spam-labeled would
    // be, i.e. by its marginal impact on ham classification).
    core::RoniDefense roni({}, {});
    util::Rng roni_rng = rng.fork(1);
    auto assessment = roni.assess(attack_ids, victim.tokenized, roni_rng);
    doc.report.push_back(strf(
        "RONI-style impact of one attack email on ham-as-ham: %.2f "
        "(threshold %.1f) -> %s",
        assessment.mean_ham_as_ham_decrease,
        roni.config().rejection_threshold,
        assessment.rejected ? "rejected" : "NOT rejected"));
    doc.report.push_back("");
    doc.add_metric("roni_impact", assessment.mean_ham_as_ham_decrease);
    doc.add_metric("roni_rejected", assessment.rejected ? 1.0 : 0.0);

    Table& table = doc.add_table(
        "campaign", {"ham-labeled copies", "% of inbox",
                     "campaign spam->ham %", "campaign spam->unsure %",
                     "fresh ham->ham %"});
    const int n = static_cast<int>(positive_uint(config, "probes"));
    double last_as_ham_pct = 0.0;
    double last_ham_ok_pct = 0.0;
    for (std::uint64_t copies : config.get_uint_list("copies")) {
      spambayes::Filter filter = victim.filter;
      filter.train_ham_ids(attack_ids, static_cast<std::uint32_t>(copies));
      util::Rng probe_rng(991);  // identical probes per row
      std::size_t as_ham = 0, as_unsure = 0, ham_ok = 0;
      for (int i = 0; i < n; ++i) {
        auto v = filter.classify(generator.generate_spam(probe_rng)).verdict;
        as_ham += v == spambayes::Verdict::ham ? 1 : 0;
        as_unsure += v == spambayes::Verdict::unsure ? 1 : 0;
        ham_ok += filter.classify(generator.generate_ham(probe_rng)).verdict ==
                          spambayes::Verdict::ham
                      ? 1
                      : 0;
      }
      table.add_row(
          {Table::cell(static_cast<std::size_t>(copies)),
           Table::cell(100.0 * static_cast<double>(copies) /
                           static_cast<double>(inbox_size + copies),
                       1),
           Table::cell(100.0 * as_ham / n, 1),
           Table::cell(100.0 * as_unsure / n, 1),
           Table::cell(100.0 * ham_ok / n, 1)});
      last_as_ham_pct = 100.0 * as_ham / n;
      last_ham_ok_pct = 100.0 * ham_ok / n;
    }
    doc.add_metric("max_copies_campaign_as_ham_pct", last_as_ham_pct);
    doc.add_metric("max_copies_fresh_ham_ok_pct", last_ham_ok_pct);
    return doc;
  }
};

// ---------------------------------------------------------------------------
// focused-guessing — §4.3 interpretation ablation (DESIGN.md section 5).
// ---------------------------------------------------------------------------

class FocusedGuessingExperiment : public ExperimentBase {
 public:
  FocusedGuessingExperiment()
      : ExperimentBase(
            "focused-guessing",
            "fixed vs. per-email guess sets in the focused attack",
            "Section 4.3 interpretation (DESIGN.md section 5)") {
    schema_
        .add("inbox_size", ParamType::kUInt, "3000",
             "victim training-inbox size")
        .add("spam_fraction", ParamType::kDouble, "0.5",
             "spam share of the inbox")
        .add("attack", ParamType::kString, "focused",
             "registry attack crafting the per-target poison; must declare "
             "a fresh_guess_per_email parameter for the two guess models "
             "to differ")
        .add("attack_params", ParamType::kString, "",
             kAttackParamsHelp)
        .add("attack_count", ParamType::kUInt, "300",
             "attack emails per target")
        .add("target_count", ParamType::kUInt, "20",
             "target ham emails per guess model and probability")
        .add("guess_probabilities", ParamType::kDoubleList, "0.1,0.3,0.5,0.9",
             "attacker token-guess probabilities p")
        .add("seed", ParamType::kUInt, "20080404", "master RNG seed");
  }

  std::vector<std::pair<std::string, std::string>> quick_overrides()
      const override {
    return {{"inbox_size", "1000"},
            {"attack_count", "100"},
            {"target_count", "10"}};
  }

  ResultDoc run(const Config& config, const RunContext& ctx) const override {
    const corpus::TrecLikeGenerator generator;
    const BoundAttack bound = bind_attack(config.get_string("attack"), config);
    const std::size_t inbox_size = positive_uint(config, "inbox_size");
    const std::size_t attack_count = positive_uint(config, "attack_count");
    const std::size_t targets = positive_uint(config, "target_count");
    const std::vector<double> probabilities =
        config.get_double_list("guess_probabilities");
    const bool poison_spam =
        bound.attack->poison_label() == corpus::TrueLabel::spam;

    util::Rng rng(config.get_uint("seed"));
    const VictimInbox victim(generator, inbox_size,
                             config.get_double("spam_fraction"), {}, rng);
    const spambayes::Tokenizer tokenizer;

    // The headline metrics report the LOWEST listed probability (where the
    // two guess models differ most); the list itself runs in given order.
    std::size_t min_pi = 0;
    for (std::size_t i = 1; i < probabilities.size(); ++i) {
      if (probabilities[i] < probabilities[min_pi]) min_pi = i;
    }

    ctx.note(strf("running %zu targets x %zu probabilities x 2 guess "
                  "models...",
                  targets, probabilities.size()));
    ResultDoc doc = make_doc(config);
    tag_attack(doc, *bound.attack);
    Table& table = doc.add_table(
        "models", {"guess model", "p", "target->ham %", "target->unsure %",
                   "target->spam %"});
    for (bool fresh : {false, true}) {
      Series series{std::string(fresh ? "per-email" : "fixed") +
                        " (target misclassified, %)",
                    {}, {}};
      for (std::size_t pi = 0; pi < probabilities.size(); ++pi) {
        const double p = probabilities[pi];
        util::Config params = bound.params;
        if (params.has("guess_probability")) {
          params.set("guess_probability", round_trip_string(p));
        }
        if (params.has("fresh_guess_per_email")) {
          params.set("fresh_guess_per_email", fresh ? "true" : "false");
        }
        std::size_t as[3] = {0, 0, 0};
        for (std::size_t t = 0; t < targets; ++t) {
          util::Rng run_rng = rng.fork(1000 * (fresh ? 2 : 1) + 10 * t +
                                       static_cast<std::uint64_t>(p * 10));
          email::Message target = generator.generate_ham(run_rng);
          const std::vector<std::string> body_words =
              core::attackable_body_words(target, tokenizer);
          core::CraftContext cctx{generator,    params,      run_rng,
                                  attack_count, &target,     &body_words,
                                  &victim.spam_headers};
          spambayes::Filter filter = victim.filter;
          for (const auto& m : bound.attack->craft_poison(cctx)) {
            if (poison_spam) {
              filter.train_spam(m);
            } else {
              filter.train_ham(m);
            }
          }
          as[static_cast<int>(filter.classify(target).verdict)] += 1;
        }
        const double n = static_cast<double>(targets);
        table.add_row({fresh ? "per-email (independent)" : "fixed (paper)",
                       Table::cell(p, 1), Table::cell(100.0 * as[0] / n, 1),
                       Table::cell(100.0 * as[1] / n, 1),
                       Table::cell(100.0 * as[2] / n, 1)});
        series.x.push_back(p);
        series.y.push_back(100.0 * (as[1] + as[2]) / n);
        if (pi == min_pi) {
          doc.add_metric(fresh ? "per_email_min_p_misclassified_pct"
                               : "fixed_min_p_misclassified_pct",
                         100.0 * (as[1] + as[2]) / n);
        }
      }
      doc.series.push_back(std::move(series));
    }
    return doc;
  }
};

}  // namespace

void register_builtin_experiments(Registry& registry) {
  registry.add(std::make_unique<DictionaryExperiment>());
  registry.add(std::make_unique<FocusedKnowledgeExperiment>());
  registry.add(std::make_unique<FocusedSizeExperiment>());
  registry.add(std::make_unique<TokenShiftExperiment>());
  registry.add(std::make_unique<RoniExperiment>());
  registry.add(std::make_unique<ThresholdExperiment>());
  registry.add(std::make_unique<RetrainingExperiment>());
  registry.add(std::make_unique<GoodWordExperiment>());
  registry.add(std::make_unique<HamLabeledExperiment>());
  registry.add(std::make_unique<FocusedGuessingExperiment>());
}

}  // namespace sbx::eval
