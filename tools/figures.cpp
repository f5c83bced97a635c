// The paper's figures and tables as data. Each entry holds only what
// differs between figures: the registry experiment it runs and its fixed,
// quick and full overrides; its configurations (an axis cross-product
// through eval::expand_sweep, or a zipped list of variants); and how the
// runs render (a preamble per run group, the table, the chart, the CSV and
// the closing text). Everything else — banner, running the configurations
// in declaration order through Experiment::run, table assembly, CSV write
// and trailer — is the shared code below the table.
#include "figures.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "eval/registry.h"
#include "eval/sweep.h"
#include "spambayes/classifier.h"
#include "util/ascii_chart.h"
#include "util/error.h"
#include "util/table.h"

namespace sbx::tools {
namespace {

using eval::Config;
using eval::ResultDoc;
using util::Table;

/// One configuration and its result.
struct Run {
  Config config;
  ResultDoc doc;
};

/// Where one cell of a per-run row comes from.
struct Cell {
  enum From { kConfig, kFirstRow, kLastRow, kMetric, kFn } from;
  std::string key;  // config key or metric name
  int arg;          // source-row column, or metric decimals (-1: a count)
  std::string (*fn)(const Run&);
};

Cell config_value(const char* key) { return {Cell::kConfig, key, 0, nullptr}; }
Cell first_row(int column) { return {Cell::kFirstRow, "", column, nullptr}; }
Cell last_row(int column) { return {Cell::kLastRow, "", column, nullptr}; }
Cell metric(const char* name, int decimals) {
  return {Cell::kMetric, name, decimals, nullptr};
}
Cell computed(std::string (*fn)(const Run&)) { return {Cell::kFn, "", 0, fn}; }

struct Column {
  std::string header;
  Cell cell;
};

/// The output sections, printed in a figure's `layout` order.
enum class Part { kBlank, kTable, kReport, kChart, kCsv };

/// Figure-specific table assembly; may append to `report`.
using TableFn = Table (*)(const std::vector<Run>& runs,
                          std::vector<std::string>& report);

struct Figure {
  Figure(const char* n, const char* t, const char* ref, const char* e)
      : name(n), title(t), paper_ref(ref), experiment(e) {}

  std::string name;  // CSV stem and command argument
  std::string title;
  std::string paper_ref;
  const char* experiment;  // nullptr: renders without a run
  /// key=value overrides. A figure with its own scale overrides (`quick`,
  /// `full`) does not take the experiment's quick overrides under --quick.
  std::vector<std::string> fixed;  // at both scales
  std::vector<std::string> quick;  // --quick only
  std::vector<std::string> full;   // without --quick
  /// The configurations: the cross-product of `axes` (eval::expand_sweep),
  /// or with `zip` their i-th values together, one run per value index.
  std::vector<eval::SweepAxis> axes;
  std::vector<eval::SweepAxis> quick_axes;  // replaces `axes` under --quick
  bool zip = false;
  /// Printed before each run group (one value of the outermost crossed
  /// axis; all runs otherwise) with the group's first run. {key} is a
  /// raw config value, {key%} a fraction as a whole percentage,
  /// {metric:name} a document metric as a count and {taxonomy} the
  /// document's attack taxonomy.
  std::string preamble;
  /// The document table that rows come from: copied whole, each run's rows
  /// led by its entry of `labels` when `label_header` is set, or read by
  /// `columns`.
  const char* source_table = nullptr;
  const char* label_header = nullptr;
  std::vector<std::string> labels;
  std::vector<Column> columns;  // one row per run when non-empty
  TableFn table_fn = nullptr;   // replaces both when set
  /// Chart of the last run group: a lone run plots every series, a group
  /// of runs one curve each (its first series).
  const char* chart_glyphs = nullptr;
  const char* chart_y_label = nullptr;
  std::vector<Part> layout = {Part::kTable, Part::kCsv};
  std::string csv_noun = "CSV";
  std::string trailer;  // printed after a blank line
};

std::string strf(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

double doc_metric(const ResultDoc& doc, const std::string& name) {
  for (const auto& [key, value] : doc.metrics) {
    if (key == name) return value;
  }
  throw InvalidArgument(doc.experiment + " result has no metric '" + name +
                        "'");
}

// ---- figure-specific code ---------------------------------------------------

/// Dictionary-size ablation: misclassification per 10 KB of attack email.
std::string misclass_per_10kb(const Run& run) {
  const double bytes = doc_metric(run.doc, "attack_email_bytes");
  const double effect = doc_metric(run.doc, "final_ham_misclassified_pct");
  return Table::cell(effect / (bytes / 10'240.0), 2);
}

/// RONI-size ablation: the attack/non-attack separation margin.
std::string roni_margin(const Run& run) {
  return Table::cell(doc_metric(run.doc, "attack_min_impact") -
                         doc_metric(run.doc, "nonattack_max_impact"),
                     2);
}

/// Threshold ablation: the attacked point's block of the defense table
/// (the last 1 + |targets| rows: the static control, then one row per
/// utility target), labelled by variant.
Table threshold_variants(const std::vector<Run>& runs,
                         std::vector<std::string>&) {
  const Run& run = runs.front();
  const std::vector<double> targets =
      run.config.get_double_list("utility_targets");
  const auto& defense = run.doc.table("defense").rows();
  const std::size_t block = 1 + targets.size();
  const std::size_t attacked = defense.size() - block;

  Table table({"utility targets", "theta0", "theta1", "ham->spam %",
               "ham->spam|unsure %", "spam->unsure %", "spam->ham %"});
  for (std::size_t vi = 0; vi < block; ++vi) {
    const std::vector<std::string>& row = defense[attacked + vi];
    const std::string name =
        vi == 0 ? "static 0.15/0.90"
                : strf("g=(%.2f, %.2f)", targets[vi - 1],
                       1.0 - targets[vi - 1]);
    // defense columns: control %, attack msgs, variant, theta0, theta1,
    // ham->spam %, ham->spam|unsure %, spam->unsure %, spam->ham %.
    table.add_row({name, row[3], row[4], row[5], row[6], row[7], row[8]});
  }
  return table;
}

/// Table 1 from the registry's default configs, so editing a schema
/// default changes this table and the runs in lockstep.
Table table1_layout(const std::vector<Run>&, std::vector<std::string>& report) {
  const eval::Registry& registry = eval::builtin_registry();
  const Config dict = registry.get("dictionary").default_config();
  const Config focused = registry.get("focused-knowledge").default_config();
  const Config roni = registry.get("roni").default_config();
  const Config threshold = registry.get("threshold").default_config();
  const auto uint_cell = [](const Config& config, const char* key) {
    return std::to_string(config.get_uint(key));
  };
  const auto test_size = [](const Config& config) {
    return "~" + std::to_string(config.get_uint("training_set_size") /
                                (config.get_uint("folds") - 1));
  };
  const auto spam_cell = [](const Config& config) {
    return Table::cell(config.get_double("spam_fraction"), 2);
  };

  Table table({"Parameter", "Dictionary Attack", "Focused Attack",
               "RONI Defense", "Threshold Defense"});
  table.add_row({"Training set size", "2,000 / 10,000 (default 10,000)",
                 uint_cell(focused, "inbox_size"),
                 uint_cell(roni, "train_size"),
                 uint_cell(threshold, "training_set_size")});
  table.add_row({"Test set size", test_size(dict), "N/A",
                 uint_cell(roni, "validation_size"), test_size(threshold)});
  table.add_row({"Spam prevalence", spam_cell(dict), spam_cell(focused),
                 spam_cell(roni), spam_cell(threshold)});
  table.add_row({"Attack fraction", "0.001,0.005,0.01,0.02,0.05,0.10",
                 "0.02 to 0.10 by 0.02 (Fig 3)", "0.05 (variants, Fig RONI)",
                 "0.001,0.01,0.05,0.10"});
  table.add_row({"Folds of validation", uint_cell(dict, "folds"),
                 uint_cell(focused, "repetitions") + " repetitions",
                 uint_cell(roni, "resamples") + " repetitions",
                 uint_cell(threshold, "folds")});
  table.add_row({"Target emails", "N/A", uint_cell(focused, "target_count"),
                 "N/A", "N/A"});

  const spambayes::ClassifierOptions options;
  report.push_back(strf(
      "SpamBayes defaults: s=%.2f, x=%.2f, max_discriminators=%zu, "
      "band=[0.4,0.6], theta0=%.2f, theta1=%.2f",
      options.unknown_word_strength, options.unknown_word_prob,
      options.max_discriminators, options.ham_cutoff, options.spam_cutoff));
  return table;
}

// ---- the figure table -------------------------------------------------------

std::vector<Figure> build_figures() {
  std::vector<Figure> figures;
  // Each entry is filled through `f` until the next add() moves it on.
  Figure* f = nullptr;
  const auto add = [&figures](const char* name, const char* title,
                              const char* ref, const char* experiment) {
    return &figures.emplace_back(name, title, ref, experiment);
  };
  // The 1% point of the dictionary experiment on the historical grid
  // shape: 2,000 x 5-fold under --quick, not the experiment's own quick
  // overrides. Curve columns: training set, attack, dict words, control %,
  // attack msgs, ham->spam %, ham->spam|unsure %, fold stddev,
  // spam->misc %, token ratio; the first row is the control, the last the
  // attack point.
  const auto one_percent_grid = [](Figure& figure) {
    figure.fixed.push_back("attack_fractions=0.01");
    figure.quick = {"training_set_size=2000", "folds=5"};
    figure.full = {"training_set_size=10000", "folds=10"};
    figure.source_table = "curve";
  };

  f = add("fig1_dictionary",
          "Figure 1: dictionary attacks vs. percent control of training set",
          "Figure 1 + Section 4.2 of Nelson et al. 2008", "dictionary");
  // Table 1 lists both training-set sizes; --quick runs the small one.
  f->axes = {{"training_set_size", {"2000", "10000"}},
             {"attack", {"optimal", "usenet", "aspell"}}};
  f->quick_axes = {{"training_set_size", {"2000"}}, f->axes[1]};
  f->preamble =
      "running: {training_set_size}-message training set ({spam_fraction%} "
      "spam), {folds}-fold CV...\n";
  f->source_table = "curve";
  f->chart_glyphs = "OUA";
  f->chart_y_label = "percent of test ham misclassified";
  f->layout = {Part::kBlank, Part::kTable, Part::kChart, Part::kCsv};
  f->trailer =
      "paper shape check: optimal >> usenet > aspell; all curves rise\n"
      "steeply and the filter is unusable by ~1% control (101 messages).\n"
      "The fold-stddev column verifies §4.1's 'variation on our tests was\n"
      "small' remark (no error bars in the paper's graphs).\n";

  f = add("fig2_focused_knowledge",
          "Figure 2: focused attack vs. attacker knowledge",
          "Figure 2 of Nelson et al. 2008", "focused-knowledge");
  f->preamble =
      "inbox: {inbox_size} messages ({spam_fraction%} spam); {attack_count} "
      "attack emails; {target_count} targets x {repetitions} repetitions\n\n";
  f->source_table = "knowledge";
  f->trailer =
      "paper shape check: attack success rises with p; at p=0.3 the\n"
      "paper reports classification changes on ~60% of targets, and at\n"
      "p=0.9 nearly all targets leave the inbox.\n";

  f = add("fig3_focused_size", "Figure 3: focused attack vs. attack size",
          "Figure 3 of Nelson et al. 2008", "focused-size");
  f->preamble =
      "inbox: {inbox_size} messages ({spam_fraction%} spam); guess "
      "probability 0.5; {target_count} targets x {repetitions} "
      "repetitions\n\n";
  f->source_table = "size";
  f->chart_glyphs = "Ss";
  f->chart_y_label = "percent of target ham misclassified";
  f->layout = {Part::kTable, Part::kChart, Part::kCsv};
  f->trailer =
      "paper shape check: both lines rise with attack size; the paper\n"
      "reports ~32% target->spam at 100 attack emails (2% of 5,000).\n";

  f = add("fig4_token_shift",
          "Figure 4: token score shift under the focused attack",
          "Figure 4 of Nelson et al. 2008", "token-shift");
  f->source_table = "tokens";
  f->layout = {Part::kReport, Part::kCsv};
  f->csv_noun = "per-token CSV";
  f->trailer =
      "paper shape check: tokens included in the attack jump toward 1.0\n"
      "while excluded tokens decrease slightly; the after-histogram mass\n"
      "piles up at the spammy end for misclassified targets.\n";

  f = add("fig5_threshold", "Figure 5: dynamic threshold defense",
          "Figure 5 + Section 5.2 of Nelson et al. 2008", "threshold");
  f->preamble =
      "training set: {training_set_size} messages ({spam_fraction%} spam), "
      "{folds}-fold CV; Usenet dictionary attack\n\n";
  f->source_table = "defense";
  f->chart_glyphs = "N51";
  f->chart_y_label = "percent of test ham misclassified";
  f->layout = {Part::kTable, Part::kChart, Part::kCsv};
  f->trailer =
      "paper shape check: with the defense, ham->spam stays ~0 and\n"
      "ham->unsure stays moderate even under attack, but spam->unsure\n"
      "explodes — the defense trades spam certainty for ham safety.\n";

  f = add("table1_parameters", "Table 1: experiment parameters",
          "Table 1 of Nelson et al. 2008", nullptr);
  f->table_fn = table1_layout;
  f->layout = {Part::kTable, Part::kReport};

  f = add("roni_defense", "RONI defense vs. dictionary attacks",
          "Section 5.1 of Nelson et al. 2008", "roni");
  f->preamble =
      "RONI: |T|={train_size}, |V|={validation_size}, {resamples} resamples, "
      "rejection threshold {rejection_threshold}; {nonattack_queries} "
      "non-attack spam queries; {attack_repetitions} reps per attack "
      "variant\n\n";
  f->source_table = "assessments";
  f->layout = {Part::kTable, Part::kCsv, Part::kReport};

  f = add("ablation_dictionary_size",
          "Ablation: dictionary size vs. attack effectiveness (1% control)",
          "Section 3.2 remark (informed attacks, smaller emails)",
          "dictionary");
  one_percent_grid(*f);
  f->axes = {{"attack", {"usenet", "usenet", "usenet", "usenet", "aspell"}},
             {"dictionary_size", {"10000", "25000", "50000", "90000", "0"}}};
  f->zip = true;
  f->columns = {{"attack", last_row(1)},
                {"dict words", last_row(2)},
                {"email bytes", metric("attack_email_bytes", -1)},
                {"ham->spam %", last_row(5)},
                {"ham->spam|unsure %", last_row(6)},
                {"misclass per 10KB", computed(misclass_per_10kb)}};
  f->trailer =
      "reading: the top-ranked truncations keep most of the damage at a\n"
      "fraction of the bytes — the paper's 'smaller emails' remark — while\n"
      "coverage of the victim's rare-word tail is what the full lists buy.\n";

  f = add("ablation_focused_guessing",
          "Ablation: fixed vs. per-email guess sets in the focused attack",
          "Section 4.3 interpretation (DESIGN.md section 5)",
          "focused-guessing");
  f->preamble =
      "inbox {inbox_size} (50% spam), {attack_count} attack emails, "
      "{target_count} targets\n\n";
  f->source_table = "models";
  f->trailer =
      "reading: under per-email guessing even p=0.1 behaves like near-full\n"
      "knowledge (every target token lands in some payload, and each email\n"
      "adds spam evidence), so the Figure-2 p-dependence only exists under\n"
      "the fixed-knowledge model.\n";

  f = add("ablation_informed",
          "Ablation: optimal constrained attack vs. approximations (1% "
          "control)",
          "Section 3.4 'optimal constrained attack' (future work)",
          "dictionary");
  one_percent_grid(*f);
  f->axes = {{"dictionary_size", {"5000", "10000", "25000", "44000"}},
             {"attack", {"informed", "usenet", "aspell"}}};
  f->columns = {{"budget", config_value("dictionary_size")},
                {"attack", last_row(1)},
                {"ham->spam %", last_row(5)},
                {"ham->spam|unsure %", last_row(6)}};
  f->trailer =
      "reading: at every budget the distribution-informed payload\n"
      "dominates the Usenet ranking, which dominates the unranked\n"
      "dictionary — knowledge of p buys attack efficiency, exactly the\n"
      "spectrum Section 3.4 describes between the dictionary and focused\n"
      "extremes.\n";

  f = add("ablation_roni_sizes", "Ablation: RONI (|T|, |V|) scaling",
          "Section 5.1 future-work remark", "roni");
  f->fixed = {"attack=usenet,aspell"};
  f->quick = {"nonattack_queries=20", "attack_repetitions=4",
              "pool_size=400"};
  f->full = {"nonattack_queries=60", "attack_repetitions=10",
             "pool_size=1000"};
  // |T| and |V| move together from the paper's (20, 50); the rejection
  // threshold scales with |V|'s ham share (the paper's 5.5 was tuned for
  // 25 ham in V).
  f->axes = {{"train_size", {"10", "20", "40", "80"}},
             {"validation_size", {"25", "50", "100", "200"}},
             {"rejection_threshold", {"2.75", "5.5", "11", "22"}}};
  f->zip = true;
  f->columns = {{"|T|", config_value("train_size")},
                {"|V|", config_value("validation_size")},
                {"nonattack max", metric("nonattack_max_impact", 2)},
                {"attack min", metric("attack_min_impact", 2)},
                {"margin", computed(roni_margin)},
                {"attack rejected %", metric("attack_rejected_pct", 1)},
                {"false pos %", metric("nonattack_rejected_pct", 1)}};
  f->trailer =
      "reading: the separation margin grows with |V| (more ham to knock\n"
      "over) and detection stays at 100% across the sweep, confirming the\n"
      "paper's expectation that larger test sets only help.\n";

  f = add("ablation_threshold_sweep",
          "Ablation: dynamic-threshold utility targets (5% usenet attack)",
          "Section 5.2 closing remark", "threshold");
  f->fixed = {"attack_fractions=0.05", "utility_targets=0.01,0.05,0.1,0.2"};
  f->table_fn = threshold_variants;
  f->trailer =
      "reading: tighter targets (0.01/0.99) push both cutoffs toward the\n"
      "extremes — maximal ham protection, most spam downgraded to unsure;\n"
      "looser targets trade some ham-as-unsure for crisper spam verdicts.\n";

  f = add("ext_good_words",
          "Extension: good-word evasion (Exploratory) vs. poisoning "
          "(Causative)",
          "Sections 3.1 + 6 (Lowd-Meek / Wittel-Wu contrast)", "good-word");
  f->preamble =
      "victim filter trained on {inbox_size} messages\n\n"
      "good-word attack taxonomy: {taxonomy}\n";
  f->source_table = "evasion";
  f->layout = {Part::kTable, Part::kReport, Part::kBlank, Part::kCsv};
  f->trailer =
      "reading: evasion into the unsure folder is cheap per message but\n"
      "helps only that message; reaching a ham verdict is much harder.\n"
      "Poisoning amortizes: one small causative injection degrades the\n"
      "victim's mail service wholesale — the paper's core point.\n";

  f = add("ext_ham_labeled",
          "Extension: ham-labeled poisoning (Causative Integrity)",
          "Section 2.2 remark (more powerful attacks)", "ham-labeled");
  f->source_table = "campaign";
  f->layout = {Part::kReport, Part::kTable, Part::kCsv};
  f->trailer =
      "reading: a few percent of ham-labeled injection moves the campaign\n"
      "out of the spam folder (into the inbox or the unsure folder users\n"
      "end up reading, §2.1) while legitimate ham is untouched — and RONI\n"
      "never fires because the attack *improves* ham classification.\n"
      "Residual header evidence (which the attacker cannot whiten) is what\n"
      "keeps part of the campaign at unsure. Defending this channel needs\n"
      "a symmetric gate (e.g. impact on spam recall); the paper leaves it\n"
      "open.\n";

  f = add("ext_retraining",
          "Extension: attack persistence across weekly retraining",
          "Section 2.1 deployment scenario", "retraining");
  f->fixed = {"window_weeks=3"};
  f->axes = {{"cumulative", {"true", "false", "true", "false"}},
             {"roni_gate", {"false", "false", "true", "true"}},
             {"dynamic_thresholds", {"false", "false", "false", "true"}}};
  f->zip = true;
  f->preamble =
      "{weeks} weeks x {messages_per_week} msgs; "
      "{metric:attack_copies_offered} attack copies land in week 2\n\n";
  f->source_table = "timeline";
  f->label_header = "scenario";
  f->labels = {"cumulative", "3-week window", "cumulative + RONI",
               "window + RONI + thresholds"};
  f->trailer =
      "reading: under cumulative retraining the week-2 poison degrades\n"
      "every later week (diluting only slowly); a sliding window forgets it\n"
      "after the window passes; the RONI gate rejects the injection at\n"
      "arrival so no week is ever degraded.\n";

  f = add("ext_tokenizer_flavors",
          "Extension: dictionary attack vs. tokenizer flavors (1% control)",
          "footnote 1 + Section 7 conjecture", "dictionary");
  one_percent_grid(*f);
  f->fixed.push_back("attack=usenet");
  f->axes = {{"tokenizer", {"spambayes", "bogofilter", "spamassassin"}}};
  f->columns = {{"flavor", config_value("tokenizer")},
                {"control %", last_row(3)},
                {"baseline ham misc %", first_row(6)},
                {"attacked ham->spam %", last_row(5)},
                {"attacked ham->spam|unsure %", last_row(6)}};
  f->trailer =
      "reading: the attack transfers to every flavor (the learner, not\n"
      "the tokenizer, is the vulnerability); unprefixed header tokenization\n"
      "is strictly worse for the victim because body-only poison then also\n"
      "taints header evidence.\n";
  return figures;
}

const std::vector<Figure>& figures() {
  static const std::vector<Figure> table = build_figures();
  return table;
}

// ---- shared rendering -------------------------------------------------------

/// Expands the preamble placeholders (see Figure::preamble) for one run.
std::string fill(const std::string& text, const Run& run) {
  std::string out;
  std::size_t pos = 0;
  std::size_t open;
  while ((open = text.find('{', pos)) != std::string::npos) {
    const std::size_t close = text.find('}', open);
    out += text.substr(pos, open - pos);
    const std::string field = text.substr(open + 1, close - open - 1);
    if (field == "taxonomy") {
      out += run.doc.attack_taxonomy;
    } else if (field.rfind("metric:", 0) == 0) {
      out += std::to_string(static_cast<std::size_t>(
          doc_metric(run.doc, field.substr(7))));
    } else if (field.back() == '%') {
      out += strf("%.0f%%", 100.0 * run.config.get_double(field.substr(
                                          0, field.size() - 1)));
    } else {
      out += run.config.raw_value(field);
    }
    pos = close + 1;
  }
  return out + text.substr(pos);
}

std::string cell_text(const Cell& cell, const Figure& figure, const Run& run) {
  switch (cell.from) {
    case Cell::kConfig:
      return run.config.raw_value(cell.key);
    case Cell::kFirstRow:
      return run.doc.table(figure.source_table).rows().front()[cell.arg];
    case Cell::kLastRow:
      return run.doc.table(figure.source_table).rows().back()[cell.arg];
    case Cell::kMetric: {
      const double value = doc_metric(run.doc, cell.key);
      return cell.arg < 0 ? Table::cell(static_cast<std::size_t>(value))
                          : Table::cell(value, cell.arg);
    }
    case Cell::kFn:
      return cell.fn(run);
  }
  return "";
}

Table assemble(const Figure& figure, const std::vector<Run>& runs,
               std::vector<std::string>& report) {
  if (figure.table_fn != nullptr) return figure.table_fn(runs, report);
  if (!figure.columns.empty()) {
    std::vector<std::string> headers;
    for (const Column& column : figure.columns) {
      headers.push_back(column.header);
    }
    Table table(headers);
    for (const Run& run : runs) {
      std::vector<std::string> row;
      for (const Column& column : figure.columns) {
        row.push_back(cell_text(column.cell, figure, run));
      }
      table.add_row(std::move(row));
    }
    return table;
  }
  std::vector<std::string> headers =
      runs.front().doc.table(figure.source_table).headers();
  if (figure.label_header != nullptr) {
    headers.insert(headers.begin(), figure.label_header);
  }
  Table table(headers);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (const auto& row : runs[i].doc.table(figure.source_table).rows()) {
      std::vector<std::string> cells = row;
      if (figure.label_header != nullptr) {
        cells.insert(cells.begin(), figure.labels.at(i));
      }
      table.add_row(std::move(cells));
    }
  }
  return table;
}

std::string chart(const Figure& figure, const std::vector<Run>& runs,
                  std::size_t group) {
  const std::size_t glyph_count = std::strlen(figure.chart_glyphs);
  std::vector<util::ChartSeries> series;
  for (std::size_t i = runs.size() - group; i < runs.size(); ++i) {
    const std::vector<eval::Series>& curves = runs[i].doc.series;
    const std::size_t n = group > 1 ? 1 : curves.size();
    for (std::size_t j = 0; j < n; ++j) {
      series.push_back({curves[j].name,
                        figure.chart_glyphs[series.size() % glyph_count],
                        curves[j].x, curves[j].y});
    }
  }
  util::ChartOptions options;
  options.y_min = 0.0;
  options.y_max = 100.0;
  options.x_label = "percent control of training set";
  options.y_label = figure.chart_y_label;
  return util::render_chart(series, options);
}

const Figure& find_figure(const std::string& name) {
  for (const Figure& figure : figures()) {
    if (figure.name == name) return figure;
  }
  throw InvalidArgument("unknown figure '" + name +
                        "' (see `sbx_experiments figure list`)");
}

}  // namespace

int list_figures() {
  std::printf("%-26s %-18s %s\n", "figure", "experiment", "reproduces");
  for (const Figure& figure : figures()) {
    std::printf("%-26s %-18s %s\n", figure.name.c_str(),
                figure.experiment != nullptr ? figure.experiment : "-",
                figure.paper_ref.c_str());
  }
  return 0;
}

int run_figure(const std::string& name, bool quick, std::size_t threads,
               std::optional<std::uint64_t> seed,
               const std::optional<std::string>& out_dir) {
  const Figure& figure = find_figure(name);
  const char* rule =
      "==========================================================\n";
  std::printf("%s%s\nreproduces: %s\n%s", rule, figure.title.c_str(),
              figure.paper_ref.c_str(), rule);

  std::vector<Run> runs;
  std::size_t group = 0;  // runs per preamble (and in the chart)
  if (figure.experiment != nullptr) {
    const eval::Experiment& experiment =
        eval::builtin_registry().get(figure.experiment);
    std::vector<std::string> overrides = figure.fixed;
    const auto& scaled = quick ? figure.quick : figure.full;
    overrides.insert(overrides.end(), scaled.begin(), scaled.end());
    const Config base = eval::resolve_config(
        experiment, quick && figure.quick.empty() && figure.full.empty(),
        overrides, seed);

    const auto& axes =
        quick && !figure.quick_axes.empty() ? figure.quick_axes : figure.axes;
    std::vector<Config> configs;
    if (figure.zip) {
      configs.assign(axes[0].values.size(), base);
      for (std::size_t i = 0; i < configs.size(); ++i) {
        for (const auto& axis : axes) {
          configs[i].set(axis.key, axis.values.at(i));
        }
      }
      group = configs.size();
    } else {
      configs = eval::expand_sweep(base, axes);
      group = configs.size() / (axes.empty() ? 1 : axes[0].values.size());
    }

    eval::RunContext ctx;
    ctx.threads = threads;
    for (Config& config : configs) {
      ResultDoc doc = experiment.run(config, ctx);
      runs.push_back({std::move(config), std::move(doc)});
    }
  }

  for (std::size_t i = 0; i < runs.size(); i += group) {
    std::fputs(fill(figure.preamble, runs[i]).c_str(), stdout);
  }
  std::vector<std::string> report;
  if (!runs.empty()) report = runs.back().doc.report;
  const Table table = assemble(figure, runs, report);

  for (const Part part : figure.layout) {
    switch (part) {
      case Part::kBlank:
        std::printf("\n");
        break;
      case Part::kTable:
        std::printf("%s\n", table.to_text().c_str());
        break;
      case Part::kReport:
        for (const auto& line : report) std::printf("%s\n", line.c_str());
        break;
      case Part::kChart:
        std::printf("%s\n", chart(figure, runs, group).c_str());
        break;
      case Part::kCsv:
        if (out_dir.has_value()) {
          const std::string path = *out_dir + "/" + figure.name + ".csv";
          table.write_csv(path);
          std::printf("%s written to %s\n", figure.csv_noun.c_str(),
                      path.c_str());
        }
        break;
    }
  }
  if (!figure.trailer.empty()) {
    std::printf("\n%s", figure.trailer.c_str());
  }
  return 0;
}

}  // namespace sbx::tools
