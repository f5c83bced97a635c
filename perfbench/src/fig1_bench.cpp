// fig1_sweep's in-process re-run: the Figure-1 pipeline of every sweep
// configuration, rebuilt from the public corpus, core and eval calls the
// dictionary experiment makes, in the same order and with the same RNG
// forks. run.py compares its confusion matrices with the ResultDocs the
// sbx_experiments sweep wrote; in a traced run every call sits in a span.
// --setup-only stops each configuration after its set-up phase, for the
// extra set-up time samples run.py takes between sweeps.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "common.h"
#include "core/attack_math.h"
#include "corpus/dataset.h"
#include "corpus/generator.h"
#include "eval/attack_axis.h"
#include "eval/experiments.h"
#include "eval/filter_axis.h"
#include "eval/registry.h"
#include "eval/runner.h"
#include "spambayes/interner.h"
#include "trace.h"
#include "util/stats.h"
#include "util/table.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the calling thread (excludes time the host stole).
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

struct Names {
  explicit Names(Tracer* t)
      : config(t ? t->name_id("fig1.config") : 0),
        setup(t ? t->name_id("fig1.setup") : 0),
        craft(t ? t->name_id("core.craft_poison") : 0),
        sample(t ? t->name_id("corpus.sample") : 0),
        tokenize(t ? t->name_id("corpus.tokenize_dataset") : 0),
        fold(t ? t->name_id("eval.fold") : 0),
        train(t ? t->name_id("eval.fold_train") : 0),
        classify(t ? t->name_id("eval.fold_classify") : 0) {}
  std::uint32_t config, setup, craft, sample, tokenize, fold, train, classify;
};

struct ConfigResult {
  std::string attack;
  double setup_s = 0;      // wall
  double setup_cpu_s = 0;  // this thread's CPU time
  std::string json;  // rows and exact rates, for run.py to compare
};

/// One configuration, as DictionaryExperiment::run and
/// run_dictionary_curve compute it (trigger measurement excluded: the
/// swept attacks carry no trigger).
ConfigResult run_config(const sbx::eval::Config& config, Tracer* tracer,
                        const Names& n, std::uint64_t trial, bool setup_only) {
  const ScopedSpan whole(tracer, n.config, trial);
  const auto t0 = Clock::now();
  const double cpu0 = thread_cpu_s();
  sbx::spambayes::TokenIdSet attack_ids;
  sbx::eval::PoisonSpec spec;
  sbx::corpus::TokenizedDataset tokenized;
  std::vector<sbx::corpus::FoldSplit> folds;
  const std::uint64_t seed = config.get_uint("seed");
  const std::size_t tss = config.get_uint("training_set_size");
  const std::size_t k = config.get_uint("folds");
  const sbx::spambayes::FilterOptions filter_opts =
      sbx::eval::resolve_filter_options(config);
  sbx::eval::Runner runner(seed, 1);
  {
    const ScopedSpan setup(tracer, n.setup, trial);
    const sbx::corpus::TrecLikeGenerator generator;
    {
      const ScopedSpan s(tracer, n.craft, trial);
      const sbx::eval::BoundAttack bound =
          sbx::eval::bind_attack(config.get_string("attack"), config);
      sbx::util::Rng craft_rng(seed ^ 0x63726166742d726eULL);
      spec = sbx::eval::resolve_poison(bound, generator, craft_rng);
    }
    const std::size_t pool = tss * k / (k - 1);
    sbx::util::Rng corpus_rng = runner.fork(1);
    sbx::corpus::Dataset dataset;
    {
      const ScopedSpan s(tracer, n.sample, trial);
      dataset = generator.sample_mailbox(
          pool, config.get_double("spam_fraction"), corpus_rng);
    }
    const sbx::spambayes::Tokenizer tokenizer(filter_opts.tokenizer);
    {
      const ScopedSpan s(tracer, n.tokenize, trial);
      tokenized = sbx::corpus::tokenize_dataset(dataset, tokenizer);
    }
    attack_ids = sbx::spambayes::unique_token_ids(
        tokenizer.tokenize_ids(spec.message));
    sbx::util::Rng fold_rng = runner.fork(2);
    folds = sbx::corpus::k_fold_splits(tokenized.size(), k, fold_rng);
  }
  ConfigResult result;
  result.attack = config.get_string("attack");
  result.setup_s = seconds_since(t0);
  result.setup_cpu_s = thread_cpu_s() - cpu0;
  if (setup_only) {
    JsonLine j;
    j.str("attack", result.attack)
        .num("setup_s", result.setup_s)
        .num("setup_cpu_s", result.setup_cpu_s);
    result.json = j.text();
    return result;
  }

  std::vector<double> fractions = config.get_double_list("attack_fractions");
  std::sort(fractions.begin(), fractions.end());
  fractions.insert(fractions.begin(), 0.0);
  std::vector<sbx::eval::ConfusionMatrix> per_fraction(fractions.size());
  std::vector<sbx::util::RunningStats> spread(fractions.size());
  const bool as_spam = spec.train_as == sbx::corpus::TrueLabel::spam;
  for (std::size_t f = 0; f < folds.size(); ++f) {
    const ScopedSpan fold_span(tracer, n.fold, trial);
    const sbx::corpus::FoldSplit& split = folds[f];
    sbx::spambayes::Filter filter(filter_opts);
    {
      const ScopedSpan s(tracer, n.train, trial);
      sbx::eval::train_on_indices(filter, tokenized, split.train);
    }
    std::size_t trained = 0;
    for (std::size_t pi = 0; pi < fractions.size(); ++pi) {
      const std::size_t want =
          sbx::core::attack_message_count(split.train.size(), fractions[pi]);
      if (want > trained) {
        const ScopedSpan s(tracer, n.train, trial);
        const auto copies = static_cast<std::uint32_t>(want - trained);
        if (as_spam) {
          filter.train_spam_ids(attack_ids, copies);
        } else {
          filter.train_ham_ids(attack_ids, copies);
        }
        trained = want;
      }
      sbx::eval::ConfusionMatrix m;
      {
        const ScopedSpan s(tracer, n.classify, trial);
        m = sbx::eval::classify_indices(filter, tokenized, split.test);
      }
      per_fraction[pi].merge(m);
      spread[pi].add(m.ham_misclassified_rate());
    }
  }

  using sbx::util::Table;
  const std::size_t train_size = folds.front().train.size();
  std::ostringstream rows, exact;
  for (std::size_t pi = 0; pi < fractions.size(); ++pi) {
    const auto& m = per_fraction[pi];
    rows << (pi ? "," : "") << "[\""
         << sbx::core::attack_message_count(train_size, fractions[pi])
         << "\", \"" << Table::cell(100.0 * m.ham_as_spam_rate(), 1)
         << "\", \"" << Table::cell(100.0 * m.ham_misclassified_rate(), 1)
         << "\", \"" << Table::cell(100.0 * spread[pi].stddev(), 1)
         << "\", \"" << Table::cell(100.0 * m.spam_misclassified_rate(), 1)
         << "\"]";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", 100.0 * m.ham_misclassified_rate());
    exact << (pi ? "," : "") << buf;
  }
  JsonLine j;
  j.str("attack", result.attack)
      .num("setup_s", result.setup_s)
      .num("setup_cpu_s", result.setup_cpu_s)
      .raw("rows", "[" + rows.str() + "]")
      .raw("ham_misclassified_pct", "[" + exact.str() + "]");
  result.json = j.text();
  return result;
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(item);
  return out;
}

}  // namespace

int cmd_fig1(Args& args) {
  const std::uint64_t seed = args.num("seed", 1);
  const std::vector<std::string> attacks = split_list(args.str("attacks"));
  const std::string tss = args.str("training-set-size");
  const std::string folds = args.str("folds");
  const std::size_t threads = args.num("threads", 4);
  const std::string trace_csv = args.opt("trace");
  const bool setup_only = args.flag("setup-only");
  args.finish();

  const sbx::eval::Experiment& experiment =
      sbx::eval::builtin_registry().get("dictionary");
  std::vector<sbx::eval::Config> configs;
  for (const std::string& attack : attacks) {
    configs.push_back(sbx::eval::resolve_config(
        experiment, false,
        {"attack=" + attack, "training_set_size=" + tss, "folds=" + folds},
        seed));
  }

  std::unique_ptr<Tracer> tracer;
  if (!trace_csv.empty()) tracer = std::make_unique<Tracer>();
  const Names names(tracer.get());

  // Configurations run side by side, each with its folds inline, the way
  // the sweep schedules them on its pool.
  std::vector<ConfigResult> results(configs.size());
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> workers;
    std::atomic<std::size_t> next{0};
    const std::size_t width = std::min(threads, configs.size());
    for (std::size_t w = 0; w < width; ++w) {
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < configs.size(); i = next++) {
          results[i] =
              run_config(configs[i], tracer.get(), names, i + 1, setup_only);
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }
  const double wall_s = seconds_since(t0);

  std::string docs;
  for (const ConfigResult& r : results) {
    docs += (docs.empty() ? "" : ", ") + r.json;
  }
  JsonLine out;
  out.num("wall_s", wall_s).raw("configs", "[" + docs + "]");
  if (tracer) {
    const auto t = tracer->totals();
    const double cfgs = static_cast<double>(configs.size());
    const double nfolds =
        t.count("eval.fold") ? static_cast<double>(t.at("eval.fold").count)
                             : 0;
    auto total_s = [&](const char* name, double per) {
      const auto it = t.find(name);
      return it == t.end() || per <= 0 ? 0.0 : it->second.total_us / 1e6 / per;
    };
    JsonLine layers;
    layers.num("corpus.sample_s", total_s("corpus.sample", cfgs))
        .num("corpus.tokenize_dataset_s",
             total_s("corpus.tokenize_dataset", cfgs))
        .num("core.craft_poison_s", total_s("core.craft_poison", cfgs))
        .num("eval.fold_train_s", total_s("eval.fold_train", nfolds))
        .num("eval.fold_classify_s", total_s("eval.fold_classify", nfolds))
        .num("util.thread_pool.busy_share",
             total_s("eval.fold", 1) /
                 (static_cast<double>(threads) * wall_s))
        .count("spambayes.interner_tokens",
               sbx::spambayes::global_interner().size())
        .count("trace.spans", tracer->collect().size());
    out.raw("layers", layers.text());
    tracer->write_csv(trace_csv);
  }
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace perfbench
