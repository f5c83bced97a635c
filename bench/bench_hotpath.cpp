// bench_hotpath: machine-readable perf baselines for the hot paths the
// interning + score-engine refactors target — classification (msgs/sec)
// through the interned id path, the base + overlay path served users with
// feedback take and a ScoreEngine over one database (single-message and
// zero-alloc batch, long enough to reach the engine's score table),
// train/untrain round trips (ops/sec), RONI's assess shape (train, classify
// a few messages, train, classify; ops/sec), tokenization (MB/s),
// including the lookup-only tokenize served classify runs, the served
// per-message path end to end minus transport (msgs/sec), a served
// copy-on-write train into an overlay a dictionary attack widened
// (ops/sec), and the batch train of one Aspell attack email as 101 copies
// into a fresh filter (ops/sec).
//
// It emits JSON for the tracked BENCH_baseline.json regression gate
// (tools/check_bench.py compares a fresh run against the committed
// baseline and fails CI on >25% throughput regression).
//
//   $ ./bench_hotpath [--quick] [--min-seconds=S] [--json=PATH]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/dictionary_attack.h"
#include "corpus/generator.h"
#include "corpus/vocabulary.h"
#include "email/rfc2822.h"
#include "serve/base_model.h"
#include "serve/frontend.h"
#include "serve/shard.h"
#include "serve/wal.h"
#include "spambayes/filter.h"
#include "spambayes/score_engine.h"
#include "util/random.h"

namespace {

using Clock = std::chrono::steady_clock;

/// Runs `op` in growing batches until at least `min_seconds` of wall clock
/// has been spent, returning operations per second.
template <typename Op>
double ops_per_sec(double min_seconds, Op&& op) {
  // Warm-up: touch caches/pages, and give the optimizer-visible state its
  // steady shape.
  for (int i = 0; i < 3; ++i) op();
  std::size_t batch = 8;
  std::size_t total_ops = 0;
  double total_sec = 0.0;
  while (total_sec < min_seconds) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) op();
    total_sec += std::chrono::duration<double>(Clock::now() - start).count();
    total_ops += batch;
    if (batch < (std::size_t{1} << 20)) batch *= 2;
  }
  return static_cast<double>(total_ops) / total_sec;
}

volatile double g_sink = 0.0;  // keeps scores observable

struct Metric {
  std::string name;
  double value = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  double min_seconds = 0.4;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      min_seconds = 0.08;
    } else if (std::strncmp(arg, "--min-seconds=", 14) == 0) {
      min_seconds = std::atof(arg + 14);
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path = arg + 7;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf("usage: %s [--quick] [--min-seconds=S] [--json=PATH]\n",
                  argv[0]);
      return 0;
    }
  }

  using namespace sbx;
  const corpus::TrecLikeGenerator gen;
  const spambayes::Tokenizer tok;

  // --- classification: 400-message filter, fresh ham probe ---------------
  util::Rng rng(4);
  spambayes::Filter filter;
  for (int i = 0; i < 200; ++i) {
    filter.train_ham_ids(spambayes::unique_token_ids(
        tok.tokenize_ids(gen.generate_ham(rng))));
    filter.train_spam_ids(spambayes::unique_token_ids(
        tok.tokenize_ids(gen.generate_spam(rng))));
  }
  const email::Message probe_msg = gen.generate_ham(rng);
  const spambayes::TokenIdSet probe_ids =
      spambayes::unique_token_ids(tok.tokenize_ids(probe_msg));

  const double classify_interned = ops_per_sec(min_seconds, [&] {
    g_sink = filter.classifier().score_ids(filter.database(), probe_ids).score;
  });

  // Overlay path: the same probe against the filter plus a 28-message
  // per-user overlay (the served feedback steady state), scored through
  // the engine's fresh base + overlay source.
  util::Rng overlay_rng(5);
  spambayes::TokenDatabase overlay;
  for (int i = 0; i < 14; ++i) {
    overlay.train_ham_ids(spambayes::unique_token_ids(
        tok.tokenize_ids(gen.generate_ham(overlay_rng))));
    overlay.train_spam_ids(spambayes::unique_token_ids(
        tok.tokenize_ids(gen.generate_spam(overlay_rng))));
  }
  const double classify_overlay = ops_per_sec(min_seconds, [&] {
    g_sink = filter.classifier()
                 .score_ids(filter.database(), overlay, probe_ids)
                 .score;
  });

  // Engine path: same probe against the same static database. The engine
  // scores it fresh until its lookups reach the database's id range, then
  // builds one ScoreTable for the generation and reads it for every later
  // call (score_engine.h): the experiment-loop shape, thousands of
  // classifies between training events. The warm-up and the first timed
  // batches cross into the table, so the row measures mostly the table.
  spambayes::ScoreEngine engine(filter.options().classifier);
  const double classify_engine = ops_per_sec(min_seconds, [&] {
    g_sink = engine.score_ids(filter.database(), probe_ids).score;
  });

  // Batch path: 64 distinct fresh messages per op through the zero-alloc
  // sink API (per-message evidence buffers reused across the batch).
  std::vector<spambayes::TokenIdSet> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(spambayes::unique_token_ids(tok.tokenize_ids(
        i % 2 == 0 ? gen.generate_ham(rng) : gen.generate_spam(rng))));
  }
  const double classify_engine_batch =
      ops_per_sec(min_seconds,
                  [&] {
                    double acc = 0.0;
                    engine.score_ids_batch(
                        filter.database(), batch,
                        [&](std::size_t, const spambayes::BatchScore& s) {
                          acc += s.score;
                        });
                    g_sink = acc;
                  }) *
      static_cast<double>(batch.size());

  // --- train/untrain round trip (RONI's inner loop shape) ----------------
  util::Rng train_rng(3);
  const email::Message spam_msg = gen.generate_spam(train_rng);
  const spambayes::TokenIdSet spam_ids =
      spambayes::unique_token_ids(tok.tokenize_ids(spam_msg));

  const double train_interned = ops_per_sec(min_seconds, [&] {
    filter.train_spam_ids(spam_ids);
    filter.untrain_spam_ids(spam_ids);
  });

  // --- RONI's assess shape (core/roni.cpp), through Filter::classify_batch:
  // a fresh 20-message filter classifies 25 validation messages, trains one
  // query spam and classifies them again. Each database generation serves
  // 25 messages, far fewer lookups than its id range, so the engine stays
  // on the fresh source and builds no table.
  util::Rng roni_rng(8);
  std::vector<spambayes::TokenIdSet> roni_train;
  for (int i = 0; i < 20; ++i) {
    roni_train.push_back(spambayes::unique_token_ids(
        tok.tokenize_ids(i % 2 == 0 ? gen.generate_ham(roni_rng)
                                    : gen.generate_spam(roni_rng))));
  }
  std::vector<spambayes::TokenIdSet> roni_validation;
  for (int i = 0; i < 25; ++i) {
    roni_validation.push_back(spambayes::unique_token_ids(
        tok.tokenize_ids(gen.generate_ham(roni_rng))));
  }
  const spambayes::TokenIdSet roni_query = spambayes::unique_token_ids(
      tok.tokenize_ids(gen.generate_spam(roni_rng)));
  const double roni_assess = ops_per_sec(min_seconds, [&] {
    spambayes::Filter trial;
    for (std::size_t i = 0; i < roni_train.size(); ++i) {
      if (i % 2 == 0) {
        trial.train_ham_ids(roni_train[i]);
      } else {
        trial.train_spam_ids(roni_train[i]);
      }
    }
    std::size_t ham = 0;
    const auto count_ham = [&] {
      trial.classify_batch(
          roni_validation.size(),
          [&](std::size_t i) -> const spambayes::TokenIdList& {
            return roni_validation[i];
          },
          [&](std::size_t, const spambayes::BatchScore& scored) {
            if (scored.verdict == spambayes::Verdict::ham) ++ham;
          });
    };
    count_ham();
    trial.train_spam_ids(roni_query);
    count_ham();
    g_sink = static_cast<double>(ham);
  });

  // --- tokenization (message -> deduplicated id set, the unit every
  // consumer uses: Filter::message_token_ids) ------------------------------
  util::Rng tok_rng(1);
  const email::Message ham_msg = gen.generate_ham(tok_rng);
  const double msg_mb =
      static_cast<double>(email::render_message(ham_msg).size()) / 1.0e6;

  const double tokenize_ids =
      ops_per_sec(min_seconds,
                  [&] {
                    g_sink = spambayes::unique_token_ids(
                                 tok.tokenize_ids(ham_msg))
                                 .size();
                  }) *
      msg_mb;
  // Lookup-only (served classify's Filter::message_known_token_ids) on a
  // warm interner: the rows above interned every token of ham_msg, so this
  // is the all-hits path — no insert, no writer mutex. The dedupe is part
  // of the tokenize pass, so no unique_token_ids() follows.
  const double tokenize_known_ids =
      ops_per_sec(min_seconds,
                  [&] { g_sink = tok.tokenize_known_ids(ham_msg).size(); }) *
      msg_mb;

  // --- served classify: ServeFrontend::classify_batch for a user without
  // an overlay, transport excluded — the path sbx_serve runs. Each request
  // parses its 8 messages, tokenizes them lookup-only and scores them
  // through the frontend's base table, against the daemon's default base
  // filter; the messages are fresh (never trained) rendered TrecLike mail,
  // cycled from a pool of 64 requests.
  serve::ServeFrontend frontend(
      serve::build_base_filter(serve::BaseModelConfig{}),
      serve::FrontendConfig{});
  util::Rng served_rng(6);
  std::vector<serve::ClassifyBatchRequest> served(64);
  for (int i = 0; i < 512; ++i) {
    served[i / 8].messages.push_back(email::render_message(
        i % 2 == 0 ? gen.generate_ham(served_rng)
                   : gen.generate_spam(served_rng)));
  }
  std::size_t served_next = 0;
  const double classify_served =
      ops_per_sec(min_seconds,
                  [&] {
                    const serve::ClassifyBatchResponse response =
                        frontend.classify_batch(served[served_next]);
                    double acc = 0.0;
                    for (const serve::ClassifyResult& r : response.results) {
                      acc += r.score;
                    }
                    served_next = (served_next + 1) % served.size();
                    g_sink = acc;
                  }) *
      8.0;

  // --- served train after a dictionary attack: ModelShard::apply_mutation's
  // copy-on-write train (copy the published overlay, train one ordinary
  // message, publish the copy) into an overlay that already holds one
  // Aspell dictionary-attack email, ~100k ids. Runs last because the
  // attack interns its whole dictionary, which would change the rows above.
  const corpus::Lexicons lexicons;
  const core::DictionaryAttack attack =
      core::DictionaryAttack::aspell(lexicons);
  const spambayes::TokenIdSet attack_ids =
      spambayes::unique_token_ids(tok.tokenize_ids(attack.attack_message()));
  serve::ModelShard shard(1);
  serve::MutationRequest train;  // in-memory shard: nothing is logged
  train.op = serve::kWalOpTrain;
  shard.apply_mutation(0, train, attack_ids);
  util::Rng ordinary_rng(7);
  std::vector<spambayes::TokenIdSet> ordinary;
  for (int i = 0; i < 64; ++i) {
    ordinary.push_back(spambayes::unique_token_ids(tok.tokenize_ids(
        i % 2 == 0 ? gen.generate_ham(ordinary_rng)
                   : gen.generate_spam(ordinary_rng))));
  }
  std::size_t ordinary_next = 0;
  const double overlay_train_after_dictionary =
      ops_per_sec(min_seconds, [&] {
        train.as_spam = ordinary_next % 2 == 1;
        shard.apply_mutation(0, train, ordinary[ordinary_next]);
        ordinary_next = (ordinary_next + 1) % ordinary.size();
      });

  // --- dictionary batch train: the same attack email trained as 101
  // copies (1% of a 10,000-message inbox) into a fresh filter in one
  // update, the poisoning step of every dictionary-attack fold.
  const double dictionary_batch_train = ops_per_sec(min_seconds, [&] {
    spambayes::Filter poisoned;
    poisoned.train_spam_ids(attack_ids, 101);
    g_sink = static_cast<double>(poisoned.database().vocabulary_size());
  });

  // "metrics" is what tools/check_bench.py gates; the speedup ratio is
  // informational only (a future improvement to the uncached interned
  // path would legitimately shrink it).
  const std::vector<Metric> metrics = {
      {"classify_interned_msgs_per_sec", classify_interned},
      {"classify_engine_msgs_per_sec", classify_engine},
      {"classify_engine_batch_msgs_per_sec", classify_engine_batch},
      {"classify_overlay_msgs_per_sec", classify_overlay},
      {"train_untrain_interned_ops_per_sec", train_interned},
      {"roni_assess_ops_per_sec", roni_assess},
      {"tokenize_to_ids_mb_per_sec", tokenize_ids},
      {"tokenize_to_known_ids_mb_per_sec", tokenize_known_ids},
      {"classify_served_msgs_per_sec", classify_served},
      {"overlay_train_after_dictionary_ops_per_sec",
       overlay_train_after_dictionary},
      {"dictionary_batch_train_ops_per_sec", dictionary_batch_train},
  };
  const std::vector<Metric> info = {
      {"classify_engine_vs_interned_speedup",
       classify_engine / classify_interned},
  };

  auto emit_block = [](const std::vector<Metric>& block) {
    std::string out;
    for (std::size_t i = 0; i < block.size(); ++i) {
      char line[160];
      std::snprintf(line, sizeof line, "    \"%s\": %.4f%s\n",
                    block[i].name.c_str(), block[i].value,
                    i + 1 < block.size() ? "," : "");
      out += line;
    }
    return out;
  };
  std::string json = "{\n  \"schema\": 1,\n  \"metrics\": {\n";
  json += emit_block(metrics);
  json += "  },\n  \"info\": {\n";
  json += emit_block(info);
  json += "  }\n}\n";

  std::printf("%s", json.c_str());
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << json;
    if (!out) {
      std::fprintf(stderr, "bench_hotpath: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
  }
  return 0;
}
