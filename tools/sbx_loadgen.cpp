// sbx_loadgen — load driver for sbx_serve, tpccbench-style.
//
// Opens C connections against a running daemon and drives a deterministic
// mixed workload: classify batches with periodic train feedback, over a
// user population that acts as the scale factor (--users must match the
// server's). Reports sustained msgs/sec plus p50/p99 request latency, and
// can write them as a BENCH_serve.json-shaped document for
// tools/check_bench.py.
//
//   sbx_loadgen --connect=tcp:127.0.0.1:40613 --users=64 --connections=8
//               --requests=200 --batch=8 --train-every=10 --seed=7
//               --json=BENCH_serve.json --verify --shutdown
//
// Determinism + verification: connection c owns users {u : u % C == c},
// so every user's request stream is one connection's program order. Under
// --verify the driver builds the identical base filter in-process (same
// --base-size/--spam-fraction/--base-seed as the server), mirrors every
// request into a local ServeFrontend from the same thread, and compares
// response score bits — a single ULP of drift between the daemon path and
// the in-process path counts as a mismatch and fails the run.
//
// Crash-recovery verification: --verify-data-dir=DIR reads the server's
// manifest from DIR (so topology flags need not be repeated), replays its
// snapshot + WAL into the mirror before the run starts, and then verifies
// as usual. Combined with a fresh --seed this proves a restarted server
// recovered to the exact pre-crash state: any lost or double-applied
// mutation shifts the recovered counts and flips score bits.
//
// Robustness knobs: every request runs under --op-timeout-ms and is
// retried up to --attempts times with exponential backoff + jitter on
// connection failures and overloaded/shutting-down responses. Train
// requests carry deterministic request ids, so a retry that races a
// server-side apply is absorbed by the server's dedup window instead of
// double-training — bit-identity survives retries.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "corpus/generator.h"
#include "email/rfc2822.h"
#include "serve/base_model.h"
#include "serve/client.h"
#include "serve/frontend.h"
#include "serve/recovery.h"
#include "util/config.h"
#include "util/error.h"
#include "util/random.h"

namespace {

using sbx::serve::ClassifyBatchRequest;
using sbx::serve::ClassifyBatchResponse;
using sbx::serve::ErrorResponse;
using sbx::serve::Request;
using sbx::serve::Response;
using sbx::serve::StatsResponse;
using sbx::serve::TrainRequest;
using sbx::serve::TrainResponse;

struct Flags {
  std::string connect;
  std::size_t users = 64;
  std::size_t connections = 4;
  std::size_t requests = 100;  // per connection
  std::size_t batch = 8;
  std::size_t train_every = 10;  // every Nth request trains (0 = never)
  std::uint64_t seed = 7;
  std::string json_path;
  std::string json_metric_prefix;  // e.g. "wal_" for the chaos harness
  bool verify = false;
  bool shutdown = false;
  bool stats = false;
  std::string verify_data_dir;  // replay server WAL into the mirror first
  long op_timeout_ms = 10'000;
  int attempts = 3;
  sbx::serve::BaseModelConfig base;  // must match the server under --verify
};

int usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: sbx_loadgen --connect=ENDPOINT [--users=N] [--connections=C]\n"
      "                   [--requests=R] [--batch=B] [--train-every=K]\n"
      "                   [--seed=N] [--json=PATH] [--json-metric-prefix=S]\n"
      "                   [--verify] [--verify-data-dir=DIR] [--stats]\n"
      "                   [--shutdown] [--op-timeout-ms=MS] [--attempts=N]\n"
      "                   [--base-size=N] [--spam-fraction=F] [--base-seed=N]\n"
      "\n"
      "Drives a deterministic classify/train workload against sbx_serve and\n"
      "reports msgs/sec and p50/p99 latency. --verify mirrors every request\n"
      "into an identical in-process frontend and fails on any score-bit\n"
      "mismatch; --verify-data-dir pre-seeds that mirror by replaying the\n"
      "server's snapshot+WAL (crash-recovery check). --shutdown stops the\n"
      "server when done; --stats prints its counters first.\n");
  return to == stdout ? 0 : 2;
}

bool parse_flags(int argc, char** argv, Flags& flags) {
  using sbx::util::parse_double;
  using sbx::util::parse_uint;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::exit(usage(stdout));
    } else if (arg.rfind("--connect=", 0) == 0) {
      flags.connect = arg.substr(10);
    } else if (arg.rfind("--users=", 0) == 0) {
      flags.users = parse_uint(arg.substr(8), "--users");
    } else if (arg.rfind("--connections=", 0) == 0) {
      flags.connections = parse_uint(arg.substr(14), "--connections");
    } else if (arg.rfind("--requests=", 0) == 0) {
      flags.requests = parse_uint(arg.substr(11), "--requests");
    } else if (arg.rfind("--batch=", 0) == 0) {
      flags.batch = parse_uint(arg.substr(8), "--batch");
    } else if (arg.rfind("--train-every=", 0) == 0) {
      flags.train_every = parse_uint(arg.substr(14), "--train-every");
    } else if (arg.rfind("--seed=", 0) == 0) {
      flags.seed = parse_uint(arg.substr(7), "--seed");
    } else if (arg.rfind("--json=", 0) == 0 &&
               arg.rfind("--json-metric-prefix=", 0) != 0) {
      flags.json_path = arg.substr(7);
    } else if (arg.rfind("--json-metric-prefix=", 0) == 0) {
      flags.json_metric_prefix = arg.substr(21);
    } else if (arg == "--verify") {
      flags.verify = true;
    } else if (arg.rfind("--verify-data-dir=", 0) == 0) {
      flags.verify = true;
      flags.verify_data_dir = arg.substr(18);
    } else if (arg == "--shutdown") {
      flags.shutdown = true;
    } else if (arg == "--stats") {
      flags.stats = true;
    } else if (arg.rfind("--op-timeout-ms=", 0) == 0) {
      flags.op_timeout_ms =
          static_cast<long>(parse_uint(arg.substr(16), "--op-timeout-ms"));
    } else if (arg.rfind("--attempts=", 0) == 0) {
      flags.attempts =
          static_cast<int>(parse_uint(arg.substr(11), "--attempts"));
    } else if (arg.rfind("--base-size=", 0) == 0) {
      flags.base.base_size = parse_uint(arg.substr(12), "--base-size");
    } else if (arg.rfind("--spam-fraction=", 0) == 0) {
      flags.base.spam_fraction =
          parse_double(arg.substr(16), "--spam-fraction");
    } else if (arg.rfind("--base-seed=", 0) == 0) {
      flags.base.seed = parse_uint(arg.substr(12), "--base-seed");
    } else {
      std::fprintf(stderr, "sbx_loadgen: unknown flag '%s'\n\n", arg.c_str());
      return false;
    }
  }
  if (flags.connect.empty()) {
    std::fprintf(stderr, "sbx_loadgen: --connect is required\n\n");
    return false;
  }
  if (flags.connections == 0 || flags.batch == 0 || flags.users == 0) {
    std::fprintf(stderr,
                 "sbx_loadgen: --connections, --batch and --users must be "
                 "greater than 0\n\n");
    return false;
  }
  if (flags.attempts < 1) {
    std::fprintf(stderr, "sbx_loadgen: --attempts must be at least 1\n\n");
    return false;
  }
  return true;
}

/// What one connection thread measured.
struct ConnectionResult {
  std::vector<double> latencies_ms;  // one entry per request
  std::uint64_t classified_messages = 0;
  std::uint64_t train_requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;  // --verify score-bit diffs
  std::uint64_t retries = 0;     // client-level reconnect/backoff retries
  /// Wall time from run start to this connection's first successful
  /// response (0 = none succeeded). Against a just-promoted standby this
  /// measures failover-to-first-ack.
  double first_response_ms = 0;
};

/// Bitwise score comparison between the daemon's response and the mirror's.
std::uint64_t count_mismatches(const Response& remote, const Response& local) {
  const auto* rc = std::get_if<ClassifyBatchResponse>(&remote);
  const auto* lc = std::get_if<ClassifyBatchResponse>(&local);
  if (rc && lc) {
    if (rc->results.size() != lc->results.size()) {
      return std::max(rc->results.size(), lc->results.size());
    }
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < rc->results.size(); ++i) {
      // Exact bit comparison via memcmp-equivalent double equality: any
      // representational difference other than identical bits is a flip.
      if (!(rc->results[i].score == lc->results[i].score) ||
          rc->results[i].verdict != lc->results[i].verdict) {
        ++bad;
      }
    }
    return bad;
  }
  const auto* rt = std::get_if<TrainResponse>(&remote);
  const auto* lt = std::get_if<TrainResponse>(&local);
  if (rt && lt) {
    // Generations are process-local counters, so only the counts must
    // agree across the two processes.
    return (rt->overlay_spam == lt->overlay_spam &&
            rt->overlay_ham == lt->overlay_ham)
               ? 0
               : 1;
  }
  return remote.index() == local.index() ? 0 : 1;
}

void run_connection(const Flags& flags, std::size_t conn_index,
                    const sbx::corpus::TrecLikeGenerator& generator,
                    sbx::serve::ServeFrontend* mirror,
                    std::chrono::steady_clock::time_point wall_start,
                    ConnectionResult& out) {
  sbx::serve::ClientOptions copts;
  copts.op_timeout_ms = flags.op_timeout_ms;
  copts.max_attempts = flags.attempts;
  copts.jitter_seed = flags.seed ^ (conn_index + 1);
  sbx::serve::Client client(flags.connect, copts);
  sbx::util::Rng rng = sbx::util::Rng(flags.seed).fork(conn_index);
  // Deterministic per-connection request-id stream. The seed is scrambled
  // first: splitmix64 walks states in increments of a fixed constant, so
  // unscrambled seeds would alias each other's id streams and different
  // runs against one data-dir would falsely dedup. Odd ids only: 0 means
  // "no dedup".
  std::uint64_t seed_state = flags.seed + 1;
  std::uint64_t id_state = sbx::util::splitmix64(seed_state) ^
                           ((conn_index + 1) * 0xBF58476D1CE4E5B9ull);

  // The users this connection owns: u % connections == conn_index. Every
  // request for one of them flows through this thread, so per-user order
  // is program order — exactly what the mirror replays.
  std::vector<std::uint64_t> owned;
  for (std::uint64_t u = conn_index; u < flags.users; u += flags.connections) {
    owned.push_back(u);
  }
  if (owned.empty()) return;

  out.latencies_ms.reserve(flags.requests);
  for (std::size_t r = 0; r < flags.requests; ++r) {
    const std::uint64_t user = owned[rng.index(owned.size())];
    Request request;
    std::size_t batch_messages = 0;
    const bool is_train =
        flags.train_every > 0 && (r + 1) % flags.train_every == 0;
    if (is_train) {
      TrainRequest t;
      t.user_id = user;
      t.as_spam = rng.bernoulli(0.5);
      t.copies = 1;
      t.message = sbx::email::render_message(
          t.as_spam ? generator.generate_spam(rng)
                    : generator.generate_ham(rng));
      t.request_id = sbx::util::splitmix64(id_state) | 1;
      request = std::move(t);
    } else {
      ClassifyBatchRequest c;
      c.user_id = user;
      c.messages.reserve(flags.batch);
      for (std::size_t b = 0; b < flags.batch; ++b) {
        c.messages.push_back(sbx::email::render_message(
            rng.bernoulli(0.5) ? generator.generate_spam(rng)
                               : generator.generate_ham(rng)));
      }
      batch_messages = c.messages.size();
      request = std::move(c);
    }

    const auto start = std::chrono::steady_clock::now();
    Response response;
    try {
      response = client.call(request);
    } catch (const sbx::Error&) {
      // Retries exhausted (or a protocol violation). The server may or may
      // not have applied a failed train, so the mirror is skipped too; the
      // nonzero error count fails the run regardless.
      ++out.errors;
      continue;
    }
    const auto stop = std::chrono::steady_clock::now();
    out.latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
    if (out.first_response_ms == 0) {
      out.first_response_ms =
          std::chrono::duration<double, std::milli>(stop - wall_start).count();
    }

    if (std::holds_alternative<ErrorResponse>(response)) {
      ++out.errors;
    } else if (is_train) {
      ++out.train_requests;
    } else {
      out.classified_messages += batch_messages;
    }
    if (mirror != nullptr) {
      out.mismatches += count_mismatches(response, mirror->dispatch(request));
    }
  }
  out.retries = client.retries();
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Builds the --verify mirror. With --verify-data-dir the topology comes
/// from the server's manifest and the mirror is pre-seeded by replaying the
/// server's snapshot+WAL, so the run verifies recovered state.
std::unique_ptr<sbx::serve::ServeFrontend> build_mirror(Flags& flags) {
  sbx::serve::FrontendConfig fc;
  fc.user_count = flags.users;
  sbx::serve::BaseModelConfig base = flags.base;
  if (!flags.verify_data_dir.empty()) {
    const auto manifest = sbx::serve::read_manifest(flags.verify_data_dir);
    if (!manifest) {
      throw sbx::IoError("sbx_loadgen: no manifest in --verify-data-dir " +
                         flags.verify_data_dir);
    }
    fc.user_count = manifest->users;
    fc.shard_count = manifest->shards;
    base.base_size = manifest->base_size;
    base.spam_fraction = manifest->spam_fraction;
    base.seed = manifest->base_seed;
    flags.users = manifest->users;  // workload must target real users
  }
  auto mirror = std::make_unique<sbx::serve::ServeFrontend>(
      sbx::serve::build_base_filter(base), fc);
  if (!flags.verify_data_dir.empty()) {
    // Read-only replay: a mirror never repairs the server's WAL files.
    const auto rs = sbx::serve::recover(*mirror, flags.verify_data_dir);
    std::printf("sbx_loadgen: mirror replayed %llu snapshot users + %llu wal "
                "records from %s\n",
                static_cast<unsigned long long>(rs.snapshot_users),
                static_cast<unsigned long long>(rs.replayed_records),
                flags.verify_data_dir.c_str());
  }
  return mirror;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!parse_flags(argc, argv, flags)) return usage(stderr);
  try {
    const sbx::corpus::TrecLikeGenerator generator;

    // --verify: the in-process twin. Same base triple as the daemon; shard
    // topology is irrelevant for bit-identity (routing never changes
    // scores) except under --verify-data-dir, where the manifest supplies
    // everything anyway.
    std::unique_ptr<sbx::serve::ServeFrontend> mirror;
    if (flags.verify) mirror = build_mirror(flags);

    std::vector<ConnectionResult> results(flags.connections);
    const auto wall_start = std::chrono::steady_clock::now();
    {
      std::vector<std::thread> threads;
      threads.reserve(flags.connections);
      for (std::size_t c = 0; c < flags.connections; ++c) {
        threads.emplace_back([&, c] {
          run_connection(flags, c, generator, mirror.get(), wall_start,
                         results[c]);
        });
      }
      for (std::thread& t : threads) t.join();
    }
    const double elapsed_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    std::vector<double> latencies;
    std::uint64_t classified = 0, trains = 0, errors = 0, mismatches = 0;
    std::uint64_t retried = 0;
    double first_response_ms = 0;
    for (const ConnectionResult& r : results) {
      latencies.insert(latencies.end(), r.latencies_ms.begin(),
                       r.latencies_ms.end());
      classified += r.classified_messages;
      trains += r.train_requests;
      errors += r.errors;
      mismatches += r.mismatches;
      retried += r.retries;
      if (r.first_response_ms > 0 &&
          (first_response_ms == 0 || r.first_response_ms < first_response_ms)) {
        first_response_ms = r.first_response_ms;
      }
    }
    std::sort(latencies.begin(), latencies.end());
    const double p50 = percentile(latencies, 0.50);
    const double p99 = percentile(latencies, 0.99);
    const double msgs_per_sec =
        elapsed_sec > 0 ? static_cast<double>(classified) / elapsed_sec : 0;
    const double reqs_per_sec =
        elapsed_sec > 0 ? static_cast<double>(latencies.size()) / elapsed_sec
                        : 0;

    std::printf("sbx_loadgen: %llu msgs classified, %llu trains, %llu errors, "
                "%llu retries in %.2fs over %zu connections\n",
                static_cast<unsigned long long>(classified),
                static_cast<unsigned long long>(trains),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(retried), elapsed_sec,
                flags.connections);
    std::printf("sbx_loadgen: %.1f msgs/sec, %.1f reqs/sec, p50 %.3f ms, "
                "p99 %.3f ms, first response %.3f ms\n",
                msgs_per_sec, reqs_per_sec, p50, p99, first_response_ms);
    if (flags.verify) {
      std::printf("sbx_loadgen: verify: %llu mismatches\n",
                  static_cast<unsigned long long>(mismatches));
    }

    // Recovery telemetry for the chaos harness: replayed records / replay
    // seconds, taken from the server's own counters.
    std::optional<StatsResponse> server_stats;
    if (flags.stats || flags.shutdown) {
      sbx::serve::ClientOptions copts;
      copts.op_timeout_ms = flags.op_timeout_ms;
      copts.max_attempts = flags.attempts;
      copts.jitter_seed = flags.seed ^ 0xC0FFEE;
      sbx::serve::Client control(flags.connect, copts);
      if (flags.stats) {
        const Response r = control.call(Request(sbx::serve::StatsRequest{}));
        if (const auto* s = std::get_if<StatsResponse>(&r)) {
          server_stats = *s;
          std::printf(
              "sbx_loadgen: server stats: uptime %llu ms, wal %llu records / "
              "%llu bytes / %llu snapshots, recovery %llu replayed + %llu "
              "torn dropped in %llu ms (%llu snapshot users), %llu deduped, "
              "%llu shed, %llu active\n",
              static_cast<unsigned long long>(s->uptime_ms),
              static_cast<unsigned long long>(s->wal_records),
              static_cast<unsigned long long>(s->wal_bytes),
              static_cast<unsigned long long>(s->wal_snapshots),
              static_cast<unsigned long long>(s->recovery_replayed_records),
              static_cast<unsigned long long>(s->recovery_torn_dropped),
              static_cast<unsigned long long>(s->recovery_ms),
              static_cast<unsigned long long>(s->recovery_snapshot_users),
              static_cast<unsigned long long>(s->deduped_mutations),
              static_cast<unsigned long long>(s->shed_connections),
              static_cast<unsigned long long>(s->active_connections));
          std::printf(
              "sbx_loadgen: server repl: shipped seqno %llu, acked seqno "
              "%llu, lag %llu, standby applied %llu, group-commit windows "
              "%llu, incremental snapshot bytes %llu\n",
              static_cast<unsigned long long>(s->repl_shipped_seqno),
              static_cast<unsigned long long>(s->repl_acked_seqno),
              static_cast<unsigned long long>(s->repl_lag_records),
              static_cast<unsigned long long>(s->standby_applied_records),
              static_cast<unsigned long long>(s->group_commit_windows),
              static_cast<unsigned long long>(s->incremental_snapshot_bytes));
        }
      }
      if (flags.shutdown) {
        control.call(Request(sbx::serve::ShutdownRequest{}));
      }
    }

    if (!flags.json_path.empty()) {
      std::FILE* f = std::fopen(flags.json_path.c_str(), "w");
      if (f == nullptr) {
        throw sbx::IoError("sbx_loadgen: cannot write " + flags.json_path);
      }
      const std::string& mp = flags.json_metric_prefix;
      // Latencies live under "info", not "metrics": check_bench.py treats
      // every metric as higher-is-better.
      std::fprintf(f,
                   "{\n"
                   "  \"schema\": 1,\n"
                   "  \"metrics\": {\n"
                   "    \"%sclassify_msgs_per_sec\": %.3f,\n"
                   "    \"%srequests_per_sec\": %.3f",
                   mp.c_str(), msgs_per_sec, mp.c_str(), reqs_per_sec);
      if (server_stats && server_stats->recovery_replayed_records > 0 &&
          server_stats->recovery_ms > 0) {
        const double replay_per_sec =
            static_cast<double>(server_stats->recovery_replayed_records) /
            (static_cast<double>(server_stats->recovery_ms) / 1000.0);
        std::fprintf(f,
                     ",\n    \"%srecovery_replayed_records_per_sec\": %.3f",
                     mp.c_str(), replay_per_sec);
      }
      // Replication telemetry (the failover harness queries the promoted
      // standby): apply throughput while it was a standby, and group-commit
      // window throughput under fsync=batch.
      if (server_stats && server_stats->standby_applied_records > 0 &&
          server_stats->uptime_ms > 0) {
        const double ship_per_sec =
            static_cast<double>(server_stats->standby_applied_records) /
            (static_cast<double>(server_stats->uptime_ms) / 1000.0);
        std::fprintf(f, ",\n    \"%sship_records_per_sec\": %.3f", mp.c_str(),
                     ship_per_sec);
      }
      if (server_stats && server_stats->group_commit_windows > 0) {
        std::fprintf(f, ",\n    \"%sgroup_commit_msgs_per_sec\": %.3f",
                     mp.c_str(), msgs_per_sec);
      }
      // Failover-to-first-ack, inverted to per-second so check_bench's
      // higher-is-better contract holds (faster failover = bigger number).
      if (!mp.empty() && first_response_ms > 0) {
        std::fprintf(f, ",\n    \"%sfailover_first_ack_per_sec\": %.3f",
                     mp.c_str(), 1000.0 / first_response_ms);
      }
      std::fprintf(f,
                   "\n  },\n"
                   "  \"info\": {\n"
                   "    \"p50_ms\": %.4f,\n"
                   "    \"p99_ms\": %.4f,\n"
                   "    \"connections\": %zu,\n"
                   "    \"users\": %zu,\n"
                   "    \"batch\": %zu,\n"
                   "    \"requests_per_connection\": %zu,\n"
                   "    \"train_every\": %zu,\n"
                   "    \"classified_messages\": %llu,\n"
                   "    \"train_requests\": %llu,\n"
                   "    \"errors\": %llu,\n"
                   "    \"retried_requests\": %llu,\n"
                   "    \"verify_mismatches\": %llu,\n"
                   "    \"elapsed_sec\": %.3f\n"
                   "  }\n"
                   "}\n",
                   p50, p99, flags.connections, flags.users, flags.batch,
                   flags.requests, flags.train_every,
                   static_cast<unsigned long long>(classified),
                   static_cast<unsigned long long>(trains),
                   static_cast<unsigned long long>(errors),
                   static_cast<unsigned long long>(retried),
                   static_cast<unsigned long long>(mismatches), elapsed_sec);
      std::fclose(f);
      std::printf("sbx_loadgen: wrote %s\n", flags.json_path.c_str());
    }

    if (errors > 0) return 1;
    if (flags.verify && mismatches > 0) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sbx_loadgen: %s\n", e.what());
    return 1;
  }
}
