// sbx_serve — the multi-tenant SpamBayes serving daemon.
//
// Builds a deterministic shared base filter (TREC-like corpus, seeded),
// shards N user models over it as copy-on-write overlays, and serves the
// framed classify/train/untrain/stats protocol on a UNIX or loopback TCP
// socket until a shutdown request (or SIGTERM) arrives.
//
//   sbx_serve --listen=tcp:0 --users=64 --shards=4 --base-size=2000
//             --spam-fraction=0.5 --seed=42
//
// Crash safety: with --data-dir the daemon write-ahead-logs every
// train/untrain before it publishes (--fsync=none|batch|always picks the
// disk-durability point; --snapshot-every=N checkpoints shard overlays and
// truncates their logs). On startup the frontend recovers the data dir
// (checkpoint chain, then WAL replay) back to a state bit-identical to an
// uninterrupted run, before it logs anything — kill -9 the daemon at any
// point and restart it from the same --data-dir to verify (tools/
// sbx_chaos.sh automates exactly that). A MANIFEST file pins the topology
// flags; restarting with different ones is refused instead of silently
// misrouting recovered users.
//
// The resolved endpoint (real port for tcp:0) is printed on stdout before
// serving starts, so scripts can wait for the line and connect:
//
//   sbx_serve: listening on tcp:127.0.0.1:40613 (64 users, 4 shards, ...)
//
// Replication (PR 9): --replicate-to=ENDPOINT makes this node a primary
// that ships every committed WAL record to a warm standby started with
// --standby (the standby applies them through the path recovery's WAL
// replay takes, ModelShard::apply_logged, and stays bit-identical at every
// acked watermark; restarted from its own --data-dir, it skips resent
// records its checkpoints already cover). --repl-ack picks the ack
// policy (async = ship in background, quorum = client acks wait for the
// standby). SIGUSR1 (or a Promote frame) flips a standby to primary with
// no replay gap; --redirect-to=ENDPOINT is what a standby's kNotPrimary
// rejections point writers at until then.
//
// SIGTERM/SIGINT drain gracefully: stop accepting, finish in-flight
// requests, fsync the logs, exit 0. SBX_FAULT=<spec> arms the fault
// injector (see serve/fault_injector.h) for chaos testing.
//
// Drive it with sbx_loadgen, which also knows how to mirror every request
// into an identical in-process frontend and verify score bits match.

#include <signal.h>

#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "serve/base_model.h"
#include "serve/fault_injector.h"
#include "serve/frontend.h"
#include "serve/recovery.h"
#include "serve/replication.h"
#include "serve/server.h"
#include "serve/wal.h"
#include "util/config.h"
#include "util/error.h"

namespace {

struct Flags {
  std::string listen = "tcp:0";
  sbx::serve::FrontendConfig frontend;
  sbx::serve::BaseModelConfig base;
  sbx::serve::ServerConfig server;
  std::string data_dir;  // empty = in-memory only
  sbx::serve::FsyncMode fsync = sbx::serve::FsyncMode::kBatch;
  std::uint64_t snapshot_every = 0;
  bool standby = false;
  std::string redirect_to;    // standby: where kNotPrimary bounces writers
  std::string replicate_to;   // primary: standby endpoint to ship WAL to
  sbx::serve::ReplAckPolicy repl_ack = sbx::serve::ReplAckPolicy::kAsync;
  long repl_timeout_ms = 10'000;
};

int usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: sbx_serve [--listen=unix:PATH|tcp:PORT] [--users=N]\n"
      "                 [--shards=N] [--base-size=N]\n"
      "                 [--spam-fraction=F] [--seed=N]\n"
      "                 [--data-dir=PATH] [--fsync=none|batch|always]\n"
      "                 [--snapshot-every=N]\n"
      "                 [--dedup-window=N] [--max-connections=N]\n"
      "                 [--read-timeout-ms=MS] [--idle-timeout-ms=MS]\n"
      "                 [--standby] [--redirect-to=ENDPOINT]\n"
      "                 [--replicate-to=ENDPOINT]\n"
      "                 [--repl-ack=none|async|quorum]\n"
      "                 [--repl-timeout-ms=MS]\n"
      "\n"
      "Serves the sbx classify/train/untrain/stats protocol until a\n"
      "shutdown request or SIGTERM arrives. tcp:0 picks a free loopback\n"
      "port and prints it. --data-dir enables the mutation WAL and\n"
      "crash recovery; restarting from the same directory replays the\n"
      "log back to the pre-crash state. --replicate-to ships committed\n"
      "WAL records to a standby (started with --standby and the same\n"
      "topology flags); SIGUSR1 promotes a standby to primary.\n");
  return to == stdout ? 0 : 2;
}

bool parse_flags(int argc, char** argv, Flags& flags) {
  using sbx::util::parse_double;
  using sbx::util::parse_uint;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::exit(usage(stdout));
    } else if (arg.rfind("--listen=", 0) == 0) {
      flags.listen = arg.substr(9);
    } else if (arg.rfind("--users=", 0) == 0) {
      flags.frontend.user_count = parse_uint(arg.substr(8), "--users");
    } else if (arg.rfind("--shards=", 0) == 0) {
      flags.frontend.shard_count = parse_uint(arg.substr(9), "--shards");
    } else if (arg.rfind("--base-size=", 0) == 0) {
      flags.base.base_size = parse_uint(arg.substr(12), "--base-size");
    } else if (arg.rfind("--spam-fraction=", 0) == 0) {
      flags.base.spam_fraction =
          parse_double(arg.substr(16), "--spam-fraction");
    } else if (arg.rfind("--seed=", 0) == 0) {
      flags.base.seed = parse_uint(arg.substr(7), "--seed");
    } else if (arg.rfind("--data-dir=", 0) == 0) {
      flags.data_dir = arg.substr(11);
    } else if (arg.rfind("--fsync=", 0) == 0) {
      flags.fsync = sbx::serve::fsync_mode_from_string(arg.substr(8));
    } else if (arg.rfind("--snapshot-every=", 0) == 0) {
      flags.snapshot_every = parse_uint(arg.substr(17), "--snapshot-every");
    } else if (arg.rfind("--dedup-window=", 0) == 0) {
      flags.frontend.dedup_window =
          parse_uint(arg.substr(15), "--dedup-window");
    } else if (arg.rfind("--max-connections=", 0) == 0) {
      flags.server.max_connections =
          parse_uint(arg.substr(18), "--max-connections");
    } else if (arg.rfind("--read-timeout-ms=", 0) == 0) {
      flags.server.read_timeout_ms = static_cast<long>(
          parse_uint(arg.substr(18), "--read-timeout-ms"));
    } else if (arg.rfind("--idle-timeout-ms=", 0) == 0) {
      flags.server.idle_timeout_ms = static_cast<long>(
          parse_uint(arg.substr(18), "--idle-timeout-ms"));
    } else if (arg == "--standby") {
      flags.standby = true;
    } else if (arg.rfind("--redirect-to=", 0) == 0) {
      flags.redirect_to = arg.substr(14);
    } else if (arg.rfind("--replicate-to=", 0) == 0) {
      flags.replicate_to = arg.substr(15);
    } else if (arg.rfind("--repl-ack=", 0) == 0) {
      flags.repl_ack = sbx::serve::repl_ack_policy_from_string(arg.substr(11));
    } else if (arg.rfind("--repl-timeout-ms=", 0) == 0) {
      flags.repl_timeout_ms = static_cast<long>(
          parse_uint(arg.substr(18), "--repl-timeout-ms"));
    } else {
      std::fprintf(stderr, "sbx_serve: unknown flag '%s'\n\n", arg.c_str());
      return false;
    }
  }
  return true;
}

sbx::serve::Server* g_server = nullptr;

void handle_drain_signal(int) {
  // request_drain is async-signal-safe (one write to a self-pipe).
  if (g_server != nullptr) g_server->request_drain();
}

void handle_promote_signal(int) {
  // request_promote is async-signal-safe (same self-pipe, promote byte),
  // and so is the write(2) below — harnesses grep it to know the signal
  // landed (the role flip itself completes on the accept-loop thread).
  if (g_server != nullptr) {
    g_server->request_promote();
    const char msg[] = "sbx_serve: promote requested\n";
    (void)!::write(STDOUT_FILENO, msg, sizeof(msg) - 1);
  }
}

/// Refuses to recover into a differently-shaped process: routing and the
/// base filter derive from these five values, so a mismatch would misroute
/// every recovered overlay.
void check_or_write_manifest(const Flags& flags) {
  sbx::serve::Manifest expected;
  expected.users = flags.frontend.user_count;
  expected.shards = flags.frontend.shard_count;
  expected.base_size = flags.base.base_size;
  expected.spam_fraction = flags.base.spam_fraction;
  expected.base_seed = flags.base.seed;
  if (const auto found = sbx::serve::read_manifest(flags.data_dir)) {
    if (!(*found == expected)) {
      throw sbx::InvalidArgument(
          "sbx_serve: --data-dir " + flags.data_dir +
          " was created with a different topology (users/shards/base flags "
          "must match the manifest)");
    }
    return;
  }
  sbx::serve::write_manifest(flags.data_dir, expected);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!parse_flags(argc, argv, flags)) return usage(stderr);
  try {
    sbx::serve::FaultInjector::instance().configure_from_env();

    if (flags.standby && !flags.replicate_to.empty()) {
      throw sbx::InvalidArgument(
          "sbx_serve: --standby and --replicate-to are mutually exclusive "
          "(a node is either the shipping primary or the applying standby)");
    }
    if (!flags.replicate_to.empty() && flags.data_dir.empty()) {
      throw sbx::InvalidArgument(
          "sbx_serve: --replicate-to ships WAL records and needs --data-dir");
    }

    std::unique_ptr<sbx::serve::Durability> durability;
    if (!flags.data_dir.empty()) {
      sbx::serve::DurabilityConfig dc;
      dc.data_dir = flags.data_dir;
      dc.fsync = flags.fsync;
      dc.snapshot_every = flags.snapshot_every;
      durability = std::make_unique<sbx::serve::Durability>(
          dc, flags.frontend.shard_count);
      check_or_write_manifest(flags);
    }

    sbx::serve::ServeFrontend frontend(
        sbx::serve::build_base_filter(flags.base), flags.frontend,
        std::move(durability));

    if (!flags.data_dir.empty()) {
      const sbx::serve::StatsResponse recovered = frontend.stats();
      std::printf(
          "sbx_serve: recovered %llu snapshot users, replayed %llu wal "
          "records (%llu torn/corrupt dropped) in %llu ms\n",
          static_cast<unsigned long long>(recovered.recovery_snapshot_users),
          static_cast<unsigned long long>(recovered.recovery_replayed_records),
          static_cast<unsigned long long>(recovered.recovery_torn_dropped),
          static_cast<unsigned long long>(recovered.recovery_ms));
    }

    if (flags.standby) {
      frontend.set_standby(flags.redirect_to);
    }

    if (!flags.replicate_to.empty() &&
        flags.repl_ack != sbx::serve::ReplAckPolicy::kNone) {
      sbx::serve::ReplicationConfig rc;
      rc.target = flags.replicate_to;
      rc.ack = flags.repl_ack;
      rc.connect_timeout_ms = flags.repl_timeout_ms;
      rc.op_timeout_ms = flags.repl_timeout_ms;
      frontend.attach_replicator(
          std::make_unique<sbx::serve::Replicator>(rc));
      // Ship the restart backlog: WAL records that survived in the logs
      // may postdate what the standby saw (it dedups anything it already
      // applied by seqno, so over-shipping is harmless; records already
      // folded into snapshots were acked before their checkpoint).
      std::uint64_t backlog = 0;
      for (std::size_t s = 0; s < frontend.shard_count(); ++s) {
        sbx::serve::read_wal(
            sbx::serve::wal_path_in(flags.data_dir, s),
            [&](const sbx::serve::WalRecord& record) {
              frontend.replicator()->enqueue(static_cast<std::uint32_t>(s),
                                             record);
              ++backlog;
            });
      }
      if (backlog > 0) {
        std::printf("sbx_serve: shipping %llu backlog wal records to %s\n",
                    static_cast<unsigned long long>(backlog),
                    flags.replicate_to.c_str());
      }
    }

    sbx::serve::Server server(frontend, flags.listen, flags.server);
    g_server = &server;
    struct sigaction sa {};
    sa.sa_handler = handle_drain_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    struct sigaction sp {};
    sp.sa_handler = handle_promote_signal;
    ::sigaction(SIGUSR1, &sp, nullptr);

    std::printf("sbx_serve: listening on %s (%zu users, %zu shards, base %zu "
                "msgs, seed %llu, role %s%s%s)\n",
                server.endpoint().c_str(), frontend.user_count(),
                frontend.shard_count(), flags.base.base_size,
                static_cast<unsigned long long>(flags.base.seed),
                flags.standby ? "standby" : "primary",
                flags.data_dir.empty() ? "" : ", wal fsync=",
                flags.data_dir.empty()
                    ? ""
                    : sbx::serve::to_string(flags.fsync).c_str());
    std::fflush(stdout);
    server.run();
    g_server = nullptr;
    std::printf("sbx_serve: shutdown\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sbx_serve: %s\n", e.what());
    return 1;
  }
}
