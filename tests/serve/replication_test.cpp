// Replication tests: group-commit windows, incremental snapshot chains
// (recovery bit-identity, broken-chain detection, compaction), WAL
// shipping to a live standby (bit-identical at the acked watermark),
// promotion, client redirect following, and the never-retry-ParseError
// contract.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "corpus/generator.h"
#include "email/rfc2822.h"
#include "serve/base_model.h"
#include "serve/client.h"
#include "serve/frontend.h"
#include "serve/recovery.h"
#include "serve/replication.h"
#include "serve/server.h"
#include "serve/wal.h"
#include "util/error.h"
#include "util/lock_rank.h"
#include "util/random.h"
#include "util/thread_annotations.h"

namespace sbx::serve {
namespace {

BaseModelConfig small_base() { return {/*base_size=*/200, 0.5, /*seed=*/5}; }

constexpr std::size_t kShards = 2;
constexpr std::size_t kUsers = 8;

struct TempDataDir {
  std::string path;
  explicit TempDataDir(const std::string& tag)
      : path(testing::TempDir() + "sbx_repl_" + tag + "_" +
             std::to_string(static_cast<unsigned>(::getpid()))) {
    std::filesystem::remove_all(path);
  }
  ~TempDataDir() { std::filesystem::remove_all(path); }
};

std::string temp_sock(const std::string& tag) {
  return testing::TempDir() + "sbx_repl_" + tag + "_" +
         std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
}

std::unique_ptr<ServeFrontend> durable_frontend(const std::string& data_dir,
                                                std::uint64_t snapshot_every) {
  DurabilityConfig dc;
  dc.data_dir = data_dir;
  dc.fsync = FsyncMode::kNone;  // page cache is durable enough for tests
  dc.snapshot_every = snapshot_every;
  return std::make_unique<ServeFrontend>(
      build_base_filter(small_base()), FrontendConfig{kShards, kUsers},
      std::make_unique<Durability>(dc, kShards));
}

std::unique_ptr<ServeFrontend> memory_frontend() {
  return std::make_unique<ServeFrontend>(build_base_filter(small_base()),
                                         FrontendConfig{kShards, kUsers});
}

std::vector<std::string> make_messages(int n, std::uint64_t seed) {
  corpus::TrecLikeGenerator generator;
  util::Rng rng(seed);
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(email::render_message(i % 2 == 0
                                            ? generator.generate_ham(rng)
                                            : generator.generate_spam(rng)));
  }
  return out;
}

/// Mixed deterministic mutation workload (same shape recovery_test uses).
void apply_workload(ServeFrontend& frontend, int mutations,
                    std::uint64_t seed) {
  const auto msgs = make_messages(mutations, seed);
  util::Rng rng(seed + 1);
  for (int i = 0; i < mutations; ++i) {
    TrainRequest t;
    t.user_id = rng.index(kUsers);
    t.as_spam = rng.bernoulli(0.5);
    t.copies = 1 + static_cast<std::uint32_t>(rng.index(2));
    t.message = msgs[static_cast<std::size_t>(i)];
    t.request_id = seed * 1000 + static_cast<std::uint64_t>(i) + 1;
    frontend.train(t);
    if (i % 5 == 4) {
      UntrainRequest u;
      u.user_id = t.user_id;
      u.as_spam = t.as_spam;
      u.copies = 1;
      u.message = t.message;
      frontend.untrain(u);
    }
  }
}

/// Bit-exact classify comparison over every user (direct classify_batch
/// calls — on a standby only dispatch() is role-gated, by design, so the
/// proof of bit-identity does not need a promotion first).
void expect_bit_identical(ServeFrontend& got, ServeFrontend& want,
                          std::uint64_t probe_seed) {
  const auto probes = make_messages(6, probe_seed);
  for (std::uint64_t uid = 0; uid < kUsers; ++uid) {
    ClassifyBatchRequest c;
    c.user_id = uid;
    c.messages = probes;
    const auto a = got.classify_batch(c);
    const auto b = want.classify_batch(c);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
      // operator== on doubles: identical bit patterns or bust.
      ASSERT_EQ(a.results[i].score, b.results[i].score)
          << "user " << uid << " probe " << i;
      ASSERT_EQ(a.results[i].verdict, b.results[i].verdict);
    }
  }
}

WalRecord sample_record(std::uint64_t seqno) {
  WalRecord r;
  r.op = kWalOpTrain;
  r.seqno = seqno;
  r.user_id = seqno % kUsers;
  r.request_id = 7000 + seqno;
  r.as_spam = (seqno % 2) == 0;
  r.copies = 1;
  r.message = "Subject: s" + std::to_string(seqno) + "\n\nbody body\n";
  return r;
}

// --- Group commit ----------------------------------------------------------

TEST(GroupCommit, OneWindowCoversEveryTicketDrawnBeforeTheFsync) {
  TempDataDir dir("gc");
  DurabilityConfig dc;
  dc.data_dir = dir.path;
  dc.fsync = FsyncMode::kBatch;
  Durability durability(dc, 1);

  std::vector<std::uint64_t> tickets;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    durability.wal(0).append(sample_record(i));
    tickets.push_back(durability.note_append());
  }
  EXPECT_EQ(durability.group_commit_windows(), 0u);

  // The latest ticket leads one window; that window covers all three.
  durability.await_durable(tickets.back());
  EXPECT_EQ(durability.group_commit_windows(), 1u);
  durability.await_durable(tickets.front());  // already covered, no new fsync
  EXPECT_EQ(durability.group_commit_windows(), 1u);

  durability.wal(0).append(sample_record(4));
  durability.await_durable(durability.note_append());
  EXPECT_EQ(durability.group_commit_windows(), 2u);
}

TEST(GroupCommit, ConcurrentWaitersShareWindows) {
  TempDataDir dir("gcmt");
  DurabilityConfig dc;
  dc.data_dir = dir.path;
  dc.fsync = FsyncMode::kBatch;
  Durability durability(dc, 1);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&durability, t] {
      for (int i = 0; i < kPerThread; ++i) {
        durability.wal(0).append(
            sample_record(static_cast<std::uint64_t>(t * kPerThread + i + 1)));
        durability.await_durable(durability.note_append());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Every ack was covered by a window; absorption means strictly fewer
  // windows than appends is possible but never zero.
  EXPECT_GE(durability.group_commit_windows(), 1u);
  EXPECT_LE(durability.group_commit_windows(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(durability.wal(0).records(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

// --- Incremental snapshot chain --------------------------------------------

TEST(IncrementalSnapshots, ChainRecoveryIsBitIdenticalAndCompactionKicksIn) {
  TempDataDir dir("chain");
  {
    auto durable = durable_frontend(dir.path, /*snapshot_every=*/2);
    apply_workload(*durable, 60, 77);
    EXPECT_GT(durable->durability()->incremental_snapshot_bytes(), 0u);
    durable->sync_durability();
  }
  // 60 mutations / checkpoint-every-2 crosses kCompactChainAfterSegments,
  // so at least one shard compacted into a full snapshot.
  bool compacted = false;
  for (std::size_t s = 0; s < kShards; ++s) {
    compacted = compacted ||
                std::filesystem::exists(snapshot_path_in(dir.path, s));
  }
  EXPECT_TRUE(compacted);

  auto recovered = memory_frontend();
  const RecoveryStats rs = recover(*recovered, dir.path);
  EXPECT_GT(rs.snapshot_segments + rs.snapshot_users, 0u);

  auto reference = memory_frontend();
  apply_workload(*reference, 60, 77);
  expect_bit_identical(*recovered, *reference, 901);
}

TEST(IncrementalSnapshots, MissingChainSegmentFailsLoudly) {
  TempDataDir dir("gap");
  {
    auto durable = durable_frontend(dir.path, /*snapshot_every=*/1);
    apply_workload(*durable, 8, 31);
    durable->sync_durability();
  }
  // Find a shard with at least two segments and delete the older one: the
  // newer segment's parent link now dangles and its state is beyond any
  // full snapshot, which recovery must refuse to guess around.
  bool removed = false;
  for (std::size_t s = 0; s < kShards && !removed; ++s) {
    const std::string first = incremental_snapshot_path_in(dir.path, s, 1);
    const std::string second = incremental_snapshot_path_in(dir.path, s, 2);
    if (std::filesystem::exists(first) && std::filesystem::exists(second)) {
      std::filesystem::remove(first);
      removed = true;
    }
  }
  ASSERT_TRUE(removed);
  auto frontend = memory_frontend();
  EXPECT_THROW(recover(*frontend, dir.path), ParseError);
}

TEST(IncrementalSnapshots, SegmentFileRoundTripsWithCrc) {
  TempDataDir dir("seg");
  std::filesystem::create_directories(dir.path);
  const std::string path = dir.path + "/snap-000001.inc";

  IncrementalSnapshot snap;
  snap.index = 1;
  snap.seqno = 42;
  snap.parent_crc = 0xDEADBEEF;
  const IncrementalWriteResult wrote =
      write_incremental_snapshot_file(path, snap);
  EXPECT_GT(wrote.bytes, 0u);

  std::uint32_t crc = 0;
  const auto back = read_incremental_snapshot_file(path, &crc);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->index, 1u);
  EXPECT_EQ(back->seqno, 42u);
  EXPECT_EQ(back->parent_crc, 0xDEADBEEFu);
  EXPECT_EQ(crc, wrote.crc);

  // One flipped content byte must flip the verdict to ParseError.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(12);
    f.write("X", 1);
  }
  EXPECT_THROW(read_incremental_snapshot_file(path), ParseError);
}

// --- WAL shipping to a live standby ----------------------------------------

/// A standby sbx_serve in miniature: durable frontend marked standby plus
/// a real socket server, torn down in order.
struct LiveStandby {
  TempDataDir dir;
  std::unique_ptr<ServeFrontend> frontend;
  Server server;
  std::thread serving;

  LiveStandby(const std::string& tag, const std::string& endpoint,
              std::string redirect = "")
      : dir(tag), frontend([&] {
          auto f = durable_frontend(dir.path, 0);
          f->set_standby(std::move(redirect));
          return f;
        }()),
        server(*frontend, endpoint), serving([this] { server.run(); }) {}

  ~LiveStandby() {
    server.request_drain();
    serving.join();
  }
};

TEST(Replication, StandbyIsBitIdenticalAtTheAckedWatermark) {
  const std::string sock = temp_sock("ship");
  LiveStandby standby("ship_standby", "unix:" + sock);

  TempDataDir primary_dir("ship_primary");
  auto primary = durable_frontend(primary_dir.path, 0);
  ReplicationConfig rc;
  rc.target = "unix:" + sock;
  rc.ack = ReplAckPolicy::kQuorum;
  primary->attach_replicator(std::make_unique<Replicator>(rc));

  // Under kQuorum every train/untrain ack below waited for the standby,
  // so by the time the workload returns the acked watermark covers it all.
  apply_workload(*primary, 25, 55);

  const ReplicationStats stats = primary->replicator()->stats();
  EXPECT_EQ(stats.lag_records, 0u);
  EXPECT_GT(stats.acked_seqno, 0u);
  EXPECT_EQ(stats.acked_seqno, stats.shipped_seqno);

  expect_bit_identical(*standby.frontend, *primary, 902);

  // The standby's own log + chain replays back to the same state (what a
  // failover-then-restart of the promoted node relies on).
  auto reborn = durable_frontend(standby.dir.path, 0);
  expect_bit_identical(*reborn, *primary, 903);

  primary->sync_durability();  // stop the shipper before the standby dies
}

TEST(Replication, ResentRecordsAreSkippedBySeqno) {
  TempDataDir dir("dedup");
  auto standby = durable_frontend(dir.path, 0);
  standby->set_standby("");

  ReplicateBatchRequest batch;
  WalRecord r = sample_record(1);
  const auto at = standby->route(r.user_id);
  batch.records.push_back(ReplicatedRecord{at.shard, r});

  const ReplicateAckResponse first = standby->replicate_batch(batch);
  EXPECT_EQ(first.acked_seqno, 1u);
  EXPECT_EQ(first.applied_records, 1u);
  // A reconnecting primary resends the unacked tail; the duplicate must
  // not double-train.
  const ReplicateAckResponse again = standby->replicate_batch(batch);
  EXPECT_EQ(again.acked_seqno, 1u);
  EXPECT_EQ(again.applied_records, 1u);
}

// With snapshot_every=1 the first apply folds the record into a checkpoint
// and truncates the WAL, so after a restart only the chain's seqno tells
// the standby that a resend of that record already counts.
TEST(Replication, RestartedStandbySkipsResendsItsCheckpointCovers) {
  TempDataDir dir("restart");
  const WalRecord r = sample_record(3);  // a ham train for user 3
  ReplicateBatchRequest batch;
  {
    auto standby = durable_frontend(dir.path, /*snapshot_every=*/1);
    standby->set_standby("");
    batch.records.push_back(
        ReplicatedRecord{standby->route(r.user_id).shard, r});
    EXPECT_EQ(standby->replicate_batch(batch).applied_records, 1u);
    ASSERT_GT(standby->durability()->snapshots_taken(), 0u);
    ASSERT_EQ(standby->overlay(r.user_id)->ham_count(), 1u);
  }
  auto restarted = durable_frontend(dir.path, 1);
  restarted->set_standby("");
  const ReplicateAckResponse again = restarted->replicate_batch(batch);
  EXPECT_EQ(again.acked_seqno, 3u);
  EXPECT_EQ(again.applied_records, 0u);
  const OverlaySnapshot overlay = restarted->overlay(r.user_id);
  ASSERT_NE(overlay, nullptr);
  EXPECT_EQ(overlay->ham_count(), 1u);
  EXPECT_EQ(overlay->spam_count(), 0u);
}

TEST(Replication, PromoteFlipsRoleAndAdvancesSeqnos) {
  TempDataDir dir("promote");
  auto standby = durable_frontend(dir.path, 0);
  standby->set_standby("tcp:127.0.0.1:1");

  ReplicateBatchRequest batch;
  WalRecord r = sample_record(17);
  batch.records.push_back(ReplicatedRecord{standby->route(r.user_id).shard, r});
  standby->replicate_batch(batch);

  // Writes bounce with a redirect until promotion.
  const Response refused = standby->dispatch(Request(TrainRequest{
      0, true, 1, "Subject: x\n\nbody\n", 1}));
  const auto* err = std::get_if<ErrorResponse>(&refused);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, static_cast<std::uint8_t>(ErrorCode::kNotPrimary));
  EXPECT_EQ(err->redirect, "tcp:127.0.0.1:1");

  const PromoteResponse promoted = standby->promote();
  EXPECT_EQ(promoted.last_applied_seqno, 17u);
  EXPECT_EQ(standby->role(), Role::kPrimary);
  // Idempotent: promoting a primary reports the same watermark.
  EXPECT_EQ(standby->promote().last_applied_seqno, 17u);

  // The first post-promotion mutation draws a seqno strictly above the
  // replicated watermark — no replay gap, no collision on failback.
  const Response trained = standby->dispatch(Request(TrainRequest{
      0, true, 1, "Subject: y\n\nfresh after promote\n", 2}));
  EXPECT_TRUE(std::holds_alternative<TrainResponse>(trained));
  EXPECT_GT(standby->promote().last_applied_seqno, 17u);
}

TEST(Replication, PrimaryRefusesReplicateBatch) {
  auto primary = memory_frontend();
  const Response r =
      primary->dispatch(Request(ReplicateBatchRequest{}));
  const auto* err = std::get_if<ErrorResponse>(&r);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, static_cast<std::uint8_t>(ErrorCode::kGeneric));
}

TEST(Replication, ReplicatorConstructionRejectsBadConfigs) {
  ReplicationConfig rc;
  EXPECT_THROW(Replicator{rc}, InvalidArgument);  // empty target
  rc.target = "tcp:1";
  rc.ack = ReplAckPolicy::kNone;
  EXPECT_THROW(Replicator{rc}, InvalidArgument);  // disabled policy
  rc.ack = ReplAckPolicy::kAsync;
  rc.batch_max = 0;
  EXPECT_THROW(Replicator{rc}, InvalidArgument);

  EXPECT_EQ(repl_ack_policy_from_string("quorum"), ReplAckPolicy::kQuorum);
  EXPECT_EQ(to_string(ReplAckPolicy::kAsync), "async");
  EXPECT_THROW(repl_ack_policy_from_string("sometimes"), ParseError);
}

// --- Client redirect following ---------------------------------------------

/// In-memory primary behind a real server (the redirect target).
struct LivePrimary {
  std::unique_ptr<ServeFrontend> frontend;
  Server server;
  std::thread serving;

  explicit LivePrimary(const std::string& endpoint)
      : frontend(memory_frontend()),
        server(*frontend, endpoint),
        serving([this] { server.run(); }) {}

  ~LivePrimary() {
    server.request_drain();
    serving.join();
  }
};

TEST(ClientRedirect, FollowsNotPrimaryToTheNamedEndpoint) {
  const std::string primary_sock = temp_sock("redir_primary");
  const std::string standby_sock = temp_sock("redir_standby");
  LivePrimary primary("unix:" + primary_sock);
  LiveStandby standby("redir_standby", "unix:" + standby_sock,
                      "unix:" + primary_sock);

  ClientOptions opts;
  opts.max_attempts = 2;  // the redirect hop consumes one attempt
  Client client("unix:" + standby_sock, opts);
  TrainRequest t;
  t.user_id = 3;
  t.message = "Subject: hello\n\nredirect me\n";
  t.request_id = 41;
  const Response r = client.call(Request(t));
  EXPECT_TRUE(std::holds_alternative<TrainResponse>(r))
      << "redirected train must land on the primary";
  EXPECT_EQ(client.endpoint(), "unix:" + primary_sock);
  EXPECT_EQ(client.retries(), 1u);
}

TEST(ClientRedirect, BareNotPrimaryIsReturnedAsIs) {
  const std::string standby_sock = temp_sock("bare_standby");
  LiveStandby standby("bare_standby", "unix:" + standby_sock, "");

  ClientOptions opts;
  opts.max_attempts = 3;
  Client client("unix:" + standby_sock, opts);
  const Response r = client.call(Request(ClassifyBatchRequest{
      1, {"Subject: q\n\nbody\n"}}));
  const auto* err = std::get_if<ErrorResponse>(&r);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, static_cast<std::uint8_t>(ErrorCode::kNotPrimary));
  EXPECT_TRUE(err->redirect.empty());
  EXPECT_EQ(client.retries(), 0u) << "no redirect target, nothing to retry";
}

TEST(ClientRedirect, ParseErrorIsNeverRetried) {
  const std::string path = temp_sock("badframe");
  ::unlink(path.c_str());
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  std::thread peer([lfd] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    char buf[4096];
    (void)::read(fd, buf, sizeof(buf));
    // A framed payload with a bogus protocol version: decodes as
    // ParseError, which the client must surface without burning retries.
    const std::uint8_t bad[] = {3, 0, 0, 0, 9, 9, 9};
    (void)::write(fd, bad, sizeof(bad));
    ::close(fd);
  });

  ClientOptions opts;
  opts.max_attempts = 5;
  Client client("unix:" + path, opts);
  EXPECT_THROW(client.call(Request(StatsRequest{})), ParseError);
  EXPECT_EQ(client.retries(), 0u);
  peer.join();
  ::close(lfd);
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// Lock-ordering regression: the quorum-ack wait and the shard lock.
// ---------------------------------------------------------------------------

// Enqueueing to the replicator while holding a shard-rank lock is the
// designed fast path (shard.cpp does exactly this on every mutation) and
// must stay legal under the rank tracker: kShard < kReplicator ascends.
TEST(ReplicationLockOrder, EnqueueUnderShardRankLockIsLegal) {
  ReplicationConfig rc;
  rc.target = "unix:" + temp_sock("rank_enqueue_void");  // never connects
  rc.ack = ReplAckPolicy::kAsync;
  Replicator replicator(rc);
  util::Mutex shard_rank_lock(util::LockRank::kShard,
                              "test::shard_rank_lock");
  WalRecord record;
  record.seqno = 1;
  {
    const util::MutexLock lock(shard_rank_lock);
    EXPECT_EQ(replicator.enqueue(0, record), 1u);
  }
  replicator.stop();
}

#ifdef SBX_LOCK_RANK

// Pins the PR 7 invariant the prose used to carry alone: wait_acked
// blocks on ack_cv_ until the standby acks, so a caller still holding a
// shard mutation lock would stall every writer on that shard behind a
// remote round-trip (or forever, against a dead standby). frontend.cpp
// releases the shard lock BEFORE waiting; if anyone reintroduces the
// inverted order, the rank tracker must abort at the CondVar wait
// rather than let the serving path hang in production.
TEST(ReplicationLockOrder, WaitAckedUnderShardRankLockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ReplicationConfig rc;
        // Unreachable target: the enqueued record is never acked, so
        // wait_acked must reach the blocking ack_cv_ wait.
        rc.target = "unix:" + temp_sock("rank_wait_void");
        rc.ack = ReplAckPolicy::kQuorum;
        Replicator replicator(rc);
        WalRecord record;
        record.seqno = 1;
        const std::uint64_t ticket = replicator.enqueue(0, record);
        util::Mutex shard_rank_lock(util::LockRank::kShard,
                                    "test::shard_rank_lock");
        const util::MutexLock lock(shard_rank_lock);
        replicator.wait_acked(ticket);
      },
      "CondVar wait.*test::shard_rank_lock");
}

#endif  // SBX_LOCK_RANK

}  // namespace
}  // namespace sbx::serve
