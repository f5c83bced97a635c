// Crash-recovery tests: checkpoint+WAL replay rebuilds a frontend whose
// classify scores are bit-identical to an uninterrupted run, torn tails
// are dropped (and repaired only when asked), dedup windows survive
// recovery, the manifest round-trips, checkpoint files are CRC-checked
// before any count in them is trusted, compaction leftovers are skipped
// (and deleted by a durable reopen), and legacy layouts are refused.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "email/rfc2822.h"
#include "serve/base_model.h"
#include "serve/frontend.h"
#include "serve/recovery.h"
#include "serve/wal.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/random.h"

namespace sbx::serve {
namespace {

BaseModelConfig small_base() { return {/*base_size=*/200, 0.5, /*seed=*/5}; }

constexpr std::size_t kShards = 2;
constexpr std::size_t kUsers = 8;

/// A fresh data dir per test, removed on scope exit.
struct TempDataDir {
  std::string path;
  explicit TempDataDir(const std::string& tag)
      : path(testing::TempDir() + "sbx_recovery_" + tag + "_" +
             std::to_string(static_cast<unsigned>(::getpid()))) {
    std::filesystem::remove_all(path);
  }
  ~TempDataDir() { std::filesystem::remove_all(path); }
};

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

/// Mixed deterministic mutation workload applied to any frontend.
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
      // Untrain something we just trained — exercises the untrain path
      // with counts that cannot go negative.
      UntrainRequest u;
      u.user_id = t.user_id;
      u.as_spam = t.as_spam;
      u.copies = 1;
      u.message = t.message;
      frontend.untrain(u);
    }
  }
}

/// Bit-exact classify comparison over every user.
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
      // operator== on doubles: identical bit patterns or bust (scores are
      // never NaN).
      ASSERT_EQ(a.results[i].score, b.results[i].score)
          << "user " << uid << " probe " << i;
      ASSERT_EQ(a.results[i].verdict, b.results[i].verdict);
    }
  }
}

TEST(Recovery, WalOnlyReplayIsBitIdenticalToUninterruptedRun) {
  TempDataDir dir("walonly");
  auto reference = memory_frontend();
  {
    auto durable = durable_frontend(dir.path, /*snapshot_every=*/0);
    apply_workload(*durable, 30, 11);
  }  // destructor = abrupt end; nothing flushed beyond the appends
  apply_workload(*reference, 30, 11);

  auto recovered = memory_frontend();
  const RecoveryStats rs = recover(*recovered, dir.path);
  EXPECT_EQ(rs.snapshot_users, 0u);
  EXPECT_EQ(rs.replayed_records, 36u);  // 30 trains + 6 untrains
  EXPECT_EQ(rs.torn_dropped, 0u);
  EXPECT_GT(rs.max_seqno, 0u);
  expect_bit_identical(*recovered, *reference, 77);
}

TEST(Recovery, SnapshotPlusTailReplayIsBitIdentical) {
  TempDataDir dir("snaptail");
  auto reference = memory_frontend();
  {
    // Snapshot every 10 records: the workload crosses several checkpoint
    // boundaries, leaving snapshot + a short WAL tail behind.
    auto durable = durable_frontend(dir.path, /*snapshot_every=*/10);
    apply_workload(*durable, 40, 13);
    ASSERT_GT(durable->durability()->snapshots_taken(), 0u);
  }
  apply_workload(*reference, 40, 13);

  auto recovered = memory_frontend();
  const RecoveryStats rs = recover(*recovered, dir.path);
  EXPECT_GT(rs.snapshot_users, 0u);
  // The snapshot folded most records away; only the tail replays.
  EXPECT_LT(rs.replayed_records, 48u);
  expect_bit_identical(*recovered, *reference, 78);
}

TEST(Recovery, RecoveredServerContinuesAndStaysIdentical) {
  TempDataDir dir("continue");
  auto reference = memory_frontend();
  {
    auto durable = durable_frontend(dir.path, 0);
    apply_workload(*durable, 20, 17);
  }
  apply_workload(*reference, 20, 17);

  // Second generation: a *durable* frontend recovers the dir itself (as
  // sbx_serve's does), keeps mutating, crashes again, recovers again.
  {
    auto durable = durable_frontend(dir.path, 0);
    apply_workload(*durable, 15, 19);
  }
  apply_workload(*reference, 15, 19);

  auto recovered = memory_frontend();
  recover(*recovered, dir.path);
  expect_bit_identical(*recovered, *reference, 79);
}

TEST(Recovery, TornTailIsDroppedAndRepairedOnlyWhenAsked) {
  TempDataDir dir("torn");
  {
    auto durable = durable_frontend(dir.path, 0);
    apply_workload(*durable, 10, 23);
  }
  const std::string wal0 = wal_path_in(dir.path, 0);
  const auto full_size = std::filesystem::file_size(wal0);
  // Tear the last record: chop 3 bytes off.
  std::filesystem::resize_file(wal0, full_size - 3);

  // Read-only recovery drops the tail but leaves the file alone.
  {
    auto mirror = memory_frontend();
    const RecoveryStats rs = recover(*mirror, dir.path);
    EXPECT_EQ(rs.torn_dropped, 1u);
    EXPECT_EQ(std::filesystem::file_size(wal0), full_size - 3);
  }
  // The serving daemon's durable frontend repairs while it recovers: the
  // file shrinks to the valid prefix so future O_APPEND writes stay
  // reachable.
  auto server = durable_frontend(dir.path, 0);
  EXPECT_EQ(server->stats().recovery_torn_dropped, 1u);
  EXPECT_LT(std::filesystem::file_size(wal0), full_size - 3);
  // The repaired log is whole again: no torn bytes remain past the valid
  // prefix.
  const WalReadStats after = read_wal(wal0, [](const WalRecord&) {});
  EXPECT_EQ(after.bytes_used, after.bytes_total);
  EXPECT_EQ(after.dropped_torn, 0u);

  // Both recoveries agree with each other (the torn record is gone from
  // both) — rerun read-only and compare.
  auto mirror = memory_frontend();
  recover(*mirror, dir.path);
  expect_bit_identical(*server, *mirror, 80);
}

TEST(Recovery, DedupAbsorbsRetriesBeforeAndAfterRecovery) {
  TempDataDir dir("dedup");
  const auto msgs = make_messages(2, 31);
  TrainRequest t;
  t.user_id = 3;
  t.as_spam = true;
  t.copies = 1;
  t.message = msgs[0];
  t.request_id = 555;

  std::uint64_t spam_after_first = 0;
  {
    auto durable = durable_frontend(dir.path, 0);
    const TrainResponse first = durable->train(t);
    spam_after_first = first.overlay_spam;
    // Same request id again = retry: counts must not move.
    const TrainResponse retry = durable->train(t);
    EXPECT_EQ(retry.overlay_spam, spam_after_first);
    EXPECT_EQ(durable->stats().deduped_mutations, 1u);
    EXPECT_EQ(durable->stats().train_requests, 2u);
  }

  // The dedup window is durable: a retry arriving *after* a crash+recover
  // (e.g. the client reconnected to the restarted server) is still
  // absorbed.
  auto recovered = durable_frontend(dir.path, 0);
  // The dedup'd retry was never logged.
  EXPECT_EQ(recovered->stats().recovery_replayed_records, 1u);
  const TrainResponse late_retry = recovered->train(t);
  EXPECT_EQ(late_retry.overlay_spam, spam_after_first);
  EXPECT_EQ(recovered->stats().deduped_mutations, 1u);

  // A different request id applies normally.
  t.request_id = 556;
  t.message = msgs[1];
  const TrainResponse fresh = recovered->train(t);
  EXPECT_EQ(fresh.overlay_spam, spam_after_first + 1);
}

TEST(Recovery, DedupWindowSurvivesSnapshotting) {
  TempDataDir dir("dedupsnap");
  const auto msgs = make_messages(1, 37);
  TrainRequest t;
  t.user_id = 1;
  t.as_spam = false;
  t.copies = 1;
  t.message = msgs[0];
  t.request_id = 777;
  {
    // snapshot_every=1: the train is folded into a snapshot immediately
    // and the WAL truncated — the dedup entry must ride in the snapshot.
    auto durable = durable_frontend(dir.path, 1);
    durable->train(t);
    ASSERT_GT(durable->durability()->snapshots_taken(), 0u);
  }
  auto recovered = durable_frontend(dir.path, 1);
  EXPECT_EQ(recovered->stats().recovery_replayed_records, 0u);
  EXPECT_GT(recovered->stats().recovery_snapshot_users, 0u);
  const TrainResponse retry = recovered->train(t);
  EXPECT_EQ(retry.overlay_ham, 1u);
  EXPECT_EQ(recovered->stats().deduped_mutations, 1u);
}

// The first checkpoint after recovery truncates the WAL the replay read
// its users from, so it must carry them. After a WAL-only run that
// checkpoint is a root; trains on users the WAL-only run never touched
// trigger it. (DeltaAfterRecoveryKeepsTheUsersReplayRestored covers a
// data dir that already has a chain.)
TEST(Recovery, CheckpointAfterRecoveryKeepsTheUsersReplayRestored) {
  TempDataDir dir("replaydirty");
  constexpr std::uint64_t kEvery = 3;
  const auto msgs = make_messages(2 * static_cast<int>(kUsers * kEvery), 47);
  std::size_t next_msg = 0;
  const auto train = [&](ServeFrontend& frontend, std::uint64_t uid,
                         std::size_t m) {
    TrainRequest t;
    t.user_id = uid;
    t.as_spam = m % 2 == 1;
    t.message = msgs[m];
    frontend.train(t);
  };
  auto reference = memory_frontend();
  // Per shard, the first user gets the WAL-only workload and the others
  // the trains after recovery.
  std::vector<std::uint64_t> replayed;
  std::vector<std::uint64_t> fresh;
  std::vector<bool> seen(kShards, false);
  for (std::uint64_t uid = 0; uid < kUsers; ++uid) {
    const std::uint32_t shard = reference->route(uid).shard;
    (seen[shard] ? fresh : replayed).push_back(uid);
    seen[shard] = true;
  }
  ASSERT_EQ(replayed.size(), kShards);
  {
    auto durable = durable_frontend(dir.path, /*snapshot_every=*/0);
    for (std::uint64_t uid : replayed) {
      train(*durable, uid, next_msg);
      train(*reference, uid, next_msg++);
    }
  }
  {
    auto reopened = durable_frontend(dir.path, kEvery);
    EXPECT_EQ(reopened->stats().recovery_replayed_records, replayed.size());
    for (std::uint64_t uid : fresh) {
      for (std::uint64_t i = 0; i < kEvery; ++i) {
        train(*reopened, uid, next_msg);
        train(*reference, uid, next_msg++);
      }
    }
    ASSERT_GE(reopened->durability()->snapshots_taken(), kShards);
    for (std::size_t s = 0; s < kShards; ++s) {
      ASSERT_EQ(std::filesystem::file_size(wal_path_in(dir.path, s)), 0u)
          << "shard " << s << " kept its WAL; the test needs it truncated";
    }
  }
  auto recovered = memory_frontend();
  recover(*recovered, dir.path);
  expect_bit_identical(*recovered, *reference, 81);
}

// Replay runs before the WAL is attached, and must still mark every user
// it restores dirty: over an existing chain the first checkpoint after
// recovery is not a root, so it carries only the dirty users, and then
// truncates the WAL those users were replayed from.
TEST(Recovery, DeltaAfterRecoveryKeepsTheUsersReplayRestored) {
  TempDataDir dir("replaydelta");
  constexpr int kEvery = 3;
  const auto msgs = make_messages(2 * kEvery + 1, 71);
  auto reference = memory_frontend();
  std::vector<std::uint64_t> uids;  // three users of shard 0
  for (std::uint64_t uid = 0; uid < kUsers && uids.size() < 3; ++uid) {
    if (reference->route(uid).shard == 0) uids.push_back(uid);
  }
  ASSERT_EQ(uids.size(), 3u);
  std::size_t next_msg = 0;
  const auto train = [&](ServeFrontend& frontend, std::uint64_t uid) {
    TrainRequest t;
    t.user_id = uid;
    t.as_spam = next_msg % 2 == 0;
    t.message = msgs[next_msg];
    frontend.train(t);
    reference->train(t);
    ++next_msg;
  };
  {
    // The root checkpoint holds the first user; the second one's train
    // stays in the WAL.
    auto durable = durable_frontend(dir.path, kEvery);
    for (int i = 0; i < kEvery; ++i) train(*durable, uids[0]);
    train(*durable, uids[1]);
  }
  {
    auto reopened = durable_frontend(dir.path, kEvery);
    EXPECT_EQ(reopened->stats().recovery_replayed_records, 1u);
    for (int i = 0; i < kEvery; ++i) train(*reopened, uids[2]);
    ASSERT_EQ(reopened->durability()->snapshots_taken(), 1u);
    ASSERT_TRUE(std::filesystem::exists(checkpoint_path_in(dir.path, 0, 2)));
    ASSERT_EQ(std::filesystem::file_size(wal_path_in(dir.path, 0)), 0u);
  }
  auto recovered = memory_frontend();
  recover(*recovered, dir.path);
  expect_bit_identical(*recovered, *reference, 85);
}

// recover() is the read-only mirror's entry point: a durable frontend has
// already recovered, and repaired, its own data dir when it was built.
TEST(Recovery, RecoverRefusesADurableFrontend) {
  TempDataDir dir("mirroronly");
  { apply_workload(*durable_frontend(dir.path, 0), 5, 43); }
  auto reopened = durable_frontend(dir.path, 0);
  EXPECT_GT(reopened->stats().recovery_replayed_records, 0u);
  EXPECT_THROW(recover(*reopened, dir.path), InvalidArgument);
}

TEST(Recovery, ManifestRoundTripsAndRejectsCorruption) {
  TempDataDir dir("manifest");
  std::filesystem::create_directories(dir.path);
  EXPECT_FALSE(read_manifest(dir.path).has_value());

  Manifest m;
  m.users = 8;
  m.shards = 2;
  m.base_size = 200;
  m.spam_fraction = 0.3333333333333333;
  m.base_seed = 5;
  write_manifest(dir.path, m);
  const auto back = read_manifest(dir.path);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(*back == m);  // includes exact double equality

  std::ofstream(dir.path + "/MANIFEST", std::ios::trunc)
      << "SBXMANIFEST 1\nusers not_a_number\n";
  EXPECT_THROW(read_manifest(dir.path), ParseError);
}

TEST(Recovery, CorruptSnapshotFailsLoudly) {
  TempDataDir dir("badsnap");
  {
    auto durable = durable_frontend(dir.path, 1);
    apply_workload(*durable, 3, 41);
    ASSERT_GT(durable->durability()->snapshots_taken(), 0u);
  }
  // Checkpoints build a chain; the first segment is the chain root.
  // Damage its header: unlike a torn WAL tail this is NOT an
  // expected crash artifact, so recovery must refuse rather than serve
  // silently wrong state.
  std::string snap;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    const std::string candidate = checkpoint_path_in(dir.path, shard, 1);
    if (std::filesystem::exists(candidate)) {
      snap = candidate;
      break;
    }
  }
  ASSERT_FALSE(snap.empty());
  {
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXX", 4);
  }
  auto frontend = memory_frontend();
  EXPECT_THROW(recover(*frontend, dir.path), ParseError);
}

/// Expects `fn` to throw ParseError whose message names `path`. Any other
/// exception (length_error, bad_alloc) escapes and fails the test.
template <typename Fn>
void expect_parse_error_naming(const std::string& path, Fn fn) {
  try {
    fn();
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
    return;
  }
  ADD_FAILURE() << "no ParseError for " << path;
}

/// Writes `content` plus the trailing crc line that signs it.
void write_signed(const std::string& path, const std::string& content) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << content << "crc " << util::crc32(content.data(), content.size())
      << "\n";
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Trains `count` messages, alternating spam and ham, on the users of
/// shard 0 in turn.
void train_shard0(ServeFrontend& frontend, int count, std::uint64_t seed) {
  std::vector<std::uint64_t> uids;
  for (std::uint64_t uid = 0; uid < kUsers; ++uid) {
    if (frontend.route(uid).shard == 0) uids.push_back(uid);
  }
  ASSERT_FALSE(uids.empty());
  const auto msgs = make_messages(count, seed);
  for (int i = 0; i < count; ++i) {
    TrainRequest t;
    t.user_id = uids[static_cast<std::size_t>(i) % uids.size()];
    t.as_spam = i % 2 == 0;
    t.message = msgs[static_cast<std::size_t>(i)];
    frontend.train(t);
  }
}

// The trailing CRC covers a count that is wrong: the reader must refuse it
// as a ParseError naming the file, never size an allocation by it.
TEST(Recovery, CountsUnderAValidCrcAreBoundedByTheFile) {
  TempDataDir dir("counts");
  std::filesystem::create_directories(dir.path);
  const std::string path = dir.path + "/snap-000001.inc";
  const std::string header = "SBXCKPT 1\nindex 1\nparent root\nseqno 5\n";
  for (const char* users : {"1000000000000000000", "1000000000000"}) {
    write_signed(path, header + "users " + users + "\n");
    expect_parse_error_naming(path, [&] { read_checkpoint_file(path); });
  }
  write_signed(path, header +
                         "users 1\nuser 3 0 1\ndbbytes 1000000000000\n"
                         "SBXDB 1\n1 0\n\n");
  expect_parse_error_naming(path, [&] { read_checkpoint_file(path); });
}

// A root (a compaction, or a shard's first checkpoint) with no segment
// after it is the whole checkpointed state: one flipped count digit in its
// database block must fail recovery, not be served.
TEST(Recovery, FlippedCountInARootFailsRecovery) {
  // 1 record: the first checkpoint. 10 records: root 1, segments 2-9,
  // then the compaction root 10.
  for (const int records : {1, 10}) {
    TempDataDir dir("rootflip" + std::to_string(records));
    {
      auto durable = durable_frontend(dir.path, /*snapshot_every=*/1);
      train_shard0(*durable, records, 53);
    }
    const std::string path =
        checkpoint_path_in(dir.path, 0, static_cast<std::uint64_t>(records));
    const auto root = read_checkpoint_file(path);
    ASSERT_TRUE(root.has_value());
    ASSERT_TRUE(root->root());
    ASSERT_FALSE(std::filesystem::exists(checkpoint_path_in(
        dir.path, 0, static_cast<std::uint64_t>(records) + 1)));
    if (records > 1) {
      ASSERT_FALSE(std::filesystem::exists(checkpoint_path_in(dir.path, 0, 1)));
    }
    // The first token line after the database's "nspam nham" line starts
    // with that token's spam count.
    std::string bytes = read_bytes(path);
    const std::size_t db = bytes.find("SBXDB 1\n");
    ASSERT_NE(db, std::string::npos);
    const std::size_t token = bytes.find('\n', db + 8) + 1;
    char& digit = bytes[token];
    ASSERT_TRUE(digit >= '0' && digit <= '9');
    digit = digit == '9' ? '8' : '9';
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

    auto mirror = memory_frontend();
    expect_parse_error_naming(path, [&] { recover(*mirror, dir.path); });
    expect_parse_error_naming(path, [&] { durable_frontend(dir.path, 1); });
  }
}

// Layouts written before every checkpoint carried its own CRC and root
// marker are refused: skipping them would lose every user the truncated
// WAL no longer holds.
TEST(Recovery, LegacySnapshotDbIsRefused) {
  TempDataDir dir("legacyfull");
  { apply_workload(*durable_frontend(dir.path, 0), 5, 59); }
  const std::string path = shard_dir(dir.path, 0) + "/snapshot.db";
  std::ofstream(path) << "SBXSNAP 1\nseqno 3\nusers 0\n";
  auto mirror = memory_frontend();
  expect_parse_error_naming(path, [&] { recover(*mirror, dir.path); });
  expect_parse_error_naming(path, [&] { durable_frontend(dir.path, 0); });
}

TEST(Recovery, LegacySegmentMagicIsRefused) {
  TempDataDir dir("legacyinc");
  { apply_workload(*durable_frontend(dir.path, 0), 5, 61); }
  const std::string path = checkpoint_path_in(dir.path, 0, 1);
  write_signed(path, "SBXSNAPINC 1\nindex 1\nparent_crc 0\nseqno 3\nusers 0\n");
  auto mirror = memory_frontend();
  expect_parse_error_naming(path, [&] { recover(*mirror, dir.path); });
  expect_parse_error_naming(path, [&] { durable_frontend(dir.path, 0); });
}

// A crash between a compaction root's rename and the unlinks leaves the
// segments below the root on disk. Put copies of them back: the mirror
// skips them, and a durable reopen deletes them.
TEST(Recovery, CompactionLeftoversAreSkippedThenDeleted) {
  TempDataDir dir("leftovers");
  auto reference = memory_frontend();
  std::map<std::string, std::string> seen;  // every segment ever on disk
  {
    auto durable = durable_frontend(dir.path, /*snapshot_every=*/1);
    const auto msgs = make_messages(40, 67);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      TrainRequest t;
      t.user_id = i % kUsers;
      t.as_spam = i % 3 == 0;
      t.message = msgs[i];
      t.request_id = i + 1;
      durable->train(t);
      reference->train(t);
      for (std::size_t s = 0; s < kShards; ++s) {
        for (const auto& entry :
             std::filesystem::directory_iterator(shard_dir(dir.path, s))) {
          const std::string name = entry.path().filename().string();
          if (name.rfind("snap-", 0) == 0 && name.size() == 15) {
            seen[entry.path().string()] = read_bytes(entry.path().string());
          }
        }
      }
    }
  }
  std::vector<std::string> restored;
  for (const auto& [path, bytes] : seen) {
    if (std::filesystem::exists(path)) continue;
    std::ofstream(path, std::ios::binary) << bytes;
    restored.push_back(path);
  }
  ASSERT_FALSE(restored.empty()) << "no shard compacted";

  {
    auto mirror = memory_frontend();
    recover(*mirror, dir.path);
    expect_bit_identical(*mirror, *reference, 83);
    for (const std::string& path : restored) {
      EXPECT_TRUE(std::filesystem::exists(path)) << path;
    }
  }
  { auto reopened = durable_frontend(dir.path, 1); }
  for (const std::string& path : restored) {
    EXPECT_FALSE(std::filesystem::exists(path)) << path;
  }
  auto mirror = memory_frontend();
  recover(*mirror, dir.path);
  expect_bit_identical(*mirror, *reference, 84);
}

}  // namespace
}  // namespace sbx::serve
