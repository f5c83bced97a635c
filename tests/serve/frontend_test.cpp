// ServeFrontend dispatch/stats/concurrency tests, a live socket
// round-trip through Server/Client on a UNIX domain socket, and the
// lookup-only classify contract (frontend.h): classify never writes the
// token interner, scores bit-identically to scoring fully interned ids,
// refuses classifier options under which dropping an unseen token could
// change a score, and never misses a token a published overlay counts.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "corpus/generator.h"
#include "email/rfc2822.h"
#include "serve/base_model.h"
#include "serve/frontend.h"
#include "serve/client.h"
#include "serve/server.h"
#include "spambayes/filter.h"
#include "spambayes/interner.h"
#include "spambayes/score_engine.h"
#include "util/error.h"
#include "util/random.h"

namespace sbx::serve {
namespace {

BaseModelConfig small_base() { return {/*base_size=*/200, 0.5, /*seed=*/5}; }

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

TEST(ServeFrontend, RejectsZeroTopologyAndUnknownUsers) {
  EXPECT_THROW(ServeFrontend(build_base_filter(small_base()), {0, 8}),
               InvalidArgument);
  EXPECT_THROW(ServeFrontend(build_base_filter(small_base()), {2, 0}),
               InvalidArgument);

  ServeFrontend frontend(build_base_filter(small_base()), {2, 8});
  ClassifyBatchRequest req;
  req.user_id = 8;  // one past the end
  req.messages = make_messages(1, 1);
  EXPECT_THROW(frontend.classify_batch(req), InvalidArgument);
  const Response r = frontend.dispatch(Request(req));
  ASSERT_TRUE(std::holds_alternative<ErrorResponse>(r));
  EXPECT_NE(std::get<ErrorResponse>(r).message.find("unknown user"),
            std::string::npos);
}

TEST(ServeFrontend, RoutingCoversAllShardsWithDenseLocalSlots) {
  ServeFrontend frontend(build_base_filter(small_base()), {4, 64});
  std::vector<int> per_shard(4, 0);
  for (std::uint64_t uid = 0; uid < 64; ++uid) {
    const auto at = frontend.route(uid);
    ASSERT_LT(at.shard, 4u);
    ++per_shard[at.shard];
  }
  for (int n : per_shard) EXPECT_GT(n, 0);
}

TEST(ServeFrontend, StatsTrackRequestsAndOverlays) {
  ServeFrontend frontend(build_base_filter(small_base()), {2, 8});
  const auto msgs = make_messages(4, 2);

  ClassifyBatchRequest c;
  c.user_id = 0;
  c.messages = msgs;
  frontend.classify_batch(c);

  TrainRequest t;
  t.user_id = 3;
  t.message = msgs[0];
  frontend.train(t);

  const StatsResponse s = frontend.stats();
  EXPECT_EQ(s.users, 8u);
  EXPECT_EQ(s.shards, 2u);
  EXPECT_EQ(s.classify_requests, 1u);
  EXPECT_EQ(s.classified_messages, 4u);
  EXPECT_EQ(s.train_requests, 1u);
  EXPECT_EQ(s.overlay_users, 1u);
  EXPECT_EQ(s.base_spam_count + s.base_ham_count, 200u);
}

TEST(ServeFrontend, TrainThatWouldWrapACountIsRefusedBeforeTheWal) {
  // TrainRequest.copies is client-controlled. A second train that would
  // wrap the overlay's uint32 spam total must fail without publishing,
  // logging or changing any later score.
  const std::string dir = testing::TempDir() + "sbx_frontend_wrap_" +
                          std::to_string(static_cast<unsigned>(::getpid()));
  std::filesystem::remove_all(dir);
  constexpr std::uint64_t kUser = 4;
  const std::vector<std::string> feedback = make_messages(2, 81);
  ClassifyBatchRequest probes;
  probes.user_id = kUser;
  probes.messages = make_messages(16, 82);
  std::vector<ClassifyResult> before;
  {
    DurabilityConfig dc;
    dc.data_dir = dir;
    dc.fsync = FsyncMode::kNone;
    ServeFrontend frontend(build_base_filter(small_base()), {2, 8},
                           std::make_unique<Durability>(dc, 2));
    TrainRequest t;
    t.user_id = kUser;
    t.as_spam = true;
    t.copies = UINT32_MAX - 5;
    t.message = feedback[0];
    const Response accepted = frontend.dispatch(Request(t));
    ASSERT_TRUE(std::holds_alternative<TrainResponse>(accepted));
    const OverlaySnapshot overlay = frontend.overlay(kUser);
    const std::uint64_t wal_records = frontend.stats().wal_records;
    before = frontend.classify_batch(probes).results;

    t.copies = 6;
    t.message = feedback[1];
    const Response refused = frontend.dispatch(Request(t));
    EXPECT_TRUE(std::holds_alternative<ErrorResponse>(refused));
    EXPECT_EQ(frontend.overlay(kUser), overlay);
    EXPECT_EQ(overlay->spam_count(), UINT32_MAX - 5);
    EXPECT_EQ(frontend.stats().wal_records, wal_records);
    const auto after = frontend.classify_batch(probes).results;
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(after[i].score, before[i].score) << "probe " << i;
      EXPECT_EQ(after[i].verdict, before[i].verdict) << "probe " << i;
    }
  }
  // Replay sees only the accepted train and reproduces its scores.
  ServeFrontend recovered(build_base_filter(small_base()), {2, 8});
  EXPECT_EQ(recover(recovered, dir).replayed_records, 1u);
  const auto replayed = recovered.classify_batch(probes).results;
  ASSERT_EQ(replayed.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(replayed[i].score, before[i].score) << "probe " << i;
  }
  std::filesystem::remove_all(dir);
}

// Classify traffic hammering one user while another user trains: the
// reader must never block or crash, and scores must always correspond to
// some published snapshot (here: just exercise it under TSan).
TEST(ServeFrontend, ConcurrentClassifyDuringTraining) {
  ServeFrontend frontend(build_base_filter(small_base()), {2, 4});
  const auto msgs = make_messages(3, 4);

  std::thread trainer([&] {
    for (int i = 0; i < 50; ++i) {
      TrainRequest t;
      t.user_id = 1;
      t.as_spam = i % 2 == 0;
      t.message = msgs[i % msgs.size()];
      frontend.train(t);
    }
  });
  std::thread classifier([&] {
    for (int i = 0; i < 50; ++i) {
      ClassifyBatchRequest c;
      c.user_id = 1;
      c.messages = msgs;
      const auto r = frontend.classify_batch(c);
      ASSERT_EQ(r.results.size(), msgs.size());
    }
  });
  trainer.join();
  classifier.join();
  EXPECT_EQ(frontend.stats().train_requests, 50u);
}

TEST(ServeServer, SocketRoundTripMatchesInProcessBitwise) {
  ServeFrontend frontend(build_base_filter(small_base()), {2, 8});
  ServeFrontend mirror(build_base_filter(small_base()), {2, 8});

  const std::string path =
      testing::TempDir() + "sbx_serve_test_" +
      std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
  Server server(frontend, "unix:" + path);
  std::thread serving([&] { server.run(); });

  {
    Client client("unix:" + path);
    const auto msgs = make_messages(4, 6);

    TrainRequest t;
    t.user_id = 2;
    t.message = msgs[0];
    const auto train_remote = client.call(Request(t));
    const auto train_local = mirror.dispatch(Request(t));
    EXPECT_EQ(std::get<TrainResponse>(train_remote).overlay_spam,
              std::get<TrainResponse>(train_local).overlay_spam);

    ClassifyBatchRequest c;
    c.user_id = 2;
    c.messages = msgs;
    const auto remote =
        std::get<ClassifyBatchResponse>(client.call(Request(c)));
    const auto local =
        std::get<ClassifyBatchResponse>(mirror.dispatch(Request(c)));
    ASSERT_EQ(remote.results.size(), local.results.size());
    for (std::size_t i = 0; i < remote.results.size(); ++i) {
      EXPECT_EQ(remote.results[i].score, local.results[i].score);
      EXPECT_EQ(remote.results[i].verdict, local.results[i].verdict);
    }

    // Request-level failure leaves the connection usable.
    UntrainRequest bad;
    bad.user_id = 3;
    bad.message = msgs[0];
    EXPECT_TRUE(std::holds_alternative<ErrorResponse>(
        client.call(Request(bad))));
    EXPECT_TRUE(std::holds_alternative<StatsResponse>(
        client.call(Request(StatsRequest{}))));

    EXPECT_TRUE(std::holds_alternative<ShutdownResponse>(
        client.call(Request(ShutdownRequest{}))));
  }
  serving.join();
  std::remove(path.c_str());
}

TEST(LookupOnlyClassify, RejectsOptionsUnderWhichAnUnseenTokenDiscriminates) {
  spambayes::FilterOptions skewed;
  skewed.classifier.unknown_word_prob = 0.8;  // |0.8 - 0.5| > 0.1
  EXPECT_THROW(ServeFrontend(spambayes::Filter(skewed), {2, 8}),
               InvalidArgument);
  EXPECT_NO_THROW(ServeFrontend(spambayes::Filter(), {2, 8}));
}

TEST(LookupOnlyClassify, ScoresMatchFullyInternedIdsAndInternerStaysFlat) {
  ServeFrontend frontend(build_base_filter(small_base()), {2, 8});
  constexpr std::uint64_t kUntrained = 0;
  constexpr std::uint64_t kTrained = 3;
  const std::vector<std::string> feedback = make_messages(16, 71);
  for (std::size_t i = 0; i < feedback.size(); ++i) {
    TrainRequest t;
    t.user_id = kTrained;
    t.as_spam = i % 2 == 1;
    t.message = feedback[i];
    frontend.train(t);
  }
  const OverlaySnapshot overlay = frontend.overlay(kTrained);
  ASSERT_TRUE(overlay != nullptr);
  ASSERT_TRUE(frontend.overlay(kUntrained) == nullptr);

  const std::vector<std::string> probes = make_messages(2'000, 72);
  const std::uint64_t users[] = {kUntrained, kTrained};
  std::vector<ClassifyResult> served[2];
  const std::size_t interned_before = spambayes::global_interner().size();
  for (std::size_t start = 0; start < probes.size(); start += 8) {
    ClassifyBatchRequest request;
    request.messages.assign(
        probes.begin() + static_cast<std::ptrdiff_t>(start),
        probes.begin() + static_cast<std::ptrdiff_t>(
                             std::min(start + 8, probes.size())));
    for (int u = 0; u < 2; ++u) {
      request.user_id = users[u];
      const auto results = frontend.classify_batch(request).results;
      served[u].insert(served[u].end(), results.begin(), results.end());
    }
  }
  EXPECT_EQ(spambayes::global_interner().size(), interned_before);
  ASSERT_EQ(served[0].size(), probes.size());
  ASSERT_EQ(served[1].size(), probes.size());

  // The reference interns every token, so it runs after the loop.
  const spambayes::Filter& base = frontend.base();
  spambayes::ScoreEngine engine(base.options().classifier);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const spambayes::TokenIdSet ids =
        base.message_token_ids(email::parse_message(probes[i]));
    const spambayes::ScoreIdResult plain =
        engine.score_ids(base.database(), ids);
    // EXPECT_EQ on doubles is exact equality — the bit-identity claim.
    EXPECT_EQ(served[0][i].score, plain.score) << "probe " << i;
    EXPECT_EQ(served[0][i].verdict, verdict_to_byte(plain.verdict))
        << "probe " << i;
    const spambayes::ScoreIdResult merged =
        base.classifier().score_ids(base.database(), *overlay, ids);
    EXPECT_EQ(served[1][i].score, merged.score) << "probe " << i;
    EXPECT_EQ(served[1][i].verdict, verdict_to_byte(merged.verdict))
        << "probe " << i;
  }
  // The probes did carry tokens classify had to drop: several per message.
  EXPECT_GT(spambayes::global_interner().size(),
            interned_before + 5 * probes.size());
}

/// Number of ids with nonzero counts in `overlay` that a lock-free find()
/// of their own spelling does not map back to the same id.
std::size_t unfound_counted_tokens(const OverlaySnapshot& overlay) {
  if (overlay == nullptr) return 0;
  const spambayes::TokenInterner& interner = spambayes::global_interner();
  std::size_t unfound = 0;
  overlay->for_each_counted(
      [&](spambayes::TokenId id, const spambayes::TokenCounts&) {
        const auto found = interner.find(interner.spelling(id));
        if (!found || *found != id) ++unfound;
      });
  return unfound;
}

TEST(LookupOnlyClassify, TokensCountedByAPublishedSnapshotAreAlwaysFound) {
  ServeFrontend frontend(build_base_filter(small_base()), {1, 2});
  constexpr std::uint64_t kUser = 1;
  // Every training message is made of spellings nothing else interns. In
  // total they are at least as many as the interner already holds, so the
  // trains cross at least one doubling of its hash table while the reader
  // below scans snapshots.
  constexpr std::size_t kWords = 500;
  const std::size_t fresh =
      std::max<std::size_t>(spambayes::global_interner().size(), 4'096);
  const std::size_t trains = fresh / kWords + 1;
  std::vector<std::string> messages;
  for (std::size_t m = 0; m < trains; ++m) {
    std::string raw = "From: feedback@example.com\nSubject: lkq" +
                      std::to_string(m) + "\n\n";
    for (std::size_t w = 0; w < kWords; ++w) {
      raw += "lkq" + std::to_string(m) + "w" + std::to_string(w) + " ";
    }
    messages.push_back(raw + "\n");
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> passes{0};
  std::atomic<std::uint64_t> nonempty_passes{0};
  std::atomic<std::uint64_t> unfound{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const OverlaySnapshot overlay = frontend.overlay(kUser);
      unfound.fetch_add(unfound_counted_tokens(overlay),
                        std::memory_order_relaxed);
      if (overlay != nullptr) {
        nonempty_passes.fetch_add(1, std::memory_order_relaxed);
      }
      passes.fetch_add(1, std::memory_order_release);
    }
  });
  for (const std::string& raw : messages) {
    const std::uint64_t seen = passes.load(std::memory_order_acquire);
    TrainRequest t;
    t.user_id = kUser;
    t.message = raw;
    frontend.train(t);
    // Let the reader finish at least one scan per train, so scans overlap
    // trains however the threads are scheduled.
    while (passes.load(std::memory_order_acquire) <= seen) {
      std::this_thread::yield();
    }
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(unfound.load(), 0u);
  EXPECT_GT(nonempty_passes.load(), 0u);
  EXPECT_EQ(unfound_counted_tokens(frontend.overlay(kUser)), 0u);
  EXPECT_GE(frontend.overlay(kUser)->vocabulary_size(), kWords * trains);
}


// --- the base score table (frontend.h: empty-overlay classify) ------------

/// Serves `requests` to `frontend` in order; the scores, flattened.
std::vector<ClassifyResult> serve_all(
    ServeFrontend& frontend, const std::vector<ClassifyBatchRequest>& requests) {
  std::vector<ClassifyResult> out;
  for (const ClassifyBatchRequest& request : requests) {
    const auto results = frontend.classify_batch(request).results;
    out.insert(out.end(), results.begin(), results.end());
  }
  return out;
}

/// Checks every served result against the fresh source on the base alone,
/// over the ids the lookup-only tokenizer finds now.
void expect_matches_fresh_base(const ServeFrontend& frontend,
                               const std::vector<std::string>& probes,
                               const std::vector<ClassifyResult>& served) {
  const spambayes::Filter& base = frontend.base();
  ASSERT_EQ(served.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const spambayes::ScoreIdResult fresh = base.classifier().score_ids(
        base.database(),
        base.message_known_token_ids(email::parse_message(probes[i])));
    // EXPECT_EQ on doubles is exact equality — the bit-identity claim.
    EXPECT_EQ(served[i].score, fresh.score) << "probe " << i;
    EXPECT_EQ(served[i].verdict, verdict_to_byte(fresh.verdict))
        << "probe " << i;
  }
}

std::vector<ClassifyBatchRequest> batches_of_8(
    const std::vector<std::string>& messages, std::uint64_t user_id) {
  std::vector<ClassifyBatchRequest> out;
  for (std::size_t start = 0; start < messages.size(); start += 8) {
    ClassifyBatchRequest request;
    request.user_id = user_id;
    request.messages.assign(
        messages.begin() + static_cast<std::ptrdiff_t>(start),
        messages.begin() + static_cast<std::ptrdiff_t>(
                               std::min(start + 8, messages.size())));
    out.push_back(std::move(request));
  }
  return out;
}

TEST(ScoreTableServing, IdsInternedAfterTheTableReadAsZeroCounts) {
  ServeFrontend frontend(build_base_filter(small_base()), {2, 8});
  const std::size_t table_size = frontend.base_table().size();
  EXPECT_EQ(frontend.base_table().generation(),
            frontend.base().database().generation());
  // Another user's train interns words the base never saw, after the
  // table was built.
  std::string fresh_words;
  for (int w = 0; w < 40; ++w) fresh_words += " tblz" + std::to_string(w);
  TrainRequest t;
  t.user_id = 5;
  t.as_spam = true;
  t.message = "From: a@example.com\nSubject: tblz\n\n" + fresh_words + "\n";
  frontend.train(t);

  std::vector<std::string> probes = make_messages(40, 81);
  for (std::string& probe : probes) probe += fresh_words + "\n";
  ASSERT_TRUE(frontend.overlay(0) == nullptr);
  const std::vector<ClassifyResult> served =
      serve_all(frontend, batches_of_8(probes, 0));

  // The probes did carry ids past the table's range.
  const spambayes::TokenIdList ids = frontend.base().message_known_token_ids(
      email::parse_message(probes[0]));
  EXPECT_GE(std::count_if(ids.begin(), ids.end(),
                          [&](spambayes::TokenId id) {
                            return id >= table_size;
                          }),
            40);
  expect_matches_fresh_base(frontend, probes, served);
}

TEST(ScoreTableServing, ServingThreadsShareTheTableAndFillNoMemo) {
  ServeFrontend frontend(build_base_filter(small_base()), {2, 8});
  const std::vector<std::string> probes = make_messages(64, 82);
  const std::vector<ClassifyBatchRequest> requests = batches_of_8(probes, 2);
  const std::vector<ClassifyResult> expected = serve_all(frontend, requests);
  expect_matches_fresh_base(frontend, probes, expected);

  constexpr int kThreads = 4;
  constexpr int kBatches = 200;
  std::vector<std::uint64_t> memo_generation(kThreads, 1);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int b = 0; b < kBatches; ++b) {
        const std::size_t r = static_cast<std::size_t>(b + t) % requests.size();
        const auto results = frontend.classify_batch(requests[r]).results;
        for (std::size_t i = 0; i < results.size(); ++i) {
          const ClassifyResult& want = expected[r * 8 + i];
          if (results[i].score != want.score ||
              results[i].verdict != want.verdict) {
            ++mismatches[t];
          }
        }
      }
      memo_generation[t] = spambayes::ScoreEngine::for_current_thread(
                               frontend.base().options().classifier)
                               .cached_generation();
    });
  }
  for (std::thread& thread : threads) thread.join();
  // One table for the process: 12 bytes per id plus one TokenScore per
  // distinct count pair, far under the memo's 48 bytes per id per thread.
  EXPECT_LT(frontend.base_table().bytes(), 16 * frontend.base_table().size());
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    // 0: the thread's engine never memoized a database.
    EXPECT_EQ(memo_generation[t], 0u) << "thread " << t;
  }
}

TEST(ScoreTableServing, TableUnderNonDefaultOptionsMatchesTheFreshSource) {
  spambayes::FilterOptions options;
  options.classifier.unknown_word_strength = 0.7;
  options.classifier.unknown_word_prob = 0.45;
  options.classifier.minimum_prob_strength = 0.2;
  spambayes::Filter base(options);
  corpus::TrecLikeGenerator generator;
  util::Rng rng(83);
  for (int i = 0; i < 150; ++i) {
    base.train_ham(generator.generate_ham(rng));
    base.train_spam(generator.generate_spam(rng));
  }
  ServeFrontend frontend(std::move(base), {2, 8});
  const spambayes::ClassifierOptions& built = frontend.base_table().options();
  EXPECT_EQ(built.unknown_word_strength, 0.7);
  EXPECT_EQ(built.unknown_word_prob, 0.45);
  EXPECT_EQ(built.minimum_prob_strength, 0.2);
  // An engine under other s, x or min strength refuses the table.
  spambayes::ScoreEngine default_engine{spambayes::ClassifierOptions{}};
  const spambayes::TokenIdList none;
  EXPECT_THROW(default_engine.score_batch(
                   frontend.base_table(), 1,
                   [&](std::size_t) -> const spambayes::TokenIdList& {
                     return none;
                   },
                   [](std::size_t, const spambayes::BatchScore&) {}),
               InvalidArgument);
  const std::vector<std::string> probes = make_messages(200, 84);
  expect_matches_fresh_base(frontend, probes,
                            serve_all(frontend, batches_of_8(probes, 1)));
}

}  // namespace
}  // namespace sbx::serve
