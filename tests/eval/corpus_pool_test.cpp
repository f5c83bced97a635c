// Tests for eval::tokenized_pool: configurations in flight together that
// sample an equal pool share one object built once; any differing key
// part builds separately; a dropped pool is rebuilt; a failed build
// reaches every requester and leaves nothing behind.
#include "eval/corpus_pool.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "util/error.h"

namespace sbx::eval {
namespace {

using Pool = std::shared_ptr<const corpus::TokenizedDataset>;

const corpus::TrecLikeGenerator& generator() {
  static const corpus::TrecLikeGenerator gen;
  return gen;
}

constexpr std::size_t kSize = 120;
constexpr double kFraction = 0.5;

util::Rng corpus_rng(std::uint64_t key = 1) {
  util::Rng master(20080401);
  return master.fork(key);
}

Pool request(const corpus::TrecLikeGenerator& gen = generator(),
             std::size_t size = kSize, double fraction = kFraction,
             util::Rng rng = corpus_rng(),
             const spambayes::TokenizerOptions& options = {}) {
  return tokenized_pool(gen, size, fraction, rng, options);
}

/// Runs `body` on `n` threads released together; returns once all end.
template <typename Body>
void run_together(std::size_t n, Body body) {
  std::latch start(static_cast<std::ptrdiff_t>(n));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      body(i);
    });
  }
  for (auto& t : threads) t.join();
}

TEST(TokenizedPool, ConcurrentEqualRequestsShareOneBuild) {
  const std::size_t before = tokenized_pools_built();
  std::vector<Pool> pools(4);
  run_together(pools.size(), [&](std::size_t i) { pools[i] = request(); });
  EXPECT_EQ(tokenized_pools_built() - before, 1u);
  for (const Pool& pool : pools) {
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool, pools.front());
  }

  // The shared pool is exactly what one configuration used to build for
  // itself from a copy of the same stream.
  util::Rng rng = corpus_rng();
  const corpus::TokenizedDataset expected = corpus::tokenize_dataset(
      generator().sample_mailbox(kSize, kFraction, rng),
      spambayes::Tokenizer());
  const corpus::TokenizedDataset& got = *pools.front();
  EXPECT_EQ(got.raw_tokens, expected.raw_tokens);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.items[i].ids, expected.items[i].ids) << "message " << i;
    EXPECT_EQ(got.items[i].label, expected.items[i].label) << "message " << i;
  }
}

TEST(TokenizedPool, EveryKeyPartBuildsSeparately) {
  const Pool base = request();
  spambayes::TokenizerOptions no_urls;
  no_urls.tokenize_urls = false;
  corpus::GeneratorConfig harder;
  harder.hard_spam_fraction = 0.2;
  const corpus::TrecLikeGenerator other_gen(harder);

  const std::size_t before = tokenized_pools_built();
  const std::vector<Pool> variants = {
      request(generator(), kSize + 1),
      request(generator(), kSize, 0.4),
      request(generator(), kSize, kFraction, corpus_rng(2)),
      request(generator(), kSize, kFraction, corpus_rng(), no_urls),
      request(other_gen),
  };
  EXPECT_EQ(tokenized_pools_built() - before, variants.size());
  for (const Pool& variant : variants) {
    ASSERT_NE(variant, nullptr);
    EXPECT_NE(variant, base);
  }
  // The base key is still held, so asking again builds nothing.
  EXPECT_EQ(request(), base);
  EXPECT_EQ(tokenized_pools_built() - before, variants.size());
}

TEST(TokenizedPool, ADroppedPoolIsBuiltAgain) {
  Pool pool = request();
  const std::weak_ptr<const corpus::TokenizedDataset> watch = pool;
  const std::size_t before = tokenized_pools_built();
  pool.reset();
  EXPECT_TRUE(watch.expired()) << "the table must not keep a pool alive";

  const Pool again = request();
  EXPECT_EQ(tokenized_pools_built() - before, 1u);
  EXPECT_EQ(again->raw_tokens, request()->raw_tokens);
  EXPECT_EQ(tokenized_pools_built() - before, 1u);
}

TEST(TokenizedPool, AFailedBuildReachesEveryRequesterAndIsRetried) {
  const double bad_fraction = 1.5;  // sample_mailbox throws
  const std::size_t before = tokenized_pools_built();
  std::vector<char> threw(4, 0);
  run_together(threw.size(), [&](std::size_t i) {
    try {
      request(generator(), kSize, bad_fraction);
    } catch (const InvalidArgument&) {
      threw[i] = 1;
    }
  });
  for (char t : threw) EXPECT_TRUE(t);
  // Each requester either built (and threw) or waited on a build and
  // received its exception.
  const std::size_t built = tokenized_pools_built() - before;
  EXPECT_GE(built, 1u);
  EXPECT_LE(built, threw.size());

  // No entry was left behind: the next request builds, and fails, again.
  EXPECT_THROW(request(generator(), kSize, bad_fraction), InvalidArgument);
  EXPECT_EQ(tokenized_pools_built() - before, built + 1);
}

}  // namespace
}  // namespace sbx::eval
