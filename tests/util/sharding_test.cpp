#include "util/sharding.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/error.h"

namespace sbx::util {
namespace {

// mix64 is the SplitMix64 finalizer; its output for fixed inputs is part
// of the wire-level placement contract (client and server route by it),
// so the exact values are pinned. Reference values computed from the
// published SplitMix64 algorithm (Steele, Lea & Flood; same constants as
// java.util.SplittableRandom).
TEST(Mix64Test, StabilityVectors) {
  EXPECT_EQ(mix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(mix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(mix64(2), 0x975835de1c9756ceULL);
  EXPECT_EQ(mix64(0x123456789abcdefULL), 0x157a3807a48faa9dULL);
  EXPECT_EQ(mix64(0xffffffffffffffffULL), 0xe4d971771b652c20ULL);
}

TEST(Mix64Test, IsConstexpr) {
  static_assert(mix64(0) == 0xe220a8397b1dcdafULL);
}

TEST(Mix64Test, ConsecutiveInputsDecorrelate) {
  // The property shard routing needs: sequential user ids must not map
  // to sequential shards. Check that consecutive inputs differ in many
  // bits (avalanche), not just the low ones.
  for (std::uint64_t x = 0; x < 64; ++x) {
    const std::uint64_t diff = mix64(x) ^ mix64(x + 1);
    int bits = 0;
    for (std::uint64_t d = diff; d != 0; d >>= 1) bits += d & 1;
    EXPECT_GE(bits, 16) << "mix64(" << x << ") vs mix64(" << x + 1 << ")";
  }
}

TEST(ShardOfTest, ZeroShardCountThrows) {
  EXPECT_THROW(shard_of(42, 0), InvalidArgument);
}

TEST(ShardOfTest, SingleShardTakesEverything) {
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(shard_of(key, 1), 0u);
  }
}

TEST(ShardOfTest, InRangeAndDeterministic) {
  for (std::size_t shards : {2, 3, 7, 16}) {
    for (std::uint64_t key = 0; key < 1000; ++key) {
      const std::size_t s = shard_of(key, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, shard_of(key, shards)) << "must be a pure function";
    }
  }
}

TEST(ShardOfTest, SequentialKeysSpreadEvenly) {
  // 10k sequential user ids over 8 shards: each shard should get close
  // to 1250. A wide tolerance (±25%) still catches the failure mode this
  // guards against — raw modulo would put ids 0..1249 all on shard 0 in
  // round-robin stripes, and a broken mixer piles everything on a few
  // shards.
  constexpr std::size_t kShards = 8;
  constexpr std::uint64_t kKeys = 10'000;
  std::vector<std::size_t> counts(kShards, 0);
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    ++counts[shard_of(key, kShards)];
  }
  const double expected = static_cast<double>(kKeys) / kShards;
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(counts[s], expected * 0.75) << "shard " << s;
    EXPECT_LT(counts[s], expected * 1.25) << "shard " << s;
  }
}

}  // namespace
}  // namespace sbx::util
