// sbx/util/sharding.h
//
// Key-to-shard routing for the serving layer. A shard owns a disjoint
// subset of users; requests are routed by a mixed hash of the user id
// (user ids are often sequential, so the raw value would pile consecutive
// users onto consecutive shards and make one shard the mutation hot spot
// under loadgen-style workloads).
#pragma once

#include <cstddef>
#include <cstdint>

namespace sbx::util {

/// SplitMix64 finalizer: a cheap, statistically strong 64-bit mixer.
/// Consecutive inputs map to uncorrelated outputs, which is exactly the
/// property shard routing needs for sequential user ids.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The shard in [0, shard_count) that owns `key`. Deterministic across
/// processes (pure function of the key), so a client and a server that
/// agree on shard_count agree on placement. Throws InvalidArgument when
/// shard_count is 0.
std::size_t shard_of(std::uint64_t key, std::size_t shard_count);

}  // namespace sbx::util
