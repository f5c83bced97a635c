#include "util/sharding.h"

#include "util/error.h"

namespace sbx::util {

std::size_t shard_of(std::uint64_t key, std::size_t shard_count) {
  if (shard_count == 0) {
    throw InvalidArgument("shard_of: shard_count must be greater than 0");
  }
  return static_cast<std::size_t>(mix64(key) % shard_count);
}

}  // namespace sbx::util
