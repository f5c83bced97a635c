// The serve workloads' request streams: generated from the workload seed
// before any clock starts, cached on disk as protocol frames, and replayed
// unchanged by the socket load generator, the correctness mirror and the
// traced in-process replay.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace perfbench {

/// Shape of one serve workload. Connection c owns the users u with
/// u % connections == c, so each user's requests are one connection's
/// program order and the mirror can replay connections independently.
struct ServeShape {
  std::size_t connections = 3;
  std::size_t users = 64;
  std::size_t batch = 8;
  /// Every Nth request of a connection is a train request (0 = never).
  std::size_t train_every = 0;
  std::size_t requests_per_connection = 0;
};

/// One stream per connection, in send order.
using Streams = std::vector<std::vector<sbx::serve::Request>>;

/// Deterministic in (shape, seed): fresh TREC-like messages, half spam,
/// the connection's own users in turn, odd request ids on train requests
/// so a retried train is deduplicated by the server.
Streams generate_streams(const ServeShape& shape, std::uint64_t seed);

/// Stable id of request r on connection c (used as the trace request id).
inline std::uint64_t request_id_of(std::size_t c, std::size_t r) {
  return (static_cast<std::uint64_t>(c + 1) << 32) | (r + 1);
}

/// Frames-on-disk cache: [u32 connections] then per connection
/// [u32 count] and `count` encoded request frames.
void save_streams(const std::string& path, const Streams& streams);
Streams load_streams(const std::string& path);

}  // namespace perfbench
