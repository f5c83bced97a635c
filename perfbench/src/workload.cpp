#include "workload.h"

#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>

#include "corpus/generator.h"
#include "email/rfc2822.h"
#include "util/random.h"

namespace perfbench {

Streams generate_streams(const ServeShape& shape, std::uint64_t seed) {
  const sbx::corpus::TrecLikeGenerator generator;
  Streams streams(shape.connections);
  for (std::size_t c = 0; c < shape.connections; ++c) {
    sbx::util::Rng rng = sbx::util::Rng(seed).fork(c);
    std::uint64_t seed_state = seed + 1;
    std::uint64_t id_state = sbx::util::splitmix64(seed_state) ^
                             ((c + 1) * 0xBF58476D1CE4E5B9ull);
    std::vector<std::uint64_t> owned;
    for (std::uint64_t u = c; u < shape.users; u += shape.connections) {
      owned.push_back(u);
    }
    auto fresh = [&](bool spam) {
      return sbx::email::render_message(spam ? generator.generate_spam(rng)
                                             : generator.generate_ham(rng));
    };
    std::vector<sbx::serve::Request>& out = streams[c];
    out.reserve(shape.requests_per_connection);
    for (std::size_t r = 0; r < shape.requests_per_connection; ++r) {
      // Round-robin over the connection's users: every seed trains each
      // user at the same points of the stream, so overlay sizes (and the
      // daemon's memory) depend on the seed only through message content.
      const std::uint64_t user = owned[r % owned.size()];
      if (shape.train_every > 0 && (r + 1) % shape.train_every == 0) {
        sbx::serve::TrainRequest t;
        t.user_id = user;
        t.as_spam = rng.bernoulli(0.5);
        t.message = fresh(t.as_spam);
        t.request_id = sbx::util::splitmix64(id_state) | 1;
        out.emplace_back(std::move(t));
      } else {
        sbx::serve::ClassifyBatchRequest b;
        b.user_id = user;
        for (std::size_t i = 0; i < shape.batch; ++i) {
          b.messages.push_back(fresh(rng.bernoulli(0.5)));
        }
        out.emplace_back(std::move(b));
      }
    }
  }
  return streams;
}

namespace {

using File = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;

File open_file(const std::string& path, const char* mode) {
  File f(std::fopen(path.c_str(), mode), &std::fclose);
  if (!f) throw std::runtime_error("cannot open " + path);
  return f;
}

void put_u32(std::FILE* f, std::uint32_t v) {
  const unsigned char b[4] = {
      static_cast<unsigned char>(v), static_cast<unsigned char>(v >> 8),
      static_cast<unsigned char>(v >> 16), static_cast<unsigned char>(v >> 24)};
  if (std::fwrite(b, 1, 4, f) != 4) throw std::runtime_error("short write");
}

// Little-endian, like the protocol's own length prefix.
std::uint32_t get_u32(std::FILE* f) {
  unsigned char b[4];
  if (std::fread(b, 1, 4, f) != 4) {
    throw std::runtime_error("truncated stream cache");
  }
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

}  // namespace

void save_streams(const std::string& path, const Streams& streams) {
  // Written under a temporary name and renamed, so an interrupted run
  // never leaves a truncated cache behind.
  const std::string tmp = path + ".tmp";
  File f = open_file(tmp, "wb");
  put_u32(f.get(), static_cast<std::uint32_t>(streams.size()));
  for (const auto& stream : streams) {
    put_u32(f.get(), static_cast<std::uint32_t>(stream.size()));
    for (const auto& request : stream) {
      const std::vector<std::uint8_t> frame =
          sbx::serve::encode_frame(request);
      if (std::fwrite(frame.data(), 1, frame.size(), f.get()) !=
          frame.size()) {
        throw std::runtime_error("short write to " + tmp);
      }
    }
  }
  if (std::fclose(f.release()) != 0 ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot finish " + path);
  }
}

Streams load_streams(const std::string& path) {
  File f = open_file(path, "rb");
  Streams streams(get_u32(f.get()));
  std::vector<std::uint8_t> payload;
  for (auto& stream : streams) {
    const std::uint32_t count = get_u32(f.get());
    stream.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      // Frames carry their own [u32 len] prefix ahead of the payload.
      payload.resize(get_u32(f.get()));
      if (std::fread(payload.data(), 1, payload.size(), f.get()) !=
          payload.size()) {
        throw std::runtime_error("truncated stream cache " + path);
      }
      stream.push_back(sbx::serve::decode_request(
          std::span<const std::uint8_t>(payload)));
    }
  }
  return streams;
}

}  // namespace perfbench
