#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "serve/framing.h"
#include "util/backoff.h"
#include "util/error.h"

namespace sbx::serve {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError("serve: " + what + ": " + std::strerror(errno));
}

void fill_unix_addr(sockaddr_un& addr, const std::string& path) {
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
}

/// True when a stream socket file at `path` has a live listener behind it.
bool unix_socket_alive(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  sockaddr_un addr{};
  fill_unix_addr(addr, path);
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  ::close(fd);
  return rc == 0;
}

}  // namespace

Server::Server(ServeFrontend& frontend, const std::string& endpoint,
               ServerConfig config)
    : frontend_(frontend), config_(config) {
  const io::ParsedEndpoint ep = io::parse_endpoint(endpoint);
  if (ep.is_unix) {
    bind_unix(ep.path);
  } else {
    bind_tcp(ep.port);
  }
  if (::listen(listen_fd_, 64) < 0) throw_errno("listen");
  if (::pipe2(drain_pipe_, O_CLOEXEC | O_NONBLOCK) < 0) throw_errno("pipe2");
  frontend_.attach_server_counters(&counters_);
}

void Server::bind_unix(const std::string& path) {
  // A socket file left behind by a crashed predecessor would make bind()
  // fail with EADDRINUSE forever. Probe it: refused = stale, unlink and
  // take over; accepted = a live server owns this endpoint, refuse to
  // yank it out from under them.
  struct stat st {};
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      throw IoError("serve: " + path + " exists and is not a socket");
    }
    if (unix_socket_alive(path)) {
      throw IoError("serve: endpoint unix:" + path +
                    " is in use by a running server");
    }
    ::unlink(path.c_str());
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket(AF_UNIX)");
  sockaddr_un addr{};
  fill_unix_addr(addr, path);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    throw_errno("bind(" + path + ")");
  }
  unix_path_ = path;
  endpoint_ = "unix:" + path;
}

void Server::bind_tcp(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    throw_errno("bind(tcp:" + std::to_string(port) + ")");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
    throw_errno("getsockname");
  }
  endpoint_ = "tcp:127.0.0.1:" + std::to_string(ntohs(bound.sin_port));
}

Server::~Server() {
  request_drain();
  frontend_.attach_server_counters(nullptr);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
  {
    const util::MutexLock lock(threads_mutex_);
    for (const auto& connection : connections_) {
      if (connection->thread.joinable()) connection->thread.join();
    }
  }
  for (int fd : drain_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

void Server::run() {
  while (!stopping_.load(std::memory_order_acquire)) {
    struct pollfd pfds[2];
    pfds[0] = {listen_fd_, POLLIN, 0};
    pfds[1] = {drain_pipe_[0], POLLIN, 0};
    const int rc = ::poll(pfds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll(accept)");
    }
    if ((pfds[1].revents & POLLIN) != 0) {
      // The self-pipe carries commands, one byte each: 1 = drain (stop),
      // 2 = promote. Drain wins over anything else in the pipe.
      char bytes[16];
      ssize_t n = 0;
      bool drain = false;
      bool promote = false;
      while ((n = ::read(drain_pipe_[0], bytes, sizeof(bytes))) > 0) {
        for (ssize_t i = 0; i < n; ++i) {
          if (bytes[i] == 1) drain = true;
          if (bytes[i] == 2) promote = true;
        }
      }
      if (drain) break;
      if (promote) frontend_.promote();
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    if ((pfds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED) {
        continue;
      }
      if (stopping_.load(std::memory_order_acquire)) break;
      throw_errno("accept");
    }
    if (config_.max_connections != 0 &&
        counters_.active.load(std::memory_order_acquire) >=
            config_.max_connections) {
      shed_connection(fd);
      continue;
    }
    counters_.active.fetch_add(1, std::memory_order_acq_rel);
    const util::MutexLock lock(threads_mutex_);
    reap_finished();
    auto connection = std::make_unique<Connection>();
    Connection* slot = connection.get();
    connections_.reserve(connections_.size() + 1);  // push_back cannot throw
    connection->thread = std::thread([this, fd, slot] {
      serve_connection(fd);
      slot->done.store(true, std::memory_order_release);
    });
    connections_.push_back(std::move(connection));
  }
  // Drain: no new connections. The listening socket closes now so the
  // endpoint disappears immediately; in-flight requests complete because
  // connection threads only observe the stop flag between frames.
  stopping_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
  {
    const util::MutexLock lock(threads_mutex_);
    for (const auto& connection : connections_) {
      if (connection->thread.joinable()) connection->thread.join();
    }
  }
  // Everything a client was told is durable before run() returns.
  frontend_.sync_durability();
}

void Server::reap_finished() {
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
    if (!c->done.load(std::memory_order_acquire)) return false;
    c->thread.join();
    return true;
  });
}

void Server::request_drain() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // One write(2) to the self-pipe: the only async-signal-safe way to kick
  // a poll()-based accept loop from a SIGTERM handler.
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(drain_pipe_[1], &byte, 1);
}

void Server::request_promote() {
  // Promotion must not race the accept loop's dispatches, so it runs on
  // the loop thread; this just enqueues the command byte.
  const char byte = 2;
  [[maybe_unused]] const ssize_t n = ::write(drain_pipe_[1], &byte, 1);
}

void Server::shed_connection(int fd) {
  counters_.shed.fetch_add(1, std::memory_order_relaxed);
  try {
    io::set_nonblocking(fd);
    const auto frame = encode_frame(Response(ErrorResponse{
        "serve: connection limit reached, try again later",
        static_cast<std::uint8_t>(ErrorCode::kOverloaded)}));
    // Short deadline: shedding must not tie up the accept loop.
    io::write_frame(fd, frame, util::Deadline::after_ms(250));
  } catch (const Error&) {
    // Best effort — the peer learns from the close either way.
  }
  ::close(fd);
}

void Server::serve_connection(int fd) {
  std::vector<std::uint8_t> payload;
  try {
    io::set_nonblocking(fd);
    for (;;) {
      const io::Waited w =
          io::wait_readable(fd, config_.idle_timeout_ms, &stopping_);
      if (w != io::Waited::kReadable) break;  // drain or idle timeout
      const util::Deadline deadline =
          util::Deadline::after_ms(config_.read_timeout_ms);
      if (!io::read_frame(fd, payload, deadline)) break;  // clean EOF
      Request request;
      try {
        request = decode_request(payload);
      } catch (const ParseError& e) {
        // A framing violation is unrecoverable: answer and hang up.
        const auto frame = encode_frame(Response(ErrorResponse{e.what()}));
        io::write_frame(fd, frame, deadline);
        break;
      }
      const Response response = frontend_.dispatch(request);
      const auto frame = encode_frame(response);
      io::write_frame(fd, frame,
                      util::Deadline::after_ms(config_.read_timeout_ms));
      if (std::holds_alternative<ShutdownRequest>(request)) {
        request_drain();
        break;
      }
    }
  } catch (const Error&) {
    // Peer vanished or stalled past the deadline; nothing to answer.
  }
  ::close(fd);
  counters_.active.fetch_sub(1, std::memory_order_acq_rel);
}

}  // namespace sbx::serve
