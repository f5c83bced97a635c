// sbx/serve/server.h
//
// Thin socket front-end over ServeFrontend: one frame in, one frame out,
// same request/response structs as the in-process API. Endpoints are
// spelled as strings:
//
//   "unix:/tmp/sbx.sock"   UNIX domain stream socket at that path
//   "tcp:8725"             TCP on 127.0.0.1:8725 (loopback only)
//   "tcp:0"                TCP on an OS-assigned loopback port
//
// Each connection gets a service thread, which the accept loop joins once
// it has finished (at the next accept), so closed connections leave no
// thread stacks behind; request-level failures become ErrorResponse
// frames and the connection survives, while framing/protocol violations
// close it.
//
// Robustness contract (PR 7):
//
//  * all socket I/O is non-blocking + poll-driven (framing.h), so a peer
//    that dribbles bytes or stalls mid-frame trips `read_timeout_ms`
//    instead of wedging a thread forever;
//  * `max_connections` caps concurrent connections — the overflow
//    connection gets an ErrorResponse{kOverloaded} and an immediate
//    close (load shedding, not queueing);
//  * request_drain() is async-signal-safe (one write(2) to a self-pipe):
//    the accept loop stops, in-flight requests finish, connection threads
//    join, and the final WAL fsync runs before run() returns — the
//    SIGTERM path of sbx_serve;
//  * a stale unix socket file (a previous process killed without cleanup)
//    is detected by a probe connect and unlinked; a *live* socket makes
//    the constructor throw instead of yanking the running server's
//    endpoint from under it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/frontend.h"
#include "serve/protocol.h"
#include "util/thread_annotations.h"

namespace sbx::serve {

struct ServerConfig {
  /// Concurrent connection cap; 0 = unlimited. The connection over the
  /// cap is answered with ErrorResponse{kOverloaded} and closed.
  std::size_t max_connections = 0;
  /// Per-frame read deadline once a frame has started arriving (and the
  /// response write deadline). <= 0 = no deadline.
  long read_timeout_ms = 10'000;
  /// How long a connection may sit idle between frames. <= 0 = forever.
  long idle_timeout_ms = 0;
};

class Server {
 public:
  /// Binds and listens immediately (throws IoError on failure), but
  /// accepts nothing until run(). The frontend must outlive the server.
  Server(ServeFrontend& frontend, const std::string& endpoint,
         ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The resolved endpoint — for "tcp:0" this is the real port, e.g.
  /// "tcp:127.0.0.1:40613", printed by sbx_serve for clients to connect
  /// to.
  const std::string& endpoint() const { return endpoint_; }

  /// Serves until a ShutdownRequest or request_drain() arrives,
  /// finishes in-flight requests, joins connection threads, and flushes
  /// the frontend's WAL.
  void run() SBX_EXCLUDES(threads_mutex_);

  /// Asynchronously initiates a graceful drain (idempotent, thread-safe,
  /// async-signal-safe — callable from a SIGTERM handler).
  void request_drain();

  /// Asynchronously asks the accept loop to promote the frontend to
  /// primary (idempotent, async-signal-safe — the SIGUSR1 path of a
  /// standby sbx_serve). Same self-pipe as request_drain, different byte.
  void request_promote();

  const ServerCounters& counters() const { return counters_; }

 private:
  void bind_unix(const std::string& path);
  void bind_tcp(std::uint16_t port);
  void serve_connection(int fd);
  void shed_connection(int fd);
  /// Joins every connection thread that has finished. Caller holds
  /// threads_mutex_.
  void reap_finished() SBX_REQUIRES(threads_mutex_);

  /// One connection's service thread. `done` is set as the thread's last
  /// action, so a thread that reads it set is at most returning and joins
  /// at once.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  ServeFrontend& frontend_;
  ServerConfig config_;
  std::string endpoint_;
  std::string unix_path_;  // unlinked on drain/destruction when non-empty
  int listen_fd_ = -1;
  int drain_pipe_[2] = {-1, -1};  // self-pipe; [1] written by request_drain
  std::atomic<bool> stopping_{false};
  ServerCounters counters_;
  // Connection table: the accept loop appends and reaps finished threads
  // (so an exited thread's stack is freed before the next connection
  // starts) while the destructor (a different thread when run() lives on
  // its own) joins.
  util::Mutex threads_mutex_{util::LockRank::kServer,
                             "Server::threads_mutex_"};
  std::vector<std::unique_ptr<Connection>> connections_
      SBX_GUARDED_BY(threads_mutex_);
};

}  // namespace sbx::serve
