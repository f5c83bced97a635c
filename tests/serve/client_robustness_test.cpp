// Server/Client robustness tests: byte-at-a-time frame delivery, stale
// unix-socket recovery, connection-cap load shedding, read timeouts,
// client deadlines, retry-with-reconnect, and graceful drain.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/base_model.h"
#include "serve/client.h"
#include "serve/frontend.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/error.h"

namespace sbx::serve {
namespace {

BaseModelConfig small_base() { return {/*base_size=*/200, 0.5, /*seed=*/5}; }

std::string temp_sock(const std::string& tag) {
  return testing::TempDir() + "sbx_robust_" + tag + "_" +
         std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
}

/// Frontend + server + serving thread, torn down in order.
struct LiveServer {
  ServeFrontend frontend;
  Server server;
  std::thread serving;

  explicit LiveServer(const std::string& endpoint, ServerConfig config = {})
      : frontend(build_base_filter(small_base()), {2, 8}),
        server(frontend, endpoint, config),
        serving([this] { server.run(); }) {}

  ~LiveServer() {
    server.request_drain();
    serving.join();
  }
};

/// Raw blocking unix-socket connection (no Client conveniences).
int raw_unix_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0)
      << std::strerror(errno);
  return fd;
}

TEST(ClientRobustness, ByteAtATimeRequestStillDecodes) {
  const std::string path = temp_sock("dribble");
  LiveServer live("unix:" + path);

  // Dribble a StatsRequest frame one byte at a time with pauses: every
  // read on the server side returns a single byte, so any code that
  // assumes read() delivers whole headers or bodies breaks here.
  const auto frame = encode_frame(Request(StatsRequest{}));
  const int fd = raw_unix_connect(path);
  for (const std::uint8_t byte : frame) {
    ASSERT_EQ(::send(fd, &byte, 1, MSG_NOSIGNAL), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // The response comes back framed; read it whole and decode.
  std::vector<std::uint8_t> header(4);
  ASSERT_EQ(::recv(fd, header.data(), 4, MSG_WAITALL), 4);
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
  }
  std::vector<std::uint8_t> payload(len);
  ASSERT_EQ(::recv(fd, payload.data(), len, MSG_WAITALL),
            static_cast<ssize_t>(len));
  const Response response = decode_response(payload);
  ASSERT_TRUE(std::holds_alternative<StatsResponse>(response));
  EXPECT_EQ(std::get<StatsResponse>(response).users, 8u);
  ::close(fd);
  std::remove(path.c_str());
}

TEST(ClientRobustness, StaleUnixSocketIsUnlinkedLiveOneIsNot) {
  const std::string path = temp_sock("stale");
  // Fabricate a stale socket: bind creates the filesystem entry, closing
  // the fd (without unlink) leaves it behind — exactly what kill -9 does.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(
        ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    ::close(fd);
  }

  // A new server must detect the corpse and take the endpoint over...
  LiveServer live("unix:" + path);
  Client client("unix:" + path);
  EXPECT_TRUE(std::holds_alternative<StatsResponse>(
      client.call(Request(StatsRequest{}))));

  // ...but a second server must NOT steal the now-live socket.
  ServeFrontend other(build_base_filter(small_base()), {2, 8});
  EXPECT_THROW(Server(other, "unix:" + path), IoError);
  // The refused constructor didn't break the running server.
  EXPECT_TRUE(std::holds_alternative<StatsResponse>(
      client.call(Request(StatsRequest{}))));
  std::remove(path.c_str());
}

TEST(ClientRobustness, NonSocketFileAtUnixPathIsNeverDeleted) {
  const std::string path = temp_sock("regular_file");
  { std::FILE* f = std::fopen(path.c_str(), "w"); std::fclose(f); }
  ServeFrontend frontend(build_base_filter(small_base()), {2, 8});
  EXPECT_THROW(Server(frontend, "unix:" + path), IoError);
  // The regular file is still there — bind errors must not delete data.
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(ClientRobustness, ConnectionCapShedsWithOverloadedError) {
  const std::string path = temp_sock("shed");
  ServerConfig config;
  config.max_connections = 1;
  LiveServer live("unix:" + path, config);

  Client first("unix:" + path);  // occupies the only slot
  ASSERT_TRUE(std::holds_alternative<StatsResponse>(
      first.call(Request(StatsRequest{}))));

  // The second connection is accepted just long enough to be told to go
  // away. Depending on write/close timing the client sees either the
  // ErrorResponse{kOverloaded} frame or the closed connection as IoError.
  ClientOptions one_shot;
  one_shot.max_attempts = 1;
  bool shed_seen = false;
  try {
    Client second("unix:" + path, one_shot);
    const Response r = second.call(Request(StatsRequest{}));
    const auto* e = std::get_if<ErrorResponse>(&r);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->code, static_cast<std::uint8_t>(ErrorCode::kOverloaded));
    shed_seen = true;
  } catch (const IoError&) {
    shed_seen = true;
  }
  EXPECT_TRUE(shed_seen);
  EXPECT_GE(live.server.counters().shed.load(), 1u);
  EXPECT_GE(live.frontend.stats().shed_connections, 1u);

  // Releasing the first slot lets a new connection in.
  first.disconnect();
  ClientOptions patient;
  patient.max_attempts = 5;
  Client third("unix:" + path, patient);
  EXPECT_TRUE(std::holds_alternative<StatsResponse>(
      third.call(Request(StatsRequest{}))));
  std::remove(path.c_str());
}

/// VmSize of this process, in kB (/proc/self/status).
long vm_size_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  }
  ADD_FAILURE() << "no VmSize line in /proc/self/status";
  return 0;
}

/// Threads of this process: the entries of /proc/self/task.
std::size_t task_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(ClientRobustness, SequentialConnectionsLeaveNoThreadsOrStacksBehind) {
  // Every closed connection's service thread is joined by the accept loop,
  // so its stack mapping is freed: sequential connect -> classify -> close
  // cycles keep the thread count and VmSize flat. One connection at a
  // time; an unjoined thread would hold its 8 MB stack.
  const std::string path = temp_sock("reap");
  LiveServer live("unix:" + path);
  ClassifyBatchRequest request;
  request.user_id = 1;
  request.messages = {"From: a@example.com\nSubject: hi\n\nhello there\n"};
  // One connection at a time: each cycle waits until the server thread
  // has finished before the next connect, so threads (and the malloc
  // arenas they would take) never pile up on a loaded machine.
  const auto cycle = [&] {
    {
      Client client("unix:" + path);
      const Response r = client.call(Request(request));
      EXPECT_TRUE(std::holds_alternative<ClassifyBatchResponse>(r));
    }
    for (int i = 0; i < 1000 && live.server.counters().active.load() != 0;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  // Warm-up: malloc arenas and the thread-stack cache reach their steady
  // state.
  for (int i = 0; i < 20; ++i) cycle();
  const std::size_t tasks = task_count();
  const long vm_kb = vm_size_kb();
  for (int i = 0; i < 200; ++i) cycle();
  // Slack for a thread still exiting and one more malloc arena (64 MB of
  // address space); 200 unjoined threads would add 1.6 GB.
  EXPECT_LE(task_count(), tasks + 1);
  EXPECT_LE(vm_size_kb(), vm_kb + 128 * 1024);
  std::remove(path.c_str());
}

TEST(ClientRobustness, ServerReadTimeoutDropsStalledMidFrameConnection) {
  const std::string path = temp_sock("stall");
  ServerConfig config;
  config.read_timeout_ms = 150;
  LiveServer live("unix:" + path, config);

  const int fd = raw_unix_connect(path);
  // Two bytes of frame header, then silence: the server must give up after
  // read_timeout_ms instead of wedging the connection thread forever.
  const std::uint8_t partial[2] = {0x08, 0x00};
  ASSERT_EQ(::send(fd, partial, 2, MSG_NOSIGNAL), 2);

  const auto start = std::chrono::steady_clock::now();
  std::uint8_t byte = 0;
  const ssize_t n = ::recv(fd, &byte, 1, 0);  // blocks until server closes
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_LE(n, 0);  // EOF (or reset), never data
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited),
            std::chrono::milliseconds(5000));
  ::close(fd);

  // The stalled connection's demise didn't hurt anyone else.
  Client client("unix:" + path);
  EXPECT_TRUE(std::holds_alternative<StatsResponse>(
      client.call(Request(StatsRequest{}))));
  std::remove(path.c_str());
}

TEST(ClientRobustness, ClientDeadlineBoundsASilentServer) {
  // A listener that accepts and then says nothing, forever.
  const std::string path = temp_sock("silent");
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  std::thread accepting([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    // Hold the connection open but never respond.
    std::this_thread::sleep_for(std::chrono::seconds(2));
    if (fd >= 0) ::close(fd);
  });

  ClientOptions options;
  options.op_timeout_ms = 150;
  options.max_attempts = 1;
  Client client("unix:" + path, options);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client.call(Request(StatsRequest{})), IoError);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited),
            std::chrono::milliseconds(5000));

  accepting.join();
  ::close(listen_fd);
  std::remove(path.c_str());
}

TEST(ClientRobustness, RetryReconnectsAfterServerSideClose) {
  const std::string path = temp_sock("retry");
  ServerConfig config;
  config.idle_timeout_ms = 100;  // server hangs up on idle connections
  LiveServer live("unix:" + path, config);

  ClientOptions options;
  options.max_attempts = 4;
  options.backoff_base_ms = 1;
  Client client("unix:" + path, options);
  ASSERT_TRUE(std::holds_alternative<StatsResponse>(
      client.call(Request(StatsRequest{}))));

  // Let the server reap the idle connection, then call again: the client
  // must notice the dead socket, reconnect, and succeed transparently.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_TRUE(std::holds_alternative<StatsResponse>(
      client.call(Request(StatsRequest{}))));
  EXPECT_GE(client.retries(), 1u);
  std::remove(path.c_str());
}

TEST(ClientRobustness, DrainFinishesInFlightWorkAndStopsAccepting) {
  const std::string path = temp_sock("drain");
  auto frontend = std::make_unique<ServeFrontend>(
      build_base_filter(small_base()), FrontendConfig{2, 8});
  Server server(*frontend, "unix:" + path);
  std::thread serving([&] { server.run(); });

  Client client("unix:" + path);
  ASSERT_TRUE(std::holds_alternative<StatsResponse>(
      client.call(Request(StatsRequest{}))));

  server.request_drain();
  serving.join();  // run() returned: listener closed, threads joined

  // The endpoint is gone — a fresh connect must fail.
  ClientOptions one_shot;
  one_shot.max_attempts = 1;
  one_shot.connect_timeout_ms = 500;
  EXPECT_THROW(Client("unix:" + path, one_shot), IoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sbx::serve
