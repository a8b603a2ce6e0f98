// SweepServer end-to-end over real loopback sockets: protocol
// roundtrips, byte-identical cached replies, streamed samples, and the
// CI soak — N concurrent clients x M sweeps against a small request
// pool, asserting every response parses, the cache-hit rate clears a
// threshold, and nobody starves. The soak also runs under TSan in CI
// (it exercises the accept loop, per-connection handlers, the shared
// ThreadPool, and the in-flight coalescing paths concurrently).
#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.hpp"

namespace dragonfly {
namespace {

/// Minimal blocking line client for the test's own use.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0)
        << std::strerror(errno);
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  int fd() const { return fd_; }

  void send_line(const std::string& line) {
    const std::string out = line + "\n";
    ASSERT_EQ(::send(fd_, out.data(), out.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(out.size()));
  }

  /// Next line ("" on EOF). Blocks; the surrounding test has a global
  /// ctest timeout, which doubles as the starvation check.
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Read a full RUN/STREAM/HASH reply: everything up to DONE or ERR.
  std::vector<std::string> read_reply() {
    std::vector<std::string> lines;
    for (;;) {
      std::string line = read_line();
      if (line.empty()) return lines;  // connection dropped
      const bool terminal =
          line.rfind("DONE", 0) == 0 || line.rfind("ERR", 0) == 0;
      lines.push_back(std::move(line));
      if (terminal) return lines;
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string small_request(double load, int measure = 200) {
  return "topology=dfly:2,4,2;routing=min;traffic=uniform;seeds=1;"
         "warmup_cycles=100;measure_cycles=" +
         std::to_string(measure) + ";load=" + std::to_string(load);
}

TEST(SweepServer, ProtocolRoundtrip) {
  SweepService service(ServiceOptions{.workers = 2});
  SweepServer server(service, 0);
  TestClient client(server.port());

  client.send_line("PING");
  EXPECT_EQ(client.read_line(), "PONG");

  client.send_line("FROBNICATE");
  EXPECT_EQ(client.read_line().rfind("ERR", 0), 0u);

  client.send_line("RUN definitely_not_a_knob=1");
  const std::vector<std::string> err = client.read_reply();
  ASSERT_EQ(err.size(), 1u);
  EXPECT_EQ(err[0].rfind("ERR", 0), 0u);
  EXPECT_NE(err[0].find("definitely_not_a_knob"), std::string::npos);

  client.send_line("HASH " + small_request(0.2));
  const std::vector<std::string> hashes = client.read_reply();
  ASSERT_EQ(hashes.size(), 2u);
  EXPECT_EQ(hashes[0].rfind("HASH ", 0), 0u);
  EXPECT_EQ(hashes[1].rfind("DONE 1", 0), 0u);

  client.send_line("RUN " + small_request(0.2));
  const std::vector<std::string> first = client.read_reply();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].rfind("RESULT ", 0), 0u);
  EXPECT_NE(first[0].find(" miss "), std::string::npos);
  EXPECT_EQ(first[1].rfind("DONE 1 hits=0", 0), 0u);

  // Identical re-request: a hit whose CSV payload is byte-identical.
  client.send_line("RUN " + small_request(0.2));
  const std::vector<std::string> second = client.read_reply();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_NE(second[0].find(" hit "), std::string::npos);
  const auto payload = [](const std::string& line) {
    // RESULT <hash> <source> <csv...> -> the csv part
    std::size_t pos = line.find(' ');
    pos = line.find(' ', pos + 1);
    pos = line.find(' ', pos + 1);
    return line.substr(pos + 1);
  };
  EXPECT_EQ(payload(second[0]), payload(first[0]));

  // Refinement: longer window warm-starts from the cached checkpoint.
  client.send_line("RUN " + small_request(0.2, 500));
  const std::vector<std::string> warm = client.read_reply();
  ASSERT_EQ(warm.size(), 2u);
  EXPECT_NE(warm[0].find(" warm "), std::string::npos);
  EXPECT_NE(warm[1].find("warm=1"), std::string::npos);

  client.send_line("STATS");
  const std::string stats = client.read_line();
  EXPECT_EQ(stats.rfind("STATS ", 0), 0u);
  EXPECT_NE(stats.find("result_hits=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("warm_starts=1"), std::string::npos) << stats;

  client.send_line("QUIT");
  EXPECT_EQ(client.read_line(), "BYE");
  server.stop();
}

TEST(SweepServer, StreamInterleavesSamplesBeforeDone) {
  SweepService service(ServiceOptions{.workers = 2});
  SweepServer server(service, 0);
  TestClient client(server.port());

  client.send_line("STREAM " + small_request(0.2) + ";stream.interval=50");
  const std::vector<std::string> reply = client.read_reply();
  ASSERT_GE(reply.size(), 3u);
  int samples = 0;
  int results = 0;
  for (const std::string& line : reply) {
    if (line.rfind("SAMPLE ", 0) == 0) ++samples;
    if (line.rfind("RESULT ", 0) == 0) ++results;
  }
  // 100 warmup + 200 measure at 50-cycle intervals.
  EXPECT_GE(samples, 4);
  EXPECT_EQ(results, 1);
  EXPECT_EQ(reply.back().rfind("DONE", 0), 0u);
  server.stop();
}

TEST(SweepServer, ShutdownVerbReleasesWaiters) {
  SweepService service(ServiceOptions{.workers = 1});
  SweepServer server(service, 0);
  std::thread waiter([&server] { server.wait_shutdown(); });
  {
    TestClient client(server.port());
    client.send_line("SHUTDOWN");
    EXPECT_EQ(client.read_line(), "BYE");
  }
  waiter.join();  // released by SHUTDOWN, not by stop()
  server.stop();
}

/// Open file descriptors of this process.
std::ptrdiff_t open_fds() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                       std::filesystem::directory_iterator{});
}

TEST(SweepServer, FinishedConnectionsAreReaped) {
  SweepService service(ServiceOptions{.workers = 1});
  SweepServer server(service, 0);
  const std::ptrdiff_t before = open_fds();
  for (int i = 0; i < 200; ++i) {
    TestClient client(server.port());
    client.send_line("QUIT");
    ASSERT_EQ(client.read_line(), "BYE");
    ASSERT_EQ(client.read_line(), "");  // EOF
  }
  // The accept loop reaps each finished connection when the next one
  // arrives, so at most the last one still holds its fd.
  EXPECT_LE(open_fds() - before, 3);
  server.stop();
}

TEST(SweepServer, RepliesAreNotHeldByNagle) {
  // RESULT and DONE are two writes. A plain client (no TCP_QUICKACK)
  // delays its ACK of RESULT, so without TCP_NODELAY on the server
  // DONE waits ~40 ms for it on every reply.
  SweepService service(ServiceOptions{.workers = 1});
  SweepServer server(service, 0);
  TestClient client(server.port());
  const std::string request = "RUN " + small_request(0.2);
  client.send_line(request);
  ASSERT_EQ(client.read_reply().size(), 2u);  // now cached

  std::vector<double> ms;
  for (int i = 0; i < 10; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    client.send_line(request);
    ASSERT_EQ(client.read_reply().size(), 2u);
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  std::nth_element(ms.begin(), ms.begin() + 5, ms.end());
  EXPECT_LT(ms[5], 20.0);
  server.stop();
}

TEST(SweepServer, OverlongLineGetsAnErrorAndAClose) {
  SweepService service(ServiceOptions{.workers = 1});
  SweepServer server(service, 0);
  {
    TestClient client(server.port());
    // Fail rather than hang if the server never answers.
    const timeval timeout{10, 0};
    ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof timeout);
    // 2 MiB without a newline, from a second thread: the server stops
    // reading after 1 MiB, so this send may block until the close.
    std::thread sender([fd = client.fd()] {
      const std::string chunk(64 * 1024, 'x');
      for (int i = 0; i < 32; ++i) {
        if (::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL) <= 0) break;
      }
    });
    EXPECT_EQ(client.read_line(), "ERR line too long");
    EXPECT_EQ(client.read_line(), "");  // EOF
    ::shutdown(client.fd(), SHUT_RDWR);
    sender.join();
  }
  TestClient next(server.port());
  next.send_line("PING");
  EXPECT_EQ(next.read_line(), "PONG");
  server.stop();
}

/// The CI soak: concurrent clients hammer a small request pool through
/// real sockets. Thresholds are deliberately loose — the point is the
/// concurrency coverage (and TSan), not the exact hit counts.
TEST(SweepServerSoak, ConcurrentClientsHitTheCache) {
  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 8;
  // 4 distinct physical points; everything past the first occurrence
  // of each must be served from cache or coalesced.
  const std::vector<std::string> pool = {
      small_request(0.10), small_request(0.20), small_request(0.30),
      small_request(0.40)};

  SweepService service(ServiceOptions{.workers = 4});
  SweepServer server(service, 0);

  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(server.port());
      for (int r = 0; r < kRequestsPerClient; ++r) {
        client.send_line("RUN " + pool[(c + r) % pool.size()]);
        const std::vector<std::string> reply = client.read_reply();
        // Every reply must fully parse: RESULT... then DONE, no ERR.
        if (reply.size() != 2 || reply[0].rfind("RESULT ", 0) != 0 ||
            reply[1].rfind("DONE 1", 0) != 0) {
          ++failures[c];
        }
      }
      client.send_line("QUIT");
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c << " got malformed replies";
  }

  const ServiceStats stats = service.stats();
  const std::int64_t total = kClients * kRequestsPerClient;
  EXPECT_EQ(stats.points, total);
  EXPECT_EQ(stats.errors, 0);
  // At most one cold run per distinct point.
  EXPECT_LE(stats.cold_runs, static_cast<std::int64_t>(pool.size()));
  const double hit_rate =
      static_cast<double>(stats.result_hits + stats.coalesced) /
      static_cast<double>(total);
  EXPECT_GT(hit_rate, 0.85) << "hit " << stats.result_hits << " coalesced "
                            << stats.coalesced << " of " << total;
  server.stop();
}

}  // namespace
}  // namespace dragonfly
