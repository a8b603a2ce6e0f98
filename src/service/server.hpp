// TCP front end of the sweep service: a loopback daemon speaking the
// line protocol of protocol.hpp. One accept thread plus one handler
// thread per connection; handlers block in SweepService::execute while
// the shared ThreadPool simulates, so many clients queue work into one
// process-wide cache/pool. The accept thread reaps finished connections
// (joins the handler, closes the fd) as new ones arrive. Sockets run
// with TCP_NODELAY, and a request line longer than kMaxLineBytes gets
// `ERR line too long` and a closed connection. `simulate_cli --serve
// PORT` wraps this.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/engine.hpp"

namespace dragonfly {

class SweepServer {
 public:
  /// Longest request line accepted, newline excluded.
  static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts
  /// accepting. Throws std::runtime_error when the socket can't be
  /// set up. The service must outlive the server.
  SweepServer(SweepService& service, std::uint16_t port);
  ~SweepServer();

  SweepServer(const SweepServer&) = delete;
  SweepServer& operator=(const SweepServer&) = delete;

  /// The bound port (the resolved one when constructed with 0).
  std::uint16_t port() const { return port_; }

  /// Block until a client sends SHUTDOWN or stop() is called.
  void wait_shutdown();

  /// Stop accepting, close every connection, join all threads.
  /// Idempotent; also runs from the destructor.
  void stop();

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::mutex write_mu;  ///< serializes replies vs. streamed samples
    std::atomic<bool> done{false};  ///< handler returned; fd unused
  };

  void accept_loop();
  /// Join and close every connection whose handler has returned.
  void reap_finished();
  void handle_connection(Connection* conn);
  void handle_line(Connection* conn, const std::string& line);
  /// Write `text` plus a newline in one locked send loop; `text` may
  /// hold several newline-separated lines (a whole reply).
  bool send_line(Connection* conn, const std::string& text);

  SweepService& service_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;

  std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_ = false;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace dragonfly
