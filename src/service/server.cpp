#include "service/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "service/protocol.hpp"

namespace dragonfly {

namespace {

/// RunObserver streaming a connection's subscribed samples as SAMPLE
/// lines. on_sample fires from simulating threads; the send callback
/// (SweepServer::send_line) serializes against other writers on the
/// same socket. Labels are resolved per point index up front so the
/// hot path does no service lookups.
class SampleStreamer final : public RunObserver {
 public:
  using Send = std::function<bool(const std::string&)>;

  SampleStreamer(std::vector<std::string> labels, Send send)
      : labels_(std::move(labels)), send_(std::move(send)) {}

  void on_sample(std::size_t config_index, std::size_t seed_index,
                 const StreamSample& sample) override {
    const std::string& label =
        config_index < labels_.size() ? labels_[config_index] : labels_.back();
    send_(protocol::format_sample(label, config_index, seed_index, sample));
  }

 private:
  std::vector<std::string> labels_;
  Send send_;
};

}  // namespace

SweepServer::SweepServer(SweepService& service, std::uint16_t port)
    : service_(service) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("serve: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot listen on 127.0.0.1:" +
                             std::to_string(port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
}

SweepServer::~SweepServer() { stop(); }

void SweepServer::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener closed or unrecoverable
    }
    // Replies go out in one write each, but a STREAM's SAMPLE lines and
    // its closing RESULT/DONE write are separate sends; without
    // TCP_NODELAY, Nagle holds a small send behind an unacknowledged
    // one until the client's delayed ACK (~40 ms).
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    reap_finished();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load()) {
        ::close(fd);
        continue;
      }
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { handle_connection(raw); });
  }
}

void SweepServer::reap_finished() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto keep = connections_.begin();
    for (auto& conn : connections_) {
      if (conn->done.load()) {
        finished.push_back(std::move(conn));
      } else {
        *keep++ = std::move(conn);
      }
    }
    connections_.erase(keep, connections_.end());
  }
  for (auto& conn : finished) {
    conn->thread.join();
    ::close(conn->fd);
  }
}

void SweepServer::handle_connection(Connection* conn) {
  std::string buffer;
  char chunk[4096];
  bool too_long = false;
  while (!stopping_.load() && !too_long) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      if (nl - start > kMaxLineBytes) break;
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      handle_line(conn, line);
      if (stopping_.load()) break;
    }
    buffer.erase(0, start);
    // Whatever is left is one unfinished (or overlong) line.
    too_long = buffer.size() > kMaxLineBytes;
    // A QUIT closes our side; recv() then returns 0 and the loop ends.
  }
  if (too_long) send_line(conn, protocol::format_error("line too long"));
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->done.store(true);
}

void SweepServer::handle_line(Connection* conn, const std::string& line) {
  if (line.empty() || line == "\r") return;
  const protocol::Request req = protocol::parse_request(line);
  switch (req.verb) {
    case protocol::Verb::kInvalid:
      send_line(conn, protocol::format_error(req.error));
      return;
    case protocol::Verb::kPing:
      send_line(conn, "PONG");
      return;
    case protocol::Verb::kQuit:
      send_line(conn, "BYE");
      ::shutdown(conn->fd, SHUT_RDWR);
      return;
    case protocol::Verb::kShutdown: {
      send_line(conn, "BYE");
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
      shutdown_cv_.notify_all();
      return;
    }
    case protocol::Verb::kStats:
      send_line(conn, protocol::format_stats(service_.stats()));
      return;
    case protocol::Verb::kHash: {
      const RequestReport rep = service_.describe(req.items);
      if (!rep.error.empty()) {
        send_line(conn, protocol::format_error(rep.error));
        return;
      }
      std::string reply;
      for (const PointReport& p : rep.points) {
        reply += protocol::format_hash(p);
        reply += '\n';
      }
      reply += protocol::format_done(rep);
      send_line(conn, reply);
      return;
    }
    case protocol::Verb::kRun:
    case protocol::Verb::kStream: {
      std::unique_ptr<SampleStreamer> streamer;
      if (req.verb == protocol::Verb::kStream) {
        const RequestReport shape = service_.describe(req.items);
        if (shape.error.empty()) {
          std::vector<std::string> labels;
          for (const PointReport& p : shape.points) labels.push_back(p.label);
          streamer = std::make_unique<SampleStreamer>(
              std::move(labels),
              [this, conn](const std::string& s) { return send_line(conn, s); });
        }
      }
      const RequestReport rep = service_.execute(req.items, streamer.get());
      if (!rep.error.empty()) {
        send_line(conn, protocol::format_error(rep.error));
        return;
      }
      // The RESULT lines and DONE (or the first point's ERR) go out in
      // one write, after any streamed SAMPLE lines.
      std::string reply;
      for (const PointReport& p : rep.points) {
        if (!p.error.empty()) {
          reply += protocol::format_error("point " + p.label + " @" +
                                          std::to_string(p.offered_load) +
                                          ": " + p.error);
          send_line(conn, reply);
          return;
        }
        reply += protocol::format_result(p);
        reply += '\n';
      }
      reply += protocol::format_done(rep);
      send_line(conn, reply);
      return;
    }
  }
}

bool SweepServer::send_line(Connection* conn, const std::string& text) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  std::string out = text;
  out += '\n';
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(conn->fd, out.data() + sent, out.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void SweepServer::wait_shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_ || stopping_.load(); });
}

void SweepServer::stop() {
  if (stopping_.exchange(true)) {
    // Second caller: the first stop() may still be joining; just make
    // sure the accept thread is gone before returning.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    shutdown_cv_.notify_all();
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;

  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(connections_);
  }
  for (auto& conn : conns) {
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
}

}  // namespace dragonfly
