// service_mix: a closed loop of two client connections against
// `simulate_cli --serve 0 --threads 2` on loopback.
//
// Each client owns kSlots request templates (shape, routing, traffic,
// load, windows). Every round it sends, for each template in a seeded
// order, one request of each kind, then both clients send the same
// unseen config together (a `dup`). Request kinds are named by what the
// client asked:
//   new     the template with a fresh simulation seed (an unseen config),
//   refine  this round's `new` config with a longer measure window,
//   repeat  this round's `new` config again,
//   dup     the round's shared unseen config, sent by both clients.
// So every round asks for the same work, and the end-to-end metrics are
// taken over the fastest kQuietShare of the rounds (see bench.hpp).
// Correctness: no reply may be ERR, a repeat must be byte-identical to
// the first reply for its config (ignoring the hit/miss source tag),
// both dup replies must agree, and the replies of the first kDigestRounds
// rounds must match the recorded digest (or, in a traced run, the
// untraced pass).
//
// The client sets TCP_NODELAY and re-arms TCP_QUICKACK after every read:
// the server writes RESULT and DONE as separate sends without
// TCP_NODELAY, so a client that delays its ACKs waits ~40 ms per reply
// for Nagle's algorithm, which would hide every service layer.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <barrier>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/api.hpp"
#include "service/engine.hpp"
#include "service/protocol.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace dragonfly;

constexpr int kClients = 2;
constexpr int kSlots = 11;  ///< templates per client; 3 requests each per round
constexpr int kDigestRounds = 2;
constexpr int kServerSetups = 41;
constexpr int kReplyTimeoutS = 60;
constexpr int kCalibrationEvery = 6;  ///< rounds per calibration slice

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// --- requests ---------------------------------------------------------------

struct PointConfig {
  int h = 2;
  std::string routing, traffic;
  double load = 0.1;
  int warmup = 0, measure = 0;
  std::uint64_t seed = 1;

  std::string items() const {
    std::ostringstream os;
    os << "h=" << h << ";routing=" << routing << ";traffic=" << traffic
       << ";load=" << load << ";warmup_cycles=" << warmup
       << ";measure_cycles=" << measure << ";seed=" << seed;
    return os.str();
  }
};

/// Template `slot` of client `client` (small shapes, short windows),
/// without its simulation seed. The templates are fixed, so every seed
/// asks for the same amount of work: the seed only picks simulation
/// seeds and the order of each round. Slot kSlots is the dup template.
PointConfig mix_template(int client, int slot, bool toy) {
  static const char* const kTraffic[] = {"uniform", "advc", "adv"};
  static const double kLoads[] = {0.1, 0.2, 0.3};
  const auto& routings = paper_routing_names();
  const std::size_t g = static_cast<std::size_t>(client * (kSlots + 1) + slot);
  PointConfig c;
  // Three slots in eleven are h=3: a minority, so that each kind's median
  // latency falls inside the h=2 mode rather than between the two modes.
  c.h = (!toy && slot < kSlots && slot % 4 == 2) ? 3 : 2;
  c.routing = routings[g % routings.size()];
  c.traffic = kTraffic[g % 3];
  c.load = kLoads[(g / 3) % 3];
  c.warmup = toy ? 100 : (c.h == 2 ? 300 : 200);
  c.measure = toy ? 150 : (c.h == 2 ? 400 : 300);
  return c;
}

/// Simulation seed of `slot` of `client` in `round`: distinct for every
/// request of a run, so each `new` and `dup` is unseen.
std::uint64_t mix_seed(std::uint64_t base, int round, int client, int slot) {
  return 1 + base +
         static_cast<std::uint64_t>((round * kClients + client) * (kSlots + 1) +
                                    slot);
}

std::uint64_t mix_seed_base(std::uint64_t seed) {
  return splitmix64(seed ^ 0x5e4f1ceull) % 1'000'000'000ull;
}

enum Kind { kNew, kRepeat, kRefine, kDup, kKinds };
const char* const kKindNames[kKinds] = {"new", "repeat", "refine", "dup"};

// --- the server process -----------------------------------------------------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to 127.0.0.1:" +
                             std::to_string(port));
  }
  timeval tv{};
  tv.tv_sec = kReplyTimeoutS;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  return fd;
}

/// One line-protocol connection; re-arms TCP_QUICKACK around every read
/// (see the file comment).
class Connection {
 public:
  explicit Connection(std::uint16_t port) : fd_(connect_loopback(port)) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Send one request line; return reply lines up to the terminal one
  /// (DONE/ERR/PONG/STATS/BYE). Throws on timeout or a closed socket.
  std::vector<std::string> request(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    std::vector<std::string> lines;
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl == std::string::npos) {
        read_more();
        continue;
      }
      lines.push_back(buf_.substr(0, nl));
      buf_.erase(0, nl + 1);
      const std::string& l = lines.back();
      if (l.rfind("DONE", 0) == 0 || l.rfind("ERR", 0) == 0 ||
          l.rfind("PONG", 0) == 0 || l.rfind("STATS", 0) == 0 ||
          l.rfind("BYE", 0) == 0) {
        return lines;
      }
    }
  }

 private:
  void read_more() {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) {
      throw std::runtime_error(n == 0 ? "server closed the connection"
                                      : "reply timed out");
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
    ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
  }

  int fd_;
  std::string buf_;
};

/// `simulate_cli --serve 0 --threads 2` as a child process, stopped and
/// reaped by stop() or the destructor.
class ServerProcess {
 public:
  explicit ServerProcess(const std::string& binary) {
    int pipefd[2];
    if (::pipe(pipefd) != 0) throw std::runtime_error("pipe() failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, pipefd[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, pipefd[0]);
    std::vector<std::string> argv_s = {binary, "--serve", "0", "--threads",
                                       "2", "--quiet"};
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    const int rc =
        posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(pipefd[1]);
    if (rc != 0) {
      ::close(pipefd[0]);
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary + ": " +
                               std::strerror(rc));
    }
    // "sweep service listening on 127.0.0.1:PORT\n"
    std::string line;
    char c;
    while (::read(pipefd[0], &c, 1) == 1 && c != '\n') line += c;
    ::close(pipefd[0]);
    const std::size_t colon = line.rfind(':');
    if (colon == std::string::npos) {
      stop();  // no port to send SHUTDOWN to, so this kills and reaps it
      throw std::runtime_error("server did not report a port: '" + line + "'");
    }
    port_ = static_cast<std::uint16_t>(std::stoi(line.substr(colon + 1)));
  }

  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }

  /// Shut the server down (SHUTDOWN, then SIGKILL if it lingers), reap
  /// it and return its peak resident set in MB (0 once stopped).
  double stop() {
    if (pid_ <= 0) return 0.0;
    try {
      Connection c(port_);
      c.request("SHUTDOWN");
    } catch (const std::exception&) {
      ::kill(pid_, SIGKILL);
    }
    rusage ru{};
    pid_t done = 0;
    for (int i = 0; i < 200 && done != pid_; ++i) {
      done = ::wait4(pid_, nullptr, WNOHANG, &ru);
      if (done != pid_) std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    if (done != pid_) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, nullptr, 0, &ru);
    }
    pid_ = -1;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// Server start until the first PONG, seconds.
double time_server_setup(const std::string& binary,
                         std::unique_ptr<ServerProcess>* keep) {
  const Clock::time_point t = Clock::now();
  auto server = std::make_unique<ServerProcess>(binary);
  Connection c(server->port());
  if (c.request("PING").front() != "PONG") {
    throw std::runtime_error("server did not answer PING");
  }
  const double s = seconds_since(t);
  if (keep != nullptr) *keep = std::move(server);
  return s;
}

std::map<std::string, double> parse_stats(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream is(line);
  std::string tok;
  is >> tok;  // STATS
  while (is >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq != std::string::npos) {
      out[tok.substr(0, eq)] = std::stod(tok.substr(eq + 1));
    }
  }
  return out;
}

/// "RESULT <hash> <source> <row>" lines with the source tag dropped;
/// empty when the reply is not exactly one RESULT plus DONE.
std::string canonical_reply(const std::vector<std::string>& lines) {
  if (lines.size() != 2 || lines[0].rfind("RESULT ", 0) != 0 ||
      lines[1].rfind("DONE", 0) != 0) {
    return {};
  }
  const std::string& r = lines[0];
  const std::size_t a = r.find(' ', 7);
  const std::size_t b = a == std::string::npos ? a : r.find(' ', a + 1);
  if (b == std::string::npos) return {};
  return r.substr(7, a - 7) + r.substr(b);
}

// --- the closed loop --------------------------------------------------------

/// One round of both clients.
struct Round {
  double wall_s = 0.0;
  bool after_calibration = false;  ///< started with the caches cold
  std::array<std::vector<double>, kKinds> latency_s;
  std::int64_t requests = 0;
};

struct LoopResult {
  std::vector<Round> rounds;
  double wall_s = 0.0;
  std::int64_t requests = 0;
  std::int64_t failed = 0;
  std::string digest;

  std::vector<double> round_s() const {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(r.wall_s);
    return v;
  }
  /// Latencies of one kind over the rounds at `idx`.
  std::vector<double> latency_s(Kind kind,
                                const std::vector<std::size_t>& idx) const {
    std::vector<double> v;
    for (std::size_t i : idx) {
      v.insert(v.end(), rounds[i].latency_s[kind].begin(),
               rounds[i].latency_s[kind].end());
    }
    return v;
  }
  std::vector<std::size_t> all() const {
    std::vector<std::size_t> idx(rounds.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    return idx;
  }
};

/// Per-client state; only its own thread touches it (the dup reply and
/// the round's latencies are read by the round barrier's completion step).
struct Client {
  int id = 0;
  bool toy = false;
  std::uint64_t seed_base = 0;
  std::mt19937_64 rng;
  std::unique_ptr<Connection> conn;
  std::array<std::vector<double>, kKinds> latency_s;  ///< this round
  std::vector<std::string> digest_replies;
  std::string dup_reply;
  std::int64_t requests = 0;
  std::int64_t failed = 0;

  Client(int id_, std::uint64_t seed, bool toy_)
      : id(id_),
        toy(toy_),
        seed_base(mix_seed_base(seed)),
        rng(splitmix64(seed ^ (0x5eedull + static_cast<std::uint64_t>(id_)))) {}

  void fail(const std::string& why) {
    ++failed;
    std::cerr << "perfbench: FAILED (client " << id << "): " << why << "\n";
  }

  /// Send one request; returns the canonical reply ("" on failure).
  std::string send(Kind kind, const std::string& items, Tracer& tracer,
                   bool record_digest) {
    auto span = tracer.span(kKindNames[kind], "service");
    ++requests;
    std::vector<std::string> lines;
    const Clock::time_point t = Clock::now();
    try {
      lines = conn->request("RUN " + items);
    } catch (const std::exception& e) {
      fail(std::string(kKindNames[kind]) + " " + items + ": " + e.what());
      return {};
    }
    const double latency = seconds_since(t);
    const std::string reply = canonical_reply(lines);
    if (reply.empty()) {
      fail(std::string(kKindNames[kind]) + " " + items + ": " +
           (lines.empty() ? std::string("no reply") : lines.front()));
      return {};
    }
    latency_s[kind].push_back(latency);
    if (record_digest) digest_replies.push_back(reply);
    return reply;
  }

  /// The three iterations DESIGN.md's sweep-service section names
  /// ("re-plotted, re-refined, re-run with one knob nudged"), one of each
  /// per template and round: no measured request log gives their shares.
  /// Templates go in a seeded order, pipelined so that a template's
  /// refine and repeat follow its new with other requests in between.
  void one_round(int round, Tracer& tracer, bool record_digest) {
    std::array<int, kSlots> order;
    for (int i = 0; i < kSlots; ++i) {
      order[i] = i;
      std::swap(order[i], order[rng() % static_cast<std::uint64_t>(i + 1)]);
    }
    std::array<PointConfig, kSlots> cfg;
    std::array<std::string, kSlots> first;
    for (int s = 0; s < kSlots + 2; ++s) {
      if (s < kSlots) {
        const int k = order[s];
        cfg[k] = mix_template(id, k, toy);
        cfg[k].seed = mix_seed(seed_base, round, id, k);
        first[k] = send(kNew, cfg[k].items(), tracer, record_digest);
      }
      if (s >= 1 && s <= kSlots) {
        PointConfig c = cfg[order[s - 1]];
        c.measure += 50;
        send(kRefine, c.items(), tracer, record_digest);
      }
      if (s >= 2) {
        const int k = order[s - 2];
        const std::string reply =
            send(kRepeat, cfg[k].items(), tracer, record_digest);
        if (!reply.empty() && !first[k].empty() && reply != first[k]) {
          fail("repeat reply differs from the first reply for " +
               cfg[k].items());
        }
      }
    }
  }
};

/// Run rounds until `seconds` have passed (and at least kDigestRounds),
/// or exactly `fixed_rounds` when > 0. With `calib`, a calibration slice
/// runs after every kCalibrationEvery-th round, outside the round timing,
/// while the server is idle; the round after it is marked.
LoopResult run_loop(std::uint16_t port, const Args& args, double seconds,
                    int fixed_rounds, Tracer& tracer,
                    HostCalibration* calib = nullptr) {
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(i, args.seed, args.toy));
    clients.back()->conn = std::make_unique<Connection>(port);
  }
  const std::uint64_t seed_base = mix_seed_base(args.seed);
  auto dup_config = [&](int round) {
    PointConfig c = mix_template(0, kSlots, args.toy);
    c.seed = mix_seed(seed_base, round, 0, kSlots);
    return c;
  };
  PointConfig dup_cfg = dup_config(0);

  LoopResult res;
  bool stop = false;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point round_start = t0;
  std::int64_t dup_failures = 0;
  std::int64_t requests_before = 0;
  bool calibrated = false;
  auto end_round = [&]() noexcept {
    const std::string& a = clients[0]->dup_reply;
    if (!a.empty() && a != clients[1]->dup_reply &&
        !clients[1]->dup_reply.empty()) {
      ++dup_failures;
      std::cerr << "perfbench: FAILED: dup replies differ for "
                << dup_cfg.items() << "\n";
    }
    const Clock::time_point now = Clock::now();
    Round r;
    r.wall_s = std::chrono::duration<double>(now - round_start).count();
    std::int64_t requests = 0;
    for (auto& c : clients) {
      requests += c->requests;
      for (int k = 0; k < kKinds; ++k) {
        r.latency_s[k].insert(r.latency_s[k].end(), c->latency_s[k].begin(),
                              c->latency_s[k].end());
        c->latency_s[k].clear();
      }
    }
    r.requests = requests - requests_before;
    r.after_calibration = calibrated;
    requests_before = requests;
    res.rounds.push_back(std::move(r));
    const auto done = static_cast<int>(res.rounds.size());
    calibrated = calib != nullptr && done % kCalibrationEvery == 0;
    if (calibrated) calib->slice();
    round_start = Clock::now();
    stop = fixed_rounds > 0
               ? done >= fixed_rounds
               : (done >= kDigestRounds &&
                  std::chrono::duration<double>(now - t0).count() >= seconds);
    dup_cfg = dup_config(done);
  };
  std::barrier<> dup_gate(kClients);
  std::barrier round_gate(kClients, end_round);

  auto body = [&](Client& c) {
    while (true) {
      const int round = static_cast<int>(res.rounds.size());
      const bool record = round < kDigestRounds;
      auto span = tracer.span("round", "bench");
      if (args.inject_err && c.id == 0 && round == 0) {
        // Self-test fault: an unknown routing must come back as ERR.
        c.send(kNew, "h=2;routing=no-such-routing", tracer, false);
      }
      c.one_round(round, tracer, record);
      dup_gate.arrive_and_wait();
      c.dup_reply = c.send(kDup, dup_cfg.items(), tracer, record);
      round_gate.arrive_and_wait();
      if (stop) return;
    }
  };
  std::vector<std::thread> threads;
  for (auto& c : clients) threads.emplace_back(body, std::ref(*c));
  for (std::thread& t : threads) t.join();
  res.wall_s = seconds_since(t0);

  Digest d;
  for (auto& c : clients) {
    for (const std::string& r : c->digest_replies) d.add(r);
    res.requests += c->requests;
    res.failed += c->failed;
  }
  res.failed += dup_failures;
  res.digest = d.hex();
  return res;
}

void check_loop(const LoopResult& loop, const std::string& expected,
                Outcome& out) {
  out.attempted += loop.requests;
  if (loop.failed > 0) out.fail("service_mix: failed requests", loop.failed);
  if (!expected.empty() && loop.digest != expected) {
    // The digest covers every request of the first kDigestRounds rounds.
    out.fail("service_mix: reply digest " + loop.digest + " != expected " +
                 expected,
             kDigestRounds * (3 * kSlots + 1) * kClients);
  }
}

std::map<std::string, double> server_stats(std::uint16_t port) {
  Connection c(port);
  return parse_stats(c.request("STATS").front());
}

void sample_count_note(const char* what, const std::vector<double>& v) {
  std::cerr << "perfbench: " << v.size() << " " << what << " samples"
            << (v.size() < 1000 ? " (p99 has fewer than 10 samples beyond it)"
                                : "")
            << "\n";
}

// --- in-process service layers (traced run) -----------------------------------

/// Times the service layers in process; returns the result cache's bytes
/// per entry (STATS reports entries only).
double in_process_layers(const Args& args, Tracer& tracer, Outcome& out) {
  const std::uint64_t seed_base = mix_seed_base(args.seed ^ 0x1a7e5ull);
  std::vector<PointConfig> configs;
  for (int i = 0; i < 8; ++i) {
    configs.push_back(mix_template(0, i, args.toy));
    configs.back().seed = mix_seed(seed_base, 0, 0, i);
  }
  auto items_of = [](const PointConfig& c) {
    return protocol::split_items(c.items());
  };

  std::vector<double> parse_us;
  for (int k = 0; k < 200; ++k) {
    const std::vector<std::string> items = items_of(configs[k % 8]);
    auto s = tracer.span("ExperimentSpec::apply_kv_line", "core");
    const Clock::time_point t = Clock::now();
    ExperimentSpec spec;
    for (const std::string& item : items) spec.apply_kv_line(item);
    spec.finalize();
    parse_us.push_back(us_between(t, Clock::now()));
  }
  out.set("core.spec_parse_us", median(parse_us), "us");

  ServiceOptions opts;
  opts.workers = 2;
  SweepService service(opts);
  std::vector<double> new_cycles, refine_cycles, describe_us, hit_us;
  out.attempted += 16;
  for (const PointConfig& c : configs) {
    auto s = tracer.span("SweepService::execute(new)", "service");
    const RequestReport r = service.execute(items_of(c));
    if (!r.ok() || r.points.size() != 1) {
      out.fail("in-process new request failed: " + r.error);
      continue;
    }
    new_cycles.push_back(static_cast<double>(r.points[0].cycles_simulated));
  }
  for (PointConfig c : configs) {
    c.measure += 50;
    auto s = tracer.span("SweepService::execute(refine)", "service");
    const RequestReport r = service.execute(items_of(c));
    if (!r.ok() || r.points.size() != 1) {
      out.fail("in-process refine request failed: " + r.error);
      continue;
    }
    refine_cycles.push_back(static_cast<double>(r.points[0].cycles_simulated));
  }
  for (int k = 0; k < 400; ++k) {
    const std::vector<std::string> items = items_of(configs[k % 8]);
    auto s = tracer.span("SweepService::describe", "service");
    const Clock::time_point t = Clock::now();
    const RequestReport r = service.describe(items);
    describe_us.push_back(us_between(t, Clock::now()));
    if (r.points.empty()) out.fail("describe returned no points");
  }
  for (int k = 0; k < 400; ++k) {
    const std::vector<std::string> items = items_of(configs[k % 8]);
    auto s = tracer.span("SweepService::execute(hit)", "service");
    const Clock::time_point t = Clock::now();
    const RequestReport r = service.execute(items);
    hit_us.push_back(us_between(t, Clock::now()));
    if (r.points.empty() || r.points[0].source != PointSource::kHit) {
      out.fail("repeated in-process request was not a cache hit");
    }
  }
  const ServiceStats st = service.stats();
  out.set("service.describe_us", median(describe_us), "us");
  out.set("service.hit_execute_us", median(hit_us), "us");
  out.set("service.cycles_per_new", mean(new_cycles), "cycles");
  out.set("service.cycles_per_refine", mean(refine_cycles), "cycles");

  // Measure-boundary checkpoint of a mix config: what every cold miss
  // pays to make later refinements warm.
  std::vector<double> ck_ms;
  double ck_kb = 0.0;
  for (int k = 0; k < 5; ++k) {
    ExperimentSpec spec;
    for (const std::string& item : items_of(configs[k])) spec.apply_kv_line(item);
    spec.finalize();
    Session session(spec.base);
    session.advance_to(SessionPhase::kMeasure);
    auto s = tracer.span("Session::checkpoint", "sim");
    const Clock::time_point t = Clock::now();
    std::ostringstream os;
    session.checkpoint(os);
    ck_ms.push_back(seconds_since(t) * 1e3);
    ck_kb += static_cast<double>(os.str().size()) / 1024.0 / 5.0;
  }
  out.set("sim.checkpoint_ms", median(ck_ms), "ms");
  out.set("sim.checkpoint_kb", ck_kb, "kB");
  return st.result_cache.entries > 0
             ? static_cast<double>(st.result_cache.bytes) /
                   static_cast<double>(st.result_cache.entries)
             : 0.0;
}

}  // namespace

void run_service_mix(const Args& args, Tracer& tracer, Outcome& out) {
  if (args.simulate_cli.empty()) {
    throw std::runtime_error("service_mix needs --simulate-cli PATH");
  }
  HostCalibration calib;
  std::vector<double> setups;
  for (int k = 0; k < kServerSetups; ++k) {
    setups.push_back(time_server_setup(args.simulate_cli, nullptr));
    if (k % 4 == 0) calib.slice();
  }
  std::unique_ptr<ServerProcess> server;
  setups.push_back(time_server_setup(args.simulate_cli, &server));

  if (!args.trace) {
    Tracer off(false);
    const LoopResult loop =
        run_loop(server->port(), args, args.seconds, 0, off, &calib);
    check_loop(loop, args.expect_digest, out);
    const std::map<std::string, double> st = server_stats(server->port());
    // Every round asks for the same work, so cycles per round are fixed.
    // Rounds that follow a calibration slice start with cold caches: they
    // sort last and are never among the fastest kept.
    std::vector<double> round_s = loop.round_s();
    for (std::size_t i = 0; i < round_s.size(); ++i) {
      if (loop.rounds[i].after_calibration) {
        round_s[i] = std::numeric_limits<double>::infinity();
      }
    }
    const std::vector<std::size_t> quiet = fastest(round_s, kQuietShare);
    const double cycles_per_round =
        st.at("cycles_simulated") / static_cast<double>(loop.rounds.size());
    double quiet_s = 0.0, quiet_requests = 0.0;
    for (std::size_t i : quiet) {
      quiet_s += loop.rounds[i].wall_s;
      quiet_requests += static_cast<double>(loop.rounds[i].requests);
    }
    std::cerr << "perfbench: service_mix seed " << args.seed << ": "
              << loop.rounds.size() << " rounds (" << quiet.size()
              << " fastest kept), " << loop.requests << " requests, digest "
              << loop.digest << "\n";
    const std::vector<double> new_s = loop.latency_s(kNew, quiet);
    const std::vector<double> repeat_s = loop.latency_s(kRepeat, quiet);
    const std::vector<double> refine_s = loop.latency_s(kRefine, quiet);
    sample_count_note("new", new_s);
    sample_count_note("repeat", repeat_s);
    sample_count_note("refine", refine_s);
    const double wall_raw = median(pick(round_s, quiet));
    const double k = calib.time_scale();
    std::cerr << "perfbench: host wall_s " << wall_raw << ", calibration slice "
              << calib.median_slice_s() * 1e3 << " ms over " << calib.slices()
              << " slices, time scale " << k << "\n";
    out.set("wall_s", wall_raw * k, "s");
    out.set("setup_s", median(pick(setups, fastest(setups, kQuietShare))) * k,
            "s");
    out.set("sim_cycles_per_s",
            cycles_per_round * static_cast<double>(quiet.size()) / quiet_s / k,
            "cycles/s");
    out.set("peak_rss_mb", server->stop(), "MB");
    out.set("req_per_s", quiet_requests / quiet_s / k, "1/s");
    out.set("new_p50_ms", percentile(new_s, 0.50) * k * 1e3, "ms");
    out.set("new_p99_ms", percentile(new_s, 0.99) * k * 1e3, "ms");
    out.set("repeat_p50_us", percentile(repeat_s, 0.50) * k * 1e6, "us");
    out.set("refine_p50_ms", percentile(refine_s, 0.50) * k * 1e3, "ms");
    out.set("refine_p99_ms", percentile(refine_s, 0.99) * k * 1e3, "ms");
    return;
  }

  // Traced run: an untraced pass, then the same rounds on a fresh server
  // with spans; both must produce the same reply bytes.
  Tracer off(false);
  const LoopResult plain =
      run_loop(server->port(), args, args.seconds / 2, 0, off);
  check_loop(plain, args.expect_digest, out);
  server.reset();
  server = std::make_unique<ServerProcess>(args.simulate_cli);
  LoopResult traced;
  {
    auto span = tracer.span("service_mix", "bench");
    traced = run_loop(server->port(), args, 0,
                      static_cast<int>(plain.rounds.size()), tracer);
  }
  check_loop(traced, plain.digest, out);
  out.set("bench.trace_overhead_frac",
          median(traced.round_s()) / median(plain.round_s()) - 1.0, "ratio");

  const std::map<std::string, double> st = server_stats(server->port());
  const double points = st.at("points");
  out.set("service.hit_ratio", points > 0 ? st.at("result_hits") / points : 0,
          "ratio");
  out.set("service.coalesced", st.at("coalesced"), "count");
  out.set("service.warm_starts", st.at("warm_starts"), "count");
  out.set("service.cold_runs", st.at("cold_runs"), "count");
  out.set("service.errors", st.at("errors"), "count");
  out.set("service.warm_cache_kb", st.at("warm_bytes") / 1024.0, "kB");

  const double per_entry = in_process_layers(args, tracer, out);
  out.set("service.result_cache_kb", st.at("result_entries") * per_entry / 1024.0,
          "kB");
  // The repeat tail is a per-layer number: sub-millisecond requests
  // queue behind the server's simulating workers and host scheduling,
  // which spreads it too widely across runs for an end-to-end bound.
  const std::vector<double> repeat_s = plain.latency_s(kRepeat, plain.all());
  out.set("repeat_p99_us", percentile(repeat_s, 0.99) * 1e6, "us");
  const double hit_us = out.metrics["service.hit_execute_us"].value;
  out.set("service.socket_overhead_us",
          percentile(repeat_s, 0.50) * 1e6 - hit_us, "us");
}

}  // namespace perfbench
