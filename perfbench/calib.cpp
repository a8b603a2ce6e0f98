// Host-speed calibration (see bench.hpp). The kernel runs in a child
// process so that its buffers do not count in the driver's peak RSS.
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kWords = std::size_t{4} << 20;  // 16 MB
constexpr int kUpdates = 1'000'000;

volatile std::uint32_t g_sink;

std::uint32_t* map_words(std::size_t words) {
  void* p = mmap(nullptr, words * sizeof(std::uint32_t), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) _exit(1);
  auto* w = static_cast<std::uint32_t*>(p);
  for (std::size_t i = 0; i < words; ++i) w[i] = 1;
  return w;
}

inline std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// One slice of the fixed kernel: random read-modify-writes over a
/// buffer larger than L2 and within a share of L3. An untimed sweep
/// first brings the buffer back into the caches, whatever ran before.
/// Returns the seconds of the random updates.
double kernel_slice(std::uint32_t* words) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < kWords; i += 16) sum += words[i];
  g_sink = sum;
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < kUpdates; ++i) {
    std::uint32_t& w = words[xorshift(x) & (kWords - 1)];
    w += (w & 1) ? 3 : 1;
  }
  return seconds_since(t0);
}

bool read_all(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

/// The child: one slice per request byte, until the request pipe closes.
[[noreturn]] void serve_slices(int requests, int replies) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  std::uint32_t* words = map_words(kWords);
  char c = 0;
  while (read_all(requests, &c, 1)) {
    const double s = kernel_slice(words);
    if (::write(replies, &s, sizeof s) != static_cast<ssize_t>(sizeof s)) break;
  }
  _exit(0);
}

}  // namespace

HostCalibration::Child HostCalibration::spawn() {
  int req[2], rep[2];
  if (::pipe2(req, O_CLOEXEC) != 0) {
    throw std::runtime_error("calibration: pipe failed");
  }
  if (::pipe2(rep, O_CLOEXEC) != 0) {
    ::close(req[0]);
    ::close(req[1]);
    throw std::runtime_error("calibration: pipe failed");
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(req[1]);
    ::close(rep[0]);
    serve_slices(req[0], rep[1]);
  }
  ::close(req[0]);
  ::close(rep[1]);
  if (pid < 0) {
    ::close(req[1]);
    ::close(rep[0]);
    throw std::runtime_error("calibration: fork failed");
  }
  return Child{pid, req[1], rep[0]};
}

HostCalibration::HostCalibration() {
  try {
    for (int i = 0; i < kLanes; ++i) children_.push_back(spawn());
  } catch (...) {
    stop();
    throw;
  }
}

HostCalibration::~HostCalibration() { stop(); }

void HostCalibration::stop() {
  for (const Child& c : children_) {
    ::close(c.to);  // the child exits on end of input
    ::close(c.from);
  }
  for (const Child& c : children_) {
    int status = 0;
    while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  children_.clear();
}

double HostCalibration::slice() {
  const char c = 's';
  for (const Child& child : children_) {
    if (::write(child.to, &c, 1) != 1) {
      throw std::runtime_error("calibration child stopped");
    }
  }
  double sum = 0.0;
  for (const Child& child : children_) {
    double s = 0.0;
    if (!read_all(child.from, &s, sizeof s)) {
      throw std::runtime_error("calibration child stopped");
    }
    sum += s;
  }
  const double s = sum / static_cast<double>(children_.size());
  slice_s_.push_back(s);
  return s;
}

double HostCalibration::median_slice_s() const { return median(slice_s_); }

double HostCalibration::time_scale() const {
  const double m = median_slice_s();
  return m > 0.0 ? kReferenceSliceS / m : 1.0;
}

}  // namespace perfbench
