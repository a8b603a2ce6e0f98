// Shared pieces of the benchmark driver: command-line arguments, the
// metric/outcome record every workload fills, order statistics, result
// digests and the span recorder of the traced run.
//
// The benchmark only calls the library's public API (Session, run_configs,
// TopologyCache, ExperimentSpec, SweepService) and `simulate_cli
// --serve`; every timing is taken from outside those calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy scale (h=2 shapes, short windows): the self-test's mode.
  bool toy = false;
  /// Digest the result rows must match; empty = no recorded digest.
  std::string expect_digest;
  /// Self-test fault: send one malformed request (service) whose ERR
  /// reply must count as a failed operation.
  bool inject_err = false;
  std::string simulate_cli;  ///< server binary (service_mix)
  std::string trace_path;    ///< Chrome trace-event JSON (traced runs)
};

/// What one run reports: operation counts and named metrics with units.
struct Outcome {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Count `n` failed operations and say why on stderr.
  void fail(const std::string& why, std::int64_t n = 1);
};

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}
double mean(const std::vector<double>& v);
std::uint64_t splitmix64(std::uint64_t x);

/// Share of a run's repetitions the end-to-end metrics are taken over.
/// On a shared host a repetition is slowed by whatever the neighbours do
/// while it runs; the fastest repetitions of identical work are the ones
/// that ran undisturbed, and their times agree from run to run.
constexpr double kQuietShare = 1.0 / 3.0;

/// Indices of the fastest `share` of `unit_s` (at least one), fastest
/// first; ties keep their order.
std::vector<std::size_t> fastest(const std::vector<double>& unit_s, double share);
/// The values of `v` at `idx`.
std::vector<double> pick(const std::vector<double>& v,
                         const std::vector<std::size_t>& idx);

/// Host-speed calibration. A shared host runs the same work up to about
/// 1.9x slower for minutes at a time, whatever the benchmark does. A
/// fixed kernel of the benchmark's own (random read-modify-writes over
/// 16 MB; no library code) is timed in slices interleaved with the
/// workload. Its median slice time says how fast the host ran during this
/// run, and the end-to-end times are reported at the reference speed:
/// time × time_scale() (rates divided by it). NOTES.md (c) has the
/// measurements behind the choice of kernel.
/// The kernel runs in kLanes forked children at once, as the workloads
/// keep two threads busy; a slice's time is their mean. The children
/// keep their buffers out of the driver's peak RSS. Construct it while
/// the driver runs no other thread.
class HostCalibration {
 public:
  /// Median slice time on a quiet 4-vCPU Sapphire Rapids KVM guest.
  static constexpr double kReferenceSliceS = 0.0125;
  static constexpr int kLanes = 2;

  HostCalibration();
  ~HostCalibration();  ///< stops the children and waits for them
  HostCalibration(const HostCalibration&) = delete;
  HostCalibration& operator=(const HostCalibration&) = delete;

  /// Time one slice of the kernel (about 10 ms); returns seconds.
  double slice();
  double median_slice_s() const;
  std::size_t slices() const { return slice_s_.size(); }
  /// Factor that brings this run's host times to the reference speed.
  double time_scale() const;

 private:
  struct Child {
    int pid = -1;
    int to = -1;    ///< request pipe: one byte per slice
    int from = -1;  ///< reply pipe: the slice's seconds
  };
  static Child spawn();
  void stop();

  std::vector<Child> children_;
  std::vector<double> slice_s_;
};

/// FNV-1a 64 over result text; printed as 16 hex digits.
class Digest {
 public:
  void add(std::string_view text);
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// In-memory span recorder for the traced run. Spans carry a name, a
/// category (the layer), start/end, the enclosing span on the same
/// thread, and optional numeric args; write_chrome() emits Chrome
/// trace-event JSON (opens offline in Perfetto or chrome://tracing).
/// A disabled tracer records nothing.
class Tracer {
 public:
  class Span {
   public:
    Span(Tracer* tracer, const char* name, const char* cat);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Attach a numeric argument shown with the span.
    void arg(const char* key, double value);

   private:
    Tracer* tracer_;
    const char* name_;
    const char* cat_;
    std::int64_t id_ = 0;
    std::int64_t parent_ = 0;
    Clock::time_point start_;
    std::vector<std::pair<std::string, double>> args_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  Span span(const char* name, const char* cat) { return Span(this, name, cat); }
  /// Instant counter sample (ph "C"), e.g. live packets over time.
  void counter(const char* name, double value);
  std::size_t size() const;
  void write_chrome(const std::string& path) const;

 private:
  struct Event {
    std::string name, cat;
    char ph = 'X';
    double ts_us = 0.0, dur_us = 0.0;
    int tid = 0;
    std::int64_t id = 0, parent = 0;
    std::vector<std::pair<std::string, double>> args;
  };
  void record(Event ev);
  int thread_index();

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::int64_t next_id_ = 1;
  std::map<std::size_t, int> tids_;
};

// --- workloads -------------------------------------------------------------
// Each fills `out` with every end-to-end metric (untraced) or every
// per-layer metric it exercises (traced; run.py reports the rest as 0).
void run_table2_advc(const Args& args, Tracer& tracer, Outcome& out);
void run_service_mix(const Args& args, Tracer& tracer, Outcome& out);

/// Peak resident set of this process, MB.
double self_peak_rss_mb();

}  // namespace perfbench
