// Streaming statistics used by the metric collectors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dragonfly {

class CheckpointWriter;
class CheckpointReader;

/// Welford online mean/variance accumulator with min/max tracking.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();
  void save(CheckpointWriter& ck) const;
  void load(CheckpointReader& ck);

  std::size_t count() const { return n_; }
  double sum() const { return mean_ * static_cast<double>(n_); }
  double mean() const;
  /// Population variance (the paper's CoV uses sigma/mu over the full set
  /// of routers, which is a population, not a sample).
  double variance() const;
  double stddev() const;
  /// Coefficient of variation sigma/mu; 0 when the mean is 0.
  double cov() const;
  double min() const;
  double max() const;

 private:
  template <class Self, class Archive>
  static void walk(Self& self, Archive& ck);  // save()'s and load()'s fields

  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Summary statistics of a complete sample, computed in one pass.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double cov = 0.0;       ///< sigma / mu (0 if mu == 0)
  double min = 0.0;
  double max = 0.0;
  double max_over_min = 0.0;  ///< paper's Max/Min ratio (inf-safe: 0 if min==0 handled by caller)
  double jain = 0.0;      ///< Jain fairness index (sum x)^2 / (n * sum x^2)
};

Summary summarize(std::span<const double> values);

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// first/last bin. Used for latency distribution reporting.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  /// Zero all counts, keeping the bin storage (no reallocation).
  void reset();
  void add(double x);
  /// Merge another histogram with identical bounds and bin count.
  void merge(const Histogram& other);
  std::size_t bin_count(std::size_t i) const { return bins_.at(i); }
  std::size_t bins() const { return bins_.size(); }
  std::size_t total() const { return total_; }
  double bin_low(std::size_t i) const;
  double bin_high(std::size_t i) const;
  /// Value below which the given fraction q in [0,1] of samples fall
  /// (linear interpolation inside the bin).
  double quantile(double q) const;

  void save(CheckpointWriter& ck) const;
  void load(CheckpointReader& ck);

 private:
  template <class Self, class Archive>
  static void walk(Self& self, Archive& ck);  // save()'s and load()'s fields

  double lo_;
  double hi_;
  std::vector<std::size_t> bins_;
  std::size_t total_ = 0;
};

/// Streaming quantile estimate without sample storage: the P² algorithm
/// of Jain & Chlamtac (CACM '85). Five markers track the quantile and
/// its neighbourhood; each add() is O(1), so a MetricTap can report
/// rolling p50/p99 latency every interval at negligible cost. Exact for
/// the first five samples, a few percent of the IQR after that.
class P2Quantile {
 public:
  explicit P2Quantile(double q);

  void add(double x);
  /// Current estimate (0 before any sample).
  double value() const;
  std::size_t count() const { return count_; }
  double quantile() const { return q_; }
  void reset();

  void save(CheckpointWriter& ck) const;
  void load(CheckpointReader& ck);

 private:
  template <class Self, class Archive>
  static void walk(Self& self, Archive& ck);  // save()'s and load()'s fields

  double q_;
  std::size_t count_ = 0;
  double heights_[5] = {0, 0, 0, 0, 0};    ///< marker heights
  double positions_[5] = {1, 2, 3, 4, 5};  ///< actual marker positions
  double desired_[5] = {0, 0, 0, 0, 0};    ///< desired marker positions
  double increments_[5] = {0, 0, 0, 0, 0};
};

/// Two-sided 95% Student-t critical value t_{0.975, df} used by the
/// batch-means confidence intervals of the adaptive stopping rule.
/// Exact to three decimals for df <= 30, the normal limit above.
double student_t_975(std::size_t df);

}  // namespace dragonfly
