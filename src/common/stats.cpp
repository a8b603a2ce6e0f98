#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/checkpoint.hpp"

namespace dragonfly {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  // Welford's m2_ is mathematically non-negative but catastrophic
  // cancellation (notably in merge()) can leave it a tiny negative
  // number; sqrt of that is NaN and would leak into the cov/jain CSV
  // columns. Clamp: the true variance is ~0 whenever this triggers.
  return n_ == 0 ? 0.0 : std::max(0.0, m2_ / static_cast<double>(n_));
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::cov() const {
  const double mu = mean();
  return mu == 0.0 ? 0.0 : stddev() / mu;
}

double RunningStats::min() const { return n_ == 0 ? 0.0 : min_; }
double RunningStats::max() const { return n_ == 0 ? 0.0 : max_; }

template <class Self, class Archive>
void RunningStats::walk(Self& self, Archive& ck) {
  ck.field(self.n_);
  ck.field(self.mean_);
  ck.field(self.m2_);
  ck.field(self.min_);
  ck.field(self.max_);
}

void RunningStats::save(CheckpointWriter& ck) const { walk(*this, ck); }
void RunningStats::load(CheckpointReader& ck) { walk(*this, ck); }

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  RunningStats rs;
  double sum_sq = 0.0;
  for (double v : values) {
    rs.add(v);
    sum_sq += v * v;
  }
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.cov = rs.cov();
  s.min = rs.min();
  s.max = rs.max();
  s.max_over_min = s.min > 0.0 ? s.max / s.min
                               : (s.max > 0.0
                                      ? std::numeric_limits<double>::infinity()
                                      : 0.0);
  const double sum = rs.sum();
  s.jain = sum_sq > 0.0
               ? (sum * sum) / (static_cast<double>(s.count) * sum_sq)
               : 1.0;
  return s;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bins_(bins == 0 ? 1 : bins, 0) {}

void Histogram::reset() {
  std::fill(bins_.begin(), bins_.end(), std::size_t{0});
  total_ = 0;
}

void Histogram::add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(bins_.size());
  auto idx = static_cast<std::int64_t>((x - lo_) / width);
  idx = std::clamp<std::int64_t>(idx, 0,
                                 static_cast<std::int64_t>(bins_.size()) - 1);
  ++bins_[static_cast<std::size_t>(idx)];
  ++total_;
}

void Histogram::merge(const Histogram& other) {
  if (other.bins_.size() != bins_.size() || other.lo_ != lo_ ||
      other.hi_ != hi_) {
    throw std::invalid_argument("Histogram::merge: shape mismatch");
  }
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  total_ += other.total_;
}

double Histogram::bin_low(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(bins_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::bin_high(std::size_t i) const { return bin_low(i + 1); }

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double seen = 0.0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const auto in_bin = static_cast<double>(bins_[i]);
    if (seen + in_bin >= target && in_bin > 0.0) {
      const double frac = (target - seen) / in_bin;
      return bin_low(i) + frac * (bin_high(i) - bin_low(i));
    }
    seen += in_bin;
  }
  return hi_;
}

template <class Self, class Archive>
void Histogram::walk(Self& self, Archive& ck) {
  ck.field(self.lo_);
  ck.field(self.hi_);
  ck.fixed(self.bins_, "histogram bin count");
  ck.field(self.total_);
}

void Histogram::save(CheckpointWriter& ck) const { walk(*this, ck); }
void Histogram::load(CheckpointReader& ck) { walk(*this, ck); }

// --- P² streaming quantile ---------------------------------------------------

P2Quantile::P2Quantile(double q) : q_(std::clamp(q, 0.0, 1.0)) { reset(); }

void P2Quantile::reset() {
  count_ = 0;
  for (int i = 0; i < 5; ++i) {
    heights_[i] = 0.0;
    positions_[i] = static_cast<double>(i + 1);
  }
  desired_[0] = 1.0;
  desired_[1] = 1.0 + 2.0 * q_;
  desired_[2] = 1.0 + 4.0 * q_;
  desired_[3] = 3.0 + 2.0 * q_;
  desired_[4] = 5.0;
  increments_[0] = 0.0;
  increments_[1] = q_ / 2.0;
  increments_[2] = q_;
  increments_[3] = (1.0 + q_) / 2.0;
  increments_[4] = 1.0;
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    heights_[count_++] = x;
    if (count_ == 5) std::sort(heights_, heights_ + 5);
    return;
  }
  // Locate the cell and clamp the extremes.
  int k = 0;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    for (k = 0; k < 4; ++k) {
      if (x < heights_[k + 1]) break;
    }
  }
  for (int i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];
  ++count_;

  // Adjust the three interior markers towards their desired positions
  // with the parabolic (P²) update, falling back to linear when the
  // parabola would cross a neighbour.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double right = positions_[i + 1] - positions_[i];
    const double left = positions_[i - 1] - positions_[i];
    if ((d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0)) {
      const double sign = d >= 0 ? 1.0 : -1.0;
      const double hp = (heights_[i + 1] - heights_[i]) / right;
      const double hm = (heights_[i - 1] - heights_[i]) / left;
      const double candidate =
          heights_[i] + sign / (positions_[i + 1] - positions_[i - 1]) *
                            ((positions_[i] - positions_[i - 1] + sign) * hp +
                             (positions_[i + 1] - positions_[i] - sign) * hm);
      if (heights_[i - 1] < candidate && candidate < heights_[i + 1]) {
        heights_[i] = candidate;
      } else {
        // Linear fallback towards the neighbour in the move direction.
        const int j = d >= 0 ? i + 1 : i - 1;
        heights_[i] += sign * (heights_[j] - heights_[i]) /
                       (positions_[j] - positions_[i]);
      }
      positions_[i] += sign;
    }
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Exact small-sample quantile over the sorted prefix.
    double sorted[5];
    std::copy(heights_, heights_ + count_, sorted);
    std::sort(sorted, sorted + count_);
    const double pos = q_ * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, count_ - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }
  return heights_[2];
}

template <class Self, class Archive>
void P2Quantile::walk(Self& self, Archive& ck) {
  ck.field(self.q_);
  ck.field(self.count_);
  for (int i = 0; i < 5; ++i) {
    ck.field(self.heights_[i]);
    ck.field(self.positions_[i]);
    ck.field(self.desired_[i]);
    ck.field(self.increments_[i]);
  }
}

void P2Quantile::save(CheckpointWriter& ck) const { walk(*this, ck); }
void P2Quantile::load(CheckpointReader& ck) { walk(*this, ck); }

double student_t_975(std::size_t df) {
  // Two-sided 95% critical values; the batch counts the stopping rule
  // sees are small, so the exact low-df entries matter.
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return std::numeric_limits<double>::infinity();
  if (df <= std::size(kTable)) return kTable[df - 1];
  // Brackets quote the value at their *smallest* df (the largest t), so
  // the stopping rule stays conservative everywhere inside a bracket.
  if (df <= 40) return 2.040;   // t_{0.975,31}
  if (df <= 60) return 2.020;   // t_{0.975,41}
  if (df <= 120) return 2.000;  // t_{0.975,61}
  return 1.980;                 // t_{0.975,121}; limit is 1.960
}

}  // namespace dragonfly
