#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/checkpoint.hpp"

namespace dragonfly {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.cov(), 0.0);
}

TEST(RunningStats, MatchesBruteForce) {
  const std::vector<double> xs{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  RunningStats s;
  for (double x : xs) s.add(x);
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
  EXPECT_NEAR(s.cov(), std::sqrt(var) / mean, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.sum(), 31.0, 1e-12);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0 + i;
    all.add(x);
    (i < 37 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(5.0);
  RunningStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  s.add(1.0);
  s.add(2.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Summarize, SingleValue) {
  const std::vector<double> xs{4.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.cov, 0.0);
  EXPECT_DOUBLE_EQ(s.max_over_min, 1.0);
  EXPECT_DOUBLE_EQ(s.jain, 1.0);
}

TEST(Summarize, Empty) {
  const Summary s = summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summarize, MaxOverMinHandlesZeroMin) {
  const std::vector<double> xs{0.0, 2.0};
  const Summary s = summarize(xs);
  EXPECT_TRUE(std::isinf(s.max_over_min));
}

TEST(Summarize, AllZeros) {
  const std::vector<double> xs{0.0, 0.0, 0.0};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.max_over_min, 0.0);
  EXPECT_DOUBLE_EQ(s.jain, 1.0);
}

TEST(Summarize, JainIndex) {
  // Perfectly fair: jain = 1.
  EXPECT_NEAR(summarize(std::vector<double>{3, 3, 3, 3}).jain, 1.0, 1e-12);
  // One user hogging everything of n: jain = 1/n.
  EXPECT_NEAR(summarize(std::vector<double>{8, 0, 0, 0}).jain, 0.25, 1e-12);
}

TEST(Summarize, CovMatchesPaperDefinition) {
  // CoV = sigma / mu with population sigma.
  const std::vector<double> xs{2.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_NEAR(s.cov, 1.0 / 3.0, 1e-12);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-5.0);   // clamps to first bin
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_low(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_high(9), 10.0);
}

TEST(Histogram, QuantileInterpolation) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.5);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a(0.0, 10.0, 10);
  Histogram b(0.0, 10.0, 10);
  a.add(1.0);
  b.add(1.0);
  b.add(9.0);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.bin_count(1), 2u);
  EXPECT_EQ(a.bin_count(9), 1u);
  Histogram c(0.0, 5.0, 10);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Histogram, QuantileOfEmpty) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(P2Quantile, ExactForSmallSamples) {
  P2Quantile p50(0.5);
  EXPECT_DOUBLE_EQ(p50.value(), 0.0);  // empty
  p50.add(7.0);
  EXPECT_DOUBLE_EQ(p50.value(), 7.0);
  p50.add(1.0);
  p50.add(3.0);
  EXPECT_DOUBLE_EQ(p50.value(), 3.0);  // exact median of {1,3,7}
}

TEST(P2Quantile, SmallSampleP999ClampsToEmpiricalQuantile) {
  // The p99.9 estimator on a nearly-empty measurement window (< 5
  // samples) must report the exact empirical quantile of the sorted
  // prefix — never an extrapolation past the observed maximum, and
  // never NaN.
  P2Quantile p999(0.999);
  EXPECT_DOUBLE_EQ(p999.value(), 0.0);  // zero-sample window
  p999.add(50.0);
  EXPECT_DOUBLE_EQ(p999.value(), 50.0);  // one sample: that sample
  p999.add(10.0);
  // Two samples {10, 50}: pos = 0.999, interpolate between them.
  EXPECT_DOUBLE_EQ(p999.value(), 10.0 + 0.999 * 40.0);
  p999.add(30.0);
  // Three samples {10, 30, 50}: pos = 1.998, between 30 and 50.
  EXPECT_DOUBLE_EQ(p999.value(), 30.0 + 0.998 * 20.0);
  p999.add(20.0);
  // Four samples {10, 20, 30, 50}: pos = 2.997, between 30 and 50.
  EXPECT_DOUBLE_EQ(p999.value(), 30.0 + 0.997 * 20.0);
  // Never above the observed maximum while in the exact regime.
  EXPECT_LE(p999.value(), 50.0);
}

TEST(P2Quantile, SmallSampleValueIsOrderInsensitive) {
  // The exact small-sample quantile sorts a copy: insertion order must
  // not matter, and value() must not perturb later adds.
  P2Quantile a(0.9), b(0.9);
  const double xs[] = {4.0, 1.0, 3.0, 2.0};
  for (int i = 0; i < 4; ++i) {
    a.add(xs[i]);
    (void)a.value();
    b.add(xs[3 - i]);
  }
  EXPECT_DOUBLE_EQ(a.value(), b.value());
  EXPECT_DOUBLE_EQ(a.value(), 1.0 + 0.9 * 3.0);  // pos = 2.7 in {1,2,3,4}
}

TEST(P2Quantile, TracksUniformDistributionQuantiles) {
  // Deterministic LCG stream over [0, 1000): p50 ~ 500, p99 ~ 990.
  P2Quantile p50(0.5);
  P2Quantile p99(0.99);
  std::uint64_t x = 12345;
  for (int i = 0; i < 200'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const double v = static_cast<double>(x >> 40) /
                     static_cast<double>(1ull << 24) * 1000.0;
    p50.add(v);
    p99.add(v);
  }
  EXPECT_NEAR(p50.value(), 500.0, 15.0);
  EXPECT_NEAR(p99.value(), 990.0, 15.0);
  EXPECT_EQ(p50.count(), 200'000u);
}

TEST(P2Quantile, MonotoneAcrossQuantiles) {
  P2Quantile p50(0.5);
  P2Quantile p99(0.99);
  for (int i = 0; i < 10'000; ++i) {
    const double v = static_cast<double>((i * 37) % 1000);
    p50.add(v);
    p99.add(v);
  }
  EXPECT_LT(p50.value(), p99.value());
}

TEST(P2Quantile, CheckpointRoundTripContinuesIdentically) {
  P2Quantile a(0.99);
  for (int i = 0; i < 1'000; ++i) a.add(static_cast<double>((i * 13) % 97));

  CheckpointWriter writer;
  a.save(writer);
  P2Quantile b(0.5);  // deliberately different: load overwrites q
  CheckpointReader reader(writer.bytes());
  b.load(reader);

  EXPECT_DOUBLE_EQ(a.value(), b.value());
  EXPECT_EQ(a.count(), b.count());
  for (int i = 0; i < 1'000; ++i) {
    const double v = static_cast<double>((i * 29) % 83);
    a.add(v);
    b.add(v);
  }
  EXPECT_DOUBLE_EQ(a.value(), b.value());
}

TEST(RunningStats, VarianceNeverNegativeUnderCancellation) {
  // Welford's m2 can drift to a tiny negative under catastrophic
  // cancellation (huge mean, tiny spread, many merges); stddev/cov must
  // come out 0, not NaN, since they feed CSV columns directly.
  RunningStats all;
  for (int part = 0; part < 64; ++part) {
    RunningStats chunk;
    for (int i = 0; i < 16; ++i) {
      chunk.add(1e16 + static_cast<double>((part * 16 + i) % 3) * 1e-3);
    }
    all.merge(chunk);
  }
  EXPECT_GE(all.variance(), 0.0);
  EXPECT_TRUE(std::isfinite(all.stddev()));
  EXPECT_TRUE(std::isfinite(all.cov()));
}

TEST(RunningStats, CheckpointRoundTrip) {
  RunningStats a;
  for (double v : {3.0, 1.0, 4.0, 1.0, 5.0}) a.add(v);
  CheckpointWriter writer;
  a.save(writer);
  RunningStats b;
  CheckpointReader reader(writer.bytes());
  b.load(reader);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  EXPECT_DOUBLE_EQ(a.variance(), b.variance());
  EXPECT_DOUBLE_EQ(a.min(), b.min());
  EXPECT_DOUBLE_EQ(a.max(), b.max());
}

TEST(StudentT, CriticalValues) {
  EXPECT_NEAR(student_t_975(1), 12.706, 1e-3);
  EXPECT_NEAR(student_t_975(4), 2.776, 1e-3);
  EXPECT_NEAR(student_t_975(9), 2.262, 1e-3);
  EXPECT_NEAR(student_t_975(30), 2.042, 1e-3);
  EXPECT_TRUE(std::isinf(student_t_975(0)));
  // Beyond the exact table the brackets must stay conservative: at
  // least the true critical value, within a bracket's width of it.
  EXPECT_GE(student_t_975(35), 2.030);   // true t(35) = 2.0301
  EXPECT_GE(student_t_975(1000), 1.962); // true t(1000) = 1.9623
  EXPECT_LE(student_t_975(1000), 1.981);
  // Monotone non-increasing towards the normal limit.
  for (std::size_t df = 1; df < 200; ++df) {
    EXPECT_GE(student_t_975(df), student_t_975(df + 1)) << df;
  }
}

}  // namespace
}  // namespace dragonfly
