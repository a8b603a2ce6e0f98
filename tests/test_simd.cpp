// The SIMD shim's contract: every dispatched helper is bit-identical to
// its scalar reference, and the scalar reference is bit-identical to
// the Rng value semantics it batches. kernel_crosscheck enforces this
// end-to-end; this kit pins it at the primitive level so a backend bug
// fails here first, with a readable diff.
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "common/rng.hpp"

namespace dragonfly {
namespace {

TEST(BernoulliThreshold, MatchesDoubleComparisonExactly) {
  // uniform() < p  iff  (next() >> 11) < bernoulli_threshold(p): sweep
  // awkward probabilities over many draws and demand exact agreement.
  const double ps[] = {1e-9, 0.0312499999, 0.03125, 0.1,  0.25, 0.5,
                       0.625, 2.0 / 3.0,   0.9,     0.99, 1.0 - 1e-12};
  for (const double p : ps) {
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    Rng a(42), b(42);
    for (int i = 0; i < 4096; ++i) {
      const bool via_double = a.uniform() < p;
      const bool via_threshold = (b.next() >> 11) < t;
      ASSERT_EQ(via_double, via_threshold) << "p=" << p << " draw " << i;
    }
  }
}

TEST(RngView, MaterializeRoundTripIsExact) {
  std::uint64_t s[4];
  RngView view(&s[0], &s[1], &s[2], &s[3]);
  view.set_state(Rng(99).state());
  Rng plain(99);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(view.next(), plain.next());
    if (i % 10 == 0) {
      // Round-trip through a value Rng (the pattern call-site shape).
      Rng r = view.materialize();
      ASSERT_EQ(r.next(), plain.next());
      view.set_state(r.state());
    }
  }
}

/// One 64-lane SoA bank seeded like the Network seeds node lanes.
struct LaneBank {
  std::array<std::uint64_t, 64> s0, s1, s2, s3, threshold;
  explicit LaneBank(std::uint64_t seed, double p = 0.37) {
    Rng root(seed);
    for (int n = 0; n < 64; ++n) {
      const auto st = root.child(static_cast<std::uint64_t>(n)).state();
      s0[n] = st[0];
      s1[n] = st[1];
      s2[n] = st[2];
      s3[n] = st[3];
      threshold[n] = Rng::bernoulli_threshold(p);
    }
  }
};

TEST(SimdBernoulli, ScalarWordMatchesPerLaneRng) {
  LaneBank bank(7);
  LaneBank check(7);
  const std::uint64_t draw = 0xf0f0'1234'8001'ffffull;
  const std::uint64_t hits = simd::bernoulli_word_scalar(
      bank.s0.data(), bank.s1.data(), bank.s2.data(), bank.s3.data(),
      bank.threshold.data(), draw);
  for (int n = 0; n < 64; ++n) {
    if (((draw >> n) & 1) == 0) {
      // Untouched lanes: state must be exactly as seeded.
      ASSERT_EQ(bank.s0[n], check.s0[n]);
      ASSERT_EQ(bank.s3[n], check.s3[n]);
      continue;
    }
    Rng lane;
    lane.set_state({check.s0[n], check.s1[n], check.s2[n], check.s3[n]});
    ASSERT_EQ(((hits >> n) & 1) != 0, lane.bernoulli(0.37)) << "lane " << n;
    ASSERT_EQ(bank.s0[n], lane.state()[0]) << "lane " << n;
    ASSERT_EQ(bank.s1[n], lane.state()[1]) << "lane " << n;
    ASSERT_EQ(bank.s2[n], lane.state()[2]) << "lane " << n;
    ASSERT_EQ(bank.s3[n], lane.state()[3]) << "lane " << n;
  }
}

TEST(SimdBernoulli, DispatchedBackendMatchesScalar) {
  // Whatever backend() resolved to on this host (AVX2, SSE2 or scalar),
  // results and lane states must equal the scalar reference.
  for (const std::uint64_t draw :
       {~0ull, 0x1ull, 0x8000'0000'0000'0000ull, 0xdead'beef'cafe'f00dull,
        0x0000'ffff'0000'ffffull}) {
    LaneBank vec(11, 0.2), ref(11, 0.2);
    const std::uint64_t via_backend =
        simd::bernoulli_word(vec.s0.data(), vec.s1.data(), vec.s2.data(),
                             vec.s3.data(), vec.threshold.data(), draw);
    const std::uint64_t via_scalar = simd::bernoulli_word_scalar(
        ref.s0.data(), ref.s1.data(), ref.s2.data(), ref.s3.data(),
        ref.threshold.data(), draw);
    ASSERT_EQ(via_backend, via_scalar) << "draw " << draw;
    ASSERT_EQ(vec.s0, ref.s0);
    ASSERT_EQ(vec.s1, ref.s1);
    ASSERT_EQ(vec.s2, ref.s2);
    ASSERT_EQ(vec.s3, ref.s3);
  }
}

TEST(SimdMasks, DispatchedBytesMasksMatchScalar) {
  std::array<std::uint8_t, 64> bytes{};
  Rng rng(5);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(3));
  EXPECT_EQ(simd::nonzero_bytes_mask(bytes.data()),
            simd::nonzero_bytes_mask_scalar(bytes.data(), ~0ull));
  for (const std::uint8_t v : {0, 1, 2}) {
    EXPECT_EQ(simd::equal_bytes_mask(bytes.data(), v),
              simd::equal_bytes_mask_scalar(bytes.data(), v, ~0ull));
  }
#if DRAGONFLY_SIMD_X86
  // The SSE2 bodies are dispatched only where AVX2 is missing, so call
  // them directly too.
  EXPECT_EQ(simd::nonzero_bytes_mask_sse2(bytes.data()),
            simd::nonzero_bytes_mask_scalar(bytes.data(), ~0ull));
  for (const std::uint8_t v : {0, 1, 2}) {
    EXPECT_EQ(simd::equal_bytes_mask_sse2(bytes.data(), v),
              simd::equal_bytes_mask_scalar(bytes.data(), v, ~0ull));
  }
#endif
}

TEST(Rng, BernoulliEdgeProbabilitiesConsumeNoDraw) {
  // mode bytes 1 (never) and 2 (always) in NodeHot mirror these
  // short-circuits: p <= 0 and p >= 1 must not advance the stream.
  Rng a(3), b(3);
  EXPECT_FALSE(a.bernoulli(0.0));
  EXPECT_TRUE(a.bernoulli(1.0));
  EXPECT_FALSE(a.bernoulli(-0.5));
  EXPECT_EQ(a.next(), b.next());
}

}  // namespace
}  // namespace dragonfly
