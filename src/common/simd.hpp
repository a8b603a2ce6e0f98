// SIMD shim for the cycle kernel's batched phases.
//
// Every helper here is integer-only (xoshiro256** lane advances, byte
// predicates, i32 range checks), so the vector backends and the scalar
// reference produce identical bits — there is no floating-point
// contraction or reassociation to drift. The backend is resolved once
// at first use: AVX2 when the CPU has it (checked at runtime, never
// assumed from compile flags — the vector bodies carry their own
// `target` attributes so the rest of the simulator is still built for
// the baseline ISA), SSE2 otherwise on x86-64, NEON on aarch64, and a
// plain scalar loop everywhere else. Setting SIMSPEED_FORCE_SCALAR=1
// in the environment pins the scalar reference regardless of the CPU;
// CI re-runs the kernel cross-check and the conformance matrix under
// it to prove the vector paths change nothing. test_simd also calls
// the SSE2 bodies directly, since an AVX2 host never dispatches them.
// The NEON bodies are compiled and tested by no CI job (every runner is
// x86-64); only an aarch64 build of test_simd checks them.
//
// Concurrency contract: the `_scalar`-suffixed reference functions
// touch only the lanes named by their bit mask; the dispatched
// functions may load (and, for the RNG bank, mask-store) a whole
// 64-lane window, so callers hand them only windows that are fully
// in-bounds and not concurrently written by another shard. The
// sharded kernel routes boundary-straddling words through the scalar
// reference for exactly this reason (see Network::build_hit_masks).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "common/rng.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define DRAGONFLY_SIMD_X86 1
#elif defined(__aarch64__)
// Advanced SIMD is architectural on aarch64 (no runtime check needed);
// 32-bit ARM lacks the across-vector ops used below and takes scalar.
#include <arm_neon.h>
#define DRAGONFLY_SIMD_NEON 1
#endif

namespace dragonfly::simd {

/// SIMSPEED_FORCE_SCALAR=1 pins every dispatched helper to the scalar
/// reference implementation.
inline bool force_scalar() {
  static const bool forced = [] {
    const char* v = std::getenv("SIMSPEED_FORCE_SCALAR");
    return v != nullptr && v[0] == '1';
  }();
  return forced;
}

// --- scalar reference (also the shard-boundary path) ----------------------

/// Bit n of the result: bytes[n] != 0, for the lanes named in `lanes`
/// only (other bytes are not read).
inline std::uint64_t nonzero_bytes_mask_scalar(const std::uint8_t* bytes,
                                               std::uint64_t lanes) {
  std::uint64_t out = 0;
  while (lanes != 0) {
    const int b = std::countr_zero(lanes);
    lanes &= lanes - 1;
    if (bytes[b] != 0) out |= 1ull << b;
  }
  return out;
}

/// Bit n of the result: bytes[n] == value, for the lanes in `lanes`.
inline std::uint64_t equal_bytes_mask_scalar(const std::uint8_t* bytes,
                                             std::uint8_t value,
                                             std::uint64_t lanes) {
  std::uint64_t out = 0;
  while (lanes != 0) {
    const int b = std::countr_zero(lanes);
    lanes &= lanes - 1;
    if (bytes[b] == value) out |= 1ull << b;
  }
  return out;
}

/// Batched Bernoulli over one 64-lane window of a SoA xoshiro256**
/// bank: for each set bit n of `draw`, advance lane n by one step and
/// set bit n of the result iff (next() >> 11) < threshold[n] — the
/// integer form of `uniform() < p` (see Rng::bernoulli_threshold).
/// Lanes outside `draw` are neither read nor written.
inline std::uint64_t bernoulli_word_scalar(std::uint64_t* s0,
                                           std::uint64_t* s1,
                                           std::uint64_t* s2,
                                           std::uint64_t* s3,
                                           const std::uint64_t* threshold,
                                           std::uint64_t draw) {
  std::uint64_t hits = 0;
  while (draw != 0) {
    const int b = std::countr_zero(draw);
    draw &= draw - 1;
    const std::uint64_t r = xoshiro256ss_step(s0[b], s1[b], s2[b], s3[b]);
    if ((r >> 11) < threshold[b]) hits |= 1ull << b;
  }
  return hits;
}

/// Count of i in [0, n) with credits[i] < 0 or credits[i] > caps[i]
/// (the invariant sweep's credit-range check).
inline std::size_t credit_violations_scalar(const std::int32_t* credits,
                                            const std::int32_t* caps,
                                            std::size_t n) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bad += (credits[i] < 0 || credits[i] > caps[i]) ? 1u : 0u;
  }
  return bad;
}

/// Bit n of the result: v[n] > 0, over a full 64-lane i32 window (the
/// occupancy-vs-bitmask consistency sweep).
inline std::uint64_t positive_i32_mask_scalar(const std::int32_t* v) {
  std::uint64_t out = 0;
  for (int i = 0; i < 64; ++i) {
    if (v[i] > 0) out |= 1ull << i;
  }
  return out;
}

// --- x86 backends ---------------------------------------------------------

#if DRAGONFLY_SIMD_X86

__attribute__((target("avx2"))) inline std::uint64_t nonzero_bytes_mask_avx2(
    const std::uint8_t* bytes) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bytes));
  const __m256i hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bytes + 32));
  const auto mlo = static_cast<std::uint32_t>(
      ~_mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, zero)));
  const auto mhi = static_cast<std::uint32_t>(
      ~_mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, zero)));
  return mlo | (static_cast<std::uint64_t>(mhi) << 32);
}

__attribute__((target("avx2"))) inline std::uint64_t equal_bytes_mask_avx2(
    const std::uint8_t* bytes, std::uint8_t value) {
  const __m256i v = _mm256_set1_epi8(static_cast<char>(value));
  const __m256i lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bytes));
  const __m256i hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bytes + 32));
  const auto mlo =
      static_cast<std::uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, v)));
  const auto mhi =
      static_cast<std::uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, v)));
  return mlo | (static_cast<std::uint64_t>(mhi) << 32);
}

__attribute__((target("avx2"))) inline std::uint64_t bernoulli_word_avx2(
    std::uint64_t* s0, std::uint64_t* s1, std::uint64_t* s2, std::uint64_t* s3,
    const std::uint64_t* threshold, std::uint64_t draw) {
  std::uint64_t hits = 0;
  for (int g = 0; g < 16; ++g) {
    const unsigned nib = static_cast<unsigned>(draw >> (4 * g)) & 0xfu;
    if (nib == 0) continue;
    const int base = 4 * g;
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s0 + base));
    __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s1 + base));
    __m256i c = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s2 + base));
    __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s3 + base));
    // result = rotl(s1 * 5, 7) * 9; the multiplications decompose into
    // shift-adds, so the whole step is shifts/xors/adds — bit-exact
    // against xoshiro256ss_step.
    const __m256i b5 = _mm256_add_epi64(_mm256_slli_epi64(b, 2), b);
    const __m256i rot =
        _mm256_or_si256(_mm256_slli_epi64(b5, 7), _mm256_srli_epi64(b5, 57));
    const __m256i res = _mm256_add_epi64(_mm256_slli_epi64(rot, 3), rot);
    const __m256i t = _mm256_slli_epi64(b, 17);
    c = _mm256_xor_si256(c, a);
    d = _mm256_xor_si256(d, b);
    b = _mm256_xor_si256(b, c);
    a = _mm256_xor_si256(a, d);
    c = _mm256_xor_si256(c, t);
    d = _mm256_or_si256(_mm256_slli_epi64(d, 45), _mm256_srli_epi64(d, 19));
    if (nib == 0xfu) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(s0 + base), a);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(s1 + base), b);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(s2 + base), c);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(s3 + base), d);
    } else {
      // Write back only the drawn lanes: maskstore leaves the others'
      // memory untouched, so undrawn lanes keep their state.
      const __m256i sel = _mm256_set_epi64x(
          (nib & 8u) ? -1 : 0, (nib & 4u) ? -1 : 0, (nib & 2u) ? -1 : 0,
          (nib & 1u) ? -1 : 0);
      _mm256_maskstore_epi64(reinterpret_cast<long long*>(s0 + base), sel, a);
      _mm256_maskstore_epi64(reinterpret_cast<long long*>(s1 + base), sel, b);
      _mm256_maskstore_epi64(reinterpret_cast<long long*>(s2 + base), sel, c);
      _mm256_maskstore_epi64(reinterpret_cast<long long*>(s3 + base), sel, d);
    }
    // Hit test: both (res >> 11) and the threshold are < 2^53, so the
    // signed 64-bit compare is exact.
    const __m256i k = _mm256_srli_epi64(res, 11);
    const __m256i thr =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(threshold + base));
    const __m256i lt = _mm256_cmpgt_epi64(thr, k);
    const unsigned m =
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(lt))) &
        nib;
    hits |= static_cast<std::uint64_t>(m) << base;
  }
  return hits;
}

__attribute__((target("avx2"))) inline std::size_t credit_violations_avx2(
    const std::int32_t* credits, const std::int32_t* caps, std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t bad = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(credits + i));
    const __m256i m =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(caps + i));
    const __m256i viol = _mm256_or_si256(_mm256_cmpgt_epi32(zero, v),
                                         _mm256_cmpgt_epi32(v, m));
    bad += static_cast<std::size_t>(std::popcount(static_cast<std::uint32_t>(
               _mm256_movemask_ps(_mm256_castsi256_ps(viol)))));
  }
  return bad + credit_violations_scalar(credits + i, caps + i, n - i);
}

__attribute__((target("avx2"))) inline std::uint64_t positive_i32_mask_avx2(
    const std::int32_t* v) {
  const __m256i zero = _mm256_setzero_si256();
  std::uint64_t out = 0;
  for (int g = 0; g < 8; ++g) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + 8 * g));
    const std::uint32_t m = static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(x, zero))));
    out |= static_cast<std::uint64_t>(m) << (8 * g);
  }
  return out;
}

// SSE2 is baseline x86-64: no target attribute or runtime check needed.
// The RNG bank advance stays scalar here (2-lane 64-bit shift-add
// chains do not pay for the extract/insert traffic); the byte and i32
// predicates vectorize fine at 16 bytes / 4 lanes.

inline std::uint64_t nonzero_bytes_mask_sse2(const std::uint8_t* bytes) {
  const __m128i zero = _mm_setzero_si128();
  std::uint64_t out = 0;
  for (int g = 0; g < 4; ++g) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 16 * g));
    const auto m = static_cast<std::uint32_t>(
        ~_mm_movemask_epi8(_mm_cmpeq_epi8(x, zero)) & 0xffffu);
    out |= static_cast<std::uint64_t>(m) << (16 * g);
  }
  return out;
}

inline std::uint64_t equal_bytes_mask_sse2(const std::uint8_t* bytes,
                                           std::uint8_t value) {
  const __m128i v = _mm_set1_epi8(static_cast<char>(value));
  std::uint64_t out = 0;
  for (int g = 0; g < 4; ++g) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 16 * g));
    const auto m =
        static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(x, v)));
    out |= static_cast<std::uint64_t>(m) << (16 * g);
  }
  return out;
}

inline std::size_t credit_violations_sse2(const std::int32_t* credits,
                                          const std::int32_t* caps,
                                          std::size_t n) {
  const __m128i zero = _mm_setzero_si128();
  std::size_t bad = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(credits + i));
    const __m128i m =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(caps + i));
    const __m128i viol =
        _mm_or_si128(_mm_cmpgt_epi32(zero, v), _mm_cmpgt_epi32(v, m));
    bad += static_cast<std::size_t>(std::popcount(static_cast<std::uint32_t>(
        _mm_movemask_ps(_mm_castsi128_ps(viol)))));
  }
  return bad + credit_violations_scalar(credits + i, caps + i, n - i);
}

inline std::uint64_t positive_i32_mask_sse2(const std::int32_t* v) {
  const __m128i zero = _mm_setzero_si128();
  std::uint64_t out = 0;
  for (int g = 0; g < 16; ++g) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + 4 * g));
    const auto m = static_cast<std::uint32_t>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(x, zero))));
    out |= static_cast<std::uint64_t>(m) << (4 * g);
  }
  return out;
}

#endif  // DRAGONFLY_SIMD_X86

// --- NEON backend ---------------------------------------------------------

#if DRAGONFLY_SIMD_NEON

// aarch64 NEON: 2-lane u64 vectors for the RNG bank, 16-byte predicates
// with the shrn/4-bit-per-byte movemask idiom.

inline std::uint64_t neon_bytes_to_bits(uint8x16_t eq) {
  // Narrow each byte's top nibble into a 64-bit word: 4 bits per input
  // byte; keep bit 0 of each nibble.
  const uint8x8_t narrowed = vshrn_n_u16(vreinterpretq_u16_u8(eq), 4);
  const std::uint64_t packed = vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
  std::uint64_t out = 0;
  for (int i = 0; i < 16; ++i) {
    if ((packed >> (4 * i)) & 1u) out |= 1ull << i;
  }
  return out;
}

inline std::uint64_t nonzero_bytes_mask_neon(const std::uint8_t* bytes) {
  std::uint64_t out = 0;
  for (int g = 0; g < 4; ++g) {
    const uint8x16_t x = vld1q_u8(bytes + 16 * g);
    const uint8x16_t ne = vtstq_u8(x, x);  // 0xff where byte != 0
    out |= neon_bytes_to_bits(ne) << (16 * g);
  }
  return out;
}

inline std::uint64_t equal_bytes_mask_neon(const std::uint8_t* bytes,
                                           std::uint8_t value) {
  const uint8x16_t v = vdupq_n_u8(value);
  std::uint64_t out = 0;
  for (int g = 0; g < 4; ++g) {
    const uint8x16_t x = vld1q_u8(bytes + 16 * g);
    out |= neon_bytes_to_bits(vceqq_u8(x, v)) << (16 * g);
  }
  return out;
}

inline std::uint64_t bernoulli_word_neon(std::uint64_t* s0, std::uint64_t* s1,
                                         std::uint64_t* s2, std::uint64_t* s3,
                                         const std::uint64_t* threshold,
                                         std::uint64_t draw) {
  std::uint64_t hits = 0;
  for (int g = 0; g < 32; ++g) {
    const unsigned pair = static_cast<unsigned>(draw >> (2 * g)) & 0x3u;
    if (pair == 0) continue;
    const int base = 2 * g;
    if (pair != 0x3u) {
      // Lone lane: the scalar core, no shuffle traffic.
      const int b = base + ((pair & 1u) ? 0 : 1);
      const std::uint64_t r = xoshiro256ss_step(s0[b], s1[b], s2[b], s3[b]);
      if ((r >> 11) < threshold[b]) hits |= 1ull << b;
      continue;
    }
    uint64x2_t a = vld1q_u64(s0 + base);
    uint64x2_t b = vld1q_u64(s1 + base);
    uint64x2_t c = vld1q_u64(s2 + base);
    uint64x2_t d = vld1q_u64(s3 + base);
    const uint64x2_t b5 = vaddq_u64(vshlq_n_u64(b, 2), b);
    const uint64x2_t rot = vorrq_u64(vshlq_n_u64(b5, 7), vshrq_n_u64(b5, 57));
    const uint64x2_t res = vaddq_u64(vshlq_n_u64(rot, 3), rot);
    const uint64x2_t t = vshlq_n_u64(b, 17);
    c = veorq_u64(c, a);
    d = veorq_u64(d, b);
    b = veorq_u64(b, c);
    a = veorq_u64(a, d);
    c = veorq_u64(c, t);
    d = vorrq_u64(vshlq_n_u64(d, 45), vshrq_n_u64(d, 19));
    vst1q_u64(s0 + base, a);
    vst1q_u64(s1 + base, b);
    vst1q_u64(s2 + base, c);
    vst1q_u64(s3 + base, d);
    const uint64x2_t k = vshrq_n_u64(res, 11);
    const uint64x2_t thr = vld1q_u64(threshold + base);
    const uint64x2_t lt = vcltq_u64(k, thr);
    if (vgetq_lane_u64(lt, 0) != 0) hits |= 1ull << base;
    if (vgetq_lane_u64(lt, 1) != 0) hits |= 1ull << (base + 1);
  }
  return hits;
}

inline std::size_t credit_violations_neon(const std::int32_t* credits,
                                          const std::int32_t* caps,
                                          std::size_t n) {
  std::size_t bad = 0;
  std::size_t i = 0;
  const int32x4_t zero = vdupq_n_s32(0);
  for (; i + 4 <= n; i += 4) {
    const int32x4_t v = vld1q_s32(credits + i);
    const int32x4_t m = vld1q_s32(caps + i);
    const uint32x4_t viol = vorrq_u32(vcltq_s32(v, zero), vcgtq_s32(v, m));
    // Each violated lane contributes 1 (lanes are 0 or all-ones).
    bad += static_cast<std::size_t>(
        -vaddvq_s32(vreinterpretq_s32_u32(viol)));
  }
  return bad + credit_violations_scalar(credits + i, caps + i, n - i);
}

inline std::uint64_t positive_i32_mask_neon(const std::int32_t* v) {
  std::uint64_t out = 0;
  const int32x4_t zero = vdupq_n_s32(0);
  for (int g = 0; g < 16; ++g) {
    const uint32x4_t pos = vcgtq_s32(vld1q_s32(v + 4 * g), zero);
    for (int lane = 0; lane < 4; ++lane) {
      // Per-lane extraction needs a constant index.
      const std::uint32_t bit =
          lane == 0   ? vgetq_lane_u32(pos, 0)
          : lane == 1 ? vgetq_lane_u32(pos, 1)
          : lane == 2 ? vgetq_lane_u32(pos, 2)
                      : vgetq_lane_u32(pos, 3);
      if (bit != 0) out |= 1ull << (4 * g + lane);
    }
  }
  return out;
}

#endif  // DRAGONFLY_SIMD_NEON

// --- dispatch -------------------------------------------------------------

struct Backend {
  const char* name;
  std::uint64_t (*nonzero_bytes)(const std::uint8_t*);
  std::uint64_t (*equal_bytes)(const std::uint8_t*, std::uint8_t);
  std::uint64_t (*bernoulli_word)(std::uint64_t*, std::uint64_t*,
                                  std::uint64_t*, std::uint64_t*,
                                  const std::uint64_t*, std::uint64_t);
  std::size_t (*credit_violations)(const std::int32_t*, const std::int32_t*,
                                   std::size_t);
  std::uint64_t (*positive_i32)(const std::int32_t*);
};

namespace detail {

inline std::uint64_t nonzero_bytes_full(const std::uint8_t* bytes) {
  return nonzero_bytes_mask_scalar(bytes, ~0ull);
}
inline std::uint64_t equal_bytes_full(const std::uint8_t* bytes,
                                      std::uint8_t value) {
  return equal_bytes_mask_scalar(bytes, value, ~0ull);
}

inline Backend resolve() {
  if (!force_scalar()) {
#if DRAGONFLY_SIMD_X86
    if (__builtin_cpu_supports("avx2")) {
      return {"avx2",          nonzero_bytes_mask_avx2,
              equal_bytes_mask_avx2, bernoulli_word_avx2,
              credit_violations_avx2, positive_i32_mask_avx2};
    }
    return {"sse2",          nonzero_bytes_mask_sse2,
            equal_bytes_mask_sse2, bernoulli_word_scalar,
            credit_violations_sse2, positive_i32_mask_sse2};
#elif DRAGONFLY_SIMD_NEON
    return {"neon",          nonzero_bytes_mask_neon,
            equal_bytes_mask_neon, bernoulli_word_neon,
            credit_violations_neon, positive_i32_mask_neon};
#endif
  }
  return {"scalar",         nonzero_bytes_full,
          equal_bytes_full, bernoulli_word_scalar,
          credit_violations_scalar, positive_i32_mask_scalar};
}

}  // namespace detail

inline const Backend& backend() {
  static const Backend b = detail::resolve();
  return b;
}

/// Resolved backend name, for logs and tests.
inline const char* active_backend() { return backend().name; }

// Dispatched entry points. Whole-window contract: see the header
// comment — in-bounds, no concurrent writers.

inline std::uint64_t nonzero_bytes_mask(const std::uint8_t* bytes) {
  return backend().nonzero_bytes(bytes);
}
inline std::uint64_t equal_bytes_mask(const std::uint8_t* bytes,
                                      std::uint8_t value) {
  return backend().equal_bytes(bytes, value);
}
inline std::uint64_t bernoulli_word(std::uint64_t* s0, std::uint64_t* s1,
                                    std::uint64_t* s2, std::uint64_t* s3,
                                    const std::uint64_t* threshold,
                                    std::uint64_t draw) {
  return backend().bernoulli_word(s0, s1, s2, s3, threshold, draw);
}
inline std::size_t credit_violations(const std::int32_t* credits,
                                     const std::int32_t* caps, std::size_t n) {
  return backend().credit_violations(credits, caps, n);
}
inline std::uint64_t positive_i32_mask(const std::int32_t* v) {
  return backend().positive_i32(v);
}

}  // namespace dragonfly::simd
