// SIMD shim for the cycle kernel's batched phases.
//
// Three kernels (a nonzero-byte mask, an equal-byte mask and a batched
// xoshiro256** Bernoulli draw), every one integer-only, so the vector
// backends and the scalar reference produce identical bits — there is
// no floating-point contraction or reassociation to drift. The backend
// is resolved once at first use: AVX2 when the CPU has it (checked at
// runtime, never assumed from compile flags — the vector bodies carry
// their own `target` attributes so the rest of the simulator is still
// built for the baseline ISA), SSE2 otherwise on x86-64, and the plain
// scalar reference everywhere else (aarch64 included). Setting
// SIMSPEED_FORCE_SCALAR=1 in the environment pins the scalar reference
// regardless of the CPU; CI re-runs the `referee` ctest label (kernel
// cross-check, conformance matrix, goldens, checkpoint digests,
// test_simd) under it to prove the vector paths change nothing.
// test_simd also calls the SSE2 bodies directly, since an AVX2 host
// never dispatches them: every backend that can run is refereed.
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
#include <cstdint>
#include <cstdlib>

#include "common/rng.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define DRAGONFLY_SIMD_X86 1
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

// SSE2 is baseline x86-64: no target attribute or runtime check needed.
// The RNG bank advance stays scalar here (2-lane 64-bit shift-add
// chains do not pay for the extract/insert traffic); the byte
// predicates vectorize fine at 16 bytes a load.

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

#endif  // DRAGONFLY_SIMD_X86

// --- dispatch -------------------------------------------------------------

struct Backend {
  std::uint64_t (*nonzero_bytes)(const std::uint8_t*);
  std::uint64_t (*equal_bytes)(const std::uint8_t*, std::uint8_t);
  std::uint64_t (*bernoulli_word)(std::uint64_t*, std::uint64_t*,
                                  std::uint64_t*, std::uint64_t*,
                                  const std::uint64_t*, std::uint64_t);
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
#if DRAGONFLY_SIMD_X86
  if (!force_scalar()) {
    if (__builtin_cpu_supports("avx2")) {
      return {nonzero_bytes_mask_avx2, equal_bytes_mask_avx2,
              bernoulli_word_avx2};
    }
    return {nonzero_bytes_mask_sse2, equal_bytes_mask_sse2,
            bernoulli_word_scalar};
  }
#endif
  return {nonzero_bytes_full, equal_bytes_full, bernoulli_word_scalar};
}

}  // namespace detail

inline const Backend& backend() {
  static const Backend b = detail::resolve();
  return b;
}

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

}  // namespace dragonfly::simd
