// Portable width-templated SIMD layer for the hot kernels.
//
// `simd::pack<W>` is a W-wide single-precision vector with one native
// backend per ISA — SSE2 (W=4), AVX2 (W=8), AVX-512F (W=16), NEON (W=4 on
// AArch64) — and a scalar-array fallback for every width the build cannot
// map to hardware. `load_tr`/`store_tr` are the VPIC-style register
// transposes (load_4x4_tr / store_4x4_tr and friends in the original SPE
// kernels): they move N columns of W rows between memory and N packs, which
// is how the particle advance turns the 32-byte AoS particle and the
// 80-byte interpolator of each particle's cell into SoA registers.
//
// Determinism contract (docs/ARCHITECTURE.md): every operation here rounds
// exactly like its scalar counterpart — add/sub/mul/div/sqrt are the IEEE
// correctly-rounded instructions on every backend, there is deliberately NO
// fused-multiply-add, and negation flips the sign bit. A kernel written as
// the same operation sequence as its scalar reference therefore produces
// bit-identical lanes. Keep it that way: do not add rsqrt/rcp
// approximations or fma here without a new contract.
//
// ODR discipline: this header is compiled into translation units built with
// different -m flags (see particles/CMakeLists.txt). Everything lives in an
// arch-keyed inline namespace so that, e.g., the AVX2 TU's pack<8> and a
// baseline TU's fallback pack<8> are *different types* with different
// mangled names — never a silent ODR merge of incompatible codegen.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__) || defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#endif

// Highest ISA the current TU is compiled for; also names the inline
// namespace. One TU = one arch; runtime dispatch picks between TUs, never
// within one.
#if defined(__AVX512F__)
#define MV_SIMD_ARCH_NS arch_avx512
#elif defined(__AVX2__)
#define MV_SIMD_ARCH_NS arch_avx2
#elif defined(__SSE2__)
#define MV_SIMD_ARCH_NS arch_sse
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define MV_SIMD_ARCH_NS arch_neon
#else
#define MV_SIMD_ARCH_NS arch_scalar
#endif

namespace minivpic::simd {
inline namespace MV_SIMD_ARCH_NS {

// -- generic scalar-array fallback (any W) ----------------------------------

/// W-wide float vector. The primary template is the portable fallback: a
/// plain array the compiler may or may not auto-vectorize, semantically
/// identical to the native specializations lane for lane.
template <int W>
struct pack {
  float v[W];
  static constexpr int width = W;

  static pack load(const float* p) { return loadu(p); }
  static pack loadu(const float* p) {
    pack r;
    std::memcpy(r.v, p, sizeof r.v);
    return r;
  }
  static pack broadcast(float x) {
    pack r;
    for (int i = 0; i < W; ++i) r.v[i] = x;
    return r;
  }
  static pack zero() { return broadcast(0.0f); }
  void store(float* p) const { storeu(p); }
  void storeu(float* p) const { std::memcpy(p, v, sizeof v); }
  float lane(int i) const { return v[i]; }

  pack operator+(pack b) const {
    pack r;
    for (int i = 0; i < W; ++i) r.v[i] = v[i] + b.v[i];
    return r;
  }
  pack operator-(pack b) const {
    pack r;
    for (int i = 0; i < W; ++i) r.v[i] = v[i] - b.v[i];
    return r;
  }
  pack operator*(pack b) const {
    pack r;
    for (int i = 0; i < W; ++i) r.v[i] = v[i] * b.v[i];
    return r;
  }
  pack operator/(pack b) const {
    pack r;
    for (int i = 0; i < W; ++i) r.v[i] = v[i] / b.v[i];
    return r;
  }
  pack operator-() const {
    pack r;
    for (int i = 0; i < W; ++i) r.v[i] = -v[i];
    return r;
  }
};

/// Lane mask produced by comparisons. bits() packs lane i into bit i.
template <int W>
struct mask {
  std::uint32_t b;
  unsigned bits() const { return b; }
  mask operator&(mask o) const { return {b & o.b}; }
};

template <int W>
inline pack<W> sqrt(pack<W> a) {
  pack<W> r;
  for (int i = 0; i < W; ++i) r.v[i] = std::sqrt(a.v[i]);
  return r;
}

template <int W>
inline mask<W> cmp_le(pack<W> a, pack<W> b) {
  std::uint32_t m = 0;
  for (int i = 0; i < W; ++i) m |= std::uint32_t(a.v[i] <= b.v[i]) << i;
  return {m};
}

/// a where the mask lane is set, b elsewhere.
template <int W>
inline pack<W> select(mask<W> m, pack<W> a, pack<W> b) {
  pack<W> r;
  for (int i = 0; i < W; ++i) r.v[i] = (m.b >> i & 1u) ? a.v[i] : b.v[i];
  return r;
}

/// Rounds each lane to the nearest int32, ties to even (the default IEEE
/// rounding mode, as cvtps2dq and fcvtns round), into out[0, W). Every lane
/// must be finite and inside int32 range: out-of-range conversion is
/// undefined behaviour in C++, so the caller guards.
template <int W>
inline void store_round_i32(pack<W> a, std::int32_t* out) {
  for (int i = 0; i < W; ++i) out[i] = std::int32_t(std::nearbyint(a.v[i]));
}

/// Full lane mask for width W (bits() of an all-true compare).
template <int W>
constexpr unsigned all_lanes() {
  return (W >= 32) ? ~0u : ((1u << W) - 1u);
}

// -- transposed loads/stores (the VPIC load_WxN_tr family) ------------------

/// Transposed load: out[c].lane(w) = base[off[w] + c] for c in [0, n).
/// Row w must have at least n readable floats at base + off[w]. The generic
/// path goes through per-lane memcpy (bit-preserving — safe for the int32
/// voxel column of a Particle); native widths override with register
/// transposes below (the 8-wide load with hardware gathers).
template <int W>
inline void load_tr(const float* base, const std::int32_t* off, int n,
                    pack<W>* out) {
  float t[W];
  for (int c = 0; c < n; ++c) {
    for (int w = 0; w < W; ++w)
      std::memcpy(&t[w], base + off[w] + c, sizeof(float));
    out[c] = pack<W>::loadu(t);
  }
}

/// Transposed store: base[off[w] + c] = in[c].lane(w) for c in [0, n).
template <int W>
inline void store_tr(const pack<W>* in, int n, float* base,
                     const std::int32_t* off) {
  float t[W];
  for (int c = 0; c < n; ++c) {
    in[c].storeu(t);
    for (int w = 0; w < W; ++w)
      std::memcpy(base + off[w] + c, &t[w], sizeof(float));
  }
}

// -- SSE2: native pack<4> ---------------------------------------------------

#if defined(__SSE2__)

template <>
struct pack<4> {
  __m128 v;
  static constexpr int width = 4;

  static pack load(const float* p) { return {_mm_load_ps(p)}; }
  static pack loadu(const float* p) { return {_mm_loadu_ps(p)}; }
  static pack broadcast(float x) { return {_mm_set1_ps(x)}; }
  static pack zero() { return {_mm_setzero_ps()}; }
  void store(float* p) const { _mm_store_ps(p, v); }
  void storeu(float* p) const { _mm_storeu_ps(p, v); }
  float lane(int i) const {
    alignas(16) float t[4];
    store(t);
    return t[i];
  }

  pack operator+(pack b) const { return {_mm_add_ps(v, b.v)}; }
  pack operator-(pack b) const { return {_mm_sub_ps(v, b.v)}; }
  pack operator*(pack b) const { return {_mm_mul_ps(v, b.v)}; }
  pack operator/(pack b) const { return {_mm_div_ps(v, b.v)}; }
  pack operator-() const {
    return {_mm_xor_ps(v, _mm_set1_ps(-0.0f))};  // flip sign bit, like FNEG
  }
};

template <>
struct mask<4> {
  __m128 v;
  unsigned bits() const { return unsigned(_mm_movemask_ps(v)); }
  mask operator&(mask o) const { return {_mm_and_ps(v, o.v)}; }
};

inline pack<4> sqrt(pack<4> a) { return {_mm_sqrt_ps(a.v)}; }

inline mask<4> cmp_le(pack<4> a, pack<4> b) {
  return {_mm_cmple_ps(a.v, b.v)};
}

inline pack<4> select(mask<4> m, pack<4> a, pack<4> b) {
  return {_mm_or_ps(_mm_and_ps(m.v, a.v), _mm_andnot_ps(m.v, b.v))};
}

inline void store_round_i32(pack<4> a, std::int32_t* out) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), _mm_cvtps_epi32(a.v));
}

/// 4-row transpose in 4-column blocks (VPIC's load_4x4_tr). The block path
/// reads exactly cols [c, c+4) of each row, so rows only need n readable
/// floats; callers with padded rows (e.g. the 20-float Interpolator stride)
/// can pass the padded column count and keep every load a full block.
template <>
inline void load_tr<4>(const float* base, const std::int32_t* off, int n,
                       pack<4>* out) {
  int c = 0;
  for (; c + 4 <= n; c += 4) {
    __m128 r0 = _mm_loadu_ps(base + off[0] + c);
    __m128 r1 = _mm_loadu_ps(base + off[1] + c);
    __m128 r2 = _mm_loadu_ps(base + off[2] + c);
    __m128 r3 = _mm_loadu_ps(base + off[3] + c);
    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
    out[c].v = r0;
    out[c + 1].v = r1;
    out[c + 2].v = r2;
    out[c + 3].v = r3;
  }
  // Tail: the block loop leaves at most 3 columns (n & 3). Writing the
  // bound that way lets the compiler prove the loop never overruns.
  for (int r = 0; r < (n & 3); ++r, ++c) {
    float t[4];
    for (int w = 0; w < 4; ++w)
      std::memcpy(&t[w], base + off[w] + c, sizeof(float));
    out[c] = pack<4>::loadu(t);
  }
}

template <>
inline void store_tr<4>(const pack<4>* in, int n, float* base,
                        const std::int32_t* off) {
  int c = 0;
  for (; c + 4 <= n; c += 4) {
    __m128 r0 = in[c].v;
    __m128 r1 = in[c + 1].v;
    __m128 r2 = in[c + 2].v;
    __m128 r3 = in[c + 3].v;
    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
    _mm_storeu_ps(base + off[0] + c, r0);
    _mm_storeu_ps(base + off[1] + c, r1);
    _mm_storeu_ps(base + off[2] + c, r2);
    _mm_storeu_ps(base + off[3] + c, r3);
  }
  for (int r = 0; r < (n & 3); ++r, ++c) {
    float t[4];
    in[c].storeu(t);
    for (int w = 0; w < 4; ++w)
      std::memcpy(base + off[w] + c, &t[w], sizeof(float));
  }
}

#endif  // __SSE2__

// -- NEON (AArch64): native pack<4> -----------------------------------------

#if !defined(__SSE2__) && defined(__aarch64__) && defined(__ARM_NEON)

template <>
struct pack<4> {
  float32x4_t v;
  static constexpr int width = 4;

  static pack load(const float* p) { return {vld1q_f32(p)}; }
  static pack loadu(const float* p) { return {vld1q_f32(p)}; }
  static pack broadcast(float x) { return {vdupq_n_f32(x)}; }
  static pack zero() { return {vdupq_n_f32(0.0f)}; }
  void store(float* p) const { vst1q_f32(p, v); }
  void storeu(float* p) const { vst1q_f32(p, v); }
  float lane(int i) const {
    float t[4];
    storeu(t);
    return t[i];
  }

  pack operator+(pack b) const { return {vaddq_f32(v, b.v)}; }
  pack operator-(pack b) const { return {vsubq_f32(v, b.v)}; }
  pack operator*(pack b) const { return {vmulq_f32(v, b.v)}; }
  pack operator/(pack b) const { return {vdivq_f32(v, b.v)}; }
  pack operator-() const { return {vnegq_f32(v)}; }
};

template <>
struct mask<4> {
  uint32x4_t v;
  unsigned bits() const {
    const uint32x4_t powers = {1u, 2u, 4u, 8u};
    return vaddvq_u32(vandq_u32(v, powers));
  }
  mask operator&(mask o) const { return {vandq_u32(v, o.v)}; }
};

inline pack<4> sqrt(pack<4> a) { return {vsqrtq_f32(a.v)}; }

inline mask<4> cmp_le(pack<4> a, pack<4> b) { return {vcleq_f32(a.v, b.v)}; }

inline pack<4> select(mask<4> m, pack<4> a, pack<4> b) {
  return {vbslq_f32(m.v, a.v, b.v)};
}

inline void store_round_i32(pack<4> a, std::int32_t* out) {
  vst1q_s32(out, vcvtnq_s32_f32(a.v));
}

#endif  // NEON

// -- AVX2: native pack<8> ---------------------------------------------------

#if defined(__AVX2__)

template <>
struct pack<8> {
  __m256 v;
  static constexpr int width = 8;

  static pack load(const float* p) { return {_mm256_load_ps(p)}; }
  static pack loadu(const float* p) { return {_mm256_loadu_ps(p)}; }
  static pack broadcast(float x) { return {_mm256_set1_ps(x)}; }
  static pack zero() { return {_mm256_setzero_ps()}; }
  void store(float* p) const { _mm256_store_ps(p, v); }
  void storeu(float* p) const { _mm256_storeu_ps(p, v); }
  float lane(int i) const {
    alignas(32) float t[8];
    store(t);
    return t[i];
  }

  pack operator+(pack b) const { return {_mm256_add_ps(v, b.v)}; }
  pack operator-(pack b) const { return {_mm256_sub_ps(v, b.v)}; }
  pack operator*(pack b) const { return {_mm256_mul_ps(v, b.v)}; }
  pack operator/(pack b) const { return {_mm256_div_ps(v, b.v)}; }
  pack operator-() const {
    return {_mm256_xor_ps(v, _mm256_set1_ps(-0.0f))};
  }
};

template <>
struct mask<8> {
  __m256 v;
  unsigned bits() const { return unsigned(_mm256_movemask_ps(v)); }
  mask operator&(mask o) const { return {_mm256_and_ps(v, o.v)}; }
};

inline pack<8> sqrt(pack<8> a) { return {_mm256_sqrt_ps(a.v)}; }

inline mask<8> cmp_le(pack<8> a, pack<8> b) {
  return {_mm256_cmp_ps(a.v, b.v, _CMP_LE_OQ)};
}

inline pack<8> select(mask<8> m, pack<8> a, pack<8> b) {
  return {_mm256_blendv_ps(b.v, a.v, m.v)};
}

/// In-register 8x8 transpose (unpack/shuffle/permute ladder).
inline void transpose8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

/// 8-row transposed load via hardware gathers: one gather per column reads
/// exactly the 8 lane floats, so rows never over-read past n columns.
template <>
inline void load_tr<8>(const float* base, const std::int32_t* off, int n,
                       pack<8>* out) {
  const __m256i offv =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(off));
  for (int c = 0; c < n; ++c) {
    const __m256i idx = _mm256_add_epi32(offv, _mm256_set1_epi32(c));
    out[c].v = _mm256_i32gather_ps(base, idx, 4);
  }
}

/// 8-row transposed store: register 8x8 transpose + row stores for full
/// blocks (AVX2 has gathers but no scatters), per-lane tail otherwise.
/// Full blocks write cols [c, c+8) of each row, within the n columns.
template <>
inline void store_tr<8>(const pack<8>* in, int n, float* base,
                        const std::int32_t* off) {
  int c = 0;
  for (; c + 8 <= n; c += 8) {
    __m256 r[8];
    for (int i = 0; i < 8; ++i) r[i] = in[c + i].v;
    transpose8(r);
    for (int w = 0; w < 8; ++w) _mm256_storeu_ps(base + off[w] + c, r[w]);
  }
  for (int r = 0; r < (n & 7); ++r, ++c) {
    float t[8];
    in[c].storeu(t);
    for (int w = 0; w < 8; ++w)
      std::memcpy(base + off[w] + c, &t[w], sizeof(float));
  }
}

#endif  // __AVX2__

// -- AVX-512F: native pack<16> ----------------------------------------------

#if defined(__AVX512F__)

template <>
struct pack<16> {
  __m512 v;
  static constexpr int width = 16;

  static pack load(const float* p) { return {_mm512_load_ps(p)}; }
  static pack loadu(const float* p) { return {_mm512_loadu_ps(p)}; }
  static pack broadcast(float x) { return {_mm512_set1_ps(x)}; }
  static pack zero() { return {_mm512_setzero_ps()}; }
  void store(float* p) const { _mm512_store_ps(p, v); }
  void storeu(float* p) const { _mm512_storeu_ps(p, v); }
  float lane(int i) const {
    alignas(64) float t[16];
    store(t);
    return t[i];
  }

  pack operator+(pack b) const { return {_mm512_add_ps(v, b.v)}; }
  pack operator-(pack b) const { return {_mm512_sub_ps(v, b.v)}; }
  pack operator*(pack b) const { return {_mm512_mul_ps(v, b.v)}; }
  pack operator/(pack b) const { return {_mm512_div_ps(v, b.v)}; }
  pack operator-() const {
    // _mm512_xor_ps needs AVX512DQ; the integer xor is plain AVX512F.
    return {_mm512_castsi512_ps(_mm512_xor_epi32(
        _mm512_castps_si512(v), _mm512_set1_epi32(0x80000000)))};
  }
};

template <>
struct mask<16> {
  __mmask16 v;
  unsigned bits() const { return unsigned(v); }
  mask operator&(mask o) const {
    return {static_cast<__mmask16>(v & o.v)};
  }
};

inline pack<16> sqrt(pack<16> a) { return {_mm512_sqrt_ps(a.v)}; }

inline mask<16> cmp_le(pack<16> a, pack<16> b) {
  return {_mm512_cmp_ps_mask(a.v, b.v, _CMP_LE_OQ)};
}

inline pack<16> select(mask<16> m, pack<16> a, pack<16> b) {
  return {_mm512_mask_blend_ps(m.v, b.v, a.v)};  // blend picks a where set
}

// 16-row transposes, one per shape the particle advance uses. Rows are read
// and written with plain vector loads and stores of exactly a block's
// columns and transposed in registers, so a row needs only the columns
// asked for, and no scatter is ever issued. -mavx512f implies AVX2, so the
// 8x8 ladder above is available here. The helpers are forced inline: GCC
// otherwise keeps the 16x16 block out of line, and its 16 columns then
// travel back to the kernel through memory.

/// Lanes 0-7 from lo, lanes 8-15 from hi. AVX-512F has no 256-bit float
/// insert; the 64-bit one moves the same bits.
[[gnu::always_inline]] inline __m512 join8(__m256 lo, __m256 hi) {
  return _mm512_castpd_ps(_mm512_insertf64x4(
      _mm512_castps_pd(_mm512_castps256_ps512(lo)), _mm256_castps_pd(hi), 1));
}

/// Lanes 8-15 of v.
[[gnu::always_inline]] inline __m256 high8(__m512 v) {
  return _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
}

/// 16 rows x 16 columns (the interpolator's first 16 coefficients): one
/// 64-byte load per row, an unpack/shuffle ladder that transposes each
/// 128-bit lane, then a 4x4 transpose of the 128-bit blocks.
[[gnu::always_inline]] inline void load_16x16_tr(const float* base,
                                                 const std::int32_t* off,
                                                 pack<16>* out) {
  __m512 t[16], u[16];
  for (int w = 0; w < 16; w += 2) {
    const __m512 a = _mm512_loadu_ps(base + off[w]);
    const __m512 b = _mm512_loadu_ps(base + off[w + 1]);
    t[w] = _mm512_unpacklo_ps(a, b);
    t[w + 1] = _mm512_unpackhi_ps(a, b);
  }
  // Lane L of u[4g + j] holds column 4L + j of rows 4g .. 4g + 3.
  for (int g = 0; g < 16; g += 4) {
    u[g] = _mm512_shuffle_ps(t[g], t[g + 2], _MM_SHUFFLE(1, 0, 1, 0));
    u[g + 1] = _mm512_shuffle_ps(t[g], t[g + 2], _MM_SHUFFLE(3, 2, 3, 2));
    u[g + 2] = _mm512_shuffle_ps(t[g + 1], t[g + 3], _MM_SHUFFLE(1, 0, 1, 0));
    u[g + 3] = _mm512_shuffle_ps(t[g + 1], t[g + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  // Column 4L + j is lane L of u[j], u[4 + j], u[8 + j] and u[12 + j].
  for (int j = 0; j < 4; ++j) {
    const __m512 v0 =
        _mm512_shuffle_f32x4(u[j], u[4 + j], _MM_SHUFFLE(1, 0, 1, 0));
    const __m512 v1 =
        _mm512_shuffle_f32x4(u[j], u[4 + j], _MM_SHUFFLE(3, 2, 3, 2));
    const __m512 v2 =
        _mm512_shuffle_f32x4(u[8 + j], u[12 + j], _MM_SHUFFLE(1, 0, 1, 0));
    const __m512 v3 =
        _mm512_shuffle_f32x4(u[8 + j], u[12 + j], _MM_SHUFFLE(3, 2, 3, 2));
    out[j].v = _mm512_shuffle_f32x4(v0, v2, _MM_SHUFFLE(2, 0, 2, 0));
    out[4 + j].v = _mm512_shuffle_f32x4(v0, v2, _MM_SHUFFLE(3, 1, 3, 1));
    out[8 + j].v = _mm512_shuffle_f32x4(v1, v3, _MM_SHUFFLE(2, 0, 2, 0));
    out[12 + j].v = _mm512_shuffle_f32x4(v1, v3, _MM_SHUFFLE(3, 1, 3, 1));
  }
}

/// 16 rows x 8 columns (the particle): one 32-byte load per row, an 8x8
/// ladder for each half of the rows, the halves joined lane-wise.
[[gnu::always_inline]] inline void load_16x8_tr(const float* base,
                                                const std::int32_t* off,
                                                pack<16>* out) {
  __m256 lo[8], hi[8];
  for (int w = 0; w < 8; ++w) {
    lo[w] = _mm256_loadu_ps(base + off[w]);
    hi[w] = _mm256_loadu_ps(base + off[w + 8]);
  }
  transpose8(lo);
  transpose8(hi);
  for (int c = 0; c < 8; ++c) out[c].v = join8(lo[c], hi[c]);
}

/// Inverse of load_16x8_tr: one 32-byte store per row.
[[gnu::always_inline]] inline void store_16x8_tr(const pack<16>* in,
                                                 float* base,
                                                 const std::int32_t* off) {
  __m256 lo[8], hi[8];
  for (int c = 0; c < 8; ++c) {
    lo[c] = _mm512_castps512_ps256(in[c].v);
    hi[c] = high8(in[c].v);
  }
  transpose8(lo);
  transpose8(hi);
  for (int w = 0; w < 8; ++w) {
    _mm256_storeu_ps(base + off[w], lo[w]);
    _mm256_storeu_ps(base + off[w + 8], hi[w]);
  }
}

/// 16 rows x 4 columns (one jx/jy/jz group of the deposit's addends): a
/// 4x4 transpose inside each 128-bit lane puts row 4L + i in lane L of
/// r[i], then one 16-byte store per row.
[[gnu::always_inline]] inline void store_16x4_tr(const pack<16>* in,
                                                 float* base,
                                                 const std::int32_t* off) {
  const __m512 t0 = _mm512_unpacklo_ps(in[0].v, in[1].v);
  const __m512 t1 = _mm512_unpackhi_ps(in[0].v, in[1].v);
  const __m512 t2 = _mm512_unpacklo_ps(in[2].v, in[3].v);
  const __m512 t3 = _mm512_unpackhi_ps(in[2].v, in[3].v);
  const __m512 r[4] = {
      _mm512_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0)),
      _mm512_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2)),
      _mm512_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0)),
      _mm512_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2)),
  };
  for (int i = 0; i < 4; ++i) {
    _mm_storeu_ps(base + off[i], _mm512_castps512_ps128(r[i]));
    _mm_storeu_ps(base + off[4 + i], _mm512_extractf32x4_ps(r[i], 1));
    _mm_storeu_ps(base + off[8 + i], _mm512_extractf32x4_ps(r[i], 2));
    _mm_storeu_ps(base + off[12 + i], _mm512_extractf32x4_ps(r[i], 3));
  }
}

/// 16-row transposed load in 16- then 8-column blocks, then one hardware
/// gather per leftover column (n & 7 of them): none for the particle, two
/// (cbz, dcbzdz) for the interpolator's 18.
template <>
[[gnu::always_inline]] inline void load_tr<16>(const float* base,
                                               const std::int32_t* off, int n,
                                               pack<16>* out) {
  int c = 0;
  for (; c + 16 <= n; c += 16) load_16x16_tr(base + c, off, out + c);
  for (; c + 8 <= n; c += 8) load_16x8_tr(base + c, off, out + c);
  const __m512i offv =
      _mm512_loadu_si512(reinterpret_cast<const void*>(off));
  for (int r = 0; r < (n & 7); ++r, ++c) {
    const __m512i idx = _mm512_add_epi32(offv, _mm512_set1_epi32(c));
    out[c].v = _mm512_i32gather_ps(idx, base, 4);
  }
}

/// 16-row transposed store: the particle's 8 columns through the 16x8
/// ladder; any other count in 4-column blocks (the deposit's 12 addends
/// take three) and a per-lane tail of n & 3 columns.
template <>
[[gnu::always_inline]] inline void store_tr<16>(const pack<16>* in, int n,
                                                float* base,
                                                const std::int32_t* off) {
  if (n == 8) {
    store_16x8_tr(in, base, off);
    return;
  }
  int c = 0;
  for (; c + 4 <= n; c += 4) store_16x4_tr(in + c, base + c, off);
  for (int r = 0; r < (n & 3); ++r, ++c) {
    float t[16];
    in[c].storeu(t);
    for (int w = 0; w < 16; ++w)
      std::memcpy(base + off[w] + c, &t[w], sizeof(float));
  }
}

#endif  // __AVX512F__

}  // inline namespace MV_SIMD_ARCH_NS
}  // namespace minivpic::simd
