// The width-templated Box–Muller batch of the particle loader.
//
// Included ONLY by the per-ISA translation units (loader_simd*.cpp), each of
// which instantiates its widths inside util/simd.hpp's arch inline
// namespace — never include this from ordinary code; use loader_simd.hpp.
//
// Lanes are GCC/Clang vector extensions, so one source serves every width:
// the compiler maps a W-lane vector onto the TU's ISA (one SSE2 register,
// one AVX register) and splits what it cannot.
// Only sqrt is spelled per ISA. The TUs are built with -ffp-contract=off,
// so every operation rounds once, as the error bounds in loader.hpp assume.
//
// Per lane:
//   log(u1): u1 = 2^k z with z in [sqrt(1/2), sqrt(2)) by integer
//     arithmetic on the bits; log z = 2 atanh(s), s = (z - 1)/(z + 1),
//     |s| <= 0.1716, as 2s + 2s w Q(w), w = s^2, Q the first ten atanh
//     terms; k ln2 in two parts (ln2_hi has 21 trailing zero bits, so
//     k ln2_hi is exact).
//   cos(2 pi u2): t = 4 u2 is exact, k = nearest integer to t (the 1.5 2^52
//     trick, so no float-to-int conversion), r = t - k in [-1/2, 1/2] is
//     exact, theta = r pi/2 has |theta| <= pi/4, and cos(2 pi u2) =
//     cos(theta + k pi/2) is +-cos or +-sin of theta, picked per lane by
//     the low bits of k with masks, not branches. cos and sin of theta are
//     their Taylor series to theta^16 and theta^17.
//   guard: the lane's double r, its band b and float(r - b) == float(r + b).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "particles/loader_simd.hpp"
#include "util/simd.hpp"

namespace minivpic::particles {
inline namespace MV_SIMD_ARCH_NS {

template <int W>
struct Lanes {
  typedef double d __attribute__((vector_size(8 * W)));
  typedef std::uint64_t u __attribute__((vector_size(8 * W)));
  typedef float f __attribute__((vector_size(4 * W)));
};

/// Band of the guard, relative to |drift| + uth s (loader.hpp derives it),
/// and its floor, which sends anything too close to the float subnormals
/// to the scalar reference.
inline constexpr double kNormalBand = 0x1p-40;
inline constexpr double kNormalBandFloor = 0x1p-126;

/// atanh(s)/s - 1 = w (1/3 + w/5 + ... + w^9/21), w = s^2.
inline constexpr double kAtanh[] = {
    1.0 / 3,  1.0 / 5,  1.0 / 7,  1.0 / 9,  1.0 / 11,
    1.0 / 13, 1.0 / 15, 1.0 / 17, 1.0 / 19, 1.0 / 21};
/// cos(theta) = 1 + z (c0 + z (c1 + ...)), z = theta^2: (-1)^(j+1)/(2j+2)!.
inline constexpr double kCos[] = {
    -1.0 / 2,          1.0 / 24,          -1.0 / 720,
    1.0 / 40320,       -1.0 / 3628800,    1.0 / 479001600,
    -1.0 / 87178291200, 1.0 / 20922789888000};
/// sin(theta) = theta + theta z (s0 + z (s1 + ...)): (-1)^(j+1)/(2j+3)!.
inline constexpr double kSin[] = {
    -1.0 / 6,            1.0 / 120,           -1.0 / 5040,
    1.0 / 362880,        -1.0 / 39916800,     1.0 / 6227020800,
    -1.0 / 1307674368000, 1.0 / 355687428096000};
inline constexpr double kLn2Hi = 0x1.62e42feep-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kHalfPi = 0x1.921fb54442d18p0;

template <class V, std::size_t N>
[[gnu::always_inline]] inline V horner(V x, const double (&c)[N]) {
  V r = V{} + c[N - 1];
  for (std::size_t j = N - 1; j-- > 0;) r = r * x + c[j];
  return r;
}

template <int W>
[[gnu::always_inline]] inline typename Lanes<W>::d lane_sqrt(
    typename Lanes<W>::d x) {
#if defined(__AVX__)
  if constexpr (W == 4) return _mm256_sqrt_pd(x);
#endif
#if defined(__SSE2__)
  if constexpr (W == 2) return _mm_sqrt_pd(x);
#endif
  typename Lanes<W>::d r;
  for (int l = 0; l < W; ++l) r[l] = std::sqrt(x[l]);
  return r;
}

/// log(u1) for normal positive u1 below 2 (the loader's u1 lie in
/// [2^-54, 1)).
template <int W>
[[gnu::always_inline]] inline typename Lanes<W>::d log_lanes(
    typename Lanes<W>::d u1) {
  using d = typename Lanes<W>::d;
  using u = typename Lanes<W>::u;
  constexpr std::uint64_t kSqrtHalfBits = 0x3fe6a09e667f3bcdull;
  constexpr std::uint64_t kBias = 1024ull << 52;  // keeps the shift unsigned
  const u bits = (u)u1;
  const u kb = (bits - kSqrtHalfBits + kBias) >> 52;  // k + 1024
  const d z = (d)(bits - ((kb - 1024) << 52));
  const d k = (d)(kb | 0x4330000000000000ull) - (0x1p52 + 1024.0);
  const d s = (z - 1.0) / (z + 1.0);
  const d w = s * s;
  const d s2 = s + s;
  const d log_z = s2 + s2 * (w * horner(w, kAtanh));
  return k * kLn2Hi + (k * kLn2Lo + log_z);
}

/// cos(2 pi u2) for u2 in [0, 1), by the exact quarter-turn reduction.
template <int W>
[[gnu::always_inline]] inline typename Lanes<W>::d cos_turn_lanes(
    typename Lanes<W>::d u2) {
  using d = typename Lanes<W>::d;
  using u = typename Lanes<W>::u;
  constexpr double kRound = 0x1.8p52;
  const d t = u2 * 4.0;
  const d big = t + kRound;
  const u quadrant = (u)big;  // k mod 4 in the two low bits
  const d theta = (t - (big - kRound)) * kHalfPi;
  const d z = theta * theta;
  const d c = 1.0 + z * horner(z, kCos);
  const d s = theta + theta * (z * horner(z, kSin));
  const u odd = -(quadrant & 1);                 // quadrants 1, 3: +-sin
  const u sign = ((quadrant + 1) & 2) << 62;     // quadrants 1, 2: negative
  return (d)((((u)s & odd) | ((u)c & ~odd)) ^ sign);
}

/// NormalsFn at W lanes (loader_simd.hpp).
template <int W>
std::size_t normals_batch(const double* u1, const double* u2, std::size_t n,
                          double uth, double drift, float* out,
                          std::uint32_t* redo) {
  using d = typename Lanes<W>::d;
  using f = typename Lanes<W>::f;
  const double drift_mag = std::fabs(drift);
  std::size_t nredo = 0;
  for (std::size_t m = 0; m < n; m += W) {
    const std::size_t live = std::min<std::size_t>(W, n - m);
    d a = d{} + 0.5;
    d b = d{};
    if (live == W) {
      std::memcpy(&a, u1 + m, sizeof a);
      std::memcpy(&b, u2 + m, sizeof b);
    } else {
      for (std::size_t l = 0; l < live; ++l) {
        a[l] = u1[m + l];
        b[l] = u2[m + l];
      }
    }
    // The operation order of drift + Rng::maxwellian(uth).
    const d s = lane_sqrt<W>(-2.0 * log_lanes<W>(a));
    const d r = drift + (0.0 + uth * (s * cos_turn_lanes<W>(b)));
    const d band = (drift_mag + uth * s) * kNormalBand + kNormalBandFloor;
    const f lo = __builtin_convertvector(r - band, f);
    const f hi = __builtin_convertvector(r + band, f);
    const auto keep = lo == hi;
    for (std::size_t l = 0; l < live; ++l) {
      out[m + l] = lo[l];
      if (!keep[l]) redo[nredo++] = std::uint32_t(m + l);
    }
  }
  return nredo;
}

}  // namespace MV_SIMD_ARCH_NS
}  // namespace minivpic::particles
