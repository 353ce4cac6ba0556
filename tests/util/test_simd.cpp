// util/simd.hpp primitives: every pack operation must round exactly like
// its scalar counterpart (the bit-parity foundation of the SIMD kernels,
// docs/KERNELS.md), and the transposed load/store must be an exact
// bit-preserving permutation — including for lanes carrying non-float bit
// patterns (the particle's int32 voxel column rides through transposes).
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace minivpic::simd {
namespace {

template <int W>
class SimdPackTest : public ::testing::Test {};

// Native widths on x86 (4 always, 8/16 when compiled in — this test TU is
// built at the project's default arch, so 8/16 exercise the portable
// fallback there; the native 8/16 code paths are exercised end-to-end by
// the kernel equivalence tests and the CI arch matrix) plus a deliberately
// odd generic width.
using Widths =
    ::testing::Types<std::integral_constant<int, 1>,
                     std::integral_constant<int, 4>,
                     std::integral_constant<int, 8>,
                     std::integral_constant<int, 16>,
                     std::integral_constant<int, 3>>;

template <typename T>
class TypedSimdTest : public ::testing::Test {};
TYPED_TEST_SUITE(TypedSimdTest, Widths);

TYPED_TEST(TypedSimdTest, ArithmeticMatchesScalarBitwise) {
  constexpr int W = TypeParam::value;
  using P = pack<W>;
  Rng rng(7);
  float a[W], b[W], out[W];
  for (int trial = 0; trial < 50; ++trial) {
    for (int i = 0; i < W; ++i) {
      a[i] = float(rng.normal(0.0, 3.0));
      b[i] = float(rng.normal(0.5, 2.0));
    }
    const P pa = P::loadu(a), pb = P::loadu(b);

    (pa + pb).storeu(out);
    for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], a[i] + b[i]);
    (pa - pb).storeu(out);
    for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], a[i] - b[i]);
    (pa * pb).storeu(out);
    for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], a[i] * b[i]);
    (pa / pb).storeu(out);
    for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], a[i] / b[i]);
    (-pa).storeu(out);
    for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], -a[i]);

    // sqrt of |a|: the hardware sqrt*ps instructions are IEEE
    // correctly-rounded, same as scalar sqrtss/std::sqrt.
    float abs_a[W];
    for (int i = 0; i < W; ++i) abs_a[i] = std::abs(a[i]);
    sqrt(P::loadu(abs_a)).storeu(out);
    for (int i = 0; i < W; ++i) EXPECT_EQ(out[i], std::sqrt(abs_a[i]));
  }
}

TYPED_TEST(TypedSimdTest, CompareSelectAndMaskBits) {
  constexpr int W = TypeParam::value;
  using P = pack<W>;
  Rng rng(11);
  float a[W], b[W], out[W];
  for (int trial = 0; trial < 50; ++trial) {
    for (int i = 0; i < W; ++i) {
      a[i] = float(rng.normal(0.0, 1.0));
      b[i] = float(rng.normal(0.0, 1.0));
    }
    const auto m = cmp_le(P::loadu(a), P::loadu(b));
    unsigned expect_bits = 0;
    for (int i = 0; i < W; ++i)
      expect_bits |= unsigned(a[i] <= b[i]) << i;
    EXPECT_EQ(m.bits(), expect_bits);
    EXPECT_EQ(m.bits() & ~all_lanes<W>(), 0u) << "stray high bits";

    select(m, P::loadu(a), P::loadu(b)).storeu(out);
    for (int i = 0; i < W; ++i)
      EXPECT_EQ(out[i], a[i] <= b[i] ? a[i] : b[i]);

    // Conjunction, as the kernel's six-face in-cell test uses it.
    const auto m2 = m & cmp_le(P::loadu(b), P::broadcast(0.0f));
    unsigned expect2 = 0;
    for (int i = 0; i < W; ++i)
      expect2 |= unsigned(a[i] <= b[i] && b[i] <= 0.0f) << i;
    EXPECT_EQ(m2.bits(), expect2);
  }
}

TYPED_TEST(TypedSimdTest, BroadcastZeroAndLane) {
  constexpr int W = TypeParam::value;
  using P = pack<W>;
  const P c = P::broadcast(2.5f);
  for (int i = 0; i < W; ++i) EXPECT_EQ(c.lane(i), 2.5f);
  const P z = P::zero();
  for (int i = 0; i < W; ++i) EXPECT_EQ(z.lane(i), 0.0f);
}

/// Round trip through load_tr at the particle layout (8 columns, stride 8)
/// must reproduce every bit — including a column holding int32 bit
/// patterns, some of which are not valid floats.
TYPED_TEST(TypedSimdTest, TransposeRoundTripParticleLayout) {
  constexpr int W = TypeParam::value;
  constexpr int kCols = 8;
  Rng rng(23);
  std::vector<float> src(std::size_t(W) * kCols), dst(src.size(), -1.0f);
  for (auto& x : src) x = float(rng.normal(0.0, 10.0));
  // Column 3 carries raw int32 voxel bits (including patterns that would be
  // denormal/NaN as floats) — transposes must not quiet or flush them.
  for (int w = 0; w < W; ++w) {
    const std::int32_t vox = 0x7f80'0001 ^ (w * 2654435761);
    std::memcpy(&src[std::size_t(w) * kCols + 3], &vox, 4);
  }
  std::int32_t off[W];
  for (int w = 0; w < W; ++w) off[w] = w * kCols;

  pack<W> cols[kCols];
  load_tr<W>(src.data(), off, kCols, cols);
  store_tr<W>(cols, kCols, dst.data(), off);
  for (std::size_t i = 0; i < src.size(); ++i) {
    std::uint32_t sb, db;
    std::memcpy(&sb, &src[i], 4);
    std::memcpy(&db, &dst[i], 4);
    EXPECT_EQ(sb, db) << "bit mismatch at flat index " << i;
  }

  // And the transposed view itself is correct: lane w of column c.
  for (int c = 0; c < kCols; ++c)
    for (int w = 0; w < W; ++w) {
      std::uint32_t sb, lb;
      const float lv = cols[c].lane(w);
      std::memcpy(&sb, &src[std::size_t(w) * kCols + c], 4);
      std::memcpy(&lb, &lv, 4);
      EXPECT_EQ(sb, lb) << "col " << c << " lane " << w;
    }
}

/// The interpolator fetch shape: 18 used columns at stride 20, rows picked
/// by an arbitrary (gather) offset per lane, including repeated rows.
TYPED_TEST(TypedSimdTest, TransposeGatherInterpolatorLayout) {
  constexpr int W = TypeParam::value;
  constexpr int kStride = 20;
  constexpr int kRows = 7;
  Rng rng(31);
  std::vector<float> src(std::size_t(kRows) * kStride);
  for (auto& x : src) x = float(rng.normal(0.0, 1.0));

  std::int32_t off[W];
  for (int w = 0; w < W; ++w)
    off[w] = std::int32_t(rng.uniform_u64(kRows)) * kStride;

  // Both the exact column count (gather widths) and the padded one (the
  // 4-wide block path reads the two pads as its last block).
  for (const int ncols : {18, kStride}) {
    pack<W> cols[kStride];
    load_tr<W>(src.data(), off, ncols, cols);
    for (int c = 0; c < ncols; ++c)
      for (int w = 0; w < W; ++w)
        EXPECT_EQ(cols[c].lane(w), src[std::size_t(off[w]) + c])
            << "ncols " << ncols << " col " << c << " lane " << w;
  }
}

/// store_tr to scattered rows (the per-lane deposit spill layout: 12
/// columns at stride 12).
TYPED_TEST(TypedSimdTest, TransposeScatterStore) {
  constexpr int W = TypeParam::value;
  constexpr int kCols = 12;
  Rng rng(41);
  float vals[kCols][W];
  pack<W> cols[kCols];
  for (int c = 0; c < kCols; ++c) {
    for (int w = 0; w < W; ++w) vals[c][w] = float(rng.normal(0.0, 1.0));
    cols[c] = pack<W>::loadu(vals[c]);
  }
  std::int32_t off[W];
  for (int w = 0; w < W; ++w) off[w] = w * kCols;
  std::vector<float> dst(std::size_t(W) * kCols, -7.0f);
  store_tr<W>(cols, kCols, dst.data(), off);
  for (int c = 0; c < kCols; ++c)
    for (int w = 0; w < W; ++w)
      EXPECT_EQ(dst[std::size_t(w) * kCols + c], vals[c][w]);
}

TYPED_TEST(TypedSimdTest, RoundToInt32TiesToEven) {
  // The rho deposit's conversion: nearest int32, ties to even, for every
  // value the deposit lets through (finite, inside +-(2^31 - 128)).
  constexpr int W = TypeParam::value;
  const std::pair<float, std::int32_t> cases[] = {
      {0.5f, 0},          {1.5f, 2},           {2.5f, 2},
      {-0.5f, 0},         {-1.5f, -2},         {-2.5f, -2},
      {3.4f, 3},          {-3.6f, -4},         {-0.0f, 0},
      {1000000.5f, 1000000}, {0x1.fffffep30f, 2147483520},
      {-0x1.fffffep30f, -2147483520}};
  constexpr int kCases = int(std::size(cases));
  for (int first = 0; first < kCases; ++first) {
    float in[W];
    for (int i = 0; i < W; ++i) in[i] = cases[(first + i) % kCases].first;
    std::int32_t out[W];
    store_round_i32(pack<W>::loadu(in), out);
    for (int i = 0; i < W; ++i)
      EXPECT_EQ(out[i], cases[(first + i) % kCases].second) << in[i];
  }
}

TEST(SimdArchTest, AllLanesMask) {
  EXPECT_EQ(all_lanes<1>(), 0x1u);
  EXPECT_EQ(all_lanes<4>(), 0xfu);
  EXPECT_EQ(all_lanes<8>(), 0xffu);
  EXPECT_EQ(all_lanes<16>(), 0xffffu);
}

}  // namespace
}  // namespace minivpic::simd
