// The AVX-512F transposes of util/simd.hpp, checked bit for bit. The typed
// tests in test_simd.cpp run the portable pack<16> fallback (that file is
// built at the default arch), so these are the tests that reach the row
// loads, row stores and register transposes the 16-wide kernel runs: each
// shape the kernel uses, plus a sweep of column counts that reaches every
// block size (16, 8 and 4 columns, the gathered load tail and the per-lane
// store tail). Every buffer ends at the last float a row may touch, so
// under ASan a load or store past a row's columns fails. On a host or build
// without AVX-512F every test reports a skip.
#include "simd_native16.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

namespace minivpic::simd::native16 {
namespace {

constexpr int kRows = 16;
constexpr std::uint32_t kSentinel = 0xdeadbeefu;

std::uint32_t bits(float x) {
  std::uint32_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

float from_bits(std::uint32_t b) {
  float x;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

/// Distinct bit patterns that an arithmetic move would change: NaNs with
/// payloads (signalling and quiet), denormals and negative zero, mixed
/// with arbitrary patterns — as the particle's int32 voxel column can hold.
std::vector<float> hostile(std::size_t n, std::uint32_t seed) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t b = (std::uint32_t(i) + seed) * 2654435761u;
    switch (i % 4) {
      case 0: b = 0x7f800001u | (b & 0x003fffffu); break;  // signalling NaN
      case 1: b = 0xffc00000u | (b & 0x003fffffu); break;  // quiet NaN
      case 2: b &= 0x807fffffu; break;                      // denormal, +-0
      default: break;
    }
    v[i] = from_bits(b);
  }
  return v;
}

class NativeTranspose16Test : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(__x86_64__) || defined(__i386__)
    const bool runs = compiled() && __builtin_cpu_supports("avx512f");
#else
    const bool runs = false;
#endif
    if (!runs)
      GTEST_SKIP() << "AVX-512F transposes not built, or the CPU lacks "
                      "AVX-512F";
  }
};

/// Loads n columns of the rows at base + off[w], checks every lane of every
/// column, then stores them into a sentinel-filled copy and checks that
/// exactly those floats were written back, bit for bit.
void check_round_trip(const std::vector<float>& src, std::size_t base,
                      const std::int32_t* off, int n) {
  std::vector<float> cols(std::size_t(16) * std::size_t(n));
  load_tr(src.data() + base, off, n, cols.data());
  std::vector<float> expect(src.size(), from_bits(kSentinel));
  for (int c = 0; c < n; ++c)
    for (int w = 0; w < kRows; ++w) {
      const std::size_t at = base + std::size_t(off[w] + c);
      ASSERT_EQ(bits(cols[std::size_t(16 * c + w)]), bits(src[at]))
          << "load: n " << n << " col " << c << " lane " << w;
      expect[at] = src[at];
    }

  std::vector<float> dst(src.size(), from_bits(kSentinel));
  store_tr(cols.data(), n, dst.data() + base, off);
  for (std::size_t i = 0; i < dst.size(); ++i)
    ASSERT_EQ(bits(dst[i]), bits(expect[i]))
        << "store: n " << n << " flat index " << i;
}

TEST_F(NativeTranspose16Test, ParticleRowsContiguous) {
  const std::vector<float> src = hostile(std::size_t(kRows) * 8, 1);
  std::int32_t off[kRows];
  for (int w = 0; w < kRows; ++w) off[w] = w * 8;
  check_round_trip(src, 0, off, 8);
}

/// An ascending index list with gaps, as a skin or interior pass gives:
/// offsets from the batch's first particle, the last lane on the array's
/// last particle.
TEST_F(NativeTranspose16Test, ParticleRowsFromIndexList) {
  const int idx[kRows] = {2, 3, 5, 6, 11, 12, 13, 19,
                          22, 23, 31, 32, 33, 40, 41, 47};
  const std::vector<float> src = hostile(std::size_t(48) * 8, 2);
  std::int32_t off[kRows];
  for (int w = 0; w < kRows; ++w) off[w] = (idx[w] - idx[0]) * 8;
  check_round_trip(src, std::size_t(idx[0]) * 8, off, 8);
}

/// 18 coefficient columns at stride 20, rows picked per lane with repeats
/// and out of order. The array's last row stops after its 18 used floats,
/// so a load of its pads would read past the buffer.
TEST_F(NativeTranspose16Test, InterpolatorRows) {
  constexpr int kStride = 20, kCols = 18, kCells = 9;
  const std::vector<float> src =
      hostile(std::size_t((kCells - 1) * kStride + kCols), 3);
  const int cell[kRows] = {4, 4, 0, 8, 1, 4, 7, 7, 2, 3, 8, 5, 6, 0, 1, 8};
  std::int32_t off[kRows];
  for (int w = 0; w < kRows; ++w) off[w] = cell[w] * kStride;

  std::vector<float> cols(std::size_t(16) * kCols);
  load_tr(src.data(), off, kCols, cols.data());
  for (int c = 0; c < kCols; ++c)
    for (int w = 0; w < kRows; ++w)
      ASSERT_EQ(bits(cols[std::size_t(16 * c + w)]),
                bits(src[std::size_t(off[w] + c)]))
          << "col " << c << " lane " << w;
}

/// The deposit's 12 quadrant addends, lane-major at stride 12.
TEST_F(NativeTranspose16Test, DepositRows) {
  constexpr int kCols = 12;
  const std::vector<float> cols = hostile(std::size_t(16) * kCols, 4);
  std::int32_t off[kRows];
  for (int w = 0; w < kRows; ++w) off[w] = w * kCols;
  std::vector<float> dep(std::size_t(kRows) * kCols, from_bits(kSentinel));
  store_tr(cols.data(), kCols, dep.data(), off);
  for (int w = 0; w < kRows; ++w)
    for (int c = 0; c < kCols; ++c)
      ASSERT_EQ(bits(dep[std::size_t(w * kCols + c)]),
                bits(cols[std::size_t(16 * c + w)]))
          << "lane " << w << " col " << c;
}

/// Every column count up to 26 (16 + 8 + a tail of 2): rows one float
/// apart, so a block that touches a column past n overwrites a gap.
TEST_F(NativeTranspose16Test, EveryColumnCount) {
  for (int n = 1; n <= 26; ++n) {
    const int stride = n + 1;
    const std::vector<float> src =
        hostile(std::size_t((kRows - 1) * stride + n), std::uint32_t(n));
    std::int32_t off[kRows];
    for (int w = 0; w < kRows; ++w) off[w] = w * stride;
    check_round_trip(src, 0, off, n);
  }
}

}  // namespace
}  // namespace minivpic::simd::native16
