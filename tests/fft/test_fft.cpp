#include "fft/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace minivpic::fft {
namespace {

using cplx = std::complex<double>;

TEST(Fft, RejectsNonPow2) {
  std::vector<cplx> v(3);
  EXPECT_THROW(transform(v), minivpic::Error);
  std::vector<cplx> empty;
  EXPECT_THROW(transform(empty), minivpic::Error);
}

TEST(Fft, LengthOneIsIdentity) {
  std::vector<cplx> v{{2.0, -1.0}};
  transform(v);
  EXPECT_DOUBLE_EQ(v[0].real(), 2.0);
  EXPECT_DOUBLE_EQ(v[0].imag(), -1.0);
}

TEST(Fft, DeltaTransformsToFlat) {
  std::vector<cplx> v(8, {0.0, 0.0});
  v[0] = {1.0, 0.0};
  transform(v);
  for (const auto& x : v) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantTransformsToDelta) {
  std::vector<cplx> v(16, {1.0, 0.0});
  transform(v);
  EXPECT_NEAR(v[0].real(), 16.0, 1e-12);
  for (std::size_t k = 1; k < v.size(); ++k) EXPECT_NEAR(std::abs(v[k]), 0.0, 1e-12);
}

TEST(Fft, SingleToneLandsInRightBin) {
  const std::size_t n = 64;
  const std::size_t k0 = 5;
  std::vector<cplx> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = 2.0 * std::numbers::pi * double(k0 * i) / double(n);
    v[i] = {std::cos(ph), 0.0};
  }
  transform(v);
  // Real cosine: power split between bins k0 and n-k0.
  EXPECT_NEAR(std::abs(v[k0]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(v[n - k0]), n / 2.0, 1e-9);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != k0 && k != n - k0) {
      EXPECT_NEAR(std::abs(v[k]), 0.0, 1e-9);
    }
  }
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, ForwardInverseIsIdentity) {
  const std::size_t n = GetParam();
  minivpic::Rng rng(n);
  std::vector<cplx> v(n), orig;
  for (auto& x : v) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  orig = v;
  transform(v, false);
  transform(v, true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(v[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(v[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const std::size_t n = GetParam();
  minivpic::Rng rng(n + 100);
  std::vector<cplx> v(n);
  double time_energy = 0;
  for (auto& x : v) {
    x = {rng.normal(), rng.normal()};
    time_energy += std::norm(x);
  }
  transform(v);
  double freq_energy = 0;
  for (const auto& x : v) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / double(n), time_energy, 1e-8 * time_energy);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1u, 2u, 4u, 8u, 64u, 256u, 1024u));

TEST(RealSpectrum, PadsToPow2) {
  std::vector<double> v(100, 1.0);
  const auto spec = real_spectrum(v);
  EXPECT_EQ(spec.size(), 128u);
}

TEST(RealSpectrum, EmptyThrows) {
  std::vector<double> v;
  EXPECT_THROW(real_spectrum(v), minivpic::Error);
}

TEST(PowerSpectrum, OneSidedSize) {
  std::vector<double> v(64, 0.0);
  EXPECT_EQ(power_spectrum(v).size(), 33u);
}

TEST(PowerSpectrum, FindsDominantFrequency) {
  // Sampled sine at omega = 2*pi*10/(n*dt).
  const std::size_t n = 256;
  const double dt = 0.1;
  std::vector<double> v(n);
  const double omega = bin_omega(10, n, dt);
  for (std::size_t i = 0; i < n; ++i) v[i] = std::sin(omega * double(i) * dt);
  const auto power = power_spectrum(v);
  EXPECT_EQ(peak_bin(power, 1, power.size()), 10u);
}

TEST(PeakBin, WindowRespected) {
  std::vector<double> p{0.0, 5.0, 1.0, 9.0, 2.0};
  EXPECT_EQ(peak_bin(p, 0, 5), 3u);
  EXPECT_EQ(peak_bin(p, 0, 3), 1u);
  EXPECT_THROW(peak_bin(p, 3, 3), minivpic::Error);
  EXPECT_THROW(peak_bin(p, 0, 6), minivpic::Error);
}

TEST(BinOmega, Formula) {
  EXPECT_NEAR(bin_omega(1, 100, 0.5), 2.0 * std::numbers::pi / 50.0, 1e-14);
  EXPECT_THROW(bin_omega(1, 0, 0.5), minivpic::Error);
  EXPECT_THROW(bin_omega(1, 8, 0.0), minivpic::Error);
}

TEST(Fft, LinearityProperty) {
  minivpic::Rng rng(7);
  const std::size_t n = 32;
  std::vector<cplx> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = {rng.normal(), rng.normal()};
    b[i] = {rng.normal(), rng.normal()};
    sum[i] = 2.0 * a[i] + 3.0 * b[i];
  }
  transform(a);
  transform(b);
  transform(sum);
  for (std::size_t k = 0; k < n; ++k) {
    const cplx expect = 2.0 * a[k] + 3.0 * b[k];
    EXPECT_NEAR(std::abs(sum[k] - expect), 0.0, 1e-9);
  }
}

}  // namespace
}  // namespace minivpic::fft
