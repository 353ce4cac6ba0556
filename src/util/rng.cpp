#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace minivpic {

using detail::kWeyl;
using detail::splitmix;

std::uint64_t hash_mix(std::uint64_t x) noexcept { return splitmix(x + kWeyl); }

std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return splitmix(a + kWeyl * (b + 1));
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) noexcept
    : base_(hash_combine(seed, stream)) {}

double Rng::uniform() noexcept { return unit(next_u64()); }

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_u64(std::uint64_t n) noexcept {
  // Rejection-free multiply-shift (Lemire) is overkill for loading; a simple
  // 128-bit scaled multiply keeps bias < 2^-64 which is negligible here.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next_u64()) * n) >> 64);
}

double Rng::normal() noexcept {
  // Box–Muller; u1 is drawn away from zero so log() is finite.
  const double u1 = open_unit(next_u64());
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double sigma) noexcept {
  return mean + sigma * normal();
}

double Rng::exponential() noexcept {
  return -std::log(open_unit(next_u64()));
}

}  // namespace minivpic
