// Counter-based pseudo-random number generation for particle loading.
//
// PIC initial conditions must be reproducible independent of domain
// decomposition: particle k must get the same random draws whether it is
// loaded by rank 0 of 1 or rank 7 of 8. A counter-based generator gives
// random access by (stream, counter) with no sequential state to split.
// The core permutation is SplitMix64, whose output is a bijective mix of a
// Weyl-sequence counter — well tested statistically and trivially seekable.
#pragma once

#include <array>
#include <cstdint>

namespace minivpic {

namespace detail {

inline constexpr std::uint64_t kWeyl = 0x9E3779B97F4A7C15ull;

/// The SplitMix64 output permutation.
constexpr std::uint64_t splitmix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace detail

/// Counter-based RNG: independent streams, O(1) seek, 64-bit output.
class Rng {
 public:
  /// `seed` selects the experiment; `stream` the independent substream
  /// (e.g. one per species, or per global particle id).
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0) noexcept;

  /// Re-positions the generator at an absolute draw index.
  void seek(std::uint64_t counter) noexcept { counter_ = counter; }
  std::uint64_t counter() const noexcept { return counter_; }

  /// The raw 64-bit draw at absolute position `counter` of this stream,
  /// without moving the generator: draw n (1-based) after seek(c) is
  /// at(c + n). Batched loaders read whole blocks of a stream this way.
  std::uint64_t at(std::uint64_t counter) const noexcept {
    return detail::splitmix(base_ + detail::kWeyl * counter);
  }

  /// Next raw 64-bit draw: at(counter() + 1), then the counter advances.
  std::uint64_t next_u64() noexcept { return at(++counter_); }

  /// A raw draw as a uniform double in [0,1) (its top 53 bits).
  static double unit(std::uint64_t raw) noexcept {
    return static_cast<double>(raw >> 11) * 0x1.0p-53;
  }

  /// A raw draw as a uniform double in (0,1): unit() offset half a step,
  /// so log() of it is finite.
  static double open_unit(std::uint64_t raw) noexcept {
    return (static_cast<double>(raw >> 11) + 0.5) * 0x1.0p-53;
  }

  /// Uniform in [0,1).
  double uniform() noexcept;

  /// Uniform in [lo,hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0,n). n must be > 0.
  std::uint64_t uniform_u64(std::uint64_t n) noexcept;

  /// Standard normal variate (Box–Muller on two fresh draws; no caching so
  /// the draw count per call is deterministic).
  double normal() noexcept;

  /// Normal with given mean and standard deviation.
  double normal(double mean, double sigma) noexcept;

  /// Maxwell–Jüttner-free non-relativistic Maxwellian momentum component:
  /// normal with thermal spread `uth` (= sqrt(T/mc^2) in code units).
  double maxwellian(double uth) noexcept { return normal(0.0, uth); }

  /// Exponential variate with unit mean.
  double exponential() noexcept;

  // Convenience for UniformRandomBitGenerator compatibility.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() noexcept { return next_u64(); }

 private:
  std::uint64_t base_;
  std::uint64_t counter_ = 0;
};

/// Deterministic 64-bit hash mix (the SplitMix64 finalizer). Used to derive
/// stream keys from (seed, ids) without correlation.
std::uint64_t hash_mix(std::uint64_t x) noexcept;

/// Combines values into one well-mixed key.
std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept;

}  // namespace minivpic
