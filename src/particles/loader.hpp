// Particle loading: reproducible Maxwellian plasmas with optional drift and
// density profiles.
//
// Loading is keyed by *global* cell id, so a deck loads bit-identically
// regardless of the rank decomposition — the property that makes multi-rank
// versus single-rank regression tests meaningful. Two species loaded with
// the same seed get identical positions (momenta differ), which makes the
// initial plasma exactly charge-neutral node-by-node.
//
// Counters. Each cell has a position stream keyed by the cell and a
// momentum stream keyed by (cell, species). Particle n of the cell owns a
// fixed draw budget, so streams stay aligned whatever the profile drops:
// its offsets are draws 4n+1..4n+3 of the position stream, and its
// momentum component a (0 = x, 1 = y, 2 = z) is the Box–Muller pair at
// draws 8n+2a+1 (u1, an Rng::open_unit) and 8n+2a+2 (u2, an Rng::unit) of
// the momentum stream. Draws are read by counter (Rng::at); a component
// with no spread draws nothing and loads drift + 0.0.
//
// Batching. A cell is loaded in two passes: positions, weights and the
// profile's drop decision per particle, then each momentum component for
// all of the cell's kept particles at once, W lanes at a time
// (loader_simd.hpp; W = 2 or 4 doubles by the kernel's ISA). A lane
// evaluates the reference expression of drift + Rng::maxwellian(uth),
//   R = drift + (0.0 + uth * (sqrt(-2 log u1) * cos(2 pi u2))),
// in the same operation order, with in-tree polynomials for log and cos:
//   log: exponent split to z in [sqrt(1/2), sqrt(2)) and the atanh series
//        in s = (z - 1)/(z + 1) to s^21; documented bound
//        |log' - log_libm| <= 2^-50 |log_libm|.
//   cos: exact quarter-turn reduction of u2 and Taylor series of cos and
//        sin on |theta| <= pi/4 to theta^16 and theta^17; it approximates
//        cos(2 pi u2), while libm sees the rounded argument fl(2pi u2),
//        up to 2^-50 away. Documented bound, argument gap included:
//        |cos' - cos_libm(fl(2pi u2))| <= 2^-49.
//   (LoaderBatch.PolynomialsStayUnderTheirBounds measures both.)
//
// Guard. With u = 2^-53, M = |drift| + uth s and the bounds above, the
// error of R against the libm expression is at most about 24u M: s is off
// by 4u + u of rounding, cos by 16u, and each of the four roundings after
// them adds at most u M. The lane keeps its float only when
// float(R - b) == float(R + b) for the band b = 2^-40 M + 2^-126, which
// is 2^8 times that error: then no float rounding boundary (the midpoint
// to a neighbouring float) lies within the error of R, and the float equals
// the reference's. Any other lane — near a midpoint, NaN, infinite or too
// small for the relative bound — is recomputed by Rng::maxwellian after a
// seek, which is the reference itself. About 1e-4 of the lanes fall back.
// The loaded bytes therefore do not depend on W.
//
// Pool. With a pipeline pool, each pipeline loads a contiguous range of
// the slab's cells (Pipeline::partition, x fastest) in place, into the
// species' reserved capacity at the slot its first cell would take if no
// particle were dropped. Where a density profile dropped particles, the
// ranges are then moved down, in pipeline order, to close the gaps. The
// particles keep cell order, so the bytes do not depend on the pool size.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "grid/geometry.hpp"
#include "particles/kernel.hpp"
#include "particles/species.hpp"

namespace minivpic {
class Pipeline;  // util/pipeline.hpp
}

namespace minivpic::particles {

struct LoadConfig {
  int ppc = 8;              ///< macroparticles per cell
  double density = 1.0;     ///< number density in code units (1 = n0)
  double uth = 0.0;         ///< isotropic thermal momentum spread per axis
  /// Anisotropic spread: if any component is nonzero, uth3 is used verbatim
  /// (per axis) instead of the isotropic uth.
  std::array<double, 3> uth3{0, 0, 0};
  std::array<double, 3> drift{0, 0, 0};  ///< drift momentum added to u
  std::uint64_t seed = 12345;
  /// Optional density profile multiplier evaluated at the particle position
  /// (code-unit coordinates); the result scales the particle weight. It is
  /// called from every pipeline of the pool at once, so it must be pure.
  std::function<double(double x, double y, double z)> profile;
  /// Optional position-dependent drift added to u (e.g. a sinusoidal
  /// velocity perturbation for wave decks); pure, like `profile`.
  std::function<std::array<double, 3>(double x, double y, double z)>
      drift_profile;
};

/// Loads `cfg.ppc` particles into every interior cell of this rank's slab,
/// appending them to `sp` in cell order. `pool` spreads the cells over its
/// pipelines; `kernel` picks the Box–Muller batch's ISA (kAuto: the widest
/// available). Neither changes a byte of the result. Returns the number
/// loaded locally.
std::size_t load_uniform(Species& sp, const grid::LocalGrid& grid,
                         const LoadConfig& cfg, Pipeline* pool = nullptr,
                         Kernel kernel = Kernel::kAuto);

}  // namespace minivpic::particles
