// Charge-density deposition (trilinear to mesh nodes), used by the Marder
// divergence cleaner, the initial field settle and the Gauss diagnostics.
//
// The charge is summed exactly, in int64 fixed point (the SPFP idiom of Le
// Grand et al., Comput. Phys. Commun. 184, 374 (2013)): integer addition is
// associative, so rho has the same bits for every pool size, every particle
// order (so every sort cadence) and every advance kernel.
//
// Quantum. Q is a power of two fixed from the deck alone, so initialize,
// restore, rollback, slicing and resume all share it. With C the heaviest
// full-weight contribution over the deck's species,
// C = max_s |q_s| density_s / ppc_s (the most charge density one particle
// of the species' base weight puts on one node),
// Q = 2^(floor(log2(C (1 + 2^-20))) - 24), so C / Q lies in [2^24, 2^25)
// up to that 2^-20 nudge, which keeps a C a few float roundings below a
// power of two off the edge of the headroom:
//   - resolution: a full-weight contribution keeps at least 24 bits,
//     float's resolution;
//   - headroom: a particle converts while q w / (8 V Q) < 2^28, so each of
//     its 8 node weights stays below 2^31 quanta, inside int32. That admits
//     weights up to at least 2^6 times the base weight (density profiles
//     up to 64; up to 128 where C sits just above a power of two);
//   - node sums: each particle adds less than 2^31 quanta to a node, so a
//     node sum cannot overflow int64 while the rank holds fewer than 2^32
//     particles; deposit() checks that count.
//
// Guard. Simulation::initialize() checks every loaded weight against the
// bound once (check_weights) and names the species whose profile exceeds
// the headroom. deposit() never converts a value outside int32 range (that
// float-to-int conversion is undefined behaviour, and NaN has no integer):
// a particle with a non-finite or over-bound weight, a non-finite offset or
// one so far out of its cell that a node weight leaves int32 range, or a
// voxel index whose nodes are off the grid is not converted. Instead the
// fold writes NaN to every node of rhof, so a corrupt particle still
// reaches the health sentinels as a non-finite field.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/fields.hpp"
#include "particles/loader.hpp"
#include "particles/species.hpp"
#include "util/aligned.hpp"

namespace minivpic {
class Pipeline;  // util/pipeline.hpp; deposit() runs on its pipelines
}  // namespace minivpic

namespace minivpic::particles {

/// The most charge density one particle of a species' base weight puts on
/// one node: |q| * density / ppc (0 for a species that loads nothing).
double full_weight_rho(double q, const LoadConfig& load);

class RhoDeposit {
 public:
  /// `max_full_weight_rho` is C above, the largest full_weight_rho over
  /// the deck's species; a deck with no charge (C == 0) gets Q = 2^-24.
  RhoDeposit(const grid::LocalGrid& grid, double max_full_weight_rho);

  /// Q, in charge-density units.
  double quantum() const { return quantum_; }

  /// Throws, naming the species, unless every particle's weight is finite
  /// and inside the bound above.
  void check_weights(const Species& sp) const;

  /// Adds the charge density of every particle of `species` to f.rhof
  /// (node-centered, charge / volume, so div E = rho with eps0 = 1). With a
  /// pool, each pipeline deposits its Pipeline::partition slice of every
  /// species into its own int64 node block; a pooled fold then sums the
  /// blocks per node, adds float(sum * Q) to rhof once per node and zeroes
  /// what it read. The blocks (num_voxels int64 per pipeline) are
  /// allocated at the first deposit. Deposits reach the high ghost planes;
  /// run the halo source reduction afterwards.
  void deposit(const std::vector<const Species*>& species,
               grid::FieldArray& f, Pipeline* pool = nullptr);

 private:
  std::size_t voxels_;
  std::size_t stride_;  ///< voxels_ rounded up to whole cache lines
  double cell_volume_;
  double quantum_;
  /// One int64 node block per pipeline, zero between deposits.
  AlignedBuffer<std::int64_t> sums_;
  /// A deposit started and has not folded yet (it threw): the next one
  /// zeroes every block first.
  bool pending_ = false;
};

}  // namespace minivpic::particles
