// The particle advance — VPIC's inner loop, the kernel behind the paper's
// 0.488 Pflop/s claim.
//
// One advance per particle per step:
//   1. gather E, cB from the cached per-cell interpolator,
//   2. relativistic Boris momentum update (half E kick, B rotation with the
//      7th-order tan(theta/2)/(theta/2) correction, half E kick),
//   3. position update by v*dt,
//   4. charge-conserving current deposition into the per-cell accumulator;
//      cell crossings split the trajectory segment-by-segment (move_p).
//
// Displacements are handled in "cell units" (physical displacement divided
// by the cell size); cell *offsets* span [-1, 1] and therefore advance by
// twice the cell-unit displacement.
//
// Intra-rank pipelines (the paper's per-node parallel layer): advance() can
// run on N pipelines from a util Pipeline pool. The particle array is
// statically partitioned into N contiguous slices; pipeline p advances its
// slice, deposits into accumulator block p, draws reflux momenta from its
// own counter-based RNG stream, and records its emigrants/dead particles
// privately. After the barrier the per-pipeline results are spliced in
// pipeline order, which — because the partition is contiguous — reproduces
// the serial particle order exactly.
//
// SIMD kernels (push_simd.hpp, docs/KERNELS.md): set_kernel() swaps the
// per-slice advance for a W-wide vector kernel that mirrors the scalar
// operation sequence exactly — same IEEE correctly-rounded add/mul/div/
// sqrt, no FMA contraction, deposits and move_p spills executed in particle
// order — so it is byte-identical to the scalar reference. Kernel choice
// composes with pipelines: each pipeline runs the selected kernel over its
// own contiguous slice (or, in the two-pass advance, over its slice's skin
// and interior index lists in full W-wide batches).
//
// What each axis (kernel, pipeline count, overlap, sort cadence, rollback)
// keeps identical is stated once, with its tests, in docs/ARCHITECTURE.md
// "Determinism contract".
#pragma once

#include <cstdint>
#include <vector>

#include "particles/accumulator.hpp"
#include "particles/interpolator.hpp"
#include "particles/kernel.hpp"
#include "particles/species.hpp"
#include "util/pipeline.hpp"
#include "util/rng.hpp"

namespace minivpic::particles {

struct SimdKernelAccess;

class Pusher {
 public:
  /// `reflux_uth` is the thermal momentum spread of the wall reservoir for
  /// kReflux faces (must be > 0 when a reflux face is actually hit).
  /// Refluxed momenta are drawn from a flux-weighted Maxwellian pointing
  /// into the domain. The spread is species-specific: set it before each
  /// species' advance with set_reflux_uth().
  Pusher(const grid::LocalGrid& grid, const ParticleBcSpec& bc,
         double reflux_uth = 0.0, std::uint64_t reflux_seed = 31415);

  /// Wall reservoir temperature for the next advance() (per species).
  void set_reflux_uth(double uth) { reflux_uth_ = uth; }

  struct Result {
    std::int64_t pushed = 0;      ///< particles advanced
    std::int64_t crossings = 0;   ///< cell-face crossings handled by move_p
    std::int64_t absorbed = 0;    ///< particles removed at absorbing walls
    std::int64_t reflected = 0;   ///< wall reflections
    std::int64_t refluxed = 0;    ///< wall thermal re-emissions
    std::vector<Emigrant> emigrants;  ///< particles leaving this rank
    /// Wall seconds each pipeline spent in its advance_range slice (size =
    /// pipeline count). The spread is the telemetry layer's load-imbalance
    /// signal (max/mean across pipelines).
    std::vector<double> pipeline_seconds;
  };

  /// Advances every particle of `sp` one step, depositing current into
  /// `acc`. Emigrants and absorbed particles are removed from `sp`.
  ///
  /// With a `pipeline` pool of N > 1, `acc` must have at least N blocks;
  /// each pipeline deposits into its own block and the caller must fold
  /// them with acc.reduce(pipeline) before unload(). Without a pool (or
  /// with a 1-pipeline pool) this is the serial reference path depositing
  /// into block 0 on the calling thread.
  Result advance(Species& sp, const InterpolatorArray& interp,
                 AccumulatorArray& acc, Pipeline* pipeline = nullptr);

  // -- two-pass (skin, then interior) advance ------------------------------
  //
  // The overlap scheduler (docs/OVERLAP.md) splits the advance into two
  // passes over the same particle list: pass S advances only particles in
  // *skin* cells — cells bordering a remote rank, the only ones that can
  // emit emigrants under the CFL limit — so migration can start while
  // pass I advances the interior complement. Both the barriered and the
  // overlapped step loop run the same S-then-I sequence, so the per-stream
  // arithmetic order, RNG draw order, emigrant order, and dead-index sets
  // are identical by construction; the modes differ only in *when* the
  // migration exchange executes. Removals are deferred to the caller:
  // merge the two ascending dead lists and remove descending after the
  // exchange completes. On a single-rank grid the skin set is empty and
  // pass I alone is bit-identical to advance().

  struct Pass {
    Result res;
    /// Dead (emigrated/absorbed) particle indices, ascending. Valid until
    /// the particle list is modified.
    std::vector<std::size_t> dead;
  };

  /// Pass S: classifies every particle of `sp` into per-pipeline skin and
  /// interior index lists (kept for the matching advance_interior call) and
  /// advances the skin list.
  Pass advance_skin(Species& sp, const InterpolatorArray& interp,
                    AccumulatorArray& acc, Pipeline* pipeline = nullptr);

  /// Pass I: advances the interior list. Must directly follow an
  /// advance_skin on the same, unmodified particle list and pool size.
  Pass advance_interior(Species& sp, const InterpolatorArray& interp,
                        AccumulatorArray& acc, Pipeline* pipeline = nullptr);

  /// True when some local cell borders a remote rank (the skin is
  /// non-empty); false on single-rank grids, where pass S is a no-op.
  bool has_skin() const { return has_skin_; }

  enum class MoveStatus { kDone, kEmigrated, kAbsorbed };

  /// Completes the move of an immigrant received from a neighbor rank
  /// (momentum already updated by the sender). `p.i` must already be this
  /// rank's voxel. On kEmigrated, `*out` describes the next hop. Deposits
  /// into `acc_block` — the overlap scheduler passes a dedicated migration
  /// block so the exchange can deposit concurrently with the interior
  /// pass.
  MoveStatus continue_move(Particle& p, Mover& m, float macro_charge,
                           CellAccum* acc_block, Emigrant* out,
                           Result* stats) const;

  const ParticleBcSpec& bc() const { return bc_; }

  /// Selects the advance kernel. kAuto resolves immediately to the widest
  /// kernel this build/host supports; an explicitly named kernel throws
  /// util::Error when unavailable. Default is the scalar reference.
  void set_kernel(Kernel k);

  /// The resolved kernel the next advance() will run (never kAuto).
  Kernel kernel() const { return kernel_; }

  /// Floating-point operations per particle advance for the common in-cell
  /// case, counted from the kernel source (see push.cpp); used by the
  /// performance model and benches.
  static constexpr double flops_per_particle() { return 182.0; }

 private:
  /// Back door for the SIMD kernels (push_simd.hpp): they live in separate
  /// per-ISA translation units but need move_p, the scalar remainder path,
  /// and the grid.
  friend struct SimdKernelAccess;

  MoveStatus move_p(Particle& p, Mover& m, float macro_charge, CellAccum* acc,
                    Emigrant* out, Result* stats, Rng& reflux_rng) const;

  /// Advances the particles at slots [begin, end) of `sp` with the selected
  /// kernel, depositing into `acc_block`. Slot k is particle idx[k] when
  /// `idx` is non-null (an ascending index list), particle k otherwise.
  /// Removals are deferred: dead (emigrated/absorbed) particle indices are
  /// appended to `dead` in ascending order for the caller to splice and
  /// remove.
  void advance_range(Species& sp, const InterpolatorArray& interp,
                     CellAccum* acc_block, const std::uint32_t* idx,
                     std::size_t begin, std::size_t end, Rng& reflux_rng,
                     Result& res, std::vector<std::size_t>& dead) const;

  /// The scalar reference loop (also the remainder path of every SIMD
  /// kernel: the last (end - begin) % W slots of a call run here).
  void advance_range_scalar(Species& sp, const InterpolatorArray& interp,
                            CellAccum* acc_block, const std::uint32_t* idx,
                            std::size_t begin, std::size_t end,
                            Rng& reflux_rng, Result& res,
                            std::vector<std::size_t>& dead) const;

  /// Per-pipeline reflux streams exist for pipelines [0, n); streams are
  /// persistent across steps so draw sequences stay reproducible.
  void ensure_reflux_streams(int n);

  /// Shared machinery of advance / advance_skin / advance_interior: one
  /// pass over the static pipeline partition, restricted to the requested
  /// particle class (kAll advances every particle, exactly the historical
  /// single-pass advance).
  enum class PassKind { kAll, kSkin, kInterior };
  Pass advance_pass(Species& sp, const InterpolatorArray& interp,
                    AccumulatorArray& acc, Pipeline* pipeline, PassKind kind);

  /// Codes of neighbor_ entries that are not a local voxel.
  static constexpr std::int32_t kRemoteFace = -1;  ///< another rank's cell
  static constexpr std::int32_t kWallFace = -2;    ///< global wall: bc_[face]

  const grid::LocalGrid* grid_;
  ParticleBcSpec bc_;
  Kernel kernel_ = Kernel::kScalar;
  double reflux_uth_;
  std::uint64_t reflux_seed_;
  /// One independent counter-based stream per pipeline: stream p is
  /// Rng(seed, hash(rank, p)), so draws are reproducible per (rank,
  /// pipeline) and pipelines never share RNG state (the old single shared
  /// `mutable` stream was a data race under a threaded advance).
  std::vector<Rng> reflux_streams_;
  /// Stream for moves completed during migration (continue_move). Mutable
  /// because migration keeps its const Pusher interface; safe because
  /// migration is single-threaded per rank (in the overlapped loop, the
  /// comm worker is that one thread; nothing else draws from this stream
  /// until the scheduler joins it).
  mutable Rng migrate_reflux_rng_;
  /// VPIC's grid->neighbor: entry 6 * v + face (grid::Face order) is the
  /// local voxel across that face of voxel v — single-rank periodic wraps
  /// already resolved — or kRemoteFace or kWallFace. move_p steps from cell
  /// to cell with one load from it. Built once in the constructor, for every
  /// voxel (ghosts included).
  std::vector<std::int32_t> neighbor_;
  /// Per-voxel skin flag (1 = some face of the owned cell is kRemoteFace)
  /// and its summary, read off neighbor_ in the constructor.
  std::vector<std::uint8_t> skin_voxel_;
  bool has_skin_ = false;
  /// Pipeline p's skin and interior particles (ascending indices into its
  /// static slice), filled by advance_skin's classification scan *before*
  /// any particle moves, so advance_interior pushes exactly the complement
  /// even after skin particles changed cells. The buffers only grow; the
  /// counts say how much of each is valid.
  struct PassLists {
    std::vector<std::uint32_t> skin, interior;
    std::size_t n_skin = 0, n_interior = 0;
  };
  std::vector<PassLists> lists_;
  /// Particle count the lists were built for (advance_interior checks it).
  std::size_t listed_size_ = 0;
};

/// Sets up leapfrog time-centering: pulls momenta back from t to t-dt/2
/// using the fields at t. Call once after loading, before the first step.
/// Each particle is adjusted on its own, so `pool` (contiguous slices, one
/// per pipeline) changes no byte.
void uncenter_p(Species& sp, const InterpolatorArray& interp,
                const grid::LocalGrid& grid, Pipeline* pool = nullptr);

/// Inverse of uncenter_p (momenta from t-dt/2 to t), for diagnostics and
/// checkpointing that want time-centered momenta.
void center_p(Species& sp, const InterpolatorArray& interp,
              const grid::LocalGrid& grid);

}  // namespace minivpic::particles
