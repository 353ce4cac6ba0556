// Input decks: the complete description of a simulation, plus the canned
// decks used by the examples, tests and paper-reproduction benches.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "field/antenna.hpp"
#include "grid/geometry.hpp"
#include "particles/kernel.hpp"
#include "particles/loader.hpp"
#include "particles/particle.hpp"

namespace minivpic::sim {

struct SpeciesConfig {
  std::string name;
  double q = -1.0;
  double m = 1.0;
  particles::LoadConfig load;
  bool mobile = true;  ///< immobile species contribute rho but are not pushed
  /// Wall reservoir temperature for kReflux particle boundaries; < 0 means
  /// "use load.uth".
  double reflux_uth = -1.0;
};

/// Binary Coulomb collisions between two species (equal names =
/// intra-species). Applied every `period` steps with the accumulated
/// collision interval period*dt; see particles/collisions.hpp for the
/// meaning of nu_scale.
struct CollisionSpec {
  std::string species_a;
  std::string species_b;
  double nu_scale = 0;
  int period = 10;
};

/// What sim::HealthMonitor does when a fault (NaN/Inf state, energy
/// blow-up, particle-loss anomaly) is detected.
enum class HealthPolicy {
  kAbort,     ///< log a final diagnostic dump and throw minivpic::Error
  kRollback,  ///< restore the last good checkpoint once; abort if the fault
              ///< recurs within `rollback_window` steps
  kWarn,      ///< log and keep running
};

/// Runtime health-sentinel configuration (see sim/health.hpp). All
/// thresholds are global (reduced across ranks).
struct HealthConfig {
  int period = 0;  ///< steps between scans; 0 disables the monitor
  /// Fault when global total energy exceeds this multiple of the reference
  /// energy captured at the first scan. <= 0 disables the energy check.
  double max_energy_growth = 100.0;
  /// Fault when the global particle count drops below (1 - this fraction)
  /// of the reference count. Absorbing walls lose particles legitimately;
  /// tune per deck. >= 1 disables the check.
  double max_particle_loss = 0.5;
  HealthPolicy policy = HealthPolicy::kAbort;
  /// After a rollback, a fault recurring within this many steps aborts.
  int rollback_window = 100;
};

struct Deck {
  grid::GlobalGrid grid;
  particles::ParticleBcSpec particle_bc = particles::periodic_particles();
  std::vector<SpeciesConfig> species;
  std::optional<field::LaserConfig> laser;
  std::vector<CollisionSpec> collisions;

  /// Intra-rank particle pipelines (threads) for the particle advance.
  /// 1 = the serial reference path; 0 or negative = one per hardware
  /// thread (util::Pipeline::resolve). The library default stays 1 so
  /// single-rank decks are deterministic without configuration; the CLI
  /// front ends (`--pipelines`) default to hardware-aware.
  int pipelines = 1;

  /// Particle-advance kernel (see particles/kernel.hpp and docs/KERNELS.md).
  /// Mirrors the `pipelines` convention: the library default is the scalar
  /// reference kernel so programmatic decks are conservative without
  /// configuration; the deck-file and CLI front ends (`kernel = auto`,
  /// `--kernel`) default to the widest kernel the host supports. kAuto is
  /// resolved at Simulation construction.
  particles::Kernel kernel = particles::Kernel::kScalar;

  /// Comm/compute overlap in the step loop (docs/OVERLAP.md): kAuto runs
  /// the migration exchange on a comm worker thread concurrently with the
  /// interior push on multi-rank runs, and barriered otherwise (a
  /// single-rank grid has no skin, so there is nothing to hide); kOff runs
  /// the same two-pass schedule inline (the barriered reference —
  /// bit-identical results, serialized phases).
  enum class Overlap { kOff, kAuto };
  Overlap overlap = Overlap::kAuto;

  int sort_period = 20;   ///< steps between particle sorts (0 = never);
                          ///< deck key `sort_every`
  int clean_period = 0;   ///< steps between Marder cleanings (0 = never)
  /// Steps between periodic checkpoint sets (0 = only on demand). The
  /// front ends honor this; the library never checkpoints on its own.
  int checkpoint_every = 0;
  int checkpoint_keep = 2;  ///< rotated snapshot sets retained on disk
  HealthConfig health;      ///< runtime health sentinels (default: off)
  int clean_passes = 2;   ///< Marder passes per cleaning
  /// Marder relaxation passes applied at initialization to settle E toward
  /// the sampled charge density (a cheap Poisson-solve substitute that
  /// removes the E=0-vs-noisy-rho startup transient). 0 disables.
  int init_settle_passes = 0;
  std::uint64_t collision_seed = 777;
};

// -- canned physics decks ----------------------------------------------------

/// Cold plasma (Langmuir) oscillation: a neutral e/ion plasma with a small
/// sinusoidal electron velocity perturbation along x; oscillates at omega_pe.
Deck plasma_oscillation_deck(int cells = 16, int ppc = 32,
                             double perturbation = 0.01);

/// Two-stream instability: counter-streaming electron beams (+-u_drift along
/// x) over a neutralizing ion background.
Deck two_stream_deck(int cells = 32, int ppc = 32, double u_drift = 0.2);

/// Weibel instability: temperature-anisotropic electrons (hot along z, cold
/// in the plane) over neutralizing ions; magnetic filaments grow.
Deck weibel_deck(int cells = 16, int ppc = 64, double uth_hot = 0.3,
                 double uth_cold = 0.03);

/// Laser-plasma interaction slab (the paper's science problem): a laser of
/// normalized amplitude a0 and frequency omega0/omega_pe = 1/sqrt(n/n_c)
/// launched along x into a uniform plasma slab at temperature te_kev, with
/// absorbing x walls and a vacuum gap on each side of the plasma.
struct LpiParams {
  double a0 = 0.05;
  double n_over_nc = 0.1;
  double te_kev = 2.6;
  int nx = 192, ny = 4, nz = 4;
  double dx = 0.25;        ///< cell size (c/omega_pe)
  int ppc = 64;
  double vacuum_cells = 24;  ///< vacuum gap at each x end
  double laser_ramp = 10.0;
  double ion_mass = 1836.0;
  bool mobile_ions = false;  ///< SRS timescales: ions usually frozen
  std::uint64_t seed = 2008;
};
Deck lpi_deck(const LpiParams& p);

}  // namespace minivpic::sim
