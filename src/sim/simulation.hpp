// The simulation driver: owns the per-rank state of one deck and advances
// it with the VPIC main-loop schedule.
//
// Per step (fields E,B at integer time t; particle momenta at t - dt/2):
//   1. rebuild the interpolator from E,B(t)
//   2. laser antenna deposits its sheet current
//   3. particle advance (momenta -> t+dt/2, positions -> t+dt, current into
//      the accumulators), inter-rank migration, optional sort
//   4. accumulator unload + halo source reduction
//   5. B half-advance, E advance, B half-advance (+ optional Marder clean)
#pragma once

#include <memory>
#include <vector>

#include "field/antenna.hpp"
#include "field/clean.hpp"
#include "field/energy.hpp"
#include "field/solver.hpp"
#include "particles/accumulator.hpp"
#include "particles/interpolator.hpp"
#include "particles/migrate.hpp"
#include "particles/push.hpp"
#include "sim/deck.hpp"
#include "telemetry/phase.hpp"
#include "util/pipeline.hpp"
#include "util/worker.hpp"
#include "vmpi/cart.hpp"
#include "vmpi/comm.hpp"

namespace minivpic::sim {

/// Wall-clock cost of each phase of the steps taken so far, indexed by
/// telemetry::Phase (the phase table in telemetry/phase.hpp).
using StepTimings = telemetry::StepTimings;

/// Per-step particle statistics (summed since construction).
struct ParticleStats {
  std::int64_t pushed = 0;
  std::int64_t crossings = 0;
  std::int64_t absorbed = 0;
  std::int64_t reflected = 0;
  std::int64_t migrated = 0;    ///< emigrants shipped to neighbor ranks
  std::int64_t immigrated = 0;  ///< immigrants settled from neighbor ranks
  std::int64_t refluxed = 0;
  std::int64_t collision_pairs = 0;
  std::int64_t sorted = 0;  ///< particles passed through the bin sort
};

/// Comm/compute overlap telemetry (docs/OVERLAP.md), cumulative since
/// construction. Only the overlapped loop fills the second group; the
/// `migrate` phase stopwatch then records just the *exposed* join wait, so
/// phase totals keep summing to the step wall time.
struct OverlapStats {
  bool enabled = false;              ///< resolved overlap mode
  std::int64_t overlapped_steps = 0; ///< species-advances run overlapped
  double skin_seconds = 0;           ///< pass S wall time
  double interior_seconds = 0;       ///< pass I wall time
  double comm_seconds = 0;           ///< async exchange wall (worker busy)
  double hidden_seconds = 0;         ///< comm time covered by pass I
  double exposed_seconds = 0;        ///< join wait after pass I
};

/// Globally reduced energy accounting.
struct EnergyReport {
  field::FieldEnergy field;            ///< global field energies
  std::vector<double> species_kinetic; ///< per species, deck order
  double kinetic_total = 0;
  double total = 0;
};

class Simulation {
 public:
  /// Multi-rank: `comm` and `topo` describe the decomposition (the topology
  /// must match comm->size()). Single-rank: pass nullptr for both.
  Simulation(const Deck& deck, vmpi::Comm* comm = nullptr,
             const vmpi::CartTopology* topo = nullptr);

  /// Loads particles, zeroes fields, sets up leapfrog centering. Must be
  /// called exactly once before step().
  void initialize();

  /// Advances one step.
  void step();

  /// Convenience: run n steps.
  void run(int nsteps);

  std::int64_t step_index() const { return step_; }
  double time() const { return time_; }

  // -- state access -----------------------------------------------------
  const grid::LocalGrid& local_grid() const { return grid_; }
  grid::FieldArray& fields() { return fields_; }
  const grid::FieldArray& fields() const { return fields_; }
  std::size_t num_species() const { return species_.size(); }
  particles::Species& species(std::size_t s) { return *species_[s]; }
  const particles::Species& species(std::size_t s) const { return *species_[s]; }
  particles::Species* find_species(const std::string& name);
  const Deck& deck() const { return deck_; }
  vmpi::Comm* comm() { return comm_; }

  // -- diagnostics --------------------------------------------------------
  EnergyReport energies() const;          ///< globally reduced
  std::int64_t global_particle_count() const;
  const StepTimings& timings() const { return timings_; }
  /// Resolved intra-rank pipeline count used by the particle advance.
  int pipelines() const { return pipeline_.size(); }
  /// Resolved particle-advance kernel (never kAuto; see particles/kernel.hpp).
  particles::Kernel kernel() const { return pusher_.kernel(); }
  const ParticleStats& particle_stats() const { return stats_; }
  /// Overlap ledger; `enabled` is true when the step loop runs the
  /// overlapped schedule (Deck::overlap resolved against the communicator
  /// at construction).
  const OverlapStats& overlap_stats() const { return overlap_stats_; }
  /// Cumulative busy wall seconds per pipeline inside the particle advance
  /// (index = pipeline id; empty before the first step). The spread across
  /// entries is the per-pipeline load imbalance telemetry reports.
  const std::vector<double>& pipeline_busy_seconds() const {
    return pipeline_busy_;
  }

  // -- telemetry -----------------------------------------------------------
  /// Attaches (or detaches, with nullptr) a Chrome-trace sink: every step
  /// phase is emitted as a nested span, and health/checkpoint events as
  /// instants. The writer must outlive the simulation or be detached
  /// first. Null pointer = zero-overhead disabled path.
  void set_trace(telemetry::TraceWriter* trace) { trace_ = trace; }
  telemetry::TraceWriter* trace() const { return trace_; }
  /// Attaches (or detaches, with nullptr) this rank's flight recorder: the
  /// step loop records step boundaries and phase begin/end events into it
  /// (telemetry/recorder.hpp). Same lifetime/null contract as set_trace.
  void set_recorder(telemetry::Recorder* recorder) { recorder_ = recorder; }
  telemetry::Recorder* recorder() const { return recorder_; }
  /// Deposits rho for the current particle positions (into fields().rhof).
  void deposit_rho();
  /// RMS Gauss-law residual (div E - rho) over the global interior; calls
  /// deposit_rho() internally.
  double gauss_error();

  // -- checkpointing (see checkpoint.hpp) ----------------------------------
  friend class Checkpoint;

 private:
  template <typename T>
  T reduce_sum(T v) const;

  /// Instruments one phase of step() into every attached sink.
  telemetry::PhaseProbe probe(telemetry::Phase phase) {
    return {phase, timings_, trace_, recorder_};
  }

  Deck deck_;
  vmpi::Comm* comm_;
  grid::LocalGrid grid_;
  grid::FieldArray fields_;
  grid::Halo halo_;
  field::FieldSolver solver_;
  field::DivergenceCleaner cleaner_;
  Pipeline pipeline_;  ///< intra-rank particle pipelines
  particles::InterpolatorArray interp_;
  /// One block per pipeline plus a dedicated migration block (the last):
  /// the async exchange deposits there so it never races a pipeline's
  /// interior deposits; reduce() folds it in fixed block order.
  particles::AccumulatorArray acc_;
  particles::Pusher pusher_;
  std::unique_ptr<field::LaserAntenna> antenna_;
  std::vector<std::unique_ptr<particles::Species>> species_;
  std::vector<bool> mobile_;
  /// Resolved collision pairs: indices into species_ (a == b allowed).
  struct ResolvedCollision {
    std::size_t a, b;
    double nu_scale;
    int period;
  };
  std::vector<ResolvedCollision> collisions_;

  std::int64_t step_ = 0;
  double time_ = 0;
  bool initialized_ = false;
  bool overlap_ = false;  ///< resolved Deck::overlap
  std::unique_ptr<util::Worker> comm_worker_;  ///< exists when overlap_
  StepTimings timings_;
  ParticleStats stats_;
  OverlapStats overlap_stats_;
  std::vector<double> pipeline_busy_;  ///< per-pipeline advance seconds
  telemetry::TraceWriter* trace_ = nullptr;  ///< optional span/event sink
  telemetry::Recorder* recorder_ = nullptr;  ///< optional flight recorder
};

}  // namespace minivpic::sim
