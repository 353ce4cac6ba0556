// StepSampler: turns the step loop's raw observables — Simulation's
// cumulative StepTimings, ParticleStats, per-pipeline busy seconds — and
// perf::KernelCosts' counted flop/byte costs into the derived metrics the
// paper reports: per-phase seconds, achieved Gflop/s and GB/s, particles
// advanced per second, migration counts, and the per-pipeline load-imbalance
// ratio. Each sample() covers the interval since the previous sample()
// (cumulative counters are differenced internally), so a periodic cadence
// yields a time series and derive_total() yields the whole-run summary.
//
// Every front end must derive rates through this class (see
// particles_per_second): the CLI print, the benches' JSON, and the NDJSON
// stream share one formula by construction.
//
// The sampler reads only local (per-rank) state and performs no
// communication; cross-rank min/mean/max/sum happens in RankReducer.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "telemetry/metrics.hpp"

namespace minivpic::telemetry {

/// Derived metrics for one sample interval (or a whole run). All values are
/// local to this rank; scalars() flattens them under the documented metric
/// catalogue (docs/OBSERVABILITY.md) for sinks and reduction.
struct StepSample {
  std::int64_t step_begin = 0;  ///< first step of the interval (exclusive)
  std::int64_t step_end = 0;    ///< last step of the interval (inclusive)
  double sim_time = 0;          ///< simulation time at step_end
  double wall_seconds = 0;      ///< caller-supplied wall clock of interval

  /// Seconds per timed phase, in phase-table order (telemetry/phase.hpp).
  std::vector<std::pair<std::string, double>> phase_seconds;
  double step_seconds = 0;  ///< sum of phase seconds

  std::int64_t particles_local = 0;  ///< resident particles at step_end
  std::int64_t pushed = 0;           ///< particle advances in interval
  std::int64_t crossings = 0;
  std::int64_t migrated = 0;
  std::int64_t absorbed = 0;
  std::int64_t refluxed = 0;
  std::int64_t collision_pairs = 0;
  std::int64_t sorted = 0;          ///< particles bin-sorted in interval

  double push_seconds = 0;
  double particles_per_sec = 0;     ///< pushed / push_seconds
  double push_gflops = 0;           ///< achieved, from counted flops/particle
  double push_gbytes_per_sec = 0;   ///< algorithmic bytes at the sampled ppc
  double field_gflops = 0;          ///< field solve achieved rate
  double step_gflops = 0;           ///< push flops over whole-step seconds

  double sort_seconds = 0;          ///< sort-phase seconds (= phase.sort.s)
  double sort_rate = 0;             ///< sorted / sort_seconds

  double pipelines = 1;             ///< resolved pipeline count
  double pipeline_imbalance = 1;    ///< max/mean per-pipeline busy seconds
  double pipeline_occupancy = 1;    ///< mean busy / max busy (1 = balanced)
  double busy_seconds = 0;          ///< summed per-pipeline busy seconds

  std::string kernel = "scalar";    ///< resolved advance kernel name
  double lane_width = 1;            ///< SIMD lanes of that kernel (1|4|8|16)

  std::int64_t immigrated = 0;      ///< immigrants settled in interval

  // Comm/compute overlap (docs/OVERLAP.md). Zero when the barriered loop
  // runs; in overlapped runs hidden + exposed == comm within clock jitter.
  double overlap_enabled = 0;       ///< 1 when the overlapped loop ran
  double overlap_comm_s = 0;        ///< async-exchange worker wall seconds
  double overlap_hidden_s = 0;      ///< comm seconds covered by interior push
  double overlap_exposed_s = 0;     ///< join-wait seconds (= phase.migrate
                                    ///< share attributable to the exchange)

  std::vector<ScalarMetric> scalars() const;
};

class StepSampler {
 public:
  /// Captures the baseline at the current simulation state; the first
  /// sample() covers everything after this point.
  explicit StepSampler(const sim::Simulation& sim);

  /// Derives the metrics accumulated since the previous sample() (or
  /// construction). `wall_seconds` is the caller-measured wall clock of
  /// the interval (the step loop owns the clock; the sampler owns the
  /// arithmetic).
  StepSample sample(double wall_seconds);

  /// Whole-run totals from step 0, independent of sample() history.
  static StepSample derive_total(const sim::Simulation& sim,
                                 double wall_seconds);

  // -- the shared derivations (single source of truth) ---------------------

  /// Particles advanced per second of push-phase time; 0 when no time has
  /// been accumulated. The ONLY particles/s formula in the tree.
  static double particles_per_second(std::int64_t pushed,
                                     double push_seconds);

  /// Achieved Gflop/s of the particle advance from the counted
  /// flops/particle (perf::KernelCosts::push_flops_per_particle).
  static double push_gflops(std::int64_t pushed, double seconds);

  /// Achieved GB/s of the particle advance from the algorithmic
  /// bytes/particle at `particles_per_cell` occupancy.
  static double push_gbytes_per_second(std::int64_t pushed,
                                       double particles_per_cell,
                                       double seconds);

 private:
  /// Cumulative observables read from the simulation (all inline accessors;
  /// no collectives).
  struct Snapshot {
    std::int64_t step = 0;
    sim::StepTimings timings;
    sim::ParticleStats stats;
    sim::OverlapStats overlap;
    std::vector<double> pipeline_busy;
  };
  static Snapshot capture(const sim::Simulation& sim);
  static StepSample derive(const sim::Simulation& sim, const Snapshot& from,
                           const Snapshot& to, double wall_seconds);

  const sim::Simulation* sim_;
  Snapshot prev_;
};

}  // namespace minivpic::telemetry
