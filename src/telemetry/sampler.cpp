#include "telemetry/sampler.hpp"

#include <algorithm>

#include "particles/kernel.hpp"
#include "perf/costs.hpp"

namespace minivpic::telemetry {

std::vector<ScalarMetric> StepSample::scalars() const {
  std::vector<ScalarMetric> out;
  out.reserve(32);
  for (const auto& [name, seconds] : phase_seconds)
    out.push_back({"phase." + name + ".s", "s", seconds});
  out.push_back({"step.s", "s", step_seconds});
  out.push_back({"wall.s", "s", wall_seconds});
  out.push_back({"steps", "count", double(step_end - step_begin)});
  out.push_back({"particles.local", "count", double(particles_local)});
  out.push_back({"particles.pushed", "count", double(pushed)});
  out.push_back({"particles.crossings", "count", double(crossings)});
  out.push_back({"particles.migrated", "count", double(migrated)});
  out.push_back({"particles.absorbed", "count", double(absorbed)});
  out.push_back({"particles.refluxed", "count", double(refluxed)});
  out.push_back({"collisions.pairs", "count", double(collision_pairs)});
  out.push_back({"particles.sorted", "count", double(sorted)});
  out.push_back({"sort.rate", "1/s", sort_rate});
  out.push_back({"push.rate", "1/s", particles_per_sec});
  out.push_back({"push.gflops", "Gflop/s", push_gflops});
  out.push_back({"push.gbytes_per_s", "GB/s", push_gbytes_per_sec});
  out.push_back({"field.gflops", "Gflop/s", field_gflops});
  out.push_back({"step.gflops", "Gflop/s", step_gflops});
  out.push_back({"pipeline.count", "count", pipelines});
  out.push_back({"pipeline.imbalance", "ratio", pipeline_imbalance});
  out.push_back({"pipeline.occupancy", "ratio", pipeline_occupancy});
  // The kernel name itself is a string and rides in the meta record; the
  // lane width is the numeric shadow so reductions can flag heterogeneous
  // fleets (min != max across ranks).
  out.push_back({"push.lane_width", "count", lane_width});
  // Per-rank work done this interval: the reduced max/mean of this metric
  // (and of particles.local above) is the cross-rank load-imbalance feed.
  out.push_back({"pipeline.busy.s", "s", busy_seconds});
  // Appended rows (schema is append-only): migration balance and the
  // comm/compute overlap ledger (docs/OVERLAP.md). Across ranks,
  // sum(particles.migrated) == sum(particles.immigrated) every interval.
  out.push_back({"particles.immigrated", "count", double(immigrated)});
  out.push_back({"comm.overlap.enabled", "bool", overlap_enabled});
  out.push_back({"comm.overlap.comm.s", "s", overlap_comm_s});
  out.push_back({"comm.overlap.hidden.s", "s", overlap_hidden_s});
  out.push_back({"comm.overlap.exposed.s", "s", overlap_exposed_s});
  return out;
}

StepSampler::StepSampler(const sim::Simulation& sim)
    : sim_(&sim), prev_(capture(sim)) {}

StepSampler::Snapshot StepSampler::capture(const sim::Simulation& sim) {
  Snapshot s;
  s.step = sim.step_index();
  s.timings = sim.timings();
  s.stats = sim.particle_stats();
  s.overlap = sim.overlap_stats();
  s.pipeline_busy = sim.pipeline_busy_seconds();
  return s;
}

double StepSampler::particles_per_second(std::int64_t pushed,
                                         double push_seconds) {
  return push_seconds > 0 ? double(pushed) / push_seconds : 0.0;
}

double StepSampler::push_gflops(std::int64_t pushed, double seconds) {
  if (seconds <= 0) return 0.0;
  return double(pushed) * perf::KernelCosts::push_flops_per_particle() /
         seconds / 1e9;
}

double StepSampler::push_gbytes_per_second(std::int64_t pushed,
                                           double particles_per_cell,
                                           double seconds) {
  if (seconds <= 0) return 0.0;
  return double(pushed) *
         perf::KernelCosts::push_bytes_per_particle(particles_per_cell) /
         seconds / 1e9;
}

StepSample StepSampler::derive(const sim::Simulation& sim,
                               const Snapshot& from, const Snapshot& to,
                               double wall_seconds) {
  StepSample s;
  s.step_begin = from.step;
  s.step_end = to.step;
  s.sim_time = sim.time();
  s.wall_seconds = wall_seconds;

  const auto phase_delta = [&](Phase p) {
    return std::max(0.0, to.timings[p].total_seconds() -
                             from.timings[p].total_seconds());
  };
  // The NDJSON phase keys: the timed phases, in phase-table order.
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    if (!kPhases[p].timed) continue;
    const double dt = phase_delta(Phase(p));
    s.phase_seconds.emplace_back(kPhases[p].name, dt);
    s.step_seconds += dt;
  }

  std::int64_t particles = 0;
  for (std::size_t sp = 0; sp < sim.num_species(); ++sp)
    particles += std::int64_t(sim.species(sp).size());
  s.particles_local = particles;

  s.pushed = to.stats.pushed - from.stats.pushed;
  s.crossings = to.stats.crossings - from.stats.crossings;
  s.migrated = to.stats.migrated - from.stats.migrated;
  s.absorbed = to.stats.absorbed - from.stats.absorbed;
  s.refluxed = to.stats.refluxed - from.stats.refluxed;
  s.collision_pairs = to.stats.collision_pairs - from.stats.collision_pairs;
  s.sorted = to.stats.sorted - from.stats.sorted;
  s.immigrated = to.stats.immigrated - from.stats.immigrated;

  // Overlap ledger: interval deltas of the cumulative OverlapStats. The
  // enabled flag is a property of the run, not of the interval.
  s.overlap_enabled = to.overlap.enabled ? 1.0 : 0.0;
  s.overlap_comm_s =
      std::max(0.0, to.overlap.comm_seconds - from.overlap.comm_seconds);
  s.overlap_hidden_s =
      std::max(0.0, to.overlap.hidden_seconds - from.overlap.hidden_seconds);
  s.overlap_exposed_s =
      std::max(0.0, to.overlap.exposed_seconds - from.overlap.exposed_seconds);

  // Sort rate: particles bin-sorted per second of sort-phase time. Zero in
  // intervals where the periodic sort never fired (the common case between
  // sort_every boundaries), so time series show the sort's duty cycle.
  s.sort_seconds = phase_delta(Phase::kSort);
  s.sort_rate = particles_per_second(s.sorted, s.sort_seconds);

  s.push_seconds = phase_delta(Phase::kPush);
  s.particles_per_sec = particles_per_second(s.pushed, s.push_seconds);
  s.push_gflops = push_gflops(s.pushed, s.push_seconds);
  const double ncells = double(sim.local_grid().num_cells());
  const double ppc = ncells > 0 ? double(particles) / ncells : 0.0;
  s.push_gbytes_per_sec =
      push_gbytes_per_second(s.pushed, ppc, s.push_seconds);

  // Field solve: flops/voxel per full B/E/B update, once per step.
  const double field_seconds = phase_delta(Phase::kField);
  const double nsteps = double(s.step_end - s.step_begin);
  if (field_seconds > 0 && nsteps > 0) {
    s.field_gflops = nsteps * double(sim.local_grid().num_cells()) *
                     perf::KernelCosts::field_flops_per_voxel() /
                     field_seconds / 1e9;
  }
  s.step_gflops = push_gflops(s.pushed, s.step_seconds);

  // Pipeline load balance over the interval, from the per-pipeline busy
  // seconds the pusher records. A serial advance (1 pipeline) is balanced
  // by definition; an idle interval (no push time) reports 1 as well.
  s.pipelines = double(sim.pipelines());
  const std::size_t n = to.pipeline_busy.size();
  double busy_sum = 0, busy_max = 0;
  for (std::size_t p = 0; p < n; ++p) {
    const double prev = p < from.pipeline_busy.size()
                            ? from.pipeline_busy[p]
                            : 0.0;
    const double busy = std::max(0.0, to.pipeline_busy[p] - prev);
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
  }
  s.busy_seconds = busy_sum;
  if (n > 0 && busy_sum > 0) {
    const double busy_mean = busy_sum / double(n);
    s.pipeline_imbalance = busy_max / busy_mean;
    s.pipeline_occupancy = busy_mean / busy_max;
  }

  s.kernel = particles::kernel_name(sim.kernel());
  s.lane_width = double(particles::kernel_lane_width(sim.kernel()));
  return s;
}

StepSample StepSampler::sample(double wall_seconds) {
  Snapshot now = capture(*sim_);
  StepSample s = derive(*sim_, prev_, now, wall_seconds);
  prev_ = std::move(now);
  return s;
}

StepSample StepSampler::derive_total(const sim::Simulation& sim,
                                     double wall_seconds) {
  return derive(sim, Snapshot{}, capture(sim), wall_seconds);
}

}  // namespace minivpic::telemetry
