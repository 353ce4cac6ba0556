#include "telemetry/sampler.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "perf/costs.hpp"
#include "sim/simulation.hpp"
#include "telemetry/phase.hpp"

namespace minivpic::telemetry {
namespace {

sim::Deck small_deck() {
  sim::Deck d;
  d.grid.nx = d.grid.ny = d.grid.nz = 6;
  d.grid.dx = d.grid.dy = d.grid.dz = 0.5;
  sim::SpeciesConfig e;
  e.name = "electron";
  e.q = -1;
  e.m = 1;
  e.load.ppc = 4;
  e.load.uth = 0.1;
  d.species.push_back(e);
  return d;
}

TEST(StepSamplerTest, SharedDerivationsAreTheCanonicalFormulas) {
  EXPECT_DOUBLE_EQ(StepSampler::particles_per_second(1000, 0.5), 2000.0);
  EXPECT_DOUBLE_EQ(StepSampler::particles_per_second(1000, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(
      StepSampler::push_gflops(1000000, 1.0),
      1e6 * perf::KernelCosts::push_flops_per_particle() / 1e9);
  EXPECT_DOUBLE_EQ(StepSampler::push_gflops(5, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(StepSampler::push_gbytes_per_second(0, 4.0, 1.0), 0.0);
  EXPECT_GT(StepSampler::push_gbytes_per_second(1000000, 4.0, 1.0), 0.0);
}

TEST(StepSamplerTest, DeriveTotalMatchesSimulationCounters) {
  sim::Simulation sim(small_deck());
  sim.initialize();
  sim.run(4);
  const StepSample total = StepSampler::derive_total(sim, 1.0);

  EXPECT_EQ(total.step_begin, 0);
  EXPECT_EQ(total.step_end, 4);
  EXPECT_DOUBLE_EQ(total.sim_time, sim.time());
  EXPECT_EQ(total.pushed, sim.particle_stats().pushed);
  EXPECT_EQ(total.particles_local,
            std::int64_t(sim.species(0).particles().size()));
  // 4 steps of one mobile species: every resident particle advanced each
  // step (this deck neither absorbs nor injects).
  EXPECT_EQ(total.pushed, 4 * total.particles_local);

  ASSERT_EQ(total.phase_seconds.size(), 9u);
  const char* expected[] = {"interpolate", "push",  "migrate",
                            "sort",        "reduce", "sources",
                            "field",       "clean",  "collide"};
  double phase_sum = 0;
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(total.phase_seconds[i].first, expected[i]);
    EXPECT_GE(total.phase_seconds[i].second, 0.0);
    phase_sum += total.phase_seconds[i].second;
  }
  EXPECT_DOUBLE_EQ(total.step_seconds, phase_sum);
  EXPECT_DOUBLE_EQ(total.step_seconds, sim.timings().total_seconds());

  // Rates agree with the shared formulas by construction.
  EXPECT_DOUBLE_EQ(
      total.particles_per_sec,
      StepSampler::particles_per_second(total.pushed, total.push_seconds));
  EXPECT_DOUBLE_EQ(total.push_gflops, StepSampler::push_gflops(
                                          total.pushed, total.push_seconds));
  EXPECT_GE(total.pipeline_imbalance, 1.0);
  EXPECT_GT(total.pipeline_occupancy, 0.0);
  EXPECT_LE(total.pipeline_occupancy, 1.0);
}

TEST(StepSamplerTest, SamplesCoverDisjointIntervals) {
  sim::Simulation sim(small_deck());
  sim.initialize();
  StepSampler sampler(sim);

  sim.run(2);
  const StepSample s1 = sampler.sample(0.5);
  EXPECT_EQ(s1.step_begin, 0);
  EXPECT_EQ(s1.step_end, 2);
  EXPECT_DOUBLE_EQ(s1.wall_seconds, 0.5);

  sim.run(3);
  const StepSample s2 = sampler.sample(0.25);
  EXPECT_EQ(s2.step_begin, 2);
  EXPECT_EQ(s2.step_end, 5);

  // Interval metrics are deltas of cumulative counters: the two samples
  // plus nothing else must add up to the whole-run totals.
  const StepSample total = StepSampler::derive_total(sim, 0.75);
  EXPECT_EQ(s1.pushed + s2.pushed, total.pushed);
  EXPECT_EQ(s1.crossings + s2.crossings, total.crossings);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_NEAR(s1.phase_seconds[i].second + s2.phase_seconds[i].second,
                total.phase_seconds[i].second, 1e-12);
  }

  // An empty interval is well-defined: zero counts, zero rates.
  const StepSample s3 = sampler.sample(0.1);
  EXPECT_EQ(s3.step_begin, 5);
  EXPECT_EQ(s3.step_end, 5);
  EXPECT_EQ(s3.pushed, 0);
  EXPECT_DOUBLE_EQ(s3.particles_per_sec, 0.0);
}

TEST(StepSamplerTest, ScalarsFollowTheCatalogue) {
  sim::Simulation sim(small_deck());
  sim.initialize();
  sim.run(1);
  const StepSample total = StepSampler::derive_total(sim, 0.5);
  const std::vector<ScalarMetric> scalars = total.scalars();

  auto value_of = [&](const std::string& name) -> const ScalarMetric* {
    for (const auto& m : scalars)
      if (m.name == name) return &m;
    return nullptr;
  };
  for (const char* name :
       {"phase.push.s", "step.s", "wall.s", "steps", "particles.pushed",
        "push.rate", "push.gflops", "push.gbytes_per_s", "field.gflops",
        "step.gflops", "pipeline.count", "pipeline.imbalance",
        "pipeline.occupancy"}) {
    EXPECT_NE(value_of(name), nullptr) << name;
  }
  EXPECT_EQ(value_of("push.rate")->unit, "1/s");
  EXPECT_EQ(value_of("push.gflops")->unit, "Gflop/s");
  EXPECT_DOUBLE_EQ(value_of("steps")->value, 1.0);
  EXPECT_DOUBLE_EQ(value_of("wall.s")->value, 0.5);
  EXPECT_DOUBLE_EQ(value_of("particles.pushed")->value,
                   double(total.pushed));

  // The flattened order is deterministic and identical across calls — the
  // property RankReducer's collective reduce() relies on.
  const std::vector<ScalarMetric> again = total.scalars();
  ASSERT_EQ(scalars.size(), again.size());
  for (std::size_t i = 0; i < scalars.size(); ++i)
    EXPECT_EQ(scalars[i].name, again[i].name);
}

/// The catalogue in docs/OBSERVABILITY.md cannot drift from the code: it
/// names every phase of the phase table and every key scalars() emits.
TEST(CatalogueTest, ObservabilityDocNamesEveryPhaseAndScalar) {
  std::ifstream is(std::string(MINIVPIC_DOCS_DIR) + "/OBSERVABILITY.md");
  ASSERT_TRUE(is.good());
  std::ostringstream text;
  text << is.rdbuf();
  const std::string doc = text.str();
  const auto documented = [&](const std::string& name) {
    return doc.find("`" + name + "`") != std::string::npos;
  };

  for (const PhaseInfo& p : kPhases) EXPECT_TRUE(documented(p.name)) << p.name;

  sim::Simulation sim(small_deck());
  sim.initialize();
  sim.run(1);
  for (const ScalarMetric& m : StepSampler::derive_total(sim, 1.0).scalars()) {
    // Per-phase keys are catalogued once, as the `phase.<p>.s` pattern.
    const bool phase_key = m.name.rfind("phase.", 0) == 0;
    EXPECT_TRUE(documented(phase_key ? "phase.<p>.s" : m.name)) << m.name;
  }
}

}  // namespace
}  // namespace minivpic::telemetry
