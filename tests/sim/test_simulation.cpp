#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"
#include "vmpi/runtime.hpp"

namespace minivpic::sim {
namespace {

Deck small_plasma_deck() {
  Deck d;
  d.grid.nx = d.grid.ny = d.grid.nz = 6;
  d.grid.dx = d.grid.dy = d.grid.dz = 0.5;
  SpeciesConfig e;
  e.name = "electron";
  e.q = -1;
  e.m = 1;
  e.load.ppc = 4;
  e.load.uth = 0.1;
  d.species.push_back(e);
  SpeciesConfig ion;
  ion.name = "ion";
  ion.q = +1;
  ion.m = 1836;
  ion.load.ppc = 4;
  ion.mobile = false;
  d.species.push_back(ion);
  return d;
}

TEST(SimulationTest, ConstructionValidation) {
  Deck d = small_plasma_deck();
  d.species.clear();
  EXPECT_THROW(Simulation{d}, Error);
  d = small_plasma_deck();
  d.sort_period = -1;
  EXPECT_THROW(Simulation{d}, Error);
  d = small_plasma_deck();
  d.clean_passes = 0;
  EXPECT_THROW(Simulation{d}, Error);
}

TEST(SimulationTest, LifecycleEnforced) {
  Simulation sim(small_plasma_deck());
  EXPECT_THROW(sim.step(), Error);
  sim.initialize();
  EXPECT_THROW(sim.initialize(), Error);
  EXPECT_NO_THROW(sim.step());
  EXPECT_EQ(sim.step_index(), 1);
  EXPECT_NEAR(sim.time(), sim.local_grid().dt(), 1e-12);
}

TEST(SimulationTest, LoadsExpectedParticles) {
  Simulation sim(small_plasma_deck());
  sim.initialize();
  EXPECT_EQ(sim.num_species(), 2u);
  EXPECT_EQ(sim.species(0).size(), 4u * 216u);
  EXPECT_EQ(sim.global_particle_count(), 2 * 4 * 216);
  EXPECT_NE(sim.find_species("electron"), nullptr);
  EXPECT_NE(sim.find_species("ion"), nullptr);
  EXPECT_EQ(sim.find_species("positron"), nullptr);
}

TEST(SimulationTest, ImmobileSpeciesStaysPut) {
  Simulation sim(small_plasma_deck());
  sim.initialize();
  const auto& ion = *sim.find_species("ion");
  const particles::Particle p0 = ion[0];
  sim.run(5);
  EXPECT_EQ(ion[0].dx, p0.dx);
  EXPECT_EQ(ion[0].i, p0.i);
}

TEST(SimulationTest, EnergiesReported) {
  Simulation sim(small_plasma_deck());
  sim.initialize();
  sim.run(3);
  const auto rep = sim.energies();
  ASSERT_EQ(rep.species_kinetic.size(), 2u);
  EXPECT_GT(rep.species_kinetic[0], 0.0);   // warm electrons
  EXPECT_GE(rep.field.total(), 0.0);
  EXPECT_NEAR(rep.total, rep.field.total() + rep.kinetic_total, 1e-12);
}

TEST(SimulationTest, StatsAccumulate) {
  Simulation sim(small_plasma_deck());
  sim.initialize();
  sim.run(4);
  const auto& st = sim.particle_stats();
  EXPECT_EQ(st.pushed, 4 * 4 * 216);  // only mobile electrons
  EXPECT_GE(st.crossings, 0);
  EXPECT_EQ(st.absorbed, 0);
  EXPECT_GT(sim.timings()[telemetry::Phase::kPush].total_seconds(), 0.0);
  EXPECT_EQ(sim.timings()[telemetry::Phase::kPush].laps(), 4u);
}

TEST(SimulationTest, GaussErrorSmallAndBounded) {
  Simulation sim(small_plasma_deck());
  sim.initialize();
  const double e0 = sim.gauss_error();
  EXPECT_LT(e0, 1e-4);  // neutral start
  sim.run(10);
  EXPECT_LT(sim.gauss_error(), 1e-3);
}

TEST(SimulationTest, SortPeriodKeepsPhysicsIdentical) {
  // Sorting is a pure reordering: a run with aggressive sorting must give
  // the same energies as an unsorted run (float reduction order changes
  // slightly; tolerances reflect that).
  Deck a = small_plasma_deck();
  a.sort_period = 0;
  Deck b = small_plasma_deck();
  b.sort_period = 1;
  Simulation sa(a), sb(b);
  sa.initialize();
  sb.initialize();
  sa.run(10);
  sb.run(10);
  const auto ra = sa.energies(), rb = sb.energies();
  EXPECT_NEAR(ra.kinetic_total, rb.kinetic_total,
              1e-4 * std::abs(ra.kinetic_total));
  EXPECT_NEAR(ra.field.total(), rb.field.total(),
              1e-3 * std::max(ra.field.total(), 1e-12));
}

TEST(SimulationTest, MultiRankMatchesSingleRank) {
  // The decomposition must not change the physics: global energies after a
  // few steps agree between 1-rank and 2-rank runs of the same deck.
  const Deck deck = small_plasma_deck();
  Simulation solo(deck);
  solo.initialize();
  solo.run(5);
  const auto ref = solo.energies();
  const auto ref_count = solo.global_particle_count();

  vmpi::run(2, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo({2, 1, 1}, {true, true, true});
    Simulation sim(deck, &comm, &topo);
    sim.initialize();
    EXPECT_EQ(sim.global_particle_count(), ref_count);
    sim.run(5);
    const auto rep = sim.energies();
    EXPECT_NEAR(rep.kinetic_total, ref.kinetic_total,
                1e-3 * std::abs(ref.kinetic_total));
    EXPECT_NEAR(rep.field.total(), ref.field.total(),
                1e-2 * std::max(ref.field.total(), 1e-10));
    EXPECT_EQ(sim.global_particle_count(), ref_count);
  });
}

TEST(SimulationTest, FourRankDecompositions) {
  const Deck deck = small_plasma_deck();
  Simulation solo(deck);
  solo.initialize();
  solo.run(3);
  const auto ref = solo.energies();
  for (const auto dims : {std::array<int, 3>{2, 2, 1}, std::array<int, 3>{1, 2, 2}}) {
    vmpi::run(4, [&](vmpi::Comm& comm) {
      const vmpi::CartTopology topo(dims, {true, true, true});
      Simulation sim(deck, &comm, &topo);
      sim.initialize();
      sim.run(3);
      const auto rep = sim.energies();
      EXPECT_NEAR(rep.kinetic_total, ref.kinetic_total,
                  1e-3 * std::abs(ref.kinetic_total));
    });
  }
}

TEST(SimulationTest, TopologyMismatchRejected) {
  const Deck deck = small_plasma_deck();
  vmpi::run(2, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo({3, 1, 1}, {true, true, true});
    EXPECT_THROW(Simulation(deck, &comm, &topo), Error);
    EXPECT_THROW(Simulation(deck, &comm, nullptr), Error);
  });
}

}  // namespace
}  // namespace minivpic::sim
