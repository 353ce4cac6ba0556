// Collisions and startup settling wired through the simulation driver.
#include <gtest/gtest.h>

#include "sim/simulation.hpp"
#include "util/error.hpp"

namespace minivpic::sim {
namespace {

Deck aniso_deck() {
  Deck d;
  d.grid.nx = d.grid.ny = d.grid.nz = 6;
  d.grid.dx = d.grid.dy = d.grid.dz = 0.5;
  SpeciesConfig e;
  e.name = "electron";
  e.q = -1;
  e.m = 1;
  e.load.ppc = 32;
  e.load.uth3 = {0.04, 0.04, 0.16};
  d.species.push_back(e);
  SpeciesConfig ion = e;
  ion.name = "ion";
  ion.q = +1;
  ion.m = 1836;
  ion.load.uth3 = {0, 0, 0};
  ion.load.uth = 0.001;
  ion.mobile = false;
  d.species.push_back(ion);
  return d;
}

double anisotropy(const particles::Species& sp) {
  double tz = 0, tp = 0;
  for (const auto& p : sp.particles()) {
    tz += double(p.uz) * p.uz;
    tp += 0.5 * (double(p.ux) * p.ux + double(p.uy) * p.uy);
  }
  return tz / tp;
}

TEST(CollisionalSim, DeckDrivesIsotropization) {
  Deck with = aniso_deck();
  CollisionSpec cs;
  cs.species_a = cs.species_b = "electron";
  cs.nu_scale = 3e-4;
  cs.period = 2;
  with.collisions.push_back(cs);
  Deck without = aniso_deck();

  Simulation sim_with(with), sim_without(without);
  sim_with.initialize();
  sim_without.initialize();
  sim_with.run(120);
  sim_without.run(120);
  EXPECT_GT(sim_with.particle_stats().collision_pairs, 0);
  EXPECT_EQ(sim_without.particle_stats().collision_pairs, 0);
  EXPECT_LT(anisotropy(sim_with.species(0)),
            0.8 * anisotropy(sim_without.species(0)));
  EXPECT_GT(sim_with.timings()[telemetry::Phase::kCollide].total_seconds(),
            0.0);
}

TEST(CollisionalSim, CollisionsPreserveTotalEnergyBudget) {
  Deck d = aniso_deck();
  CollisionSpec cs;
  cs.species_a = cs.species_b = "electron";
  cs.nu_scale = 3e-4;
  cs.period = 2;
  d.collisions.push_back(cs);
  Simulation sim(d);
  sim.initialize();
  const double e0 = sim.energies().total;
  sim.run(150);
  EXPECT_NEAR(sim.energies().total, e0, 0.02 * e0);
}

TEST(CollisionalSim, UnknownSpeciesRejected) {
  Deck d = aniso_deck();
  CollisionSpec cs;
  cs.species_a = "electron";
  cs.species_b = "positron";
  cs.nu_scale = 1e-4;
  d.collisions.push_back(cs);
  EXPECT_THROW(Simulation{d}, Error);
}

TEST(CollisionalSim, InvalidSpecRejected) {
  Deck d = aniso_deck();
  CollisionSpec cs;
  cs.species_a = cs.species_b = "electron";
  cs.nu_scale = -1;
  d.collisions.push_back(cs);
  EXPECT_THROW(Simulation{d}, Error);
  d.collisions[0].nu_scale = 1e-4;
  d.collisions[0].period = 0;
  EXPECT_THROW(Simulation{d}, Error);
}

TEST(CollisionalSim, InterspeciesThroughDeck) {
  Deck d = aniso_deck();
  d.species[1].mobile = true;  // let ions participate
  CollisionSpec cs;
  cs.species_a = "electron";
  cs.species_b = "ion";
  cs.nu_scale = 1e-4;
  cs.period = 3;
  d.collisions.push_back(cs);
  Simulation sim(d);
  sim.initialize();
  sim.run(30);
  EXPECT_GT(sim.particle_stats().collision_pairs, 0);
}

TEST(SettleTest, InitialSettleReducesGaussError) {
  Deck noisy = aniso_deck();
  noisy.species[1].load.uth = 0.001;
  // Use different seeds so rho has genuine shot noise at t=0.
  noisy.species[0].load.seed = 1;
  noisy.species[1].load.seed = 2;
  Deck settled = noisy;
  settled.init_settle_passes = 40;

  Simulation a(noisy), b(settled);
  a.initialize();
  b.initialize();
  EXPECT_LT(b.gauss_error(), 0.6 * a.gauss_error());
}

}  // namespace
}  // namespace minivpic::sim
