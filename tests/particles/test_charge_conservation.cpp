// The defining invariant of the VPIC deposition scheme: the deposited
// current satisfies the discrete continuity equation exactly, so the Gauss
// residual  div E - rho  at every node is a constant of the motion (to
// single-precision round-off), no matter how particles move or cross cells.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "harness.hpp"
#include "util/rng.hpp"

namespace minivpic::particles {
namespace {

using testing::MiniPic;
using testing::cube_grid;

/// Gauss residual (div E - rho) at every interior node.
std::vector<double> gauss_residual(const grid::FieldArray& f) {
  const auto& g = f.grid();
  std::vector<double> r;
  r.reserve(std::size_t(g.num_cells()));
  for (int k = 1; k <= g.nz(); ++k)
    for (int j = 1; j <= g.ny(); ++j)
      for (int i = 1; i <= g.nx(); ++i)
        r.push_back((double(f.ex(i, j, k)) - f.ex(i - 1, j, k)) / g.dx() +
                    (double(f.ey(i, j, k)) - f.ey(i, j - 1, k)) / g.dy() +
                    (double(f.ez(i, j, k)) - f.ez(i, j, k - 1)) / g.dz() -
                    f.rhof(i, j, k));
  return r;
}

/// rho must be deposited for the residual to mean anything; MiniPic::step
/// already deposits rho for the post-push positions.
double max_residual_drift(MiniPic& pic, std::vector<Species*> species,
                          int steps) {
  // Establish the t=0 residual: deposit rho for the initial positions.
  pic.fields.clear_sources();
  pic.rho.deposit({species.begin(), species.end()}, pic.fields);
  pic.halo.reduce_sources(pic.fields);
  const auto r0 = gauss_residual(pic.fields);
  double drift = 0;
  for (int s = 0; s < steps; ++s) {
    pic.step(species);
    const auto r = gauss_residual(pic.fields);
    for (std::size_t n = 0; n < r.size(); ++n)
      drift = std::max(drift, std::abs(r[n] - r0[n]));
  }
  return drift;
}

TEST(ChargeConservation, ColdRandomPlasma) {
  MiniPic pic(cube_grid(6, 0.5));
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 8;
  cfg.uth = 0.0;
  cfg.drift = {0.2, -0.1, 0.05};
  load_uniform(sp, pic.grid, cfg);
  EXPECT_LT(max_residual_drift(pic, {&sp}, 10), 2e-4);
}

TEST(ChargeConservation, WarmPlasmaManyCrossings) {
  MiniPic pic(cube_grid(6, 0.5));
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 16;
  cfg.uth = 0.5;  // hot: many cell crossings per step
  load_uniform(sp, pic.grid, cfg);
  EXPECT_LT(max_residual_drift(pic, {&sp}, 10), 5e-4);
}

TEST(ChargeConservation, RelativisticBeam) {
  MiniPic pic(cube_grid(6, 0.5));
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 8;
  cfg.uth = 0.1;
  cfg.drift = {3.0, 0, 0};  // ultrarelativistic along x
  load_uniform(sp, pic.grid, cfg);
  EXPECT_LT(max_residual_drift(pic, {&sp}, 10), 5e-4);
}

TEST(ChargeConservation, TwoSpeciesWithFields) {
  MiniPic pic(cube_grid(6, 0.5));
  // Seed a nontrivial electromagnetic field so forces act on particles.
  Rng rng(3);
  for (int k = 1; k <= 6; ++k)
    for (int j = 1; j <= 6; ++j)
      for (int i = 1; i <= 6; ++i) {
        pic.fields.ey(i, j, k) = float(0.05 * rng.normal());
        pic.fields.cbz(i, j, k) = float(0.05 * rng.normal());
      }
  pic.solver.refresh_all(pic.fields);
  Species electrons("e", -1.0, 1.0);
  Species ions("i", +1.0, 100.0);
  LoadConfig cfg;
  cfg.ppc = 8;
  cfg.uth = 0.1;
  load_uniform(electrons, pic.grid, cfg);
  cfg.uth = 0.01;
  load_uniform(ions, pic.grid, cfg);
  EXPECT_LT(max_residual_drift(pic, {&electrons, &ions}, 10), 5e-4);
}

TEST(ChargeConservation, NeutralPairStartsGaussClean) {
  // Electrons and ions loaded with the same seed share positions, so the
  // initial rho vanishes node-by-node and E = 0 is self-consistent.
  MiniPic pic(cube_grid(6, 0.5));
  Species electrons("e", -1.0, 1.0);
  Species ions("i", +1.0, 1836.0);
  LoadConfig cfg;
  cfg.ppc = 8;
  cfg.uth = 0;
  load_uniform(electrons, pic.grid, cfg);
  load_uniform(ions, pic.grid, cfg);
  pic.fields.clear_sources();
  pic.rho.deposit({&electrons, &ions}, pic.fields);
  pic.halo.reduce_sources(pic.fields);
  for (double r : gauss_residual(pic.fields))
    EXPECT_NEAR(r, 0.0, 1e-5);
}

TEST(ChargeConservation, TotalChargeInvariant) {
  MiniPic pic(cube_grid(6, 0.5));
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 8;
  cfg.uth = 0.3;
  load_uniform(sp, pic.grid, cfg);
  const double q0 = sp.charge();
  for (int s = 0; s < 20; ++s) pic.step({&sp});
  EXPECT_NEAR(sp.charge(), q0, 1e-6 * std::abs(q0));
  // And the deposited rho integrates to the same total.
  double rho_total = 0;
  for (int k = 1; k <= 6; ++k)
    for (int j = 1; j <= 6; ++j)
      for (int i = 1; i <= 6; ++i) rho_total += pic.fields.rhof(i, j, k);
  rho_total *= pic.grid.cell_volume();
  EXPECT_NEAR(rho_total, q0, 1e-4 * std::abs(q0));
}

}  // namespace
}  // namespace minivpic::particles
