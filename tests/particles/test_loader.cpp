#include "particles/loader.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "util/error.hpp"

namespace minivpic::particles {
namespace {

grid::GlobalGrid cube(int n, double h = 0.5) {
  grid::GlobalGrid g;
  g.nx = g.ny = g.nz = n;
  g.dx = g.dy = g.dz = h;
  return g;
}

TEST(LoaderTest, CountAndWeights) {
  const grid::LocalGrid g(cube(4));
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 8;
  cfg.density = 1.0;
  const auto n = load_uniform(sp, g, cfg);
  EXPECT_EQ(n, 8u * 64u);
  EXPECT_EQ(sp.size(), n);
  // Each weight = density * dV / ppc.
  const float expect_w = float(0.125 / 8.0);
  for (const Particle& p : sp.particles()) EXPECT_FLOAT_EQ(p.w, expect_w);
  // Total charge = -density * volume.
  EXPECT_NEAR(sp.charge(), -1.0 * 64 * 0.125, 1e-4);
}

TEST(LoaderTest, AllParticlesInInterior) {
  const grid::LocalGrid g(cube(4));
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 4;
  load_uniform(sp, g, cfg);
  for (const Particle& p : sp.particles()) {
    const auto c = g.voxel_coords(p.i);
    EXPECT_TRUE(g.is_interior(c[0], c[1], c[2]));
    EXPECT_LE(std::abs(p.dx), 1.0f);
    EXPECT_LE(std::abs(p.dy), 1.0f);
    EXPECT_LE(std::abs(p.dz), 1.0f);
  }
}

TEST(LoaderTest, Deterministic) {
  const grid::LocalGrid g(cube(4));
  Species a("e", -1.0, 1.0), b("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 4;
  cfg.uth = 0.1;
  load_uniform(a, g, cfg);
  load_uniform(b, g, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t n = 0; n < a.size(); ++n) {
    EXPECT_EQ(a[n].dx, b[n].dx);
    EXPECT_EQ(a[n].ux, b[n].ux);
  }
}

TEST(LoaderTest, SeedChangesDraws) {
  const grid::LocalGrid g(cube(4));
  Species a("e", -1.0, 1.0), b("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 4;
  cfg.uth = 0.1;
  load_uniform(a, g, cfg);
  cfg.seed = 999;
  load_uniform(b, g, cfg);
  int same = 0;
  for (std::size_t n = 0; n < a.size(); ++n) same += (a[n].dx == b[n].dx);
  EXPECT_LT(same, int(a.size()) / 10);
}

TEST(LoaderTest, SpeciesSharePositionsNotMomenta) {
  const grid::LocalGrid g(cube(4));
  Species e("electron", -1.0, 1.0), ion("ion", 1.0, 1836.0);
  LoadConfig cfg;
  cfg.ppc = 4;
  cfg.uth = 0.1;
  load_uniform(e, g, cfg);
  load_uniform(ion, g, cfg);
  ASSERT_EQ(e.size(), ion.size());
  int same_u = 0;
  for (std::size_t n = 0; n < e.size(); ++n) {
    EXPECT_EQ(e[n].dx, ion[n].dx);
    EXPECT_EQ(e[n].dy, ion[n].dy);
    EXPECT_EQ(e[n].dz, ion[n].dz);
    EXPECT_EQ(e[n].i, ion[n].i);
    same_u += (e[n].ux == ion[n].ux);
  }
  EXPECT_LT(same_u, int(e.size()) / 10);
}

TEST(LoaderTest, DecompositionInvariant) {
  // The union of particles loaded by 2 ranks must equal the single-rank
  // load, cell by cell (keyed by global cell id and draw order).
  const auto gg = cube(4);
  const grid::LocalGrid whole(gg);
  Species all("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 3;
  cfg.uth = 0.2;
  load_uniform(all, whole, cfg);

  const vmpi::CartTopology topo({2, 1, 1}, {true, true, true});
  Species part0("e", -1.0, 1.0), part1("e", -1.0, 1.0);
  const grid::LocalGrid g0(gg, topo, 0);
  const grid::LocalGrid g1(gg, topo, 1);
  load_uniform(part0, g0, cfg);
  load_uniform(part1, g1, cfg);
  ASSERT_EQ(part0.size() + part1.size(), all.size());

  // Collect (global position, momentum) multisets and compare sorted.
  auto collect = [](const Species& sp, const grid::LocalGrid& g) {
    std::vector<std::array<float, 6>> v;
    for (const Particle& p : sp.particles()) {
      const auto c = g.voxel_coords(p.i);
      v.push_back({float(g.node_x(c[0])) + p.dx, float(g.node_y(c[1])) + p.dy,
                   float(g.node_z(c[2])) + p.dz, p.ux, p.uy, p.uz});
    }
    return v;
  };
  auto va = collect(all, whole);
  auto v0 = collect(part0, g0);
  auto v1 = collect(part1, g1);
  v0.insert(v0.end(), v1.begin(), v1.end());
  std::sort(va.begin(), va.end());
  std::sort(v0.begin(), v0.end());
  EXPECT_EQ(va, v0);
}

TEST(LoaderTest, ThermalSpreadMatches) {
  const grid::LocalGrid g(cube(8));
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 64;
  cfg.uth = 0.05;
  load_uniform(sp, g, cfg);
  double s2 = 0, mean = 0;
  for (const Particle& p : sp.particles()) {
    mean += p.ux;
    s2 += double(p.ux) * p.ux;
  }
  mean /= double(sp.size());
  s2 /= double(sp.size());
  EXPECT_NEAR(mean, 0.0, 3e-4);
  EXPECT_NEAR(std::sqrt(s2), 0.05, 1e-3);
}

TEST(LoaderTest, DriftApplied) {
  const grid::LocalGrid g(cube(4));
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 16;
  cfg.uth = 0.01;
  cfg.drift = {0.5, -0.25, 0.0};
  load_uniform(sp, g, cfg);
  double mx = 0, my = 0;
  for (const Particle& p : sp.particles()) {
    mx += p.ux;
    my += p.uy;
  }
  mx /= double(sp.size());
  my /= double(sp.size());
  EXPECT_NEAR(mx, 0.5, 2e-3);
  EXPECT_NEAR(my, -0.25, 2e-3);
}

TEST(LoaderTest, ProfileScalesWeights) {
  const grid::LocalGrid g(cube(4));
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 4;
  // Density step: zero in the lower half of x, 2x elsewhere.
  cfg.profile = [&](double x, double, double) { return x < 1.0 ? 0.0 : 2.0; };
  const auto n = load_uniform(sp, g, cfg);
  EXPECT_LT(n, 4u * 64u);  // zero-weight particles skipped
  EXPECT_GT(n, 0u);
  const float base_w = float(0.125 / 4.0);
  for (const Particle& p : sp.particles()) EXPECT_FLOAT_EQ(p.w, 2.0f * base_w);
}

TEST(LoaderTest, ProfiledLoadIsByteExactSubsetOnSupport) {
  // A profile only drops particles: the ones it keeps (at scale 1) carry the
  // bytes of the unprofiled load, momenta included, although dropped
  // particles draw no momenta.
  const grid::LocalGrid g(cube(4));
  LoadConfig cfg;
  cfg.ppc = 5;
  cfg.uth = 0.1;
  cfg.drift = {0.05, 0, -0.02};
  Species all("e", -1.0, 1.0), kept("e", -1.0, 1.0);
  load_uniform(all, g, cfg);
  const auto profile = [](double x, double, double z) {
    return x < 1.0 || z > 1.6 ? 0.0 : 1.0;
  };
  cfg.profile = profile;
  load_uniform(kept, g, cfg);
  std::vector<Particle> expect;
  for (const Particle& p : all.particles()) {
    const auto c = g.voxel_coords(p.i);
    const double x = g.node_x(c[0]) + 0.5 * (1.0 + p.dx) * g.dx();
    const double z = g.node_z(c[2]) + 0.5 * (1.0 + p.dz) * g.dz();
    if (profile(x, 0, z) != 0) expect.push_back(p);
  }
  ASSERT_GT(expect.size(), 0u);
  ASSERT_LT(expect.size(), all.size());
  ASSERT_EQ(kept.size(), expect.size());
  EXPECT_EQ(std::memcmp(kept.data(), expect.data(),
                        expect.size() * sizeof(Particle)),
            0);
}

TEST(LoaderTest, ZeroSpreadLoadsDriftExactly) {
  const grid::LocalGrid g(cube(4));
  Species cold("ion", 1.0, 1836.0);
  LoadConfig cfg;
  cfg.ppc = 4;
  cfg.drift = {0.25, -0.5, 0.1};
  load_uniform(cold, g, cfg);
  for (const Particle& p : cold.particles()) {
    EXPECT_EQ(p.ux, float(0.25));
    EXPECT_EQ(p.uy, float(-0.5));
    EXPECT_EQ(p.uz, float(0.1));
  }
  // A component without spread skips its draw without shifting the others:
  // hot along x only, ux matches the isotropic load's ux draw for draw.
  Species iso("e", -1.0, 1.0), hot_x("e", -1.0, 1.0);
  cfg.uth = 0.1;
  load_uniform(iso, g, cfg);
  cfg.uth3 = {0.1, 0, 0};
  load_uniform(hot_x, g, cfg);
  ASSERT_EQ(iso.size(), hot_x.size());
  for (std::size_t n = 0; n < iso.size(); ++n) {
    EXPECT_EQ(hot_x[n].ux, iso[n].ux);
    EXPECT_EQ(hot_x[n].uy, float(-0.5));
    EXPECT_EQ(hot_x[n].uz, float(0.1));
  }
}

TEST(LoaderTest, InvalidConfigRejected) {
  const grid::LocalGrid g(cube(4));
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 0;
  EXPECT_THROW(load_uniform(sp, g, cfg), Error);
  cfg.ppc = 4;
  cfg.density = -1;
  EXPECT_THROW(load_uniform(sp, g, cfg), Error);
  cfg.density = 1;
  cfg.uth = -0.1;
  EXPECT_THROW(load_uniform(sp, g, cfg), Error);
  cfg.uth = 0;
  cfg.profile = [](double, double, double) { return -1.0; };
  EXPECT_THROW(load_uniform(sp, g, cfg), Error);
}

}  // namespace
}  // namespace minivpic::particles
