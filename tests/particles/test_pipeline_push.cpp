// The pipeline layer's correctness contract: advancing a species on N
// pipelines — each depositing into a private accumulator block, folded once
// per step — must reproduce the serial advance *exactly* (bit-identical
// unloaded J, identical counters, identical survivors) on decks without
// reflux walls, and statistically on decks with them (reflux draws come
// from per-pipeline RNG streams).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "harness.hpp"
#include "sim/simulation.hpp"
#include "util/error.hpp"
#include "util/pipeline.hpp"
#include "util/rng.hpp"

namespace minivpic::particles {
namespace {

using testing::MiniPic;
using testing::cube_grid;

/// MiniPic with the particle advance spread across a pipeline pool: the
/// production step sequence (advance -> migrate -> reduce -> unload).
struct PipelinePic {
  PipelinePic(const grid::GlobalGrid& gg, int n_pipelines,
              const ParticleBcSpec& pbc = periodic_particles())
      : pool(n_pipelines),
        grid(gg),
        fields(grid),
        halo(grid, nullptr),
        solver(grid, &halo),
        interp(grid),
        acc(grid, n_pipelines),
        pusher(grid, pbc) {
    solver.boundary().capture(fields);
  }

  Pusher::Result step(std::vector<Species*> species) {
    interp.load(fields);
    acc.clear();
    fields.clear_sources();
    Pusher::Result total;
    for (Species* sp : species) {
      auto r = pusher.advance(*sp, interp, acc, &pool);
      total.pushed += r.pushed;
      total.crossings += r.crossings;
      total.absorbed += r.absorbed;
      total.reflected += r.reflected;
      total.refluxed += r.refluxed;
      migrate_particles(std::move(r.emigrants), *sp, pusher, acc, grid,
                        nullptr);
    }
    acc.reduce(&pool);
    acc.unload(fields);
    for (Species* sp : species) accumulate_rho(*sp, fields);
    halo.reduce_sources(fields);
    solver.advance_b(fields, 0.5);
    solver.advance_e(fields);
    solver.advance_b(fields, 0.5);
    return total;
  }

  Pipeline pool;
  grid::LocalGrid grid;
  grid::FieldArray fields;
  grid::Halo halo;
  field::FieldSolver solver;
  InterpolatorArray interp;
  AccumulatorArray acc;
  Pusher pusher;
};

/// Loads counter-streaming electron beams (the two-stream setup): same
/// deterministic loader seed in both harnesses gives identical particles.
void load_two_stream(Species& a, Species& b, const grid::LocalGrid& g) {
  LoadConfig cfg;
  cfg.ppc = 12;
  cfg.uth = 0.02;
  cfg.drift = {0.3, 0, 0};
  load_uniform(a, g, cfg);
  cfg.drift = {-0.3, 0, 0};
  load_uniform(b, g, cfg);
}

/// True when every interior J component matches bit-for-bit.
::testing::AssertionResult j_identical(const grid::FieldArray& a,
                                       const grid::FieldArray& b) {
  const auto& g = a.grid();
  for (int k = 0; k <= g.nz() + 1; ++k)
    for (int j = 0; j <= g.ny() + 1; ++j)
      for (int i = 0; i <= g.nx() + 1; ++i) {
        if (a.jfx(i, j, k) != b.jfx(i, j, k) ||
            a.jfy(i, j, k) != b.jfy(i, j, k) ||
            a.jfz(i, j, k) != b.jfz(i, j, k))
          return ::testing::AssertionFailure()
                 << "J differs at (" << i << "," << j << "," << k << "): ("
                 << a.jfx(i, j, k) << "," << a.jfy(i, j, k) << ","
                 << a.jfz(i, j, k) << ") vs (" << b.jfx(i, j, k) << ","
                 << b.jfy(i, j, k) << "," << b.jfz(i, j, k) << ")";
      }
  return ::testing::AssertionSuccess();
}

/// True when every J component matches to `rel` times the grid-wide max
/// |J|. Rounding differences scale with the *deposit* magnitudes, so a
/// per-cell relative test would spuriously fail in near-cancellation cells
/// (counter-streaming currents summing to ~0).
::testing::AssertionResult j_close(const grid::FieldArray& a,
                                   const grid::FieldArray& b, double rel) {
  const auto& g = a.grid();
  double max_abs = 0;
  for (int k = 0; k <= g.nz() + 1; ++k)
    for (int j = 0; j <= g.ny() + 1; ++j)
      for (int i = 0; i <= g.nx() + 1; ++i)
        max_abs = std::max({max_abs, std::abs(double(a.jfx(i, j, k))),
                            std::abs(double(a.jfy(i, j, k))),
                            std::abs(double(a.jfz(i, j, k)))});
  const double tol = rel * std::max(max_abs, 1e-12);
  for (int k = 0; k <= g.nz() + 1; ++k)
    for (int j = 0; j <= g.ny() + 1; ++j)
      for (int i = 0; i <= g.nx() + 1; ++i) {
        const double comps[3][2] = {{a.jfx(i, j, k), b.jfx(i, j, k)},
                                    {a.jfy(i, j, k), b.jfy(i, j, k)},
                                    {a.jfz(i, j, k), b.jfz(i, j, k)}};
        for (const auto& c : comps)
          if (std::abs(c[0] - c[1]) > tol)
            return ::testing::AssertionFailure()
                   << "J differs at (" << i << "," << j << "," << k
                   << "): " << c[0] << " vs " << c[1] << " (tol " << tol
                   << ")";
      }
  return ::testing::AssertionSuccess();
}

TEST(PipelinePushTest, SparseDepositMatchesSerialBitwise) {
  // When no cell collects more than one deposit per accumulator block, the
  // in-order block fold reproduces the serial per-cell addition sequence
  // exactly — this is ==, not EXPECT_NEAR. Eight slow particles in eight
  // well-separated cells, two per pipeline.
  MiniPic serial(cube_grid(8, 0.5));
  PipelinePic piped(cube_grid(8, 0.5), 4);
  auto load = [](Species& sp, const grid::LocalGrid& g) {
    int n = 0;
    for (int c = 1; c <= 8; ++c) {
      Particle p;
      p.i = g.voxel(c, 1 + (c % 4) * 2, 1 + (c / 2) % 4 * 2);
      p.ux = 0.05f * float(n + 1);
      p.uy = -0.03f * float(n);
      p.uz = 0.02f;
      p.w = 0.7f;
      sp.add(p);
      ++n;
    }
  };
  Species ss("e", -1.0, 1.0), sp("e", -1.0, 1.0);
  load(ss, serial.grid);
  load(sp, piped.grid);
  const auto rs = serial.step({&ss});
  const auto rp = piped.step({&sp});
  EXPECT_EQ(rs.pushed, rp.pushed);
  EXPECT_EQ(rs.crossings, rp.crossings);
  ASSERT_TRUE(j_identical(serial.fields, piped.fields));
  // And the trajectories are always bit-identical in an identical field.
  for (std::size_t n = 0; n < ss.size(); ++n) {
    EXPECT_EQ(ss[n].i, sp[n].i);
    EXPECT_EQ(ss[n].dx, sp[n].dx);
    EXPECT_EQ(ss[n].ux, sp[n].ux);
  }
}

TEST(PipelinePushTest, DenseTwoStreamMatchesSerialToRounding) {
  // Dense deck: cells collect many deposits per block, so the fold rounds
  // in a different order than the serial running sum — agreement is to
  // float rounding (ULPs per cell), with counters still exact.
  MiniPic serial(cube_grid(8, 0.5));
  PipelinePic piped(cube_grid(8, 0.5), 4);
  Species se("e+", -1.0, 1.0), sb("e-", -1.0, 1.0);
  Species pe("e+", -1.0, 1.0), pb("e-", -1.0, 1.0);
  load_two_stream(se, sb, serial.grid);
  load_two_stream(pe, pb, piped.grid);

  for (int s = 0; s < 5; ++s) {
    const auto rs = serial.step({&se, &sb});
    const auto rp = piped.step({&pe, &pb});
    EXPECT_EQ(rs.pushed, rp.pushed);
    ASSERT_TRUE(j_close(serial.fields, piped.fields, 1e-4)) << "step " << s;
  }
  EXPECT_EQ(se.size(), pe.size());
  EXPECT_EQ(sb.size(), pb.size());
}

TEST(PipelinePushTest, TwoStreamDeckMatchesSerialThroughSimulation) {
  // The same contract via the production driver on the two-stream deck:
  // deck.pipelines = N tracks deck.pipelines = 1 to rounding.
  auto deck1 = sim::two_stream_deck(8, 8, 0.2);
  auto deckN = deck1;
  deck1.pipelines = 1;
  deckN.pipelines = 3;
  sim::Simulation s1(deck1), sN(deckN);
  s1.initialize();
  sN.initialize();
  EXPECT_EQ(sN.pipelines(), 3);
  s1.run(5);
  sN.run(5);
  EXPECT_TRUE(j_close(s1.fields(), sN.fields(), 1e-4));
  const auto e1 = s1.energies();
  const auto eN = sN.energies();
  EXPECT_NEAR(eN.kinetic_total / e1.kinetic_total, 1.0, 1e-6);
  EXPECT_NEAR(eN.field.total() / e1.field.total(), 1.0, 1e-4);
}

TEST(PipelinePushTest, AbsorbingWallCountersMatchSerial) {
  // Absorption is deterministic; emigrant/dead splicing is pipeline-major
  // in particle order, so even the removal sequence matches serial.
  auto gg = cube_grid(8, 0.5);
  gg.boundary = grid::lpi_boundaries();
  MiniPic serial(gg, lpi_particles());
  PipelinePic piped(gg, 4, lpi_particles());
  Species ss("e", -1.0, 1.0), sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 8;
  cfg.uth = 0.3;  // hot: steady wall losses
  load_uniform(ss, serial.grid, cfg);
  load_uniform(sp, piped.grid, cfg);

  std::int64_t absorbed_s = 0, absorbed_p = 0;
  for (int s = 0; s < 20; ++s) {
    const auto rs = serial.step({&ss});
    const auto rp = piped.step({&sp});
    EXPECT_EQ(rs.pushed, rp.pushed) << "step " << s;
    EXPECT_EQ(rs.crossings, rp.crossings) << "step " << s;
    EXPECT_EQ(rs.absorbed, rp.absorbed) << "step " << s;
    absorbed_s += rs.absorbed;
    absorbed_p += rp.absorbed;
  }
  EXPECT_GT(absorbed_s, 0) << "walls never hit — test is vacuous";
  EXPECT_EQ(absorbed_s, absorbed_p);
  EXPECT_EQ(ss.size(), sp.size());
}

TEST(PipelinePushTest, ChargeConservedAtNPipelines) {
  // div E - rho stays a constant of the motion when the deposit is split
  // across pipelines (the private-block fold must not drop or double count
  // any quadrant flux).
  PipelinePic pic(cube_grid(6, 0.5), 4);
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 16;
  cfg.uth = 0.5;  // many crossings per step
  load_uniform(sp, pic.grid, cfg);

  auto residual = [&]() {
    std::vector<double> r;
    const auto& g = pic.grid;
    for (int k = 1; k <= g.nz(); ++k)
      for (int j = 1; j <= g.ny(); ++j)
        for (int i = 1; i <= g.nx(); ++i)
          r.push_back(
              (double(pic.fields.ex(i, j, k)) - pic.fields.ex(i - 1, j, k)) /
                  g.dx() +
              (double(pic.fields.ey(i, j, k)) - pic.fields.ey(i, j - 1, k)) /
                  g.dy() +
              (double(pic.fields.ez(i, j, k)) - pic.fields.ez(i, j, k - 1)) /
                  g.dz() -
              pic.fields.rhof(i, j, k));
    return r;
  };
  pic.fields.clear_sources();
  accumulate_rho(sp, pic.fields);
  pic.halo.reduce_sources(pic.fields);
  const auto r0 = residual();
  double drift = 0;
  for (int s = 0; s < 10; ++s) {
    pic.step({&sp});
    const auto r = residual();
    for (std::size_t n = 0; n < r.size(); ++n)
      drift = std::max(drift, std::abs(r[n] - r0[n]));
  }
  EXPECT_LT(drift, 5e-4);
}

TEST(PipelinePushTest, RefluxStatisticsMatchSerial) {
  // Reflux walls draw from per-pipeline RNG streams, so a 2-pipeline run
  // diverges from serial particle-by-particle — but the wall physics must
  // agree statistically: same count conservation, similar traffic, similar
  // plasma temperature. (Regression for the old shared mutable RNG, which
  // would have been a data race across pipelines.)
  auto gg = cube_grid(8, 0.5);
  gg.boundary = grid::lpi_boundaries();
  ParticleBcSpec bc = periodic_particles();
  bc[grid::kFaceXLo] = ParticleBc::kReflux;
  bc[grid::kFaceXHi] = ParticleBc::kReflux;

  const double uth = 0.3;
  auto run = [&](int pipelines, std::int64_t* refluxed, double* ke) {
    PipelinePic pic(gg, pipelines, bc);
    pic.pusher.set_reflux_uth(uth);
    Species sp("e", -1.0, 1.0);
    LoadConfig cfg;
    cfg.ppc = 8;
    cfg.uth = uth;
    load_uniform(sp, pic.grid, cfg);
    const std::size_t n0 = sp.size();
    *refluxed = 0;
    for (int s = 0; s < 40; ++s) *refluxed += pic.step({&sp}).refluxed;
    EXPECT_EQ(sp.size(), n0) << "reflux must conserve particle count";
    *ke = sp.kinetic_energy();
  };
  std::int64_t reflux1 = 0, reflux2 = 0;
  double ke1 = 0, ke2 = 0;
  run(1, &reflux1, &ke1);
  run(2, &reflux2, &ke2);
  ASSERT_GT(reflux1, 100) << "walls barely hit — comparison is vacuous";
  ASSERT_GT(reflux2, 100);
  EXPECT_NEAR(double(reflux2) / double(reflux1), 1.0, 0.25);
  EXPECT_NEAR(ke2 / ke1, 1.0, 0.25);
}

TEST(PipelinePushTest, AdvanceRequiresOneBlockPerPipeline) {
  MiniPic pic(cube_grid(4, 0.5));  // acc has a single block
  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 2;
  load_uniform(sp, pic.grid, cfg);
  Pipeline pool(3);
  EXPECT_THROW(pic.pusher.advance(sp, pic.interp, pic.acc, &pool), Error);
}

TEST(PipelinePushTest, PooledFoldIsBitIdenticalToSerialFold) {
  // Each pipeline folds one contiguous voxel range across blocks 1..B-1 in
  // ascending block order, so every float receives the same additions in
  // the same order as the serial fold: memcmp-equal, not merely close.
  // Values span six decades so a different addition order would show.
  // 7^3 = 343 voxels does not divide evenly by any pool width below.
  const grid::LocalGrid g(cube_grid(5, 0.5));
  for (const int blocks : {2, 5}) {  // 5 = 4 pipelines + a migration block
    AccumulatorArray base(g, blocks);
    Rng rng(std::uint64_t(90 + blocks));
    float* f = reinterpret_cast<float*>(base.data());
    const std::size_t floats =
        base.size() * std::size_t(blocks) * (sizeof(CellAccum) / sizeof(float));
    for (std::size_t i = 0; i < floats; ++i)
      f[i] = float(rng.uniform(-1, 1) *
                   std::pow(10.0, double(rng.uniform_u64(6)) - 3.0));
    AccumulatorArray serial = base;
    serial.reduce();
    for (const int npipe : {1, 2, 4, 5}) {
      AccumulatorArray pooled = base;
      Pipeline pool(npipe);
      pooled.reduce(&pool);
      EXPECT_EQ(std::memcmp(pooled.data(), serial.data(),
                            floats * sizeof(float)),
                0)
          << blocks << " blocks on " << npipe << " pipelines";
    }
  }
}

}  // namespace
}  // namespace minivpic::particles
