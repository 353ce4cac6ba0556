#include "particles/migrate.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "harness.hpp"
#include "util/error.hpp"
#include "vmpi/runtime.hpp"

namespace minivpic::particles {
namespace {

using testing::MultiPic;
using testing::cube_grid;

TEST(MigrateTest, SingleRankRejectsEmigrants) {
  const grid::LocalGrid g(cube_grid(4, 0.5));
  Species sp("e", -1.0, 1.0);
  Pusher pusher(g, periodic_particles());
  AccumulatorArray acc(g);
  std::vector<Emigrant> ghosts(1);
  EXPECT_THROW(
      migrate_particles(std::move(ghosts), sp, pusher, acc, g, nullptr),
      Error);
}

TEST(MigrateTest, EmptyMigrationIsCheapNoop) {
  const grid::LocalGrid g(cube_grid(4, 0.5));
  Species sp("e", -1.0, 1.0);
  Pusher pusher(g, periodic_particles());
  AccumulatorArray acc(g);
  const auto st = migrate_particles({}, sp, pusher, acc, g, nullptr);
  EXPECT_EQ(st.sent, 0);
  EXPECT_EQ(st.rounds, 0);
}

TEST(MigrateTest, ParticleCrossesRankBoundary) {
  const auto gg = cube_grid(8, 0.5);
  vmpi::run(2, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo({2, 1, 1}, {true, true, true});
    MultiPic pic(gg, topo, comm);
    Species sp("e", -1.0, 1.0);
    double x0 = 0, v = 0;
    if (comm.rank() == 0) {
      // Last cell of rank 0, moving +x fast enough to cross this step.
      Particle p;
      p.i = pic.grid.voxel(pic.grid.nx(), 4, 4);
      p.dx = 0.9f;
      p.ux = 2.0f;
      p.w = 1e-10f;
      sp.add(p);
      const auto c = pic.grid.voxel_coords(p.i);
      x0 = pic.grid.node_x(c[0]) + 0.5 * (1.0 + p.dx) * pic.grid.dx();
      v = 2.0 / std::sqrt(5.0);
    }
    const auto st = pic.step({&sp});
    const long long total =
        comm.allreduce_value<long long>((long long)sp.size(), vmpi::Op::kSum);
    EXPECT_EQ(total, 1);
    if (comm.rank() == 0) {
      EXPECT_EQ(sp.size(), 0u);  // it left
      EXPECT_EQ(st.migrate.sent, 1);
    } else {
      ASSERT_EQ(sp.size(), 1u);  // it arrived
      EXPECT_EQ(st.migrate.received, 1);
      const Particle& p = sp[0];
      const auto c = pic.grid.voxel_coords(p.i);
      EXPECT_TRUE(pic.grid.is_interior(c[0], c[1], c[2]));
      const double x1 =
          pic.grid.node_x(c[0]) + 0.5 * (1.0 + p.dx) * pic.grid.dx();
      // Sender's analytic endpoint (shared via the known initial state).
      const double expect =
          (0.5 * 8 / 2.0)  /* rank-0 slab end */ - 0.5 * 0.05 +
          0.0;  // placeholder, recomputed below
      (void)expect;
      // Recompute from rank-0 initial state: x0 = node_x(4)+... Both ranks
      // know the deck, so just recompute:
      const double start = 0.5 * (4 - 1) + 0.5 * (1.0 + 0.9) * 0.5 / 1.0;
      (void)start;
      const double sender_x0 = (4 - 1) * 0.5 + 0.5 * (1.0 + 0.9) * 0.5;
      const double vv = 2.0 / std::sqrt(5.0);
      EXPECT_NEAR(x1, sender_x0 + vv * pic.grid.dt(), 1e-5);
    }
    (void)x0;
    (void)v;
  });
}

TEST(MigrateTest, PeriodicWrapAcrossRanks) {
  const auto gg = cube_grid(8, 0.5);
  vmpi::run(2, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo({2, 1, 1}, {true, true, true});
    MultiPic pic(gg, topo, comm);
    Species sp("e", -1.0, 1.0);
    if (comm.rank() == 1) {
      // Last cell of the global domain moving +x: wraps to rank 0.
      Particle p;
      p.i = pic.grid.voxel(pic.grid.nx(), 4, 4);
      p.dx = 0.95f;
      p.ux = 2.0f;
      p.w = 1e-10f;
      sp.add(p);
    }
    pic.step({&sp});
    const long long mine = (long long)sp.size();
    if (comm.rank() == 0) {
      EXPECT_EQ(mine, 1);
    }
    if (comm.rank() == 1) {
      EXPECT_EQ(mine, 0);
    }
  });
}

TEST(MigrateTest, CornerHopTakesTwoRounds) {
  const auto gg = cube_grid(8, 0.5);
  vmpi::run(4, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo({2, 2, 1}, {true, true, true});
    MultiPic pic(gg, topo, comm);
    Species sp("e", -1.0, 1.0);
    if (comm.rank() == 0) {
      // Top-right corner cell of rank 0's slab, aimed diagonally out.
      Particle p;
      p.i = pic.grid.voxel(pic.grid.nx(), pic.grid.ny(), 4);
      p.dx = 0.98f;
      p.dy = 0.98f;
      p.ux = 3.0f;
      p.uy = 3.0f;
      p.w = 1e-10f;
      sp.add(p);
    }
    const auto st = pic.step({&sp});
    EXPECT_GE(st.migrate.rounds, 2) << "corner hop needs two exchange rounds";
    const long long total =
        comm.allreduce_value<long long>((long long)sp.size(), vmpi::Op::kSum);
    EXPECT_EQ(total, 1);
    // It should end up on the diagonal rank (rank 3).
    if (comm.rank() == 3) {
      EXPECT_EQ(sp.size(), 1u);
    }
  });
}

TEST(MigrateTest, PlasmaCountConservedOverManySteps) {
  const auto gg = cube_grid(8, 0.5);
  vmpi::run(2, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo({2, 1, 1}, {true, true, true});
    MultiPic pic(gg, topo, comm);
    Species sp("e", -1.0, 1.0);
    LoadConfig cfg;
    cfg.ppc = 8;
    cfg.uth = 0.4;  // hot: constant traffic between ranks
    load_uniform(sp, pic.grid, cfg);
    const long long total0 =
        comm.allreduce_value<long long>((long long)sp.size(), vmpi::Op::kSum);
    long long moved = 0;
    for (int s = 0; s < 10; ++s) {
      const auto st = pic.step({&sp});
      moved += st.migrate.sent;
      const long long total = comm.allreduce_value<long long>(
          (long long)sp.size(), vmpi::Op::kSum);
      ASSERT_EQ(total, total0) << "step " << s;
    }
    EXPECT_GT(comm.allreduce_value(moved, vmpi::Op::kSum), 0);
  });
}

TEST(MigrateTest, GaussResidualInvariantAcrossRanks) {
  // Charge conservation must hold through rank-to-rank handoffs too.
  const auto gg = cube_grid(8, 0.5);
  vmpi::run(2, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo({2, 1, 1}, {true, true, true});
    MultiPic pic(gg, topo, comm);
    Species sp("e", -1.0, 1.0);
    LoadConfig cfg;
    cfg.ppc = 8;
    cfg.uth = 0.4;
    load_uniform(sp, pic.grid, cfg);

    auto residual = [&](std::vector<double>& out) {
      out.clear();
      const auto& f = pic.fields;
      const auto& g = pic.grid;
      for (int k = 1; k <= g.nz(); ++k)
        for (int j = 1; j <= g.ny(); ++j)
          for (int i = 1; i <= g.nx(); ++i)
            out.push_back(
                (double(f.ex(i, j, k)) - f.ex(i - 1, j, k)) / g.dx() +
                (double(f.ey(i, j, k)) - f.ey(i, j - 1, k)) / g.dy() +
                (double(f.ez(i, j, k)) - f.ez(i, j, k - 1)) / g.dz() -
                f.rhof(i, j, k));
    };

    pic.fields.clear_sources();
    accumulate_rho(sp, pic.fields);
    pic.halo.reduce_sources(pic.fields);
    std::vector<double> r0, r;
    residual(r0);
    double drift = 0;
    for (int s = 0; s < 8; ++s) {
      pic.step({&sp});
      residual(r);
      for (std::size_t n = 0; n < r.size(); ++n)
        drift = std::max(drift, std::abs(r[n] - r0[n]));
    }
    EXPECT_LT(drift, 5e-4);
  });
}

}  // namespace
}  // namespace minivpic::particles
