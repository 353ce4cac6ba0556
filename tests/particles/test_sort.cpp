// The bin sort's contract (docs/SORTING.md):
//   - pure permutation: the byte-multiset of particles is untouched;
//   - stable: particles sharing a voxel keep their arrival order, so the
//     sort has exactly one output and every pipeline count (including more
//     pipelines than particles) produces it byte for byte;
//   - idempotent: sorting a sorted list reproduces it byte for byte;
//   - out of place into a scratch kept across calls at capacity(): repeated
//     sorts alternate between the same two buffers, and growth past the
//     scratch reallocates it;
//   - a corrupt voxel index throws Error and leaves the list byte-identical,
//     with or without a pool;
//   - physics-neutral: a sorted and an unsorted particle list advance to
//     bit-identical per-particle states over a single step (each particle
//     reads only its own state plus the read-only interpolator), with exact
//     integer counters; over many steps only the order of the float J
//     deposits within a cell differs, so fields — and through them energies
//     — agree to rounding, not bit-exactly;
//   - safe right after migration/reflux: every particle a step leaves
//     behind has a valid interior voxel, so a sort can run on any step
//     boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "harness.hpp"
#include "util/error.hpp"
#include "util/pipeline.hpp"
#include "util/rng.hpp"

namespace minivpic::particles {
namespace {

using testing::MiniPic;
using testing::cube_grid;

void fill_random(Species& sp, const grid::LocalGrid& g, int n, int cells,
                 std::uint64_t seed) {
  Rng rng(seed);
  for (int k = 0; k < n; ++k) {
    Particle p;
    p.i = g.voxel(1 + int(rng.uniform_u64(std::uint64_t(cells))),
                  1 + int(rng.uniform_u64(std::uint64_t(cells))),
                  1 + int(rng.uniform_u64(std::uint64_t(cells))));
    p.dx = float(rng.uniform(-1, 1));
    p.dy = float(rng.uniform(-1, 1));
    p.dz = float(rng.uniform(-1, 1));
    p.ux = float(rng.uniform(-0.1, 0.1));
    p.w = 1.0f + float(k % 7);
    sp.add(p);
  }
}

void shuffle(Species& sp, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t n = sp.size(); n > 1; --n)
    std::swap(sp[n - 1], sp[std::size_t(rng.uniform_u64(n))]);
}

bool bytes_equal(const Species& a, const Species& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Particle)) == 0;
}

/// The particle list as an order-independent multiset of 32-byte records.
std::vector<std::array<unsigned char, sizeof(Particle)>> canon(
    const Species& sp) {
  std::vector<std::array<unsigned char, sizeof(Particle)>> v(sp.size());
  for (std::size_t n = 0; n < sp.size(); ++n)
    std::memcpy(v[n].data(), &sp[n], sizeof(Particle));
  std::sort(v.begin(), v.end());
  return v;
}

TEST(SortTest, IsPermutationAndOrders) {
  const grid::LocalGrid g(cube_grid(4, 0.5));
  Species sp("e", -1.0, 1.0);
  fill_random(sp, g, 1000, 4, 21);
  const auto before = canon(sp);
  sp.sort(g);
  for (std::size_t n = 1; n < sp.size(); ++n)
    ASSERT_LE(sp[n - 1].i, sp[n].i) << "unsorted at " << n;
  EXPECT_EQ(canon(sp), before) << "sort must be a pure permutation";
}

TEST(SortTest, Idempotent) {
  const grid::LocalGrid g(cube_grid(4, 0.5));
  Species sp("e", -1.0, 1.0);
  fill_random(sp, g, 1000, 4, 22);
  sp.sort(g);
  std::vector<Particle> snap(sp.particles().begin(), sp.particles().end());
  sp.sort(g);  // a stable sort of a sorted list is the identity
  ASSERT_EQ(sp.size(), snap.size());
  EXPECT_EQ(std::memcmp(sp.data(), snap.data(),
                        snap.size() * sizeof(Particle)),
            0);
}

TEST(SortTest, PipelinedMatchesSerial) {
  const grid::LocalGrid g(cube_grid(4, 0.5));
  Species serial("e", -1.0, 1.0);
  fill_random(serial, g, 2000, 4, 23);
  // Same content, sorted under different pool widths (including one that
  // does not divide the particle count evenly).
  for (const int npipe : {2, 4, 5}) {
    Species pooled("e", -1.0, 1.0);
    fill_random(pooled, g, 2000, 4, 23);
    ASSERT_TRUE(bytes_equal(serial, pooled));
    Pipeline pool(npipe);
    pooled.sort(g, &pool);
    Species ref("e", -1.0, 1.0);
    fill_random(ref, g, 2000, 4, 23);
    ref.sort(g);  // serial reference
    EXPECT_TRUE(bytes_equal(ref, pooled))
        << "pipelined sort (" << npipe << " pipelines) diverged from serial";
  }
}

/// Tags every particle with its arrival index through `w`.
void tag_arrival_order(Species& sp) {
  for (std::size_t n = 0; n < sp.size(); ++n) sp[n].w = float(n);
}

/// True when the list is in voxel order and, within each voxel, in
/// ascending tag order.
::testing::AssertionResult sorted_and_stable(const Species& sp) {
  for (std::size_t n = 1; n < sp.size(); ++n) {
    if (sp[n - 1].i > sp[n].i)
      return ::testing::AssertionFailure() << "unsorted at " << n;
    if (sp[n - 1].i == sp[n].i && sp[n - 1].w >= sp[n].w)
      return ::testing::AssertionFailure()
             << "voxel " << sp[n].i << " reorders tags " << sp[n - 1].w
             << " and " << sp[n].w << " at " << n;
  }
  return ::testing::AssertionSuccess();
}

TEST(SortTest, StableWithinVoxelForEveryPool) {
  const grid::LocalGrid g(cube_grid(4, 0.5));
  for (const int npipe : {1, 2, 4, 5}) {
    Species sp("e", -1.0, 1.0);
    fill_random(sp, g, 2000, 4, 24);  // ~31 particles per voxel
    tag_arrival_order(sp);
    Pipeline pool(npipe);
    sp.sort(g, &pool);
    EXPECT_TRUE(sorted_and_stable(sp)) << npipe << " pipelines";
  }
}

TEST(SortTest, FewerParticlesThanPipelines) {
  const grid::LocalGrid g(cube_grid(4, 0.5));
  Pipeline pool(5);
  for (const int n : {2, 3}) {
    Species sp("e", -1.0, 1.0);
    // Two particles share a voxel, so stability is visible.
    const std::int32_t voxels[] = {g.voxel(3, 2, 1), g.voxel(1, 1, 1),
                                   g.voxel(3, 2, 1)};
    for (int k = 0; k < n; ++k) {
      Particle p;
      p.i = voxels[k];
      p.w = float(k);
      sp.add(p);
    }
    Species ref = sp;
    ref.sort(g);
    sp.sort(g, &pool);
    ASSERT_EQ(sp.size(), std::size_t(n));
    EXPECT_TRUE(sorted_and_stable(sp)) << n << " particles";
    EXPECT_TRUE(bytes_equal(ref, sp)) << n << " particles";
  }
}

TEST(SortTest, ScratchFollowsGrowthAndAlternates) {
  const grid::LocalGrid g(cube_grid(4, 0.5));
  Pipeline pool(4);
  Species sp("e", -1.0, 1.0, 1024);
  fill_random(sp, g, 1000, 4, 25);
  sp.sort(g, &pool);
  // Grow past the scratch the first sort sized to the old capacity.
  const std::size_t cap0 = sp.capacity();
  fill_random(sp, g, int(cap0), 4, 26);
  ASSERT_GT(sp.capacity(), cap0);
  const auto before = canon(sp);
  sp.sort(g, &pool);
  for (std::size_t n = 1; n < sp.size(); ++n)
    ASSERT_LE(sp[n - 1].i, sp[n].i) << "unsorted at " << n;
  EXPECT_EQ(canon(sp), before) << "sort must be a pure permutation";

  // At a fixed size the sort swaps between the same two buffers and keeps
  // the capacity, so immigrant appends after a sort need no regrow.
  const std::size_t cap = sp.capacity();
  std::vector<const Particle*> seen;
  for (int k = 0; k < 6; ++k) {
    shuffle(sp, 40 + std::uint64_t(k));
    sp.sort(g, k % 2 == 0 ? &pool : nullptr);
    EXPECT_EQ(sp.capacity(), cap);
    seen.push_back(sp.data());
  }
  EXPECT_EQ(std::set<const Particle*>(seen.begin(), seen.end()).size(), 2u);
  for (std::size_t k = 1; k < seen.size(); ++k)
    EXPECT_NE(seen[k], seen[k - 1]) << "sort " << k << " reused its input";
}

TEST(SortTest, PooledCorruptVoxelThrowsAndLeavesListIntact) {
  const grid::LocalGrid g(cube_grid(4, 0.5));
  Pipeline pool(4);
  // The bad particle sits in pipeline 0's slice, a middle slice, and the
  // last slice in turn, so both the calling thread and the workers throw.
  for (const std::size_t bad : {std::size_t(0), std::size_t(500),
                                std::size_t(999)}) {
    Species sp("e", -1.0, 1.0);
    fill_random(sp, g, 1000, 4, 27);
    sp.sort(g, &pool);  // the scratch exists; a throw must not swap it in
    shuffle(sp, 28);
    sp[bad].i = std::int32_t(g.num_voxels()) + 3;
    const std::vector<Particle> snap(sp.particles().begin(),
                                     sp.particles().end());
    const Particle* data = sp.data();
    EXPECT_THROW(sp.sort(g, &pool), Error) << "bad particle " << bad;
    ASSERT_EQ(sp.size(), snap.size());
    EXPECT_EQ(sp.data(), data);
    EXPECT_EQ(std::memcmp(sp.data(), snap.data(),
                          snap.size() * sizeof(Particle)),
              0)
        << "bad particle " << bad;
  }
}

// One PIC step on a sorted list vs the same particles shuffled: every
// particle advances independently off the shared read-only interpolator, so
// the resulting particle *multisets* are bit-identical and the integer
// counters exact — for every advance kernel this host can run.
TEST(SortTest, SortedVsUnsortedSingleStepBitParityPerKernel) {
  for (const Kernel kernel : available_kernels()) {
    const auto gg = cube_grid(6, 0.5, 0.05);
    MiniPic sorted_pic(gg), shuffled_pic(gg);
    for (int k = 0; k <= 7; ++k)
      for (int j = 0; j <= 7; ++j)
        for (int i = 0; i <= 7; ++i) {
          sorted_pic.fields.ey(i, j, k) = 0.02f * float(std::sin(0.4 * i));
          shuffled_pic.fields.ey(i, j, k) = 0.02f * float(std::sin(0.4 * i));
        }
    sorted_pic.pusher.set_kernel(kernel);
    shuffled_pic.pusher.set_kernel(kernel);

    Species a("e", -1.0, 1.0), b("e", -1.0, 1.0);
    LoadConfig cfg;
    cfg.ppc = 8;
    cfg.uth = 0.2;
    load_uniform(a, sorted_pic.grid, cfg);
    load_uniform(b, shuffled_pic.grid, cfg);
    ASSERT_TRUE(bytes_equal(a, b));
    a.sort(sorted_pic.grid);  // load_uniform already emits sorted order
    shuffle(b, 31);

    const auto ra = sorted_pic.step({&a});
    const auto rb = shuffled_pic.step({&b});
    EXPECT_EQ(ra.pushed, rb.pushed) << kernel_name(kernel);
    EXPECT_EQ(ra.crossings, rb.crossings) << kernel_name(kernel);
    EXPECT_EQ(ra.absorbed, rb.absorbed) << kernel_name(kernel);
    EXPECT_EQ(ra.refluxed, rb.refluxed) << kernel_name(kernel);
    EXPECT_EQ(canon(a), canon(b))
        << "per-particle states must be bit-identical after one step ("
        << kernel_name(kernel) << " kernel)";
  }
}

// Over many steps the deposit *order* within a cell differs between the two
// orderings, so J — and through the field solve, the trajectories — agree
// to float rounding only. Energies must track tightly; counters that don't
// depend on rounding (pushed) stay exact.
TEST(SortTest, SortedVsUnsortedMultiStepEnergyParity) {
  const auto gg = cube_grid(6, 0.5, 0.05);
  MiniPic sorted_pic(gg), shuffled_pic(gg);
  for (int i = 0; i <= 7; ++i)
    for (int j = 0; j <= 7; ++j)
      for (int k = 0; k <= 7; ++k) {
        sorted_pic.fields.ey(i, j, k) = 0.02f * float(std::sin(0.4 * i));
        shuffled_pic.fields.ey(i, j, k) = 0.02f * float(std::sin(0.4 * i));
      }
  Species a("e", -1.0, 1.0), b("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 8;
  cfg.uth = 0.2;
  load_uniform(a, sorted_pic.grid, cfg);
  load_uniform(b, shuffled_pic.grid, cfg);
  shuffle(b, 37);

  std::int64_t pushed_a = 0, pushed_b = 0;
  for (int step = 0; step < 10; ++step) {
    if (step % 3 == 0) a.sort(sorted_pic.grid);  // periodic sort, run A only
    pushed_a += sorted_pic.step({&a}).pushed;
    pushed_b += shuffled_pic.step({&b}).pushed;
  }
  EXPECT_EQ(pushed_a, pushed_b);
  const double ke_a = a.kinetic_energy(), ke_b = b.kinetic_energy();
  EXPECT_NEAR(ke_a, ke_b, 1e-4 * std::abs(ke_a))
      << "sorted vs unsorted energies must agree to rounding";
}

// A sort is legal on any step boundary: particles that just migrated or
// were thermally re-emitted at a reflux wall carry valid interior voxels.
TEST(SortTest, SortAfterMigrationWithReflux) {
  ParticleBcSpec bc = periodic_particles();
  bc[grid::kFaceXLo] = ParticleBc::kReflux;
  bc[grid::kFaceXHi] = ParticleBc::kReflux;
  auto gg = cube_grid(4, 0.5, 0.1);
  gg.boundary = grid::lpi_boundaries();  // field walls to match the reflux BC
  MiniPic pic(gg, bc);
  pic.pusher.set_reflux_uth(0.2);

  Species sp("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 8;
  cfg.uth = 0.3;  // hot enough to hit the walls every step
  load_uniform(sp, pic.grid, cfg);
  const std::size_t np = sp.size();
  double w0 = 0;
  for (const Particle& p : sp.particles()) w0 += p.w;

  std::int64_t refluxed = 0;
  for (int step = 0; step < 5; ++step) {
    pic.pusher.set_reflux_uth(0.2);
    refluxed += pic.step({&sp}).refluxed;
    ASSERT_NO_THROW(sp.sort(pic.grid)) << "step " << step;
    EXPECT_EQ(sp.sortedness(), 1.0);
  }
  EXPECT_GT(refluxed, 0) << "test must actually exercise the reflux path";
  EXPECT_EQ(sp.size(), np) << "reflux walls conserve particle count";
  double w1 = 0;
  for (const Particle& p : sp.particles()) w1 += p.w;
  EXPECT_NEAR(w1, w0, 1e-9 * w0);
}

}  // namespace
}  // namespace minivpic::particles
