// Scalar-vs-SIMD equivalence for the particle advance, under the same
// determinism contract as the pipeline layer (push.hpp): exact push/
// crossing/absorb/reflect/reflux counters, trajectories to <= 4 ULP, J
// bit-exact whenever the per-cell add order matches the serial sum. The
// SIMD kernels mirror the scalar operation sequence, so in a 1-pipeline
// advance even the dense J is expected bit-identical — the sparse/warm
// tests assert that stronger property outright, the pipelined test falls
// back to the documented rounding-level agreement.
//
// Every test runs for each kernel the build/host supports (sse always;
// avx2/avx512 when compiled in and the CPU has them), so the same binary
// covers whatever the CI arch matrix compiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "harness.hpp"
#include "particles/kernel.hpp"
#include "particles/push_simd.hpp"
#include "util/error.hpp"
#include "util/pipeline.hpp"
#include "util/rng.hpp"
#include "vmpi/cart.hpp"

namespace minivpic::particles {
namespace {

using testing::MiniPic;
using testing::cube_grid;

// ---- registry -------------------------------------------------------------

TEST(KernelRegistryTest, ParseAndNameRoundTrip) {
  for (Kernel k : {Kernel::kScalar, Kernel::kSse, Kernel::kAvx2,
                   Kernel::kAvx512, Kernel::kAuto})
    EXPECT_EQ(parse_kernel(kernel_name(k)), k);
  EXPECT_THROW(parse_kernel("avx1024"), Error);
  EXPECT_THROW(parse_kernel(""), Error);
}

TEST(KernelRegistryTest, LaneWidths) {
  EXPECT_EQ(kernel_lane_width(Kernel::kScalar), 1);
  EXPECT_EQ(kernel_lane_width(Kernel::kSse), 4);
  EXPECT_EQ(kernel_lane_width(Kernel::kAvx2), 8);
  EXPECT_EQ(kernel_lane_width(Kernel::kAvx512), 16);
  EXPECT_THROW(kernel_lane_width(Kernel::kAuto), Error);
}

TEST(KernelRegistryTest, ScalarAndSseAlwaysAvailable) {
  EXPECT_TRUE(kernel_available(Kernel::kScalar));
  EXPECT_TRUE(kernel_available(Kernel::kSse));
  const auto ks = available_kernels();
  ASSERT_GE(ks.size(), 2u);
  EXPECT_EQ(ks[0], Kernel::kScalar);
  EXPECT_EQ(ks[1], Kernel::kSse);
}

TEST(KernelRegistryTest, AutoResolvesToWidestAvailable) {
  const Kernel r = resolve_kernel(Kernel::kAuto);
  EXPECT_NE(r, Kernel::kAuto);
  EXPECT_TRUE(kernel_available(r));
  for (Kernel k : available_kernels())
    EXPECT_LE(kernel_lane_width(k), kernel_lane_width(r));
}

TEST(KernelRegistryTest, ScalarHasNoSimdEntry) {
  EXPECT_EQ(simd_advance_entry(Kernel::kScalar), nullptr);
  EXPECT_EQ(simd_advance_entry(Kernel::kAuto), nullptr);
}

TEST(KernelRegistryTest, PusherValidatesKernelChoice) {
  MiniPic pic(cube_grid(4, 0.5));
  EXPECT_EQ(pic.pusher.kernel(), Kernel::kScalar);  // library default
  pic.pusher.set_kernel(Kernel::kAuto);
  EXPECT_NE(pic.pusher.kernel(), Kernel::kAuto);
  for (Kernel k : {Kernel::kSse, Kernel::kAvx2, Kernel::kAvx512}) {
    if (kernel_available(k)) {
      pic.pusher.set_kernel(k);
      EXPECT_EQ(pic.pusher.kernel(), k);
    } else {
      EXPECT_THROW(pic.pusher.set_kernel(k), Error);
    }
  }
}

// ---- equivalence helpers --------------------------------------------------

/// ULP distance between two floats (0 when bit-identical; huge for
/// NaN/opposite-infinity pairs so they always fail the <= 4 assert).
std::int64_t ulp_diff(float a, float b) {
  if (a == b) return 0;  // covers +0 vs -0
  if (std::isnan(a) || std::isnan(b)) return std::int64_t(1) << 40;
  const auto key = [](float x) {
    std::int32_t i;
    std::memcpy(&i, &x, 4);
    return i >= 0 ? std::int64_t(i) : std::int64_t(0x8000'0000LL) - i;
  };
  const std::int64_t d = key(a) - key(b);
  return d < 0 ? -d : d;
}

::testing::AssertionResult particles_match(const Species& a, const Species& b,
                                           std::int64_t max_ulp) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  for (std::size_t n = 0; n < a.size(); ++n) {
    if (a[n].i != b[n].i)
      return ::testing::AssertionFailure()
             << "particle " << n << " voxel " << a[n].i << " vs " << b[n].i;
    const float* pa = &a[n].dx;
    const float* pb = &b[n].dx;
    static const char* kField[8] = {"dx", "dy", "dz", "i",
                                    "ux", "uy", "uz", "w"};
    for (int c : {0, 1, 2, 4, 5, 6, 7}) {
      const std::int64_t d = ulp_diff(pa[c], pb[c]);
      if (d > max_ulp)
        return ::testing::AssertionFailure()
               << "particle " << n << " field " << kField[c] << ": " << pa[c]
               << " vs " << pb[c] << " (" << d << " ULP)";
    }
  }
  return ::testing::AssertionSuccess();
}

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

/// J agreement to `rel` x grid-wide max |J| (see test_pipeline_push.cpp for
/// why the tolerance is global, not per cell).
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

void expect_counters_eq(const Pusher::Result& s, const Pusher::Result& v,
                        int step) {
  EXPECT_EQ(s.pushed, v.pushed) << "step " << step;
  EXPECT_EQ(s.crossings, v.crossings) << "step " << step;
  EXPECT_EQ(s.absorbed, v.absorbed) << "step " << step;
  EXPECT_EQ(s.reflected, v.reflected) << "step " << step;
  EXPECT_EQ(s.refluxed, v.refluxed) << "step " << step;
}

// ---- scalar-vs-SIMD equivalence, one suite per available kernel -----------

class SimdEquivalenceTest : public ::testing::TestWithParam<Kernel> {};

std::vector<Kernel> simd_kernels() {
  std::vector<Kernel> ks;
  for (Kernel k : available_kernels())
    if (k != Kernel::kScalar) ks.push_back(k);
  return ks;
}

INSTANTIATE_TEST_SUITE_P(
    AvailableKernels, SimdEquivalenceTest, ::testing::ValuesIn(simd_kernels()),
    [](const ::testing::TestParamInfo<Kernel>& info) {
      return std::string(kernel_name(info.param));
    });

TEST_P(SimdEquivalenceTest, WarmInCellMatchesScalar) {
  // The acceptance workload: warm plasma, most lanes stay in-cell. The
  // 1-pipeline deposit order matches serial exactly, so J must be
  // bit-identical even though cells collect many deposits.
  MiniPic ref(cube_grid(8, 0.5));
  MiniPic vec(cube_grid(8, 0.5));
  vec.pusher.set_kernel(GetParam());
  Species a("e", -1.0, 1.0), b("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 12;
  cfg.uth = 0.05;
  load_uniform(a, ref.grid, cfg);
  load_uniform(b, vec.grid, cfg);
  for (int s = 0; s < 3; ++s) {
    const auto rs = ref.step({&a});
    const auto rv = vec.step({&b});
    expect_counters_eq(rs, rv, s);
    ASSERT_TRUE(j_identical(ref.fields, vec.fields)) << "step " << s;
  }
  ASSERT_TRUE(particles_match(a, b, 4));
}

TEST_P(SimdEquivalenceTest, RemainderBatchMatchesScalar) {
  // Slice sizes that are not a lane-width multiple: the tail runs the
  // scalar remainder path. Also covers n < W (whole slice is remainder).
  const int W = kernel_lane_width(GetParam());
  for (const int count : {3, 2 * W + 3, W + 1}) {
    MiniPic ref(cube_grid(6, 0.5));
    MiniPic vec(cube_grid(6, 0.5));
    vec.pusher.set_kernel(GetParam());
    Species a("e", -1.0, 1.0), b("e", -1.0, 1.0);
    Rng rng(97);
    for (int n = 0; n < count; ++n) {
      Particle p;
      p.i = ref.grid.voxel(1 + n % 6, 1 + (n / 6) % 6, 1 + (n / 36) % 6);
      p.dx = float(rng.normal(0.0, 0.4));
      p.dy = float(rng.normal(0.0, 0.4));
      p.dz = float(rng.normal(0.0, 0.4));
      p.ux = float(rng.normal(0.0, 0.2));
      p.uy = float(rng.normal(0.0, 0.2));
      p.uz = float(rng.normal(0.0, 0.2));
      p.w = 0.8f;
      a.add(p);
      b.add(p);
    }
    for (int s = 0; s < 2; ++s) {
      const auto rs = ref.step({&a});
      const auto rv = vec.step({&b});
      expect_counters_eq(rs, rv, s);
      ASSERT_TRUE(j_identical(ref.fields, vec.fields))
          << "count " << count << " step " << s;
    }
    ASSERT_TRUE(particles_match(a, b, 4)) << "count " << count;
  }
}

TEST_P(SimdEquivalenceTest, AllLanesCrossingMatchesScalar) {
  // Every lane takes the move_p spill path (in_bits == 0): fast particles
  // launched from cell centers cross at least one face per step.
  MiniPic ref(cube_grid(8, 0.5));
  MiniPic vec(cube_grid(8, 0.5));
  vec.pusher.set_kernel(GetParam());
  const int W = kernel_lane_width(GetParam());
  const int count = 2 * W + W / 2;  // full batches + remainder, all crossing
  Species a("e", -1.0, 1.0), b("e", -1.0, 1.0);
  for (int n = 0; n < count; ++n) {
    Particle p;
    p.i = ref.grid.voxel(1 + n % 8, 1 + (n / 8) % 8, 1 + (n / 64) % 8);
    p.ux = (n % 2 != 0) ? 1.0f : -1.0f;
    p.uy = 1.0f;
    p.uz = (n % 3 != 0) ? -1.0f : 1.0f;
    p.w = 1.0f;
    a.add(p);
    b.add(p);
  }
  std::int64_t crossings = 0;
  for (int s = 0; s < 3; ++s) {
    const auto rs = ref.step({&a});
    const auto rv = vec.step({&b});
    expect_counters_eq(rs, rv, s);
    crossings += rs.crossings;
    ASSERT_TRUE(j_identical(ref.fields, vec.fields)) << "step " << s;
  }
  EXPECT_GE(crossings, std::int64_t(count))
      << "test is vacuous: lanes did not cross";
  ASSERT_TRUE(particles_match(a, b, 4));
}

TEST_P(SimdEquivalenceTest, AbsorbingWallMatchesScalar) {
  // Dead-particle splicing: emigrant/absorbed lanes are recorded in lane
  // order = particle order, so the removal sequence — and therefore the
  // surviving particle order — matches scalar exactly.
  auto gg = cube_grid(8, 0.5);
  gg.boundary = grid::lpi_boundaries();
  MiniPic ref(gg, lpi_particles());
  MiniPic vec(gg, lpi_particles());
  vec.pusher.set_kernel(GetParam());
  Species a("e", -1.0, 1.0), b("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 8;
  cfg.uth = 0.3;  // hot: steady wall losses
  load_uniform(a, ref.grid, cfg);
  load_uniform(b, vec.grid, cfg);
  std::int64_t absorbed = 0;
  for (int s = 0; s < 15; ++s) {
    const auto rs = ref.step({&a});
    const auto rv = vec.step({&b});
    expect_counters_eq(rs, rv, s);
    absorbed += rs.absorbed;
  }
  EXPECT_GT(absorbed, 0) << "walls never hit — test is vacuous";
  ASSERT_TRUE(particles_match(a, b, 4));
}

TEST_P(SimdEquivalenceTest, RefluxDrawsMatchScalarExactly) {
  // Reflux re-emission consumes RNG draws. The SIMD spill handles crossing
  // lanes in particle order from the same per-pipeline stream, so draw
  // sequences — and refluxed momenta — are identical to scalar, not just
  // statistically alike.
  auto gg = cube_grid(8, 0.5);
  gg.boundary = grid::lpi_boundaries();
  ParticleBcSpec bc = periodic_particles();
  bc[grid::kFaceXLo] = ParticleBc::kReflux;
  bc[grid::kFaceXHi] = ParticleBc::kReflux;
  MiniPic ref(gg, bc);
  MiniPic vec(gg, bc);
  vec.pusher.set_kernel(GetParam());
  const double uth = 0.3;
  ref.pusher.set_reflux_uth(uth);
  vec.pusher.set_reflux_uth(uth);
  Species a("e", -1.0, 1.0), b("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 8;
  cfg.uth = uth;
  load_uniform(a, ref.grid, cfg);
  load_uniform(b, vec.grid, cfg);
  std::int64_t refluxed = 0;
  for (int s = 0; s < 10; ++s) {
    const auto rs = ref.step({&a});
    const auto rv = vec.step({&b});
    expect_counters_eq(rs, rv, s);
    refluxed += rs.refluxed;
  }
  EXPECT_GT(refluxed, 0) << "walls never hit — test is vacuous";
  ASSERT_TRUE(particles_match(a, b, 4));
}

TEST_P(SimdEquivalenceTest, PipelinedSimdMatchesSerialScalar) {
  // Kernel x pipeline composition (also the TSan target): N pipelines each
  // running the SIMD kernel over a contiguous slice vs the serial scalar
  // reference. Slice boundaries change which particles fall into remainder
  // batches, and the block fold reorders per-cell adds — so this asserts
  // the documented contract (exact counters, rounding-level J), not bit
  // equality.
  struct PipelinePic {
    PipelinePic(const grid::GlobalGrid& gg, int n)
        : pool(n), grid(gg), fields(grid), halo(grid, nullptr),
          solver(grid, &halo), interp(grid), acc(grid, n),
          pusher(grid, periodic_particles()) {
      solver.boundary().capture(fields);
    }
    Pusher::Result step(Species& sp) {
      interp.load(fields);
      acc.clear();
      fields.clear_sources();
      auto r = pusher.advance(sp, interp, acc, &pool);
      migrate_particles(std::move(r.emigrants), sp, pusher, acc, grid,
                        nullptr);
      acc.reduce();
      acc.unload(fields);
      accumulate_rho(sp, fields);
      halo.reduce_sources(fields);
      solver.advance_b(fields, 0.5);
      solver.advance_e(fields);
      solver.advance_b(fields, 0.5);
      return r;
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

  MiniPic ref(cube_grid(8, 0.5));
  PipelinePic vec(cube_grid(8, 0.5), 3);
  vec.pusher.set_kernel(GetParam());
  Species a("e", -1.0, 1.0), b("e", -1.0, 1.0);
  LoadConfig cfg;
  cfg.ppc = 12;
  cfg.uth = 0.1;
  load_uniform(a, ref.grid, cfg);
  load_uniform(b, vec.grid, cfg);
  for (int s = 0; s < 4; ++s) {
    const auto rs = ref.step({&a});
    const auto rv = vec.step(b);
    EXPECT_EQ(rs.pushed, rv.pushed) << "step " << s;
    EXPECT_EQ(rs.crossings, rv.crossings) << "step " << s;
    ASSERT_TRUE(j_close(ref.fields, vec.fields, 1e-4)) << "step " << s;
  }
  EXPECT_EQ(a.size(), b.size());
}

TEST_P(SimdEquivalenceTest, SkinInteriorPassesMatchScalar) {
  // The two-pass advance hands each kernel per-pipeline index lists (skin,
  // then interior) instead of contiguous slices. Rank 0 of a {2,1,1}
  // periodic split has skin cells at x = 1 and x = nx; particles are laid
  // out in alternating skin/interior runs of 1 to W+1, so every batch
  // gathers rows from scattered offsets and every run length crosses a
  // batch boundary somewhere. Per pipeline the SIMD kernel mirrors the
  // scalar operation sequence, so everything is compared bytewise.
  const Kernel kernel = GetParam();
  const int W = kernel_lane_width(kernel);
  auto gg = cube_grid(6, 0.5);
  gg.nx = 16;  // rank 0 owns x = 1..8: skin at 1 and 8, interior 2..7
  const vmpi::CartTopology topo({2, 1, 1}, {true, true, true});
  const grid::LocalGrid grid(gg, topo, 0);
  ASSERT_EQ(grid.nx(), 8);

  // Random fields in every voxel (ghosts too) so the gather and rotation
  // see distinct coefficients per cell.
  grid::FieldArray fields(grid);
  Rng frng(11);
  for (int k = 0; k <= grid.nz() + 1; ++k)
    for (int j = 0; j <= grid.ny() + 1; ++j)
      for (int i = 0; i <= grid.nx() + 1; ++i) {
        fields.ex(i, j, k) = float(frng.normal(0.0, 0.02));
        fields.ey(i, j, k) = float(frng.normal(0.0, 0.02));
        fields.ez(i, j, k) = float(frng.normal(0.0, 0.02));
        fields.cbx(i, j, k) = float(frng.normal(0.0, 0.2));
        fields.cby(i, j, k) = float(frng.normal(0.0, 0.2));
        fields.cbz(i, j, k) = float(frng.normal(0.0, 0.2));
      }
  InterpolatorArray interp(grid);
  interp.load(fields);

  std::vector<Particle> load;
  Rng rng(2024);
  const auto cell = [&](int lo, int hi) {
    return lo + int(rng.uniform() * (hi - lo + 1));
  };
  for (int run = 0; run < 8 * (W + 1); ++run) {
    const bool skin = run % 2 == 0;
    for (int j = 0; j <= run % (W + 1); ++j) {
      Particle p;
      const int ix = skin ? (rng.uniform() < 0.5 ? 1 : grid.nx())
                          : cell(2, grid.nx() - 1);
      p.i = grid.voxel(ix, cell(1, grid.ny()), cell(1, grid.nz()));
      p.dx = float(rng.uniform(-1.0, 1.0));
      p.dy = float(rng.uniform(-1.0, 1.0));
      p.dz = float(rng.uniform(-1.0, 1.0));
      p.ux = float(rng.normal(0.0, 0.4));  // many crossings, some emigrants
      p.uy = float(rng.normal(0.0, 0.4));
      p.uz = float(rng.normal(0.0, 0.4));
      p.w = 0.5f + float(rng.uniform());
      load.push_back(p);
    }
  }

  struct Outcome {
    std::vector<Pusher::Pass> passes;  // skin, interior; per step
    std::vector<std::vector<CellAccum>> acc;
    std::vector<Particle> particles;
  };
  const auto run = [&](Kernel k, int pipes) {
    Pipeline pool(pipes);
    Pusher pusher(grid, periodic_particles());
    pusher.set_kernel(k);
    EXPECT_TRUE(pusher.has_skin());
    AccumulatorArray acc(grid, pipes);
    Species sp("e", -1.0, 1.0);
    for (const Particle& p : load) sp.add(p);
    Outcome out;
    for (int step = 0; step < 2; ++step) {
      acc.clear();
      Pusher::Pass skin = pusher.advance_skin(sp, interp, acc, &pool);
      Pusher::Pass interior = pusher.advance_interior(sp, interp, acc, &pool);
      std::vector<std::size_t> dead;
      std::merge(skin.dead.begin(), skin.dead.end(), interior.dead.begin(),
                 interior.dead.end(), std::back_inserter(dead));
      for (auto it = dead.rbegin(); it != dead.rend(); ++it) sp.remove(*it);
      out.passes.push_back(std::move(skin));
      out.passes.push_back(std::move(interior));
      out.acc.emplace_back(acc.data(),
                           acc.data() + acc.size() * std::size_t(pipes));
    }
    out.particles.assign(sp.particles().begin(), sp.particles().end());
    return out;
  };

  for (const int pipes : {1, 4}) {
    SCOPED_TRACE("pipelines " + std::to_string(pipes));
    const Outcome ref = run(Kernel::kScalar, pipes);
    const Outcome vec = run(kernel, pipes);
    ASSERT_EQ(ref.passes.size(), vec.passes.size());
    std::int64_t skin_pushed = 0, interior_pushed = 0, emigrants = 0;
    for (std::size_t i = 0; i < ref.passes.size(); ++i) {
      const Pusher::Pass& a = ref.passes[i];
      const Pusher::Pass& b = vec.passes[i];
      expect_counters_eq(a.res, b.res, int(i / 2));
      (i % 2 == 0 ? skin_pushed : interior_pushed) += a.res.pushed;
      emigrants += std::int64_t(a.res.emigrants.size());
      EXPECT_EQ(a.dead, b.dead) << "pass " << i;
      ASSERT_EQ(a.res.emigrants.size(), b.res.emigrants.size()) << i;
      EXPECT_EQ(std::memcmp(a.res.emigrants.data(), b.res.emigrants.data(),
                            a.res.emigrants.size() * sizeof(Emigrant)),
                0)
          << "emigrants differ, pass " << i;
    }
    for (std::size_t s = 0; s < ref.acc.size(); ++s)
      EXPECT_EQ(std::memcmp(ref.acc[s].data(), vec.acc[s].data(),
                            ref.acc[s].size() * sizeof(CellAccum)),
                0)
          << "accumulator blocks differ after step " << s;
    ASSERT_EQ(ref.particles.size(), vec.particles.size());
    EXPECT_EQ(std::memcmp(ref.particles.data(), vec.particles.data(),
                          ref.particles.size() * sizeof(Particle)),
              0);
    // Not vacuous: both passes push full batches, and skin particles leave.
    EXPECT_GT(skin_pushed, 2 * W * pipes);
    EXPECT_GT(interior_pushed, 2 * W * pipes);
    EXPECT_GT(emigrants, 0);
  }
}

}  // namespace
}  // namespace minivpic::particles
