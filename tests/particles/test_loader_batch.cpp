// The batched loader's contract (particles/loader.hpp): the particles it
// loads are byte-identical to the per-particle reference loop for every
// pool size and every compiled lane width; the Box–Muller guard sends lanes
// near a float rounding boundary to Rng::maxwellian; and the polynomials
// stay under their documented bounds against libm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "particles/loader.hpp"
#include "particles/loader_simd.hpp"
#include "util/pipeline.hpp"
#include "util/rng.hpp"
#include "vmpi/cart.hpp"

namespace minivpic::particles {
namespace {

/// The per-particle loop the batched loader replaced, kept as the reference.
std::vector<Particle> reference_load(const std::string& name,
                                     const grid::LocalGrid& g,
                                     const LoadConfig& cfg) {
  std::array<double, 3> uth{cfg.uth, cfg.uth, cfg.uth};
  if (cfg.uth3[0] != 0 || cfg.uth3[1] != 0 || cfg.uth3[2] != 0) uth = cfg.uth3;
  std::uint64_t species_key = 0;
  for (char c : name)
    species_key = hash_combine(species_key, std::uint64_t(std::uint8_t(c)));
  const double base_w = cfg.density * g.cell_volume() / cfg.ppc;
  std::vector<Particle> out;
  for (int k = 1; k <= g.nz(); ++k) {
    for (int j = 1; j <= g.ny(); ++j) {
      for (int i = 1; i <= g.nx(); ++i) {
        const std::uint64_t gcell =
            (std::uint64_t(g.offset_z() + k - 1) * g.global_ny() +
             std::uint64_t(g.offset_y() + j - 1)) *
                g.global_nx() +
            std::uint64_t(g.offset_x() + i - 1);
        Rng pos_rng(cfg.seed, hash_combine(gcell, 0x706F73));
        Rng mom_rng(cfg.seed, hash_combine(gcell, species_key));
        for (int n = 0; n < cfg.ppc; ++n) {
          pos_rng.seek(std::uint64_t(n) * 4);
          Particle p;
          p.dx = float(pos_rng.uniform(-1.0, 1.0));
          p.dy = float(pos_rng.uniform(-1.0, 1.0));
          p.dz = float(pos_rng.uniform(-1.0, 1.0));
          p.i = g.voxel(i, j, k);
          double w = base_w;
          const double x = g.node_x(i) + 0.5 * (1.0 + p.dx) * g.dx();
          const double y = g.node_y(j) + 0.5 * (1.0 + p.dy) * g.dy();
          const double z = g.node_z(k) + 0.5 * (1.0 + p.dz) * g.dz();
          if (cfg.profile) {
            const double scale = cfg.profile(x, y, z);
            if (scale == 0) continue;
            w *= scale;
          }
          const auto momentum = [&](std::size_t a) {
            if (uth[a] == 0) return cfg.drift[a] + 0.0;
            mom_rng.seek(std::uint64_t(n) * 8 + 2 * a);
            return cfg.drift[a] + mom_rng.maxwellian(uth[a]);
          };
          p.ux = float(momentum(0));
          p.uy = float(momentum(1));
          p.uz = float(momentum(2));
          if (cfg.drift_profile) {
            const auto du = cfg.drift_profile(x, y, z);
            p.ux += float(du[0]);
            p.uy += float(du[1]);
            p.uz += float(du[2]);
          }
          p.w = float(w);
          out.push_back(p);
        }
      }
    }
  }
  return out;
}

TEST(LoaderBatch, MatchesPerParticleReferenceForEveryPoolAndWidth) {
  grid::GlobalGrid gg;
  gg.nx = 12;
  gg.ny = 3;
  gg.nz = 2;
  gg.dx = gg.dy = gg.dz = 0.5;
  const vmpi::CartTopology topo({2, 1, 1}, {true, true, true});
  const grid::LocalGrid g(gg, topo, 1);  // nonzero slab offset
  LoadConfig cfg;
  cfg.ppc = 13;
  cfg.uth3 = {0.05, 0.0, 0.3};  // a zero-spread component
  cfg.drift = {0.1, -0.2, 0.0};
  cfg.seed = 99;
  cfg.profile = [](double x, double, double) {
    return x < 3.5 ? 0.0 : x < 4.5 ? 1.5 : 0.75;
  };
  cfg.drift_profile = [](double x, double y, double) {
    return std::array<double, 3>{0.01 * std::sin(x), 0.02 * y, 0.0};
  };
  const std::vector<Particle> ref = reference_load("electron", g, cfg);
  ASSERT_GT(ref.size(), 0u);
  const std::size_t bytes = ref.size() * sizeof(Particle);
  for (const Kernel k : available_kernels()) {
    for (const int pools : {0, 1, 2, 4, 5}) {  // 0: no pool
      SCOPED_TRACE(std::string(kernel_name(k)) + " pool " +
                   std::to_string(pools));
      Pipeline pool(std::max(pools, 1));
      Pipeline* const use = pools > 0 ? &pool : nullptr;
      Species sp("electron", -1.0, 1.0);
      EXPECT_EQ(load_uniform(sp, g, cfg, use, k), ref.size());
      ASSERT_EQ(sp.size(), ref.size());
      EXPECT_EQ(std::memcmp(sp.data(), ref.data(), bytes), 0);
      // A second load appends after the first.
      EXPECT_EQ(load_uniform(sp, g, cfg, use, k), ref.size());
      ASSERT_EQ(sp.size(), 2 * ref.size());
      EXPECT_EQ(std::memcmp(sp.data() + ref.size(), ref.data(), bytes), 0);
    }
  }
}

/// The libm expression the guard must reproduce.
float reference_normal(double u1, double u2, double uth, double drift) {
  return float(drift + (0.0 + uth * (std::sqrt(-2.0 * std::log(u1)) *
                                     std::cos(2.0 * std::numbers::pi * u2))));
}

TEST(LoaderBatch, GuardSendsMidpointLanesBack) {
  const double u1 = 0.3, u2 = 0.1;
  const double s = std::sqrt(-2.0 * std::log(u1));
  const double n = s * std::cos(2.0 * std::numbers::pi * u2);
  const float f = 1.0f;
  const double mid = (double(f) + double(std::nextafter(f, 2.0f))) / 2;
  for (const Kernel k : available_kernels()) {
    SCOPED_TRACE(kernel_name(k));
    const NormalsFn fn = normals_entry(k);
    // On the midpoint, inside the band (2^-40 (|drift| + uth s), with
    // drift about mid - n), and well clear of it.
    const double band = (std::fabs(mid - n) + s) * 0x1p-40;
    for (const double offset : {0.0, 0.5 * band, -0.5 * band, 1e3 * band}) {
      const double drift = mid + offset - n;
      float out = 0;
      std::uint32_t redo = 7;
      const std::size_t nredo = fn(&u1, &u2, 1, 1.0, drift, &out, &redo);
      if (offset == 1e3 * band) {
        EXPECT_EQ(nredo, 0u);
        EXPECT_EQ(out, reference_normal(u1, u2, 1.0, drift));
      } else {
        EXPECT_EQ(nredo, 1u) << "offset " << offset;
        EXPECT_EQ(redo, 0u);
      }
    }
  }
}

TEST(LoaderBatch, RandomPairsMatchLibmBitForBit) {
  // 10^7 pairs on the production width, 10^5 on each other width.
  const Kernel widest = resolve_kernel(Kernel::kAuto);
  constexpr std::size_t kBatch = 1000;
  std::vector<double> u1(kBatch), u2(kBatch);
  std::vector<float> out(kBatch);
  std::vector<std::uint32_t> redo(kBatch);
  const double params[][2] = {{1.0, 0.0}, {0.05, 0.3}, {0.002, -0.3},
                              {3.0, 1e-3}, {1e-4, 0.0}};
  for (const Kernel k : available_kernels()) {
    const std::size_t batches = k == widest ? 10000 : 100;
    const NormalsFn fn = normals_entry(k);
    Rng rng(2024, std::uint64_t(k));
    std::size_t mismatches = 0, fallbacks = 0;
    for (std::size_t b = 0; b < batches; ++b) {
      const double uth = params[b % 5][0], drift = params[b % 5][1];
      for (std::size_t m = 0; m < kBatch; ++m) {
        u1[m] = Rng::open_unit(rng.next_u64());
        u2[m] = Rng::unit(rng.next_u64());
      }
      const std::size_t nredo =
          fn(u1.data(), u2.data(), kBatch, uth, drift, out.data(), redo.data());
      fallbacks += nredo;
      std::size_t r = 0;
      for (std::size_t m = 0; m < kBatch; ++m) {
        if (r < nredo && redo[r] == m) {
          ++r;
          continue;
        }
        mismatches += out[m] != reference_normal(u1[m], u2[m], uth, drift);
      }
    }
    EXPECT_EQ(mismatches, 0u) << kernel_name(k);
    EXPECT_LT(fallbacks, batches * kBatch / 1000) << kernel_name(k);
  }
}

TEST(LoaderBatch, PolynomialsStayUnderTheirBounds) {
  Rng rng(31, 4);
  double log_err = 0, cos_err = 0;
  for (int i = 0; i < 2000000; ++i) {
    const double u1 = Rng::open_unit(rng.next_u64());
    const double u2 = Rng::unit(rng.next_u64());
    const double l = std::log(u1);
    log_err = std::max(log_err, std::fabs(detail::fast_log(u1) - l) / std::fabs(l));
    cos_err = std::max(cos_err, std::fabs(detail::fast_cos_turn(u2) -
                                          std::cos(2.0 * std::numbers::pi * u2)));
  }
  for (const double u1 : {0x1p-54, 0.5, 0x1.6a09e667f3bccp-1, 0x1.fffffffffffffp-1}) {
    const double l = std::log(u1);
    log_err = std::max(log_err, std::fabs(detail::fast_log(u1) - l) / std::fabs(l));
  }
  for (const double u2 : {0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 0x1.fffffffffffffp-1}) {
    cos_err = std::max(cos_err, std::fabs(detail::fast_cos_turn(u2) -
                                          std::cos(2.0 * std::numbers::pi * u2)));
  }
  EXPECT_LE(log_err, 0x1p-50);
  EXPECT_LE(cos_err, 0x1p-49);
  std::printf("max relative log error %.3g, max absolute cos error %.3g\n",
              log_err, cos_err);
}

}  // namespace
}  // namespace minivpic::particles
