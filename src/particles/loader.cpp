#include "particles/loader.hpp"

#include "util/error.hpp"
#include "util/rng.hpp"

namespace minivpic::particles {

namespace {

std::uint64_t name_key(const std::string& name) {
  std::uint64_t h = 0;
  for (char c : name) h = hash_combine(h, std::uint64_t(std::uint8_t(c)));
  return h;
}

}  // namespace

std::size_t load_uniform(Species& sp, const grid::LocalGrid& g,
                         const LoadConfig& cfg) {
  MV_REQUIRE(cfg.ppc > 0, "particles per cell must be positive");
  MV_REQUIRE(cfg.density > 0, "density must be positive");
  MV_REQUIRE(cfg.uth >= 0, "thermal spread must be non-negative");
  const bool aniso =
      cfg.uth3[0] != 0 || cfg.uth3[1] != 0 || cfg.uth3[2] != 0;
  std::array<double, 3> uth{cfg.uth, cfg.uth, cfg.uth};
  if (aniso) {
    for (int a = 0; a < 3; ++a) {
      MV_REQUIRE(cfg.uth3[std::size_t(a)] >= 0,
                 "thermal spread must be non-negative");
      uth[std::size_t(a)] = cfg.uth3[std::size_t(a)];
    }
  }

  const double base_w = cfg.density * g.cell_volume() / cfg.ppc;
  const std::uint64_t species_key = name_key(sp.name());
  sp.reserve(sp.size() + std::size_t(cfg.ppc) * std::size_t(g.num_cells()));

  std::size_t loaded = 0;
  for (int k = 1; k <= g.nz(); ++k) {
    for (int j = 1; j <= g.ny(); ++j) {
      for (int i = 1; i <= g.nx(); ++i) {
        const std::uint64_t gcell =
            (std::uint64_t(g.offset_z() + k - 1) * g.global_ny() +
             std::uint64_t(g.offset_y() + j - 1)) *
                g.global_nx() +
            std::uint64_t(g.offset_x() + i - 1);
        // Positions keyed by cell only (species share them); momenta keyed
        // by cell and species.
        Rng pos_rng(cfg.seed, hash_combine(gcell, 0x706F73 /*'pos'*/));
        Rng mom_rng(cfg.seed, hash_combine(gcell, species_key));
        const std::int32_t voxel = g.voxel(i, j, k);
        for (int n = 0; n < cfg.ppc; ++n) {
          // Fixed draw budget per particle (4 position draws, 2 per momentum
          // component) keeps streams aligned no matter what is skipped:
          // every draw is positioned by seek.
          pos_rng.seek(std::uint64_t(n) * 4);
          Particle p;
          p.dx = float(pos_rng.uniform(-1.0, 1.0));
          p.dy = float(pos_rng.uniform(-1.0, 1.0));
          p.dz = float(pos_rng.uniform(-1.0, 1.0));
          p.i = voxel;
          double w = base_w;
          const double x = g.node_x(i) + 0.5 * (1.0 + p.dx) * g.dx();
          const double y = g.node_y(j) + 0.5 * (1.0 + p.dy) * g.dy();
          const double z = g.node_z(k) + 0.5 * (1.0 + p.dz) * g.dz();
          if (cfg.profile) {
            const double scale = cfg.profile(x, y, z);
            MV_REQUIRE(scale >= 0, "density profile must be non-negative");
            if (scale == 0) continue;  // dropped before any momentum draw
            w *= scale;
          }
          const auto momentum = [&](std::size_t a) {
            // maxwellian(0) is +0.0 whatever it draws, so a component with
            // no spread skips its Box-Muller draw.
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
          sp.add(p);
          ++loaded;
        }
      }
    }
  }
  return loaded;
}

}  // namespace minivpic::particles
