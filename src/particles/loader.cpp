#include "particles/loader.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "particles/loader_simd.hpp"
#include "util/error.hpp"
#include "util/pipeline.hpp"
#include "util/rng.hpp"

namespace minivpic::particles {

namespace {

std::uint64_t name_key(const std::string& name) {
  std::uint64_t h = 0;
  for (char c : name) h = hash_combine(h, std::uint64_t(std::uint8_t(c)));
  return h;
}

constexpr float Particle::* kMomentum[3] = {&Particle::ux, &Particle::uy,
                                            &Particle::uz};

/// What every cell of one load_uniform call shares.
struct LoadPlan {
  const grid::LocalGrid& g;
  const LoadConfig& cfg;
  std::array<double, 3> uth;
  double base_w;
  std::uint64_t species_key;
  NormalsFn normals;
};

/// One pipeline's per-cell batch buffers, sized for a full cell.
struct CellBatch {
  explicit CellBatch(std::size_t ppc)
      : ordinal(ppc), u1(ppc), u2(ppc), value(ppc), redo(ppc),
        drift_du(ppc) {}
  std::vector<std::uint32_t> ordinal;  ///< particle n of each kept slot
  std::vector<double> u1, u2;
  std::vector<float> value;
  std::vector<std::uint32_t> redo;
  std::vector<std::array<float, 3>> drift_du;  ///< drift_profile, as floats
};

/// Loads the slab's cells [begin, end) (flat index, x fastest) into `out`,
/// which has room for ppc particles per cell; returns how many it wrote.
std::size_t load_cells(const LoadPlan& plan, std::size_t begin,
                       std::size_t end, Particle* out) {
  const grid::LocalGrid& g = plan.g;
  const LoadConfig& cfg = plan.cfg;
  const std::size_t nx = std::size_t(g.nx());
  const std::size_t ny = std::size_t(g.ny());
  CellBatch batch{std::size_t(cfg.ppc)};
  std::size_t count = 0;
  for (std::size_t c = begin; c < end; ++c) {
    const int i = int(c % nx) + 1;
    const int j = int(c / nx % ny) + 1;
    const int k = int(c / (nx * ny)) + 1;
    const std::uint64_t gcell =
        (std::uint64_t(g.offset_z() + k - 1) * g.global_ny() +
         std::uint64_t(g.offset_y() + j - 1)) *
            g.global_nx() +
        std::uint64_t(g.offset_x() + i - 1);
    // Positions keyed by cell only (species share them); momenta keyed by
    // cell and species.
    const Rng pos_rng(cfg.seed, hash_combine(gcell, 0x706F73 /*'pos'*/));
    Rng mom_rng(cfg.seed, hash_combine(gcell, plan.species_key));
    const std::int32_t voxel = g.voxel(i, j, k);
    Particle* const cell = out + count;

    std::size_t kept = 0;
    for (std::uint32_t n = 0; n < std::uint32_t(cfg.ppc); ++n) {
      Particle& p = cell[kept];
      const std::uint64_t at = std::uint64_t(n) * 4;
      p.dx = float(-1.0 + 2.0 * Rng::unit(pos_rng.at(at + 1)));
      p.dy = float(-1.0 + 2.0 * Rng::unit(pos_rng.at(at + 2)));
      p.dz = float(-1.0 + 2.0 * Rng::unit(pos_rng.at(at + 3)));
      p.i = voxel;
      double w = plan.base_w;
      const double x = g.node_x(i) + 0.5 * (1.0 + p.dx) * g.dx();
      const double y = g.node_y(j) + 0.5 * (1.0 + p.dy) * g.dy();
      const double z = g.node_z(k) + 0.5 * (1.0 + p.dz) * g.dz();
      if (cfg.profile) {
        const double scale = cfg.profile(x, y, z);
        MV_REQUIRE(scale >= 0, "density profile must be non-negative");
        if (scale == 0) continue;  // dropped before any momentum draw
        w *= scale;
      }
      p.w = float(w);
      if (cfg.drift_profile) {
        const auto du = cfg.drift_profile(x, y, z);
        batch.drift_du[kept] = {float(du[0]), float(du[1]), float(du[2])};
      }
      batch.ordinal[kept++] = n;
    }

    for (std::size_t a = 0; a < 3; ++a) {
      float* const value = batch.value.data();
      if (plan.uth[a] == 0) {
        // maxwellian(0) is +0.0 whatever it draws, so a component with no
        // spread draws nothing.
        std::fill_n(value, kept, float(cfg.drift[a] + 0.0));
      } else {
        for (std::size_t m = 0; m < kept; ++m) {
          const std::uint64_t at = std::uint64_t(batch.ordinal[m]) * 8 + 2 * a;
          batch.u1[m] = Rng::open_unit(mom_rng.at(at + 1));
          batch.u2[m] = Rng::unit(mom_rng.at(at + 2));
        }
        const std::size_t nredo =
            plan.normals(batch.u1.data(), batch.u2.data(), kept, plan.uth[a],
                         cfg.drift[a], value, batch.redo.data());
        for (std::size_t r = 0; r < nredo; ++r) {
          const std::uint32_t m = batch.redo[r];
          mom_rng.seek(std::uint64_t(batch.ordinal[m]) * 8 + 2 * a);
          value[m] = float(cfg.drift[a] + mom_rng.maxwellian(plan.uth[a]));
        }
      }
      for (std::size_t m = 0; m < kept; ++m) cell[m].*kMomentum[a] = value[m];
    }
    if (cfg.drift_profile) {
      for (std::size_t m = 0; m < kept; ++m) {
        cell[m].ux += batch.drift_du[m][0];
        cell[m].uy += batch.drift_du[m][1];
        cell[m].uz += batch.drift_du[m][2];
      }
    }
    count += kept;
  }
  return count;
}

}  // namespace

std::size_t load_uniform(Species& sp, const grid::LocalGrid& g,
                         const LoadConfig& cfg, Pipeline* pool,
                         Kernel kernel) {
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
  const LoadPlan plan{g,
                      cfg,
                      uth,
                      cfg.density * g.cell_volume() / cfg.ppc,
                      name_key(sp.name()),
                      normals_entry(resolve_kernel(kernel))};

  const std::size_t cells = std::size_t(g.num_cells());
  const std::size_t ppc = std::size_t(cfg.ppc);
  const std::size_t base = sp.size();
  sp.reserve(base + ppc * cells);
  // Each pipeline loads its cell range in place, at the slot its first cell
  // would take if no particle were dropped, into reserved capacity.
  const int lanes = pool != nullptr ? pool->size() : 1;
  std::vector<std::size_t> counts(std::size_t(lanes), 0);
  const auto job = [&](int p) {
    const auto r = Pipeline::partition(cells, lanes, p);
    counts[std::size_t(p)] =
        load_cells(plan, r.begin, r.end, sp.data() + base + ppc * r.begin);
  };
  pool != nullptr ? pool->dispatch(job) : job(0);
  // Close the gaps dropped particles left, in pipeline order: every range
  // moves down (its destination is at or below its source), and the ranges
  // before it are already in place.
  std::size_t end = base;
  for (int p = 0; p < lanes; ++p) {
    Particle* const from =
        sp.data() + base + ppc * Pipeline::partition(cells, lanes, p).begin;
    const std::size_t n = counts[std::size_t(p)];
    if (from != sp.data() + end)
      std::memmove(sp.data() + end, from, n * sizeof(Particle));
    end += n;
  }
  sp.resize(end);
  return end - base;
}

}  // namespace minivpic::particles
