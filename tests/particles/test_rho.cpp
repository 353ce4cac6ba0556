// The rho deposit's contract (particles/rho.hpp): the charge is summed in
// int64 fixed point, so rhof has the same bits for every pool size and every
// particle order; it agrees with an exact sum of the float contributions to
// within one quantum per contribution; a corrupt particle turns rhof into NaN
// instead of reaching a float-to-int conversion; and a deck whose weights
// exceed the headroom fails at initialize().
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "grid/halo.hpp"
#include "particles/rho.hpp"
#include "sim/fault_injection.hpp"
#include "sim/simulation.hpp"
#include "util/error.hpp"
#include "util/pipeline.hpp"
#include "util/rng.hpp"

namespace minivpic::particles {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/// Electrons, ions and a doubly charged species at a third weight, over a
/// density step with a vacuum gap (so weights differ and some cells are
/// empty), on an unequal periodic grid.
struct Plasma {
  Plasma() : grid(make_grid()) {
    LoadConfig e;
    e.ppc = 6;
    e.uth = 0.1;
    e.profile = [](double x, double, double) {
      return x < 1.0 ? 0.0 : x < 2.0 ? 1.5 : 0.75;
    };
    LoadConfig ion = e;
    ion.uth = 0.01;
    LoadConfig alpha;
    alpha.ppc = 3;
    alpha.density = 0.3;
    alpha.uth = 0.02;
    add("electron", -1, e);
    add("ion", 1, ion);
    add("alpha", 2, alpha);
  }

  static grid::GlobalGrid make_grid() {
    grid::GlobalGrid g;
    g.nx = 7;
    g.ny = 5;
    g.nz = 4;
    g.dx = g.dy = g.dz = 0.5;
    return g;
  }

  void add(const char* name, double q, const LoadConfig& cfg) {
    species.emplace_back(name, q, 1.0);
    load_uniform(species.back(), grid, cfg);
    c = std::max(c, full_weight_rho(q, cfg));
  }

  std::vector<const Species*> views() const {
    std::vector<const Species*> v;
    for (const Species& sp : species) v.push_back(&sp);
    return v;
  }

  grid::LocalGrid grid;
  std::vector<Species> species;
  double c = 0;  ///< the deck-level scale C of rho.hpp
};

std::vector<grid::real> rho_of(RhoDeposit& rho, const grid::LocalGrid& g,
                               const std::vector<const Species*>& species,
                               Pipeline* pool, bool fold_halo) {
  grid::FieldArray f(g);
  rho.deposit(species, f, pool);
  if (fold_halo) {
    grid::Halo halo(g, nullptr);
    halo.reduce_sources(f);
  }
  const auto s = f.rhof_span();
  return {s.begin(), s.end()};
}

bool same_bytes(const std::vector<grid::real>& a,
                const std::vector<grid::real>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(grid::real)) == 0;
}

TEST(RhoDepositTest, SameBitsForEveryPoolSizeAndParticleOrder) {
  const Plasma stored;
  Plasma shuffled, sorted;
  Rng rng(2024);
  for (Species& sp : shuffled.species)
    std::shuffle(sp.particles().begin(), sp.particles().end(), rng);
  for (std::size_t s = 0; s < sorted.species.size(); ++s) {
    sorted.species[s] = shuffled.species[s];
    sorted.species[s].sort(sorted.grid);
  }
  ASSERT_NE(std::memcmp(stored.species[0].data(), shuffled.species[0].data(),
                        stored.species[0].size() * sizeof(Particle)),
            0);
  ASSERT_NE(std::memcmp(stored.species[0].data(), sorted.species[0].data(),
                        stored.species[0].size() * sizeof(Particle)),
            0);

  RhoDeposit serial(stored.grid, stored.c);
  const auto ref =
      rho_of(serial, stored.grid, stored.views(), nullptr, true);
  ASSERT_TRUE(std::all_of(ref.begin(), ref.end(),
                          [](grid::real r) { return std::isfinite(r); }));
  ASSERT_TRUE(std::any_of(ref.begin(), ref.end(),
                          [](grid::real r) { return r != 0; }));

  // One deposit reused across every pool and order: its blocks must come
  // back zero from each fold, whatever pool size wrote them.
  RhoDeposit rho(stored.grid, stored.c);
  const std::pair<const char*, const Plasma*> orders[] = {
      {"stored", &stored}, {"shuffled", &shuffled}, {"sorted", &sorted}};
  for (const auto& [name, plasma] : orders) {
    for (int n : {1, 2, 4, 5}) {
      Pipeline pool(n);
      EXPECT_TRUE(same_bytes(
          ref, rho_of(rho, stored.grid, plasma->views(), &pool, true)))
          << name << " order, pool " << n;
    }
  }
}

TEST(RhoDepositTest, WithinOneQuantumPerContributionOfExactSum) {
  const Plasma plasma;
  RhoDeposit rho(plasma.grid, plasma.c);
  const double q_unit = rho.quantum();
  int e = 0;
  EXPECT_EQ(std::frexp(q_unit, &e), 0.5) << "Q must be a power of two";
  EXPECT_GE(plasma.c / q_unit, 0x1p24 * (1 - 0x1p-20));
  EXPECT_LT(plasma.c / q_unit, 0x1p25);

  Pipeline pool(4);
  const auto got = rho_of(rho, plasma.grid, plasma.views(), &pool, false);

  // The float contributions of a trilinear deposit in the same operation
  // order, ((q l) l) l, summed exactly (double holds every partial sum here
  // to far below one quantum).
  const grid::LocalGrid& g = plasma.grid;
  const int sy = g.sy(), sz = g.sz();
  const int offsets[8] = {0, 1, sy, sy + 1, sz, sz + 1, sz + sy, sz + sy + 1};
  std::vector<double> exact(got.size(), 0.0);
  std::vector<int> count(got.size(), 0);
  for (const Species& sp : plasma.species) {
    const float r8v = float(sp.q() / (8.0 * g.cell_volume()));
    for (const Particle& p : sp.particles()) {
      const float q = r8v * p.w;
      const float lx = 1.0f - p.dx, hx = 1.0f + p.dx;
      const float ly = 1.0f - p.dy, hy = 1.0f + p.dy;
      const float lz = 1.0f - p.dz, hz = 1.0f + p.dz;
      const float w[8] = {q * lx * ly * lz, q * hx * ly * lz,
                          q * lx * hy * lz, q * hx * hy * lz,
                          q * lx * ly * hz, q * hx * ly * hz,
                          q * lx * hy * hz, q * hx * hy * hz};
      for (int k = 0; k < 8; ++k) {
        exact[std::size_t(p.i + offsets[k])] += w[k];
        ++count[std::size_t(p.i + offsets[k])];
      }
    }
  }
  int reached = 0;
  for (std::size_t n = 0; n < got.size(); ++n) {
    // One quantum per contribution, plus the one float rounding of the sum.
    const double tol = count[n] * q_unit + std::abs(exact[n]) * 0x1p-24;
    ASSERT_LE(std::abs(double(got[n]) - exact[n]), tol)
        << "node " << n << ": " << count[n] << " contributions";
    reached += count[n] > 0;
  }
  EXPECT_GT(reached, 0);
}

TEST(RhoDepositTest, CorruptParticleWritesNaNAndLeavesBlocksZero) {
  const Plasma plasma;
  const grid::LocalGrid& g = plasma.grid;
  RhoDeposit fresh(g, plasma.c);
  Pipeline pool(4);
  const auto clean = rho_of(fresh, g, plasma.views(), &pool, false);

  const float inf = std::numeric_limits<float>::infinity();
  // The lowest voxel with a node past the end of the grid.
  const auto off_grid =
      std::int32_t(g.num_voxels() - (g.sz() + g.sy() + 1));
  const std::vector<std::pair<const char*, std::function<void(Particle&)>>>
      corruptions = {
          {"NaN offset", [](Particle& p) { p.dx = kNaN; }},
          {"infinite offset", [&](Particle& p) { p.dz = -inf; }},
          {"offset far out of its cell", [](Particle& p) { p.dy = 1e9f; }},
          {"NaN weight", [](Particle& p) { p.w = kNaN; }},
          {"infinite weight", [&](Particle& p) { p.w = inf; }},
          {"weight over the bound", [](Particle& p) { p.w *= 1000; }},
          // Over the bound, though at the cell centre every node weight
          // would still fit in int32.
          {"centred weight over the bound",
           [](Particle& p) {
             p.w *= 200;
             p.dx = p.dy = p.dz = 0;
           }},
          {"negative voxel", [](Particle& p) { p.i = -1; }},
          {"voxel with nodes off the grid",
           [&](Particle& p) { p.i = off_grid; }},
      };
  RhoDeposit rho(g, plasma.c);
  for (const auto& [what, corrupt] : corruptions) {
    Plasma bad;
    Species& e = bad.species[0];
    corrupt(e[e.size() / 2]);
    const auto got = rho_of(rho, g, bad.views(), &pool, false);
    EXPECT_TRUE(std::all_of(got.begin(), got.end(),
                            [](grid::real r) { return std::isnan(r); }))
        << what;
    // The poisoned fold still zeroed the blocks: the next deposit of the
    // clean set is exact.
    EXPECT_TRUE(same_bytes(clean, rho_of(rho, g, plasma.views(), &pool,
                                         false)))
        << "after " << what;
  }
}

sim::Deck marder_deck() {
  sim::Deck d;
  d.grid.nx = 6;
  d.grid.ny = 4;
  d.grid.nz = 4;
  d.grid.dx = d.grid.dy = d.grid.dz = 0.5;
  d.pipelines = 2;
  d.clean_period = 4;
  sim::SpeciesConfig e;
  e.name = "electron";
  e.q = -1;
  e.m = 1;
  e.load.ppc = 4;
  e.load.uth = 0.1;
  d.species.push_back(e);
  sim::SpeciesConfig ion = e;
  ion.name = "ion";
  ion.q = 1;
  ion.m = 1836;
  ion.mobile = false;
  ion.load.uth = 0;
  d.species.push_back(ion);
  return d;
}

bool any_nan(std::span<const grid::real> v) {
  return std::any_of(v.begin(), v.end(),
                     [](grid::real r) { return std::isnan(r); });
}

TEST(RhoDepositTest, NaNParticleOnMarderStepReachesRhof) {
  for (const bool mobile : {true, false}) {
    sim::Simulation s(marder_deck());
    s.initialize();
    s.run(3);
    if (mobile) {
      sim::FaultInjector::poison_particle(s, 0, 5);  // NaN momentum
    } else {
      s.species(1)[5].dx = kNaN;  // an immobile ion is never pushed
    }
    s.step();  // the first Marder step
    // The halo fold zeroes the ghost planes; every owned node is NaN.
    const grid::FieldArray& f = s.fields();
    const grid::LocalGrid& g = f.grid();
    int finite = 0;
    for (int k = 1; k <= g.nz(); ++k)
      for (int j = 1; j <= g.ny(); ++j)
        for (int i = 1; i <= g.nx(); ++i) finite += !std::isnan(f.rhof(i, j, k));
    EXPECT_EQ(finite, 0) << (mobile ? "mobile" : "immobile") << " species";
    EXPECT_TRUE(any_nan(f.ex_span()));
  }
}

TEST(RhoDepositTest, OverBoundWeightFailsAtInitialize) {
  sim::Deck deck = marder_deck();
  deck.species[0].load.profile = [](double x, double, double) {
    return x < 1.0 ? 200.0 : 1.0;
  };
  sim::Simulation s(deck);
  try {
    s.initialize();
    FAIL() << "a profile of 200 must exceed the rho headroom";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("'electron'"), std::string::npos)
        << err.what();
  }
}

TEST(RhoDepositTest, ProfileOf64ConvertsWhereverCFalls) {
  // C a hair below a power of two is the edge of the headroom: the base
  // weight rounds up to it in float, and 64 times it must still convert.
  sim::Deck deck = marder_deck();
  deck.clean_period = 1;
  deck.species[0].load.ppc = 1;
  deck.species[0].load.density = 1 - 0x1p-30;
  deck.species[0].load.profile = [](double, double, double) { return 64.0; };
  deck.species.pop_back();
  sim::Simulation s(deck);
  ASSERT_NO_THROW(s.initialize());
  s.step();
  const auto rho = s.fields().rhof_span();
  EXPECT_FALSE(any_nan(rho));
  EXPECT_TRUE(std::any_of(rho.begin(), rho.end(),
                          [](grid::real r) { return r != 0; }));
}

}  // namespace
}  // namespace minivpic::particles
