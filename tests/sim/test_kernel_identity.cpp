// Whole-simulation byte identity across advance kernels. Every kernel runs
// the scalar operation sequence in scalar order (docs/KERNELS.md), and the
// transposes only move bits, so on a reduced LPI deck — absorbing walls, the
// laser, a sort every 20 steps and a Marder clean at step 50 — each
// available kernel must leave fields, particles and ParticleStats
// byte-identical to the scalar kernel at the same pipeline count. The
// documented cross-kernel contract is weaker (trajectories to 4 ULP); this
// pins what the implementation actually gives.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "particles/kernel.hpp"
#include "particles/particle.hpp"
#include "particles/species.hpp"
#include "sim/deck.hpp"
#include "sim/simulation.hpp"

namespace minivpic::sim {
namespace {

using particles::Kernel;

constexpr int kSteps = 60;

struct RunState {
  std::vector<std::vector<grid::real>> fields;  // one vector per component
  std::vector<std::vector<particles::Particle>> species;
  ParticleStats stats;
};

RunState run(Kernel kernel, int pipelines) {
  LpiParams p;
  p.nx = 48;
  p.ny = p.nz = 4;
  p.ppc = 16;
  p.vacuum_cells = 2;  // plasma edge near the walls: particles get absorbed
  p.a0 = 0.1;
  Deck deck = lpi_deck(p);  // sort every 20 steps, Marder clean every 50
  deck.kernel = kernel;
  deck.pipelines = pipelines;

  Simulation sim(deck);
  sim.initialize();
  sim.run(kSteps);
  RunState st;
  for (const auto c : grid::em_components()) {
    const grid::real* f = grid::component_data(sim.fields(), c);
    st.fields.emplace_back(f, f + sim.fields().grid().num_voxels());
  }
  for (std::size_t s = 0; s < sim.num_species(); ++s) {
    const auto span = sim.species(s).particles();
    st.species.emplace_back(span.begin(), span.end());
  }
  st.stats = sim.particle_stats();
  return st;
}

class KernelIdentityTest : public ::testing::TestWithParam<Kernel> {};

std::vector<Kernel> simd_kernels() {
  std::vector<Kernel> ks;
  for (Kernel k : particles::available_kernels())
    if (k != Kernel::kScalar) ks.push_back(k);
  return ks;
}

INSTANTIATE_TEST_SUITE_P(
    AvailableKernels, KernelIdentityTest, ::testing::ValuesIn(simd_kernels()),
    [](const ::testing::TestParamInfo<Kernel>& info) {
      return std::string(particles::kernel_name(info.param));
    });

TEST_P(KernelIdentityTest, LpiDeckMatchesScalarBytewise) {
  for (const int pipelines : {1, 4}) {
    SCOPED_TRACE("pipelines " + std::to_string(pipelines));
    const RunState ref = run(Kernel::kScalar, pipelines);
    // The deck must reach every mechanism the comparison is about.
    ASSERT_GT(ref.stats.crossings, 0);
    ASSERT_GT(ref.stats.absorbed, 0);
    ASSERT_GT(ref.stats.sorted, 0);

    const RunState got = run(GetParam(), pipelines);
    ASSERT_EQ(std::memcmp(&got.stats, &ref.stats, sizeof(ParticleStats)), 0)
        << "ParticleStats differ: pushed " << got.stats.pushed << " vs "
        << ref.stats.pushed << ", crossings " << got.stats.crossings
        << " vs " << ref.stats.crossings << ", absorbed "
        << got.stats.absorbed << " vs " << ref.stats.absorbed;
    ASSERT_EQ(got.fields.size(), ref.fields.size());
    for (std::size_t c = 0; c < ref.fields.size(); ++c)
      ASSERT_EQ(std::memcmp(got.fields[c].data(), ref.fields[c].data(),
                            ref.fields[c].size() * sizeof(grid::real)),
                0)
          << "field component " << c;
    ASSERT_EQ(got.species.size(), ref.species.size());
    for (std::size_t s = 0; s < ref.species.size(); ++s) {
      ASSERT_EQ(got.species[s].size(), ref.species[s].size())
          << "particle count, species " << s;
      ASSERT_EQ(std::memcmp(got.species[s].data(), ref.species[s].data(),
                            ref.species[s].size() *
                                sizeof(particles::Particle)),
                0)
          << "particles, species " << s;
    }
  }
}

}  // namespace
}  // namespace minivpic::sim
