#include "sim/deck_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/simulation.hpp"
#include "util/error.hpp"

namespace minivpic::sim {
namespace {

Deck parse(const std::string& text) {
  std::istringstream in(text);
  return parse_deck(in);
}

const char* kLpiDeck = R"(
# LPI slab deck
[grid]
nx = 48  ny = 2  nz = 2  dx = 0.25
boundary_x = absorbing
particle_bc_x = absorb

[species electron]
q = -1  m = 1  ppc = 4  uth = 0.06
slab_x0 = 2.0  slab_x1 = 10.0

[species ion]
q = 1  m = 1836  ppc = 4  uth = 0.001  mobile = false
slab_x0 = 2.0  slab_x1 = 10.0

[laser]
omega0 = 3.16  a0 = 0.1  ramp = 5  plane = 2

[control]
sort_every = 10  clean_period = 25
)";

TEST(DeckIoTest, ParsesFullLpiDeck) {
  const Deck d = parse(kLpiDeck);
  EXPECT_EQ(d.grid.nx, 48);
  EXPECT_EQ(d.grid.ny, 2);
  EXPECT_DOUBLE_EQ(d.grid.dx, 0.25);
  EXPECT_DOUBLE_EQ(d.grid.dy, 0.25);  // defaults to dx
  EXPECT_EQ(d.grid.boundary[grid::kFaceXLo], grid::BoundaryKind::kAbsorbing);
  EXPECT_EQ(d.grid.boundary[grid::kFaceYLo], grid::BoundaryKind::kPeriodic);
  EXPECT_EQ(d.particle_bc[grid::kFaceXHi], particles::ParticleBc::kAbsorb);
  ASSERT_EQ(d.species.size(), 2u);
  EXPECT_EQ(d.species[0].name, "electron");
  EXPECT_EQ(d.species[0].load.ppc, 4);
  EXPECT_FALSE(d.species[1].mobile);
  ASSERT_TRUE(d.species[0].load.profile);
  EXPECT_EQ(d.species[0].load.profile(1.0, 0, 0), 0.0);
  EXPECT_EQ(d.species[0].load.profile(5.0, 0, 0), 1.0);
  ASSERT_TRUE(d.laser.has_value());
  EXPECT_DOUBLE_EQ(d.laser->a0, 0.1);
  EXPECT_EQ(d.sort_period, 10);
  EXPECT_EQ(d.clean_period, 25);
  // [control] without a kernel key defaults to auto (deck files are the
  // production front end; the Deck struct default stays scalar).
  EXPECT_EQ(d.kernel, particles::Kernel::kAuto);
  // Deck files have no overlap key: auto, resolved at Simulation build.
  EXPECT_EQ(d.overlap, Deck::Overlap::kAuto);
}

TEST(DeckIoTest, OverlapModeParses) {
  // The overlap mode is not a deck setting: a `[control] overlap` key is
  // rejected as unknown, whatever its value.
  const char* tmpl = "[grid]\nnx = 8\n[species e]\nq=-1 m=1 ppc=1 uth=0.01\n"
                     "[control]\noverlap = ";
  for (const char* mode : {"on", "off", "auto"})
    EXPECT_THROW(parse(std::string(tmpl) + mode), Error) << mode;
}

TEST(DeckIoTest, KernelKey) {
  const char* tmpl = R"(
[grid]
nx = 4  ny = 4  nz = 4  dx = 0.5
[species electron]
ppc = 4  uth = 0.1
[control]
kernel = )";
  EXPECT_EQ(parse(std::string(tmpl) + "scalar\n").kernel,
            particles::Kernel::kScalar);
  EXPECT_EQ(parse(std::string(tmpl) + "sse\n").kernel,
            particles::Kernel::kSse);
  EXPECT_EQ(parse(std::string(tmpl) + "avx512\n").kernel,
            particles::Kernel::kAvx512);
  EXPECT_EQ(parse(std::string(tmpl) + "auto\n").kernel,
            particles::Kernel::kAuto);
  EXPECT_THROW(parse(std::string(tmpl) + "altivec\n"), Error);
  // No [control] section at all: the conservative struct default.
  EXPECT_EQ(parse(R"(
[grid]
nx = 4  dx = 0.5
[species electron]
ppc = 4  uth = 0.1
)").kernel, particles::Kernel::kScalar);
}

TEST(DeckIoTest, ParsedDeckRuns) {
  Simulation sim(parse(kLpiDeck));
  sim.initialize();
  EXPECT_GT(sim.global_particle_count(), 0);
  sim.run(5);
  EXPECT_GT(sim.energies().field.total(), 0.0);
}

TEST(DeckIoTest, CollisionSection) {
  const Deck d = parse(R"(
[grid]
nx = 4  ny = 4  nz = 4  dx = 0.5
[species electron]
ppc = 4  uth = 0.1
[collision electron electron]
nu_scale = 1e-4  period = 5
)");
  ASSERT_EQ(d.collisions.size(), 1u);
  EXPECT_EQ(d.collisions[0].species_a, "electron");
  EXPECT_DOUBLE_EQ(d.collisions[0].nu_scale, 1e-4);
  EXPECT_EQ(d.collisions[0].period, 5);
}

TEST(DeckIoTest, AnisotropicAndDrift) {
  const Deck d = parse(R"(
[grid]
nx = 4  dx = 0.5
[species beam]
uth_x = 0.01  uth_y = 0.02  uth_z = 0.3  drift_x = 0.5  seed = 99
)");
  EXPECT_EQ(d.species[0].load.uth3[2], 0.3);
  EXPECT_EQ(d.species[0].load.drift[0], 0.5);
  EXPECT_EQ(d.species[0].load.seed, 99u);
}

TEST(DeckIoTest, CommentsAndSpacingTolerated) {
  const Deck d = parse(R"(
# leading comment
[grid]
nx=8 ny =8 nz= 8   dx = 0.5  # trailing comment
[species e]
ppc = 2
)");
  EXPECT_EQ(d.grid.nx, 8);
  EXPECT_EQ(d.grid.ny, 8);
  EXPECT_EQ(d.grid.nz, 8);
}

TEST(DeckIoTest, ErrorsAreSpecific) {
  // Unknown key.
  EXPECT_THROW(parse("[grid]\nnx = 4\nbogus = 1\n[species e]\nppc=1\n"),
               Error);
  // Unknown section.
  EXPECT_THROW(parse("[grid]\nnx=4\n[warp drive]\n"), Error);
  // Key before section.
  EXPECT_THROW(parse("nx = 4\n"), Error);
  // Bad number.
  EXPECT_THROW(parse("[grid]\nnx = four\n[species e]\nppc=1\n"), Error);
  // Non-integer where integer expected.
  EXPECT_THROW(parse("[grid]\nnx = 4.5\n[species e]\nppc=1\n"), Error);
  // Missing grid.
  EXPECT_THROW(parse("[species e]\nppc=1\n"), Error);
  // Missing species.
  EXPECT_THROW(parse("[grid]\nnx=4\n"), Error);
  // Bad boundary name.
  EXPECT_THROW(
      parse("[grid]\nnx=4\nboundary_x = mirror\n[species e]\nppc=1\n"),
      Error);
  // Species without a name.
  EXPECT_THROW(parse("[grid]\nnx=4\n[species]\nppc=1\n"), Error);
  // Bad slab ordering.
  EXPECT_THROW(
      parse("[grid]\nnx=4\n[species e]\nslab_x0=5\nslab_x1=2\n"), Error);
  // Unterminated section.
  EXPECT_THROW(parse("[grid\nnx=4\n"), Error);
  // `sort_period`, the retired spelling of sort_every.
  EXPECT_THROW(
      parse("[grid]\nnx=4\n[species e]\nppc=1\n[control]\nsort_period=20\n"),
      Error);
}

TEST(DeckIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/minivpic_test.deck";
  {
    std::ofstream out(path);
    out << kLpiDeck;
  }
  const Deck d = load_deck_file(path);
  EXPECT_EQ(d.grid.nx, 48);
  std::remove(path.c_str());
  EXPECT_THROW(load_deck_file("/nonexistent.deck"), Error);
}

// -- overrides (--set and campaign axes) --------------------------------------

TEST(DeckOverrideTest, ParseSplitsAtLastDot) {
  const DeckOverride ov = parse_override("species electron.uth=0.07");
  EXPECT_EQ(ov.section, "species electron");
  EXPECT_EQ(ov.key, "uth");
  EXPECT_EQ(ov.value, "0.07");
  EXPECT_EQ(ov.spec(), "species electron.uth=0.07");
  EXPECT_THROW(parse_override("no_dot=1"), Error);
  EXPECT_THROW(parse_override("grid.nx"), Error);  // no value
  EXPECT_THROW(parse_override(".nx=4"), Error);    // empty section
}

TEST(DeckOverrideTest, AppliedOverridesRewriteTheDeck) {
  DeckSource src = DeckSource::from_text(kLpiDeck);
  src.apply_override("grid.nx", "64");
  src.apply_override("species electron.uth", "0.1");
  src.apply_override(parse_override("laser.a0=0.25"));
  const Deck d = src.build();
  EXPECT_EQ(d.grid.nx, 64);
  EXPECT_DOUBLE_EQ(d.species[0].load.uth, 0.1);
  EXPECT_DOUBLE_EQ(d.laser->a0, 0.25);
}

TEST(DeckOverrideTest, UnknownKeysAndSectionsRejected) {
  DeckSource src = DeckSource::from_text(kLpiDeck);
  // An unknown key in a real section fails at build() via check_known.
  src.apply_override("grid.bogus", "1");
  EXPECT_THROW(src.build(), Error);
  // A species that does not exist cannot be created by an override.
  DeckSource src2 = DeckSource::from_text(kLpiDeck);
  EXPECT_THROW(src2.apply_override("species muon.uth", "0.1"), Error);
  // The retired `sort_period` spelling is an unknown key too.
  DeckSource src3 = DeckSource::from_text(kLpiDeck);
  src3.apply_override("control.sort_period", "20");
  EXPECT_THROW(src3.build(), Error);
}

TEST(DeckOverrideTest, OverrideCreatesSingletonSectionOnDemand) {
  // A deck with no [control] section still accepts control overrides.
  DeckSource src = DeckSource::from_text(
      "[grid]\nnx = 8\n[species e]\nq = -1\nm = 1\nppc = 2\n");
  src.apply_override("control.sort_every", "5");
  EXPECT_EQ(src.build().sort_period, 5);
}

TEST(DeckSourceTest, CampaignSectionCarriedButIgnoredByBuild) {
  DeckSource src = DeckSource::from_text(
      "[grid]\nnx = 8\n[species e]\nq = -1\nm = 1\nppc = 2\n"
      "[campaign]\ngrid.nx = 8, 16   # a sweep\nsteps = 4\n");
  ASSERT_EQ(src.campaign_lines().size(), 2u);
  EXPECT_EQ(src.campaign_lines()[0], "grid.nx = 8, 16");
  EXPECT_EQ(src.build().grid.nx, 8);  // campaign lines don't touch the deck
  // The canonical text (the job-id fingerprint) excludes the campaign
  // section but reflects overrides.
  const std::string before = src.canonical_text();
  EXPECT_EQ(before.find("campaign"), std::string::npos);
  src.apply_override("grid.nx", "32");
  EXPECT_NE(src.canonical_text(), before);
}

}  // namespace
}  // namespace minivpic::sim
