// DeckSource::build_with, the per-job rebuild behind CampaignSpec: for every
// kind of override it must build the Deck that copying the source, applying
// the overrides and calling build() builds, field by field, and a bad value
// must fail with the full build's message.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "sim/deck_io.hpp"
#include "util/error.hpp"

namespace minivpic::sim {
namespace {

const char* kBase = R"(
[grid]
nx = 16  ny = 2  nz = 2  dx = 0.5
boundary_x = absorbing  particle_bc_x = absorb

[species electron]
q = -1  m = 1  ppc = 4  uth = 0.05  seed = 7
slab_x0 = 1.0  slab_x1 = 6.0

[species ion]
q = 1  m = 1836  ppc = 4  mobile = false

[laser]
omega0 = 3.0  a0 = 0.05

[control]
sort_every = 10  health_policy = warn

[collision electron ion]
nu_scale = 0.1

[collision electron electron]
period = 4
)";

// No [laser] and no [control]: overrides create them.
const char* kBare = R"(
[grid]
nx = 8  dx = 0.5
[species electron]
ppc = 2  uth = 0.02
)";

// [grid] given twice (the last wins) and a species section repeated.
const char* kRepeated = R"(
[grid]
nx = 8  dx = 0.5
[species electron]
ppc = 2  uth = 0.02
[species electron]
ppc = 3  uth = 0.04
[grid]
nx = 12  dx = 0.25
)";

// A grid section under another header: an override of "grid" creates a
// second grid section, which then wins.
const char* kNamedGrid = R"(
[grid main]
nx = 8  dx = 0.5
[species electron]
ppc = 2  uth = 0.02
)";

std::vector<DeckOverride> overrides(std::vector<std::string> specs) {
  std::vector<DeckOverride> out;
  for (const std::string& s : specs) out.push_back(parse_override(s));
  return out;
}

Deck full_build(const DeckSource& src, const std::vector<DeckOverride>& ovs) {
  DeckSource copy = src;
  for (const DeckOverride& ov : ovs) copy.apply_override(ov);
  return copy.build();
}

void expect_same(const Deck& a, const Deck& b) {
  EXPECT_EQ(a.grid.nx, b.grid.nx);
  EXPECT_EQ(a.grid.ny, b.grid.ny);
  EXPECT_EQ(a.grid.nz, b.grid.nz);
  EXPECT_EQ(a.grid.x0, b.grid.x0);
  EXPECT_EQ(a.grid.y0, b.grid.y0);
  EXPECT_EQ(a.grid.z0, b.grid.z0);
  EXPECT_EQ(a.grid.dx, b.grid.dx);
  EXPECT_EQ(a.grid.dy, b.grid.dy);
  EXPECT_EQ(a.grid.dz, b.grid.dz);
  EXPECT_EQ(a.grid.dt, b.grid.dt);
  EXPECT_EQ(a.grid.cfl, b.grid.cfl);
  EXPECT_EQ(a.grid.boundary, b.grid.boundary);
  EXPECT_EQ(a.particle_bc, b.particle_bc);
  ASSERT_EQ(a.species.size(), b.species.size());
  for (std::size_t s = 0; s < a.species.size(); ++s) {
    const SpeciesConfig& x = a.species[s];
    const SpeciesConfig& y = b.species[s];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.q, y.q);
    EXPECT_EQ(x.m, y.m);
    EXPECT_EQ(x.mobile, y.mobile);
    EXPECT_EQ(x.reflux_uth, y.reflux_uth);
    EXPECT_EQ(x.load.ppc, y.load.ppc);
    EXPECT_EQ(x.load.density, y.load.density);
    EXPECT_EQ(x.load.uth, y.load.uth);
    EXPECT_EQ(x.load.uth3, y.load.uth3);
    EXPECT_EQ(x.load.drift, y.load.drift);
    EXPECT_EQ(x.load.seed, y.load.seed);
    ASSERT_EQ(bool(x.load.profile), bool(y.load.profile));
    if (x.load.profile) {
      for (double px = -1.0; px < 12.0; px += 0.25)
        EXPECT_EQ(x.load.profile(px, 0, 0), y.load.profile(px, 0, 0)) << px;
    }
    EXPECT_EQ(bool(x.load.drift_profile), bool(y.load.drift_profile));
  }
  ASSERT_EQ(a.laser.has_value(), b.laser.has_value());
  if (a.laser) {
    EXPECT_EQ(a.laser->omega0, b.laser->omega0);
    EXPECT_EQ(a.laser->a0, b.laser->a0);
    EXPECT_EQ(a.laser->ramp, b.laser->ramp);
    EXPECT_EQ(a.laser->duration, b.laser->duration);
    EXPECT_EQ(a.laser->global_plane, b.laser->global_plane);
    EXPECT_EQ(a.laser->polarize_z, b.laser->polarize_z);
  }
  ASSERT_EQ(a.collisions.size(), b.collisions.size());
  for (std::size_t c = 0; c < a.collisions.size(); ++c) {
    EXPECT_EQ(a.collisions[c].species_a, b.collisions[c].species_a);
    EXPECT_EQ(a.collisions[c].species_b, b.collisions[c].species_b);
    EXPECT_EQ(a.collisions[c].nu_scale, b.collisions[c].nu_scale);
    EXPECT_EQ(a.collisions[c].period, b.collisions[c].period);
  }
  EXPECT_EQ(a.pipelines, b.pipelines);
  EXPECT_EQ(a.kernel, b.kernel);
  EXPECT_EQ(a.overlap, b.overlap);
  EXPECT_EQ(a.sort_period, b.sort_period);
  EXPECT_EQ(a.clean_period, b.clean_period);
  EXPECT_EQ(a.checkpoint_every, b.checkpoint_every);
  EXPECT_EQ(a.checkpoint_keep, b.checkpoint_keep);
  EXPECT_EQ(a.health.period, b.health.period);
  EXPECT_EQ(a.health.max_energy_growth, b.health.max_energy_growth);
  EXPECT_EQ(a.health.max_particle_loss, b.health.max_particle_loss);
  EXPECT_EQ(a.health.policy, b.health.policy);
  EXPECT_EQ(a.health.rollback_window, b.health.rollback_window);
  EXPECT_EQ(a.clean_passes, b.clean_passes);
  EXPECT_EQ(a.init_settle_passes, b.init_settle_passes);
  EXPECT_EQ(a.collision_seed, b.collision_seed);
}

/// The rebuild equals the full build for `specs` on deck `text`.
void expect_rebuild_matches(const char* text,
                            const std::vector<std::string>& specs) {
  SCOPED_TRACE(specs.empty() ? std::string("(none)") : specs.front());
  const DeckSource src = DeckSource::from_text(text);
  const Deck built = src.build();
  const auto ovs = overrides(specs);
  expect_same(src.build_with(ovs, built), full_build(src, ovs));
}

/// The rebuild throws, with the full build's message.
void expect_same_error(const char* text,
                       const std::vector<std::string>& specs) {
  SCOPED_TRACE(specs.front());
  const DeckSource src = DeckSource::from_text(text);
  const Deck built = src.build();
  const auto ovs = overrides(specs);
  std::string full, rebuilt;
  try {
    (void)full_build(src, ovs);
  } catch (const Error& e) {
    full = e.what();
  }
  try {
    (void)src.build_with(ovs, built);
  } catch (const Error& e) {
    rebuilt = e.what();
  }
  EXPECT_FALSE(full.empty());
  EXPECT_EQ(rebuilt, full);
}

TEST(DeckRebuildTest, EveryOverrideKindMatchesTheFullBuild) {
  expect_rebuild_matches(kBase, {});
  expect_rebuild_matches(kBase, {"grid.nx=24", "grid.boundary_y=pec"});
  expect_rebuild_matches(kBase, {"grid.dx=0.25"});  // dy, dz follow dx
  expect_rebuild_matches(kBase, {"species ion.uth=0.01"});
  expect_rebuild_matches(kBase, {"species electron.slab_x1=9.5"});
  expect_rebuild_matches(kBase, {"species ion.drift_x=0.2",
                                 "species electron.drift_x=-0.2"});
  expect_rebuild_matches(kBase, {"control.sort_every=5",
                                 "control.health_policy=abort"});
  expect_rebuild_matches(kBase, {"control.kernel=scalar"});
  expect_rebuild_matches(kBase, {"laser.a0=0.2", "laser.polarize_z=true"});
  expect_rebuild_matches(kBase, {"collision electron electron.period=2"});
  expect_rebuild_matches(kBase, {"collision electron ion.nu_scale=0.5"});
  // Every section at once, one key twice (the last value wins).
  expect_rebuild_matches(
      kBase, {"laser.a0=0.3", "grid.ny=4", "species ion.ppc=2",
              "control.pipelines=2", "collision electron ion.period=3",
              "laser.a0=0.4"});
}

TEST(DeckRebuildTest, CreatedSingletonSectionsMatchTheFullBuild) {
  expect_rebuild_matches(kBare, {"laser.a0=0.3"});
  expect_rebuild_matches(kBare, {"control.sort_every=0"});
  expect_rebuild_matches(kBare, {"control.pipelines=2", "laser.plane=3",
                                 "control.clean_period=7"});
}

TEST(DeckRebuildTest, RepeatedHeadersMatchTheFullBuild) {
  // The override edits the first [grid], whose values the second overrides.
  expect_rebuild_matches(kRepeated, {"grid.nx=20"});
  expect_rebuild_matches(kRepeated, {"grid.cfl=0.5"});
  expect_rebuild_matches(kRepeated, {"species electron.uth=0.09"});
  expect_rebuild_matches(kRepeated, {"control.sort_every=3", "grid.nz=2"});
  expect_rebuild_matches(kNamedGrid, {"grid.nx=20"});
  expect_rebuild_matches(kNamedGrid, {"species electron.ppc=5"});
}

TEST(DeckRebuildTest, BadValuesFailWithTheFullBuildsMessage) {
  expect_same_error(kBase, {"grid.nx=abc"});
  expect_same_error(kBase, {"grid.nx=2.5"});
  expect_same_error(kBase, {"grid.boundary_x=mirror"});
  expect_same_error(kBase, {"species electron.bogus=1"});
  expect_same_error(kBase, {"species electron.slab_x1=0.5"});
  expect_same_error(kBase, {"species ion.mobile=maybe"});
  expect_same_error(kBase, {"laser.plane=1.5"});
  expect_same_error(kBase, {"control.health_policy=ignore"});
  expect_same_error(kBase, {"control.kernel=avx1024"});
  expect_same_error(kBase, {"collision electron ion.period=x"});
  expect_same_error(kBase, {"species positron.q=1"});  // no such section
  expect_same_error(kBare, {"grid x.nx=4"});           // cannot be created
  expect_same_error(kBare, {"laser.bogus=1"});         // created, bad key
  // Two bad sections: the one first in the file is reported.
  expect_same_error(kBase, {"control.sort_every=x", "grid.ny=y"});
  expect_same_error(kRepeated, {"grid.nx=abc"});
}

TEST(DeckRebuildTest, CampaignJobsBuildAsTheFullBuildDoes) {
  const std::string text = std::string(kBase) + R"(
[campaign]
laser.a0 = 0.05, 0.10
species electron.uth = 0.03, 0.06
steps = 4
)";
  const campaign::CampaignSpec spec =
      campaign::CampaignSpec::from_deck_text(text);
  const DeckSource src = DeckSource::from_text(text);
  const auto jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 4u);
  for (const campaign::Job& job : jobs)
    expect_same(spec.make_deck(job), full_build(src, job.overrides));

  // A bad axis value fails expand with the full build's message.
  campaign::CampaignSpec bad =
      campaign::CampaignSpec::from_deck_source(DeckSource::from_text(kBase));
  bad.add_axis("grid.nx", {"8", "nine"});
  std::string message;
  try {
    (void)bad.expand();
  } catch (const Error& e) {
    message = e.what();
  }
  std::string full;
  try {
    (void)full_build(DeckSource::from_text(kBase),
                     overrides({"grid.nx=nine"}));
  } catch (const Error& e) {
    full = e.what();
  }
  EXPECT_FALSE(full.empty());
  EXPECT_EQ(message, full);
}

}  // namespace
}  // namespace minivpic::sim
