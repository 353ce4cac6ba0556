// End-to-end resilience proof: every injected checkpoint corruption must be
// detected by checksum (never silently restored), every injected NaN must
// be caught by the HealthMonitor within its scan period with the configured
// policy applied, and a killed campaign must resume from its rotated sets
// bit-exactly matching an uninterrupted run.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/deck_io.hpp"
#include "sim/fault_injection.hpp"
#include "sim/health.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "vmpi/runtime.hpp"

namespace minivpic::sim {
namespace {

Deck demo_deck() {
  Deck d;
  d.grid.nx = d.grid.ny = d.grid.nz = 6;
  d.grid.dx = d.grid.dy = d.grid.dz = 0.5;
  SpeciesConfig e;
  e.name = "electron";
  e.q = -1;
  e.m = 1;
  e.load.ppc = 4;
  e.load.uth = 0.15;
  d.species.push_back(e);
  SpeciesConfig ion = e;
  ion.name = "ion";
  ion.q = +1;
  ion.m = 1836;
  ion.load.uth = 0.001;
  d.species.push_back(ion);
  return d;
}

std::string temp_prefix(const char* tag) {
  return ::testing::TempDir() + "/minivpic_res_" + tag;
}

/// Quiet the expected fallback warnings so corruption tests don't spam.
struct LogSilencer {
  LogLevel prev = log_level();
  LogSilencer() { set_log_level(LogLevel::kError); }
  ~LogSilencer() { set_log_level(prev); }
};

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// -- checkpoint corruption paths ---------------------------------------------

TEST(ResilienceCheckpoint, TruncatedHeaderRejected) {
  const Deck deck = demo_deck();
  const std::string prefix = temp_prefix("hdr");
  Simulation a(deck);
  a.initialize();
  Checkpoint::save(a, prefix);
  FaultInjector::truncate_file(Checkpoint::set_path(prefix, 0, 0), 10);
  Simulation b(deck);
  LogSilencer quiet;
  const std::string what =
      error_of([&] { Checkpoint::restore(b, prefix); });
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  Checkpoint::remove_all(prefix);
}

TEST(ResilienceCheckpoint, BitFlippedFieldSectionRejected) {
  const Deck deck = demo_deck();
  const std::string prefix = temp_prefix("fieldflip");
  Simulation a(deck);
  a.initialize();
  a.run(2);
  Checkpoint::save(a, prefix);
  FaultInjector::corrupt_section(Checkpoint::set_path(prefix, 2, 0),
                                 Checkpoint::kFieldSection,
                                 std::uint32_t(grid::Component::kEy));
  Simulation b(deck);
  LogSilencer quiet;
  const std::string what =
      error_of([&] { Checkpoint::restore(b, prefix); });
  EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
  Checkpoint::remove_all(prefix);
}

TEST(ResilienceCheckpoint, BitFlippedParticleSectionRejected) {
  const Deck deck = demo_deck();
  const std::string prefix = temp_prefix("partflip");
  Simulation a(deck);
  a.initialize();
  a.run(2);
  Checkpoint::save(a, prefix);
  FaultInjector::corrupt_section(Checkpoint::set_path(prefix, 2, 0),
                                 Checkpoint::kSpeciesSection, 1);
  Simulation b(deck);
  LogSilencer quiet;
  const std::string what =
      error_of([&] { Checkpoint::restore(b, prefix); });
  EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
  Checkpoint::remove_all(prefix);
}

TEST(ResilienceCheckpoint, VersionMismatchRejected) {
  const Deck deck = demo_deck();
  const std::string prefix = temp_prefix("version");
  Simulation a(deck);
  a.initialize();
  Checkpoint::save(a, prefix);
  // Patch the version field (file offset 4) and re-stamp the header CRC
  // (the 52 checksummed bytes precede it) so the *version check itself* is
  // what rejects the file, not the checksum.
  const std::string path = Checkpoint::set_path(prefix, 0, 0);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    const std::uint32_t bogus_version = 99;
    f.seekp(4);
    f.write(reinterpret_cast<const char*>(&bogus_version), 4);
    char head[52];
    f.seekg(0);
    f.read(head, 52);
    const std::uint32_t crc = Crc32::of(head, 52);
    f.seekp(52);
    f.write(reinterpret_cast<const char*>(&crc), 4);
    ASSERT_TRUE(f.good());
  }
  Simulation b(deck);
  LogSilencer quiet;
  const std::string what =
      error_of([&] { Checkpoint::restore(b, prefix); });
  EXPECT_NE(what.find("unsupported checkpoint version"), std::string::npos)
      << what;
  Checkpoint::remove_all(prefix);
}

TEST(ResilienceCheckpoint, CorruptionFallsBackToOlderRotation) {
  const Deck deck = demo_deck();
  const std::string prefix = temp_prefix("fallback");
  Simulation a(deck);
  a.initialize();
  a.run(5);
  Checkpoint::save(a, prefix);
  a.run(5);
  Checkpoint::save(a, prefix);
  ASSERT_EQ(Checkpoint::latest_step(prefix), 10);

  FaultInjector::corrupt_section(Checkpoint::set_path(prefix, 10, 0),
                                 Checkpoint::kFieldSection,
                                 std::uint32_t(grid::Component::kEx));
  Simulation b(deck);
  LogSilencer quiet;
  Checkpoint::restore(b, prefix);
  EXPECT_EQ(b.step_index(), 5);  // recovered from the previous rotation
  b.run(1);                      // and it is steppable
  Checkpoint::remove_all(prefix);
}

TEST(ResilienceCheckpoint, MissingRankFileFallsBackInAgreement) {
  const Deck deck = demo_deck();
  const std::string prefix = temp_prefix("missingrank");
  vmpi::run(2, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo({2, 1, 1}, {true, true, true});
    Simulation a(deck, &comm, &topo);
    a.initialize();
    a.run(5);
    Checkpoint::save(a, prefix);
    a.run(5);
    Checkpoint::save(a, prefix);
    comm.barrier();
    if (comm.rank() == 0) {
      // Lose rank 1's newest file: the set at step 10 is incomplete.
      ASSERT_EQ(std::remove(Checkpoint::set_path(prefix, 10, 1).c_str()), 0);
    }
    comm.barrier();

    Simulation b(deck, &comm, &topo);
    LogSilencer quiet;
    Checkpoint::restore(b, prefix);
    // Rank 0's step-10 file is intact, but restore must agree across ranks
    // and fall back to the complete step-5 set on *both*.
    EXPECT_EQ(b.step_index(), 5);
  });
  Checkpoint::remove_all(prefix, 2);
}

TEST(ResilienceCheckpoint, RotationPrunesBeyondKeep) {
  const Deck deck = demo_deck();
  const std::string prefix = temp_prefix("rotate");
  Simulation a(deck);
  a.initialize();
  a.run(2);
  Checkpoint::save(a, prefix, 2);
  a.run(2);
  Checkpoint::save(a, prefix, 2);
  a.run(2);
  Checkpoint::save(a, prefix, 2);
  EXPECT_EQ(Checkpoint::manifest_steps(prefix),
            (std::vector<std::int64_t>{4, 6}));
  // The pruned set's file is gone from disk, not just from the manifest.
  std::ifstream pruned(Checkpoint::set_path(prefix, 2, 0));
  EXPECT_FALSE(pruned.good());
  Checkpoint::remove_all(prefix);
}

TEST(ResilienceCheckpoint, SaveLeavesNoTempFiles) {
  const Deck deck = demo_deck();
  const std::string prefix = temp_prefix("tmp");
  Simulation a(deck);
  a.initialize();
  Checkpoint::save(a, prefix);
  std::ifstream tmp(Checkpoint::set_path(prefix, 0, 0) + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::ifstream mtmp(Checkpoint::manifest_path(prefix) + ".tmp");
  EXPECT_FALSE(mtmp.good());
  Checkpoint::remove_all(prefix);
}

// -- kill / resume ------------------------------------------------------------

TEST(ResilienceResume, KillAndResumeMatchesUninterrupted) {
  // The demo deck, and a Marder-cleaning one at 1 and 4 pipelines: its rho
  // quantum comes from the deck, so the resumed run deposits the same rho.
  std::vector<std::pair<std::string, Deck>> decks{{"demo", demo_deck()}};
  for (const int pipelines : {1, 4}) {
    Deck d = demo_deck();
    d.clean_period = 5;
    d.pipelines = pipelines;
    decks.emplace_back("clean_period 5, pipelines " +
                           std::to_string(pipelines),
                       d);
  }
  for (const auto& [name, deck] : decks) {
    SCOPED_TRACE(name);
    const std::string prefix = temp_prefix("resume");
    constexpr int kTotal = 20, kEvery = 5, kCrashAt = 13;

    // Reference: uninterrupted run to kTotal.
    Simulation ref(deck);
    ref.initialize();
    ref.run(kTotal);

    // Victim: periodic checkpoints every kEvery steps, "crash" at kCrashAt
    // (the object is simply abandoned — the durable state is on disk).
    {
      Simulation victim(deck);
      victim.initialize();
      while (victim.step_index() < kCrashAt) {
        victim.step();
        if (victim.step_index() % kEvery == 0)
          Checkpoint::save(victim, prefix, 2);
      }
    }
    ASSERT_EQ(Checkpoint::latest_step(prefix), 10);

    // Resume from the rotated set and run to the same endpoint.
    Simulation resumed(deck);
    Checkpoint::restore(resumed, prefix);
    EXPECT_EQ(resumed.step_index(), 10);
    while (resumed.step_index() < kTotal) resumed.step();

    EXPECT_EQ(resumed.step_index(), ref.step_index());
    EXPECT_DOUBLE_EQ(resumed.time(), ref.time());
    EXPECT_EQ(resumed.global_particle_count(), ref.global_particle_count());
    const auto ea = ref.energies(), eb = resumed.energies();
    EXPECT_DOUBLE_EQ(eb.total, ea.total);
    for (const auto c : grid::em_components()) {
      const grid::real* pa = grid::component_data(ref.fields(), c);
      const grid::real* pb = grid::component_data(resumed.fields(), c);
      for (std::int64_t v = 0; v < ref.fields().grid().num_voxels(); ++v)
        ASSERT_EQ(pa[v], pb[v]) << "field mismatch at voxel " << v;
    }
    // The last step cleaned on the cleaning decks: rho is bitwise too.
    const auto ra = ref.fields().rhof_span(), rb = resumed.fields().rhof_span();
    EXPECT_EQ(std::memcmp(ra.data(), rb.data(), ra.size_bytes()), 0);
    for (std::size_t s = 0; s < ref.num_species(); ++s) {
      const auto& a = ref.species(s);
      const auto& b = resumed.species(s);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(),
                            a.size() * sizeof(particles::Particle)),
                0)
          << "species " << s;
    }
    Checkpoint::remove_all(prefix);
  }
}

// -- health sentinels ---------------------------------------------------------

TEST(ResilienceHealth, FieldNaNCaughtWithinPeriodAndAborts) {
  const Deck deck = demo_deck();
  Simulation sim(deck);
  sim.initialize();
  HealthConfig cfg;
  cfg.period = 4;
  cfg.policy = HealthPolicy::kAbort;
  HealthMonitor monitor(sim, cfg);

  FaultInjector injector;
  injector.schedule_field_nan(6, grid::Component::kEz);

  LogSilencer quiet;
  std::string what;
  std::int64_t caught_at = -1;
  try {
    while (sim.step_index() < 20) {
      sim.step();
      injector.apply_due(sim);
      monitor.check();
    }
  } catch (const Error& e) {
    what = e.what();
    caught_at = sim.step_index();
  }
  EXPECT_NE(what.find("health fault"), std::string::npos) << what;
  EXPECT_EQ(caught_at, 8);  // injected at 6, scan period 4 -> caught at 8
  EXPECT_GT(monitor.last_report().nan_field_values, 0);
}

TEST(ResilienceHealth, ParticleNaNCaughtWithWarnPolicy) {
  const Deck deck = demo_deck();
  Simulation sim(deck);
  sim.initialize();
  HealthConfig cfg;
  cfg.period = 2;
  cfg.policy = HealthPolicy::kWarn;
  HealthMonitor monitor(sim, cfg);

  sim.run(2);
  EXPECT_EQ(monitor.check(), HealthMonitor::Action::kHealthy);
  FaultInjector::poison_particle(sim, 0, 3);
  sim.run(2);
  LogSilencer quiet;
  EXPECT_EQ(monitor.check(), HealthMonitor::Action::kWarned);
  EXPECT_GT(monitor.last_report().nan_particles, 0);
  // warn keeps running: a further check still scans without throwing
  sim.run(2);
  EXPECT_EQ(monitor.check(), HealthMonitor::Action::kWarned);
}

TEST(ResilienceHealth, EnergyBlowupDetected) {
  const Deck deck = demo_deck();
  Simulation sim(deck);
  sim.initialize();
  HealthConfig cfg;
  cfg.period = 1;
  cfg.policy = HealthPolicy::kWarn;
  // A thermal plasma holds its energy; any growth beyond 1e-6x reference
  // must trip the sentinel once we pump the fields by hand.
  cfg.max_energy_growth = 1.5;
  HealthMonitor monitor(sim, cfg);
  sim.step();
  ASSERT_TRUE(monitor.scan().ok());
  for (auto& v : sim.fields().ex_span()) v += 10.0f;  // synthetic blow-up
  LogSilencer quiet;
  const HealthReport& r = monitor.scan();
  EXPECT_TRUE(r.energy_fault);
  EXPECT_FALSE(r.ok());
}

TEST(ResilienceHealth, ParticleLossDetected) {
  const Deck deck = demo_deck();
  Simulation sim(deck);
  sim.initialize();
  HealthConfig cfg;
  cfg.period = 1;
  // Electrons are half of all particles, so dropping half of them loses
  // 25% of the global count — comfortably past a 20% tolerance.
  cfg.max_particle_loss = 0.2;
  HealthMonitor monitor(sim, cfg);
  ASSERT_TRUE(monitor.scan().ok());
  auto& sp = sim.species(0);
  const std::size_t half = sp.size() / 2;
  for (std::size_t n = 0; n < half; ++n) sp.remove(sp.size() - 1);
  const HealthReport& r = monitor.scan();
  EXPECT_TRUE(r.particle_fault);
}

TEST(ResilienceHealth, MultiRankVerdictIsGlobal) {
  const Deck deck = demo_deck();
  vmpi::run(2, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo({2, 1, 1}, {true, true, true});
    Simulation sim(deck, &comm, &topo);
    sim.initialize();
    HealthConfig cfg;
    cfg.period = 1;
    HealthMonitor monitor(sim, cfg);
    // NaN on rank 0 only: both ranks must reach the same fault verdict.
    if (comm.rank() == 0)
      FaultInjector::poison_field(sim, grid::Component::kEx);
    const HealthReport& r = monitor.scan();
    EXPECT_TRUE(r.nan_fault);
    EXPECT_GT(r.nan_field_values, 0);
  });
}

TEST(ResilienceHealth, RollbackRestoresThenAbortsOnRecurrence) {
  const Deck deck = demo_deck();
  const std::string prefix = temp_prefix("rollback");
  Simulation sim(deck);
  sim.initialize();
  sim.run(5);
  Checkpoint::save(sim, prefix);

  HealthConfig cfg;
  cfg.period = 4;
  cfg.policy = HealthPolicy::kRollback;
  cfg.rollback_window = 100;
  HealthMonitor monitor(sim, cfg, prefix);

  // The scheduled fault stays armed, so the replay after rollback hits the
  // same NaN at the same step — the deterministic-fault recurrence case.
  FaultInjector injector;
  injector.schedule_field_nan(7, grid::Component::kEy);

  LogSilencer quiet;
  bool rolled_back = false;
  std::string what;
  try {
    while (sim.step_index() < 30) {
      sim.step();
      injector.apply_due(sim);
      if (monitor.check() == HealthMonitor::Action::kRolledBack) {
        rolled_back = true;
        EXPECT_EQ(sim.step_index(), 5);  // back at the last good set
        EXPECT_TRUE(monitor.scan().ok()) << "rollback left NaN state";
      }
    }
  } catch (const Error& e) {
    what = e.what();
  }
  EXPECT_TRUE(rolled_back);
  EXPECT_NE(what.find("recurred"), std::string::npos) << what;
  Checkpoint::remove_all(prefix);
}

TEST(ResilienceHealth, RollbackWithoutCheckpointAborts) {
  const Deck deck = demo_deck();
  Simulation sim(deck);
  sim.initialize();
  HealthConfig cfg;
  cfg.period = 1;
  cfg.policy = HealthPolicy::kRollback;
  HealthMonitor monitor(sim, cfg, "");  // no prefix -> nothing to restore
  sim.step();
  FaultInjector::poison_field(sim, grid::Component::kEx);
  LogSilencer quiet;
  EXPECT_THROW(monitor.check(), Error);
}

// -- deck / config plumbing ---------------------------------------------------

TEST(ResilienceConfig, DeckControlKeysParsed) {
  std::istringstream deck_text(R"(
    [grid]
    nx = 8
    [species electron]
    q = -1  m = 1  ppc = 2
    [control]
    checkpoint_every = 250  checkpoint_keep = 3
    health_period = 50  health_policy = rollback
    health_max_energy_growth = 5.5  health_max_particle_loss = 0.1
    health_rollback_window = 40
  )");
  const Deck d = parse_deck(deck_text);
  EXPECT_EQ(d.checkpoint_every, 250);
  EXPECT_EQ(d.checkpoint_keep, 3);
  EXPECT_EQ(d.health.period, 50);
  EXPECT_EQ(d.health.policy, HealthPolicy::kRollback);
  EXPECT_DOUBLE_EQ(d.health.max_energy_growth, 5.5);
  EXPECT_DOUBLE_EQ(d.health.max_particle_loss, 0.1);
  EXPECT_EQ(d.health.rollback_window, 40);
}

TEST(ResilienceConfig, BadHealthPolicyRejected) {
  std::istringstream deck_text(R"(
    [grid]
    nx = 8
    [species electron]
    q = -1  m = 1  ppc = 2
    [control]
    health_policy = explode
  )");
  EXPECT_THROW(parse_deck(deck_text), Error);
}

TEST(ResilienceConfig, ScheduledFaultsFireOnlyAtTheirStep) {
  const Deck deck = demo_deck();
  Simulation sim(deck);
  sim.initialize();
  FaultInjector injector;
  injector.schedule_particle_nan(2, 0, 0);
  EXPECT_EQ(injector.apply_due(sim), 0);  // step 0
  sim.run(2);
  EXPECT_EQ(injector.apply_due(sim), 1);  // step 2: fires
  sim.step();
  EXPECT_EQ(injector.apply_due(sim), 0);  // step 3: not again
}

}  // namespace
}  // namespace minivpic::sim
