// The overlapped step loop's determinism contract (docs/OVERLAP.md): the
// barriered and overlapped schedules run the same two-pass particle
// advance (skin cells, then interior) and the same exchange sequence, so
// at any rank, pipeline count and kernel the final fields, particles, and
// counters must be bit-identical — overlap changes only *when* the
// exchange runs, never what it computes. Plus the overlap ledger's
// accounting identities and the capstone: injected faults mid-overlap
// recover bit-identically.
#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "particles/kernel.hpp"
#include "particles/particle.hpp"
#include "particles/species.hpp"
#include "sim/deck.hpp"
#include "sim/recovery.hpp"
#include "sim/simulation.hpp"
#include "vmpi/cart.hpp"
#include "vmpi/fault.hpp"
#include "vmpi/runtime.hpp"

namespace minivpic::sim {
namespace {

constexpr int kSteps = 16;

/// Two-stream beams with refluxing x walls: lots of cell crossings, steady
/// inter-rank migration when decomposed along x, and wall refluxes drawing
/// from the per-pipeline RNG streams — every mechanism whose ordering the
/// overlap contract pins down.
Deck overlap_deck(int pipelines, Deck::Overlap overlap,
                  particles::Kernel kernel = particles::Kernel::kScalar) {
  Deck deck = two_stream_deck(/*cells=*/32, /*ppc=*/8);
  deck.pipelines = pipelines;
  deck.overlap = overlap;
  deck.kernel = kernel;
  deck.grid.boundary = grid::lpi_boundaries();  // absorbing x field walls
  deck.particle_bc[grid::kFaceXLo] = particles::ParticleBc::kReflux;
  deck.particle_bc[grid::kFaceXHi] = particles::ParticleBc::kReflux;
  return deck;
}

/// Everything that defines one rank's final state, captured bitwise.
struct RankState {
  std::vector<std::vector<grid::real>> fields;  // one vector per component
  std::vector<std::vector<particles::Particle>> species;
  ParticleStats stats;
  std::int64_t step = -1;
};

struct Snapshot {
  std::mutex mu;
  std::vector<RankState> ranks;
  explicit Snapshot(int n = 1) : ranks(std::size_t(n)) {}
};

void capture(Snapshot& snap, Simulation& sim, int rank) {
  RankState st;
  for (const auto c : grid::em_components()) {
    const grid::real* p = grid::component_data(sim.fields(), c);
    st.fields.emplace_back(p, p + sim.fields().grid().num_voxels());
  }
  for (std::size_t s = 0; s < sim.num_species(); ++s) {
    const auto span = sim.species(s).particles();
    st.species.emplace_back(span.begin(), span.end());
  }
  st.stats = sim.particle_stats();
  st.step = sim.step_index();
  std::lock_guard<std::mutex> lock(snap.mu);
  snap.ranks[std::size_t(rank)] = std::move(st);
}

/// `compare_stats` = false when one side rolled back: a recovered world's
/// Simulation restarts its cumulative counters at the restored checkpoint,
/// so only state (fields, particles) is comparable, not the odometers.
void expect_bit_identical(const Snapshot& a, const Snapshot& b,
                          bool compare_stats = true) {
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    const RankState& x = a.ranks[r];
    const RankState& y = b.ranks[r];
    ASSERT_EQ(x.step, y.step) << "rank " << r;
    // Exact counter parity first: a mismatch here localizes the divergence
    // faster than a raw memcmp of particle bytes.
    if (compare_stats) {
      EXPECT_EQ(x.stats.pushed, y.stats.pushed) << "rank " << r;
      EXPECT_EQ(x.stats.crossings, y.stats.crossings) << "rank " << r;
      EXPECT_EQ(x.stats.migrated, y.stats.migrated) << "rank " << r;
      EXPECT_EQ(x.stats.immigrated, y.stats.immigrated) << "rank " << r;
      EXPECT_EQ(x.stats.absorbed, y.stats.absorbed) << "rank " << r;
      EXPECT_EQ(x.stats.reflected, y.stats.reflected) << "rank " << r;
      EXPECT_EQ(x.stats.refluxed, y.stats.refluxed) << "rank " << r;
    }
    ASSERT_EQ(x.fields.size(), y.fields.size()) << "rank " << r;
    for (std::size_t c = 0; c < x.fields.size(); ++c) {
      ASSERT_EQ(x.fields[c].size(), y.fields[c].size());
      ASSERT_EQ(std::memcmp(x.fields[c].data(), y.fields[c].data(),
                            x.fields[c].size() * sizeof(grid::real)),
                0)
          << "field component " << c << " differs on rank " << r;
    }
    ASSERT_EQ(x.species.size(), y.species.size()) << "rank " << r;
    for (std::size_t s = 0; s < x.species.size(); ++s) {
      ASSERT_EQ(x.species[s].size(), y.species[s].size())
          << "particle count differs, species " << s << " rank " << r;
      ASSERT_EQ(std::memcmp(x.species[s].data(), y.species[s].data(),
                            x.species[s].size() * sizeof(particles::Particle)),
                0)
          << "particles differ, species " << s << " rank " << r;
    }
  }
}

void run_mode(int ranks, int pipelines, Deck::Overlap overlap,
              particles::Kernel kernel, Snapshot* snap) {
  snap->ranks.resize(std::size_t(ranks));
  const Deck deck = overlap_deck(pipelines, overlap, kernel);
  vmpi::run(ranks, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo({ranks, 1, 1}, {true, true, true});
    Simulation sim(deck, &comm, &topo);
    sim.initialize();
    sim.run(kSteps);
    capture(*snap, sim, comm.rank());
  });
}

class OverlapBitExact
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OverlapBitExact, OverlappedMatchesBarriered) {
  // The kernel axis: the scalar reference, and the widest SIMD kernel,
  // which runs both passes over index lists in full batches beside the
  // comm worker.
  const int ranks = std::get<0>(GetParam());
  const int pipelines = std::get<1>(GetParam());
  for (const particles::Kernel kernel :
       {particles::Kernel::kScalar,
        particles::resolve_kernel(particles::Kernel::kAuto)}) {
    SCOPED_TRACE(std::string("kernel ") + particles::kernel_name(kernel));
    Snapshot barriered, overlapped;
    run_mode(ranks, pipelines, Deck::Overlap::kOff, kernel, &barriered);
    run_mode(ranks, pipelines, Deck::Overlap::kAuto, kernel, &overlapped);
    expect_bit_identical(barriered, overlapped);
  }
}

INSTANTIATE_TEST_SUITE_P(RankPipelineMatrix, OverlapBitExact,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 4)),
                         [](const auto& info) {
                           return "ranks" +
                                  std::to_string(std::get<0>(info.param)) +
                                  "_pipes" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST(Overlap, SingleRankNeverOverlaps) {
  // A single-rank grid has no skin, so kAuto resolves to the barriered loop
  // (and the accumulator keeps its exact legacy block count / fold order).
  const Deck deck = overlap_deck(1, Deck::Overlap::kAuto);
  Simulation sim(deck);
  EXPECT_FALSE(sim.overlap_stats().enabled);
}

TEST(Overlap, AutoResolvesOnForMultiRank) {
  const Deck deck = overlap_deck(1, Deck::Overlap::kAuto);
  vmpi::run(2, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo({2, 1, 1}, {true, true, true});
    Simulation sim(deck, &comm, &topo);
    EXPECT_TRUE(sim.overlap_stats().enabled);
  });
  vmpi::run(2, [&](vmpi::Comm& comm) {
    Deck off = deck;
    off.overlap = Deck::Overlap::kOff;
    const vmpi::CartTopology topo({2, 1, 1}, {true, true, true});
    Simulation sim(off, &comm, &topo);
    EXPECT_FALSE(sim.overlap_stats().enabled);
  });
}

TEST(Overlap, LedgerBalancesAndMigrationCountsMatch) {
  constexpr int kRanks = 4;
  const Deck deck = overlap_deck(/*pipelines=*/2, Deck::Overlap::kAuto);
  std::mutex mu;
  std::vector<OverlapStats> ov(kRanks);
  std::vector<ParticleStats> stats(kRanks);
  vmpi::run(kRanks, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo({kRanks, 1, 1}, {true, true, true});
    Simulation sim(deck, &comm, &topo);
    sim.initialize();
    sim.run(kSteps);
    std::lock_guard<std::mutex> lock(mu);
    ov[std::size_t(comm.rank())] = sim.overlap_stats();
    stats[std::size_t(comm.rank())] = sim.particle_stats();
  });
  std::int64_t sent = 0, received = 0;
  for (int r = 0; r < kRanks; ++r) {
    const OverlapStats& o = ov[std::size_t(r)];
    EXPECT_TRUE(o.enabled);
    // Every step overlaps the mobile species' advances (two beams).
    EXPECT_EQ(o.overlapped_steps, 2 * kSteps) << "rank " << r;
    EXPECT_GT(o.skin_seconds, 0.0) << "rank " << r;
    EXPECT_GT(o.interior_seconds, 0.0) << "rank " << r;
    EXPECT_GT(o.comm_seconds, 0.0) << "rank " << r;
    // hidden + exposed partitions the async exchange's wall time; each
    // piece is clamped non-negative, so the sum cannot exceed comm by more
    // than clock jitter.
    EXPECT_GE(o.hidden_seconds, 0.0);
    EXPECT_GE(o.exposed_seconds, 0.0);
    EXPECT_LE(o.hidden_seconds, o.comm_seconds + 1e-9) << "rank " << r;
    sent += stats[std::size_t(r)].migrated;
    received += stats[std::size_t(r)].immigrated;
  }
  // Conservation across the rank set: every emigrant shipped settles as
  // exactly one immigrant somewhere (the stats-balance contract the
  // telemetry migrate metrics rely on).
  EXPECT_GT(sent, 0);
  EXPECT_EQ(sent, received);
}

TEST(Overlap, ChaosMidOverlapRecoversBitIdentically) {
  // A rank killed and a payload corrupted while the overlapped loop is in
  // flight: the recovery coordinator must roll back and finish with the
  // same bits as a fault-free overlapped run — and that run itself matches
  // the barriered schedule (transitively, via OverlappedMatchesBarriered).
  // Periodic particle walls, like the main chaos soak: reflux draws advance
  // a sequential RNG counter that checkpoints do not (yet) capture, so
  // rollback replay is bitwise only for reflux-free decks — a pre-existing
  // checkpoint-scope limit, independent of the overlap scheduler.
  constexpr int kRanks = 4;
  Deck deck = two_stream_deck(/*cells=*/32, /*ppc=*/8);
  deck.pipelines = 2;
  deck.overlap = Deck::Overlap::kAuto;

  Snapshot clean_snap(kRanks);
  RecoveryConfig clean_rc;
  clean_rc.ranks = kRanks;
  clean_rc.checkpoint_prefix =
      ::testing::TempDir() + "/minivpic_overlap_clean.ckpt";
  clean_rc.checkpoint_every = 6;
  clean_rc.comm_timeout = 60;
  clean_rc.integrity = true;
  clean_rc.on_final = [&](Simulation& sim, vmpi::Comm& comm) {
    capture(clean_snap, sim, comm.rank());
  };
  RecoveryCoordinator clean(deck, clean_rc);
  ASSERT_TRUE(clean.run(kSteps).completed);

  vmpi::FaultPlane plane;
  plane.corrupt_message(/*rank=*/1, /*step=*/8, /*bit=*/3);
  plane.kill_rank(/*rank=*/2, /*step=*/13);
  Snapshot fault_snap(kRanks);
  RecoveryConfig rc;
  rc.ranks = kRanks;
  rc.checkpoint_prefix =
      ::testing::TempDir() + "/minivpic_overlap_chaos.ckpt";
  rc.checkpoint_every = 6;
  rc.comm_timeout = 60;
  rc.integrity = true;
  rc.fault_plane = &plane;
  rc.on_final = [&](Simulation& sim, vmpi::Comm& comm) {
    capture(fault_snap, sim, comm.rank());
  };
  RecoveryCoordinator chaos(deck, rc);
  const RecoveryReport rep = chaos.run(kSteps);
  ASSERT_TRUE(rep.completed) << rep.last_fault;
  EXPECT_EQ(rep.rollbacks, 2);
  EXPECT_EQ(plane.injected().corrupted, 1);
  EXPECT_EQ(plane.injected().killed, 1);

  expect_bit_identical(clean_snap, fault_snap, /*compare_stats=*/false);
}

}  // namespace
}  // namespace minivpic::sim
