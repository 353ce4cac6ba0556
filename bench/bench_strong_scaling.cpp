// F2 — strong scaling: a fixed global problem divided over more ranks.
// As slabs thin, the surface-to-volume ratio grows and the communication
// share of the step rises — the measured comm fractions here feed the same
// scaling story the paper's fixed-size runs tell.
//
// Each rank count now runs twice: with the barriered step loop
// (Deck::Overlap::kOff: two-pass push, inline exchange) and with the
// overlapped loop (docs/OVERLAP.md: the exchange runs on a comm worker
// concurrently with the interior push). Both schedules produce bit-identical
// physics; what changes is where the exchange sits relative to the critical
// path. The quantity the overlap attacks is the *exposed* comm time — the
// part of the exchange a rank actually waits on — so the curves to compare
// are "comm s/step" (barriered: the whole exchange) against "exposed
// s/step" (overlapped: the join wait left after the interior push covered
// the rest). On a single-core host wall time serializes (every thread's
// work lands on one core), so the exposed-comm and comm-fraction curves
// carry the scaling signal, as before.
//
//   --steps=N    timed steps per configuration (default 20)
//   --json=PATH  machine-readable per-(ranks, mode) records for the
//                benchmark snapshot (BENCH_9.json)
#include <fstream>
#include <iostream>
#include <vector>

#include "sim/simulation.hpp"
#include "telemetry/json.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"
#include "vmpi/runtime.hpp"

using namespace minivpic;

namespace {

sim::Deck scaling_deck(bool overlap) {
  sim::Deck deck;
  deck.grid.nx = 32;
  deck.grid.ny = deck.grid.nz = 12;
  deck.grid.dx = deck.grid.dy = deck.grid.dz = 0.4;
  deck.overlap = overlap ? sim::Deck::Overlap::kAuto : sim::Deck::Overlap::kOff;
  sim::SpeciesConfig e;
  e.name = "electron";
  e.q = -1;
  e.m = 1;
  e.load.ppc = 24;
  e.load.uth = 0.15;
  deck.species.push_back(e);
  sim::SpeciesConfig ion = e;
  ion.name = "ion";
  ion.q = +1;
  ion.m = 1836;
  ion.mobile = false;
  deck.species.push_back(ion);
  return deck;
}

/// One (ranks, mode) measurement, rank-summed where meaningful.
struct Point {
  int ranks = 1;
  bool overlap = false;
  double wall_per_step = 0;     ///< rank-0 wall clock / steps
  double comm_per_step = 0;     ///< full exchange s/step (rank-summed)
  double exposed_per_step = 0;  ///< comm left on the critical path
  double hidden_per_step = 0;   ///< comm covered by the interior push
  double comm_fraction = 0;     ///< exposed share of summed phase time
  long long migrated_per_step = 0;
  long long particles_per_rank = 0;
};

Point measure(int ranks, bool overlap, int steps) {
  const sim::Deck deck = scaling_deck(overlap);
  const auto nr = static_cast<std::size_t>(ranks);
  std::vector<double> comm_s(nr), exposed_s(nr), hidden_s(nr), tot_s(nr);
  std::vector<long long> migrated(nr);
  Timer wall;
  Point pt;
  pt.ranks = ranks;
  pt.overlap = overlap;
  long long particles = 0;
  double wall_s = 0;
  vmpi::run(ranks, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo({ranks, 1, 1}, {true, true, true});
    sim::Simulation sim(deck, &comm, &topo);
    sim.initialize();
    const long long count = sim.global_particle_count();  // collective
    comm.barrier();
    if (comm.rank() == 0) {
      wall.reset();
      particles = count;
    }
    sim.run(steps);
    comm.barrier();
    if (comm.rank() == 0) wall_s = wall.seconds();
    const auto r = std::size_t(comm.rank());
    const sim::OverlapStats& ov = sim.overlap_stats();
    // Barriered: the migrate phase is the whole exchange, all of it
    // exposed. Overlapped: the migrate phase is only the join wait; the
    // worker's wall time is the full exchange.
    const double migrate_s =
        sim.timings()[telemetry::Phase::kMigrate].total_seconds();
    comm_s[r] = ov.enabled ? ov.comm_seconds : migrate_s;
    exposed_s[r] = ov.enabled ? ov.exposed_seconds : migrate_s;
    hidden_s[r] = ov.hidden_seconds;
    tot_s[r] = sim.timings().total_seconds();
    migrated[r] = sim.particle_stats().migrated;
  });
  double csum = 0, esum = 0, hsum = 0, tsum = 0;
  long long msum = 0;
  for (std::size_t r = 0; r < nr; ++r) {
    csum += comm_s[r];
    esum += exposed_s[r];
    hsum += hidden_s[r];
    tsum += tot_s[r];
    msum += migrated[r];
  }
  pt.wall_per_step = wall_s / steps;
  pt.comm_per_step = csum / steps;
  pt.exposed_per_step = esum / steps;
  pt.hidden_per_step = hsum / steps;
  pt.comm_fraction = tsum > 0 ? 100.0 * esum / tsum : 0;
  pt.migrated_per_step = msum / steps;
  pt.particles_per_rank = particles / ranks;
  return pt;
}

void write_json(const std::string& path, int steps,
                const std::vector<Point>& points) {
  telemetry::Json arr = telemetry::Json::array();
  for (const Point& pt : points) {
    telemetry::Json rec = telemetry::Json::object();
    rec.set("ranks", telemetry::Json::number(std::int64_t{pt.ranks}));
    rec.set("overlap", telemetry::Json::boolean(pt.overlap));
    rec.set("wall_s_per_step", telemetry::Json::number(pt.wall_per_step));
    rec.set("comm_s_per_step", telemetry::Json::number(pt.comm_per_step));
    rec.set("exposed_s_per_step",
            telemetry::Json::number(pt.exposed_per_step));
    rec.set("hidden_s_per_step", telemetry::Json::number(pt.hidden_per_step));
    rec.set("exposed_comm_fraction_pct",
            telemetry::Json::number(pt.comm_fraction));
    rec.set("migrated_per_step",
            telemetry::Json::number(std::int64_t{pt.migrated_per_step}));
    rec.set("particles_per_rank",
            telemetry::Json::number(std::int64_t{pt.particles_per_rank}));
    arr.push_back(std::move(rec));
  }
  telemetry::Json doc = telemetry::Json::object();
  doc.set("bench", telemetry::Json::string("bench_strong_scaling"));
  doc.set("steps", telemetry::Json::number(std::int64_t{steps}));
  doc.set("grid", telemetry::Json::string("32x12x12"));
  doc.set("points", std::move(arr));
  std::ofstream os(path, std::ios::trunc);
  MV_REQUIRE(os.good(), "cannot open --json file: " << path);
  os << doc.dump() << "\n";
  std::cout << "\nJSON results written: " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  args.check_known({"steps", "json"});
  const int steps = int(args.get_int("steps", 20));
  MV_REQUIRE(steps >= 1, "--steps must be >= 1");

  std::vector<Point> points;
  Table table({"ranks", "cells/rank", "particles/rank", "schedule",
               "wall s/step", "comm s/step", "exposed s/step",
               "exposed comm %", "migrated/step"});
  for (int ranks : {1, 2, 4, 8}) {
    for (bool overlap : {false, true}) {
      const Point pt = measure(ranks, overlap, steps);
      points.push_back(pt);
      table.add_row({(long long)ranks, (long long)(32 * 12 * 12 / ranks),
                     pt.particles_per_rank,
                     std::string(overlap ? "overlapped" : "barriered"),
                     pt.wall_per_step, pt.comm_per_step, pt.exposed_per_step,
                     pt.comm_fraction, pt.migrated_per_step});
    }
  }
  table.print(std::cout,
              "F2: strong scaling of a fixed 32x12x12 problem, barriered vs "
              "overlapped step loop (single-core host: wall time serializes; "
              "the exposed-comm curves carry the overlap signal)");
  for (int ranks : {2, 4, 8}) {
    double barr = 0, over = 0;
    for (const Point& pt : points)
      if (pt.ranks == ranks) (pt.overlap ? over : barr) = pt.exposed_per_step;
    std::cout << "ranks=" << ranks << ": exposed comm " << barr * 1e3
              << " ms/step barriered -> " << over * 1e3
              << " ms/step overlapped ("
              << (over > 0 ? barr / over : 0) << "x)\n";
  }
  if (args.has("json")) write_json(args.get("json", ""), steps, points);
  return 0;
}
