// Quickstart: build a deck, run a thermal plasma, watch the energy budget.
//
//   ./quickstart [--cells=8] [--ppc=16] [--steps=100] [--uth=0.2]
//
// Demonstrates the minimal minivpic workflow: describe the problem in a
// Deck, construct a Simulation, step it, and read the global diagnostics.
#include <iostream>

#include "sim/simulation.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

using namespace minivpic;

int main(int argc, char** argv) {
  Args args(argc, argv);
  args.check_known({"cells", "ppc", "steps", "uth"});
  const int cells = int(args.get_int("cells", 8));
  const int ppc = int(args.get_int("ppc", 16));
  const int steps = int(args.get_int("steps", 100));
  const double uth = args.get_double("uth", 0.2);

  // 1. Describe the problem: a warm, charge-neutral electron/ion plasma in
  //    a periodic box. Lengths are in electron skin depths (c/omega_pe),
  //    times in 1/omega_pe.
  sim::Deck deck;
  deck.grid.nx = deck.grid.ny = deck.grid.nz = cells;
  deck.grid.dx = deck.grid.dy = deck.grid.dz = 0.35;

  sim::SpeciesConfig electrons;
  electrons.name = "electron";
  electrons.q = -1.0;
  electrons.m = 1.0;
  electrons.load.ppc = ppc;
  electrons.load.uth = uth;
  deck.species.push_back(electrons);

  sim::SpeciesConfig ions = electrons;  // same positions -> exactly neutral
  ions.name = "ion";
  ions.q = +1.0;
  ions.m = 1836.0;
  ions.load.uth = uth / 43.0;  // ~equal temperatures
  deck.species.push_back(ions);

  // 2. Run it.
  sim::Simulation sim(deck);
  sim.initialize();
  std::cout << "minivpic quickstart: " << sim.global_particle_count()
            << " particles on " << cells << "^3 cells, dt = "
            << sim.local_grid().dt() << " (1/omega_pe)\n\n";

  Table table({"step", "time", "E_field", "E_kinetic", "E_total", "drift_%"});
  const double e0 = sim.energies().total;
  for (int s = 0; s <= steps; s += steps / 10) {
    if (s > 0) sim.run(steps / 10);
    const auto rep = sim.energies();
    table.add_row({(long long)sim.step_index(), sim.time(), rep.field.total(),
                   rep.kinetic_total, rep.total,
                   100.0 * (rep.total - e0) / e0});
  }
  table.print(std::cout, "energy budget");

  // 3. Check the Gauss-law residual — the charge-conserving deposition
  //    keeps it at single-precision round-off.
  std::cout << "\nGauss residual (rms div E - rho): " << sim.gauss_error()
            << "\n";
  const double push_s = sim.timings()[telemetry::Phase::kPush].total_seconds();
  std::cout << "particles pushed: " << sim.particle_stats().pushed << ", in "
            << push_s << " s ("
            << double(sim.particle_stats().pushed) / push_s / 1e6
            << " M particles/s)\n";
  return 0;
}
