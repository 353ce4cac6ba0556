// Shared single-rank PIC stepping harness for the particle tests. The sim
// module provides the production loop; tests use this minimal replica so
// kernel behaviour is observable in isolation.
#pragma once

#include "field/solver.hpp"
#include "particles/accumulator.hpp"
#include "particles/interpolator.hpp"
#include "particles/loader.hpp"
#include "particles/migrate.hpp"
#include "particles/push.hpp"
#include "particles/rho.hpp"

namespace minivpic::particles::testing {

/// The rho deposit scale of the harnesses: the full-weight contribution of a
/// unit-charge, unit-density plasma at 1 particle per cell, the heaviest any
/// particle test loads.
inline constexpr double kFullWeightRho = 1.0;

struct MiniPic {
  explicit MiniPic(const grid::GlobalGrid& gg,
                   const ParticleBcSpec& pbc = periodic_particles())
      : grid(gg),
        fields(grid),
        halo(grid, nullptr),
        solver(grid, &halo),
        interp(grid),
        acc(grid),
        pusher(grid, pbc),
        rho(grid, kFullWeightRho) {
    solver.boundary().capture(fields);
  }

  /// One full PIC step for the given species set.
  Pusher::Result step(std::vector<Species*> species) {
    interp.load(fields);
    acc.clear();
    fields.clear_sources();
    Pusher::Result total;
    for (Species* sp : species) {
      auto r = pusher.advance(*sp, interp, acc);
      total.pushed += r.pushed;
      total.crossings += r.crossings;
      total.absorbed += r.absorbed;
      total.reflected += r.reflected;
      total.refluxed += r.refluxed;
      // Single rank: no emigrants possible.
      migrate_particles(std::move(r.emigrants), *sp, pusher, acc, grid,
                        nullptr);
    }
    acc.reduce();  // clear, deposit, reduce, unload: the accumulator cycle
    acc.unload(fields);
    rho.deposit({species.begin(), species.end()}, fields);
    halo.reduce_sources(fields);
    solver.advance_b(fields, 0.5);
    solver.advance_e(fields);
    solver.advance_b(fields, 0.5);
    return total;
  }

  grid::LocalGrid grid;
  grid::FieldArray fields;
  grid::Halo halo;
  field::FieldSolver solver;
  InterpolatorArray interp;
  AccumulatorArray acc;
  Pusher pusher;
  RhoDeposit rho;
};

/// Multi-rank variant driven from inside a vmpi rank function.
struct MultiPic {
  MultiPic(const grid::GlobalGrid& gg, const vmpi::CartTopology& topo,
           vmpi::Comm& c, const ParticleBcSpec& pbc = periodic_particles())
      : comm(&c),
        grid(gg, topo, c.rank()),
        fields(grid),
        halo(grid, &c),
        solver(grid, &halo),
        interp(grid),
        acc(grid),
        pusher(grid, pbc),
        rho(grid, kFullWeightRho) {
    solver.boundary().capture(fields);
  }

  struct StepStats {
    Pusher::Result push;
    MigrateStats migrate;
  };

  StepStats step(std::vector<Species*> species) {
    interp.load(fields);
    acc.clear();
    fields.clear_sources();
    StepStats st;
    for (Species* sp : species) {
      auto r = pusher.advance(*sp, interp, acc);
      st.push.pushed += r.pushed;
      st.push.crossings += r.crossings;
      st.push.absorbed += r.absorbed;
      st.push.reflected += r.reflected;
      st.push.refluxed += r.refluxed;
      const auto m = migrate_particles(std::move(r.emigrants), *sp, pusher,
                                       acc, grid, comm);
      st.migrate.sent += m.sent;
      st.migrate.received += m.received;
      st.migrate.absorbed += m.absorbed;
      st.migrate.rounds = std::max(st.migrate.rounds, m.rounds);
    }
    acc.reduce();
    acc.unload(fields);
    rho.deposit({species.begin(), species.end()}, fields);
    halo.reduce_sources(fields);
    solver.advance_b(fields, 0.5);
    solver.advance_e(fields);
    solver.advance_b(fields, 0.5);
    return st;
  }

  vmpi::Comm* comm;
  grid::LocalGrid grid;
  grid::FieldArray fields;
  grid::Halo halo;
  field::FieldSolver solver;
  InterpolatorArray interp;
  AccumulatorArray acc;
  Pusher pusher;
  RhoDeposit rho;
};

inline grid::GlobalGrid cube_grid(int n, double h, double dt = 0) {
  grid::GlobalGrid g;
  g.nx = g.ny = g.nz = n;
  g.dx = g.dy = g.dz = h;
  g.dt = dt;
  return g;
}

}  // namespace minivpic::particles::testing
