// Inter-rank particle migration (VPIC's boundary_p): particles that leave a
// rank mid-move are shipped to the neighbor across the face they crossed,
// which finishes their move (depositing the remaining current locally).
// Corner trajectories can hop ranks more than once per step, so exchange
// rounds repeat until no rank holds emigrants.
//
// Two entry points share the implementation. exchange_particles is the
// overlap-scheduler core (docs/OVERLAP.md): it receives each face's payload,
// whose size only the sender knows, through vmpi::Comm::ipost; it deposits
// into a caller-chosen accumulator block and buffers settled immigrants
// instead of appending to the species — the two properties that make it
// safe to run on a comm worker thread concurrently with the interior push.
// The classic migrate_particles wrapper keeps the historical synchronous
// signature (append to sp, deposit into block 0) for callers outside the
// step loop.
#pragma once

#include <cstdint>
#include <vector>

#include "particles/push.hpp"
#include "vmpi/comm.hpp"

namespace minivpic::particles {

struct MigrateStats {
  std::int64_t sent = 0;      ///< emigrants shipped off this rank
  std::int64_t received = 0;  ///< immigrants that settled on this rank
  std::int64_t absorbed = 0;  ///< absorbed at walls while completing moves
  int rounds = 0;
};

/// Ships `emigrants` to their destination ranks, receives immigrants, and
/// completes their moves on this rank: survivors are appended to
/// *immigrants (NOT to the species — the caller appends after its deferred
/// removals), currents go into `acc_block`. Collective: every rank must
/// call it each round-trip, even with no emigrants; single-rank grids
/// accept an empty list without a communicator. Touches only `comm`,
/// `acc_block`, `*immigrants`, and the pusher's migration RNG stream, and
/// reads `sp` — the overlap scheduler's contract for running this on a
/// worker thread while the interior pass advances particles.
MigrateStats exchange_particles(std::vector<Emigrant> emigrants,
                                const Species& sp, const Pusher& pusher,
                                CellAccum* acc_block,
                                const grid::LocalGrid& grid, vmpi::Comm* comm,
                                std::vector<Particle>* immigrants);

/// Classic synchronous wrapper: exchanges, then appends settled immigrants
/// to `sp` immediately, depositing into accumulator block 0.
MigrateStats migrate_particles(std::vector<Emigrant> emigrants, Species& sp,
                               const Pusher& pusher, AccumulatorArray& acc,
                               const grid::LocalGrid& grid, vmpi::Comm* comm);

}  // namespace minivpic::particles
