#include "particles/migrate.hpp"

#include <array>

#include "util/error.hpp"

namespace minivpic::particles {

namespace {

constexpr int kMigrateTagBase = (1 << 20) + 64;

/// On-the-wire emigrant: sender-side voxel indices are meaningless on the
/// receiver (strides differ), so cell coordinates travel explicitly.
struct WireEmigrant {
  float dx, dy, dz;        ///< offsets; the crossed axis sits exactly at +-1
  float ux, uy, uz, w;
  float rdx, rdy, rdz;     ///< remaining displacement (cell units)
  std::int32_t cx, cy, cz; ///< sender-local cell coordinates
  std::int32_t face;       ///< grid::Face crossed (sender's perspective)
};
static_assert(std::is_trivially_copyable_v<WireEmigrant>);

grid::Face opposite(grid::Face f) {
  return static_cast<grid::Face>(static_cast<int>(f) ^ 1);
}

}  // namespace

MigrateStats exchange_particles(std::vector<Emigrant> emigrants,
                                const Species& sp, const Pusher& pusher,
                                CellAccum* acc_block,
                                const grid::LocalGrid& g, vmpi::Comm* comm,
                                std::vector<Particle>* immigrants) {
  MigrateStats stats;
  if (comm == nullptr) {
    MV_REQUIRE(emigrants.empty(),
               "emigrants on a single-rank grid without a communicator");
    return stats;
  }

  const float qsp = float(sp.q());
  Pusher::Result move_stats;  // crossing counters from continued moves

  for (;;) {
    long long remaining = static_cast<long long>(emigrants.size());
    remaining = comm->allreduce_value(remaining, vmpi::Op::kSum);
    if (remaining == 0) break;
    ++stats.rounds;

    // Bucket by departure face.
    std::array<std::vector<WireEmigrant>, 6> out;
    for (const Emigrant& e : emigrants) {
      const auto c = g.voxel_coords(e.p.i);
      WireEmigrant w;
      w.dx = e.p.dx;
      w.dy = e.p.dy;
      w.dz = e.p.dz;
      w.ux = e.p.ux;
      w.uy = e.p.uy;
      w.uz = e.p.uz;
      w.w = e.p.w;
      w.rdx = e.rem.dispx;
      w.rdy = e.rem.dispy;
      w.rdz = e.rem.dispz;
      w.cx = c[0];
      w.cy = c[1];
      w.cz = c[2];
      w.face = e.face;
      out[std::size_t(e.face)].push_back(w);
    }
    stats.sent += static_cast<std::int64_t>(emigrants.size());
    emigrants.clear();

    // Send on every rank-adjacent face (empty messages keep the pattern
    // fixed), then receive face by face in fixed face order, so results are
    // independent of arrival timing. Sends are buffered, so no rank waits
    // for a neighbour to post its receive.
    for (int face = 0; face < 6; ++face) {
      const int nbr = g.neighbor(static_cast<grid::Face>(face));
      if (nbr == grid::LocalGrid::kNoNeighbor || nbr == g.rank()) {
        MV_ASSERT_MSG(out[std::size_t(face)].empty(),
                      "emigrant bound for a non-rank face " << face);
        continue;
      }
      comm->send(nbr, kMigrateTagBase + face,
                 std::span<const WireEmigrant>(out[std::size_t(face)]));
    }
    for (int face = 0; face < 6; ++face) {
      const auto myface = static_cast<grid::Face>(face);
      const int nbr = g.neighbor(myface);
      if (nbr == grid::LocalGrid::kNoNeighbor || nbr == g.rank()) continue;
      vmpi::Request req =
          comm->ipost(nbr, kMigrateTagBase + static_cast<int>(opposite(myface)));
      comm->wait(req);
      const std::vector<WireEmigrant> incoming = req.take<WireEmigrant>();
      for (const WireEmigrant& w : incoming) {
        const auto face_in = static_cast<grid::Face>(w.face);
        const int axis = grid::face_axis(face_in);
        const int dir = grid::face_dir(face_in);
        // Entry cell: first interior plane on my side of the face;
        // transverse coordinates carry over (splits match across a face).
        std::array<int, 3> c{w.cx, w.cy, w.cz};
        const int n = axis == 0 ? g.nx() : axis == 1 ? g.ny() : g.nz();
        c[std::size_t(axis)] = dir > 0 ? 1 : n;
        MV_REQUIRE(c[0] >= 1 && c[0] <= g.nx() && c[1] >= 1 &&
                       c[1] <= g.ny() && c[2] >= 1 && c[2] <= g.nz(),
                   "immigrant cell (" << c[0] << "," << c[1] << "," << c[2]
                                      << ") outside receiver slab");
        Particle p;
        p.dx = w.dx;
        p.dy = w.dy;
        p.dz = w.dz;
        (&p.dx)[axis] = float(-dir);  // flipped to my side of the face
        p.i = g.voxel(c[0], c[1], c[2]);
        p.ux = w.ux;
        p.uy = w.uy;
        p.uz = w.uz;
        p.w = w.w;
        Mover m{w.rdx, w.rdy, w.rdz};
        Emigrant next;
        switch (pusher.continue_move(p, m, qsp * p.w, acc_block, &next,
                                     &move_stats)) {
          case Pusher::MoveStatus::kDone:
            immigrants->push_back(p);
            ++stats.received;
            break;
          case Pusher::MoveStatus::kEmigrated:
            emigrants.push_back(next);
            break;
          case Pusher::MoveStatus::kAbsorbed:
            ++stats.absorbed;
            break;
        }
      }
    }
  }
  return stats;
}

MigrateStats migrate_particles(std::vector<Emigrant> emigrants, Species& sp,
                               const Pusher& pusher, AccumulatorArray& acc,
                               const grid::LocalGrid& g, vmpi::Comm* comm) {
  std::vector<Particle> immigrants;
  const MigrateStats stats = exchange_particles(
      std::move(emigrants), sp, pusher, acc.data(), g, comm, &immigrants);
  for (const Particle& p : immigrants) sp.add(p);
  return stats;
}

}  // namespace minivpic::particles
