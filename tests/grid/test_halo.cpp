#include "grid/halo.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "vmpi/runtime.hpp"

namespace minivpic::grid {
namespace {

GlobalGrid cube(int n) {
  GlobalGrid g;
  g.nx = g.ny = g.nz = n;
  g.dx = g.dy = g.dz = 0.5;
  return g;
}

/// Distinctive value per (component, global cell) — exact in float.
float tag_value(int comp, int gi, int gj, int gk) {
  return float(comp * 500000 + (gi * 64 + gj) * 64 + gk);
}

/// Fills every component's interior with tag values in *global* cell ids.
void fill_interior(FieldArray& f, const LocalGrid& g) {
  const auto comps = em_components();
  for (std::size_t c = 0; c < comps.size(); ++c) {
    real* data = component_data(f, comps[c]);
    for (int k = 1; k <= g.nz(); ++k)
      for (int j = 1; j <= g.ny(); ++j)
        for (int i = 1; i <= g.nx(); ++i)
          data[f.idx(i, j, k)] = tag_value(int(c), g.offset_x() + i,
                                           g.offset_y() + j, g.offset_z() + k);
  }
}

/// Expected ghost value: wrap the global index periodically.
float expected_ghost(const LocalGrid& g, int comp, int li, int lj, int lk) {
  auto wrap = [](int v, int n) { return ((v - 1) % n + n) % n + 1; };
  return tag_value(comp, wrap(g.offset_x() + li, g.global_nx()),
                   wrap(g.offset_y() + lj, g.global_ny()),
                   wrap(g.offset_z() + lk, g.global_nz()));
}

void check_all_ghosts(const FieldArray& f, const LocalGrid& g) {
  const auto comps = em_components();
  for (std::size_t c = 0; c < comps.size(); ++c) {
    const real* data = component_data(f, comps[c]);
    for (int k = 0; k <= g.nz() + 1; ++k) {
      for (int j = 0; j <= g.ny() + 1; ++j) {
        for (int i = 0; i <= g.nx() + 1; ++i) {
          ASSERT_EQ(data[f.idx(i, j, k)],
                    expected_ghost(g, int(c), i, j, k))
              << "comp " << c << " at (" << i << "," << j << "," << k
              << ") rank " << g.rank();
        }
      }
    }
  }
}

TEST(HaloRefresh, SingleRankPeriodic) {
  const LocalGrid g(cube(4));
  FieldArray f(g);
  Halo halo(g, nullptr);
  fill_interior(f, g);
  halo.refresh(f, em_components());
  check_all_ghosts(f, g);
}

TEST(HaloRefresh, CornerGhostsConsistent) {
  const LocalGrid g(cube(3));
  FieldArray f(g);
  Halo halo(g, nullptr);
  fill_interior(f, g);
  halo.refresh(f, em_components());
  // Extreme corner ghost (0,0,0) wraps to interior (3,3,3).
  EXPECT_EQ(f.ex(0, 0, 0), tag_value(0, 3, 3, 3));
  EXPECT_EQ(f.ex(4, 4, 4), tag_value(0, 1, 1, 1));
  EXPECT_EQ(f.cbz(0, 4, 0), tag_value(5, 3, 1, 3));
}

class HaloMultiRank : public ::testing::TestWithParam<std::array<int, 3>> {};

TEST_P(HaloMultiRank, RefreshMatchesGlobalWrap) {
  const auto dims = GetParam();
  const int nranks = dims[0] * dims[1] * dims[2];
  const GlobalGrid gg = cube(8);
  vmpi::run(nranks, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo(dims, {true, true, true});
    const LocalGrid g(gg, topo, comm.rank());
    FieldArray f(g);
    Halo halo(g, &comm);
    fill_interior(f, g);
    halo.refresh(f, em_components());
    check_all_ghosts(f, g);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Decompositions, HaloMultiRank,
    ::testing::Values(std::array<int, 3>{2, 1, 1}, std::array<int, 3>{1, 2, 1},
                      std::array<int, 3>{1, 1, 2}, std::array<int, 3>{2, 2, 1},
                      std::array<int, 3>{2, 2, 2},
                      std::array<int, 3>{4, 1, 1}));

TEST(HaloRefresh, NonPeriodicFaceGhostUntouched) {
  GlobalGrid gg = cube(4);
  gg.boundary = lpi_boundaries();  // absorbing x, periodic y/z
  const LocalGrid g(gg);
  FieldArray f(g);
  Halo halo(g, nullptr);
  fill_interior(f, g);
  // Plant sentinels in the x ghosts; refresh must not change them.
  f.ey(0, 2, 2) = -77.0f;
  f.ey(5, 2, 2) = -88.0f;
  halo.refresh(f, em_components());
  EXPECT_EQ(f.ey(0, 2, 2), -77.0f);
  EXPECT_EQ(f.ey(5, 2, 2), -88.0f);
  // Periodic y ghosts still refreshed.
  EXPECT_EQ(f.ey(2, 0, 2), tag_value(1, 2, 4, 2));
}

TEST(HaloReduce, SingleRankPeriodicFold) {
  const LocalGrid g(cube(4));
  FieldArray f(g);
  Halo halo(g, nullptr);
  // Deposit into the high-side ghost planes as a particle at the domain
  // edge would.
  f.jfx(5, 2, 2) = 1.0f;   // x ghost -> interior (1,2,2)
  f.jfy(2, 5, 2) = 2.0f;   // y ghost -> interior (2,1,2)
  f.jfz(2, 2, 5) = 3.0f;   // z ghost -> interior (2,2,1)
  f.rhof(5, 5, 2) = 4.0f;  // xy corner ghost -> interior (1,1,2)
  f.jfx(1, 2, 2) = 0.5f;   // existing interior contribution
  halo.reduce_sources(f);
  EXPECT_EQ(f.jfx(1, 2, 2), 1.5f);
  EXPECT_EQ(f.jfy(2, 1, 2), 2.0f);
  EXPECT_EQ(f.jfz(2, 2, 1), 3.0f);
  EXPECT_EQ(f.rhof(1, 1, 2), 4.0f);
  // Ghosts zeroed afterwards.
  EXPECT_EQ(f.jfx(5, 2, 2), 0.0f);
  EXPECT_EQ(f.rhof(5, 5, 2), 0.0f);
}

TEST(HaloReduce, TripleCornerFold) {
  const LocalGrid g(cube(3));
  FieldArray f(g);
  Halo halo(g, nullptr);
  f.rhof(4, 4, 4) = 7.0f;  // xyz corner ghost
  halo.reduce_sources(f);
  EXPECT_EQ(f.rhof(1, 1, 1), 7.0f);
  EXPECT_EQ(f.rhof(4, 4, 4), 0.0f);
}

TEST(HaloReduce, MultiRankFold) {
  const GlobalGrid gg = cube(8);
  vmpi::run(2, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo({2, 1, 1}, {true, true, true});
    const LocalGrid g(gg, topo, comm.rank());
    FieldArray f(g);
    Halo halo(g, &comm);
    // Every rank deposits into its high-x ghost plane.
    f.jfy(g.nx() + 1, 3, 3) = float(10 + comm.rank());
    halo.reduce_sources(f);
    // Rank r's ghost lands in rank (r+1)%2's interior plane 1.
    const int from = (comm.rank() + 1) % 2;
    EXPECT_EQ(f.jfy(1, 3, 3), float(10 + from));
    EXPECT_EQ(f.jfy(g.nx() + 1, 3, 3), 0.0f);
  });
}

TEST(HaloReduce, ConservesTotalCharge) {
  // Property: reduce_sources must conserve the sum over ALL voxels of rho
  // into the interior (periodic case).
  const LocalGrid g(cube(4));
  FieldArray f(g);
  Halo halo(g, nullptr);
  double before = 0;
  int val = 1;
  for (int k = 1; k <= g.nz() + 1; ++k)
    for (int j = 1; j <= g.ny() + 1; ++j)
      for (int i = 1; i <= g.nx() + 1; ++i) {
        f.rhof(i, j, k) = float(val);
        before += val;
        val = (val % 7) + 1;
      }
  halo.reduce_sources(f);
  double after = 0;
  for (int k = 1; k <= g.nz(); ++k)
    for (int j = 1; j <= g.ny(); ++j)
      for (int i = 1; i <= g.nx(); ++i) after += f.rhof(i, j, k);
  EXPECT_DOUBLE_EQ(after, before);
}

TEST(HaloConstruct, Validation) {
  const GlobalGrid gg = cube(8);
  const vmpi::CartTopology topo({2, 1, 1}, {true, true, true});
  const LocalGrid g2(gg, topo, 0);
  EXPECT_THROW(Halo(g2, nullptr), Error);  // multi-rank grid needs comm
  vmpi::run(3, [&](vmpi::Comm& comm) {
    EXPECT_THROW(Halo(g2, &comm), Error);  // size mismatch (3 vs 2)
  });
}

// -- run-based plane walk against the per-element walk ---------------------

/// Per-element reference of Halo::refresh and Halo::reduce_sources: every
/// plane goes element by element through idx() and a message buffer (the
/// single-rank periodic wrap included), and the source ghosts are found by
/// testing every voxel. Axis order, message layout and per-element
/// arithmetic are those the run-based walk must reproduce byte for byte.
class ElementHalo {
 public:
  ElementHalo(const LocalGrid& g, vmpi::Comm* comm) : g_(g), comm_(comm) {}

  void refresh(FieldArray& f, const std::vector<Component>& comps) {
    for (int axis = 0; axis < 3; ++axis) {
      const int n = extent(axis);
      const int lo = g_.neighbor(face_of(axis, -1));
      const int hi = g_.neighbor(face_of(axis, +1));
      if (hi == g_.rank()) {
        for (Component c : comps) {
          unpack(f, c, axis, 0, pack(f, c, axis, n), false);
          unpack(f, c, axis, n + 1, pack(f, c, axis, 1), false);
        }
        continue;
      }
      if (hi != LocalGrid::kNoNeighbor) send(f, comps, axis, n, hi, kToHi);
      if (lo != LocalGrid::kNoNeighbor) send(f, comps, axis, 1, lo, kToLo);
      if (lo != LocalGrid::kNoNeighbor)
        recv(f, comps, axis, 0, lo, kToHi, false);
      if (hi != LocalGrid::kNoNeighbor)
        recv(f, comps, axis, n + 1, hi, kToLo, false);
    }
  }

  void reduce_sources(FieldArray& f) {
    const auto comps = source_components();
    for (int axis = 0; axis < 3; ++axis) {
      const int n = extent(axis);
      const int lo = g_.neighbor(face_of(axis, -1));
      const int hi = g_.neighbor(face_of(axis, +1));
      if (hi == g_.rank()) {
        for (Component c : comps)
          unpack(f, c, axis, 1, pack(f, c, axis, n + 1), true);
        continue;
      }
      if (hi != LocalGrid::kNoNeighbor) send(f, comps, axis, n + 1, hi, kFold);
      if (lo != LocalGrid::kNoNeighbor)
        recv(f, comps, axis, 1, lo, kFold, true);
    }
    for (Component c : comps) {
      real* data = component_data(f, c);
      for (int k = 0; k <= g_.nz() + 1; ++k)
        for (int j = 0; j <= g_.ny() + 1; ++j)
          for (int i = 0; i <= g_.nx() + 1; ++i)
            if (!g_.is_interior(i, j, k)) data[f.idx(i, j, k)] = 0;
    }
  }

 private:
  // Tags of their own, so reference traffic never matches the Halo's.
  enum Kind : int { kToHi = 0, kToLo = 1, kFold = 2 };
  static int tag(int axis, Kind kind) { return (1 << 21) + axis * 4 + kind; }

  int extent(int axis) const {
    return axis == 0 ? g_.nx() : axis == 1 ? g_.ny() : g_.nz();
  }

  /// The plane's voxels in message order: x-plane (j, k), y-plane (i, k),
  /// z-plane (i, j), first index fastest.
  std::vector<std::int32_t> plane(const FieldArray& f, int axis,
                                  int index) const {
    std::vector<std::int32_t> v;
    const int px = g_.nx() + 2, py = g_.ny() + 2, pz = g_.nz() + 2;
    if (axis == 0) {
      for (int k = 0; k < pz; ++k)
        for (int j = 0; j < py; ++j) v.push_back(f.idx(index, j, k));
    } else if (axis == 1) {
      for (int k = 0; k < pz; ++k)
        for (int i = 0; i < px; ++i) v.push_back(f.idx(i, index, k));
    } else {
      for (int j = 0; j < py; ++j)
        for (int i = 0; i < px; ++i) v.push_back(f.idx(i, j, index));
    }
    return v;
  }

  std::vector<real> pack(const FieldArray& f, Component c, int axis,
                         int index) const {
    const real* data = component_data(f, c);
    std::vector<real> out;
    for (std::int32_t v : plane(f, axis, index)) out.push_back(data[v]);
    return out;
  }

  void unpack(FieldArray& f, Component c, int axis, int index,
              const std::vector<real>& in, bool add) const {
    real* data = component_data(f, c);
    std::size_t m = 0;
    for (std::int32_t v : plane(f, axis, index)) {
      if (add) {
        data[v] += in[m++];
      } else {
        data[v] = in[m++];
      }
    }
  }

  void send(const FieldArray& f, const std::vector<Component>& comps,
            int axis, int index, int dst, Kind kind) {
    std::vector<real> msg;
    for (Component c : comps) {
      const auto p = pack(f, c, axis, index);
      msg.insert(msg.end(), p.begin(), p.end());
    }
    comm_->send(dst, tag(axis, kind), std::span<const real>(msg));
  }

  void recv(FieldArray& f, const std::vector<Component>& comps, int axis,
            int index, int src, Kind kind, bool add) {
    const std::size_t plane_len = plane(f, axis, index).size();
    std::vector<real> msg(plane_len * comps.size());
    comm_->recv(src, tag(axis, kind), std::span<real>(msg));
    for (std::size_t c = 0; c < comps.size(); ++c) {
      const auto first = msg.begin() + std::ptrdiff_t(c * plane_len);
      unpack(f, comps[c], axis, index,
             std::vector<real>(first, first + std::ptrdiff_t(plane_len)), add);
    }
  }

  const LocalGrid& g_;
  vmpi::Comm* comm_;
};

std::vector<Component> all_components() {
  auto comps = em_components();
  for (Component c : source_components()) comps.push_back(c);
  return comps;
}

/// Random bit patterns in every voxel of every component. With `finite`,
/// all-ones exponents (inf/NaN) are redrawn so that sums stay free of NaN
/// payloads, whose propagation through an add depends on operand order.
void fill_bits(FieldArray& f, Rng& rng, bool finite) {
  const auto n = std::size_t(f.grid().num_voxels());
  for (Component c : all_components()) {
    real* data = component_data(f, c);
    for (std::size_t v = 0; v < n; ++v) {
      std::uint32_t bits = std::uint32_t(rng.next_u64());
      while (finite && (bits & 0x7f800000u) == 0x7f800000u)
        bits = std::uint32_t(rng.next_u64());
      data[v] = std::bit_cast<real>(bits);
    }
  }
}

::testing::AssertionResult same_bytes(const FieldArray& a,
                                      const FieldArray& b) {
  const auto& g = a.grid();
  for (Component c : all_components()) {
    const real* x = component_data(a, c);
    const real* y = component_data(b, c);
    for (int k = 0; k <= g.nz() + 1; ++k)
      for (int j = 0; j <= g.ny() + 1; ++j)
        for (int i = 0; i <= g.nx() + 1; ++i) {
          const std::int32_t v = a.idx(i, j, k);
          if (std::memcmp(x + v, y + v, sizeof(real)) != 0)
            return ::testing::AssertionFailure()
                   << "component " << int(c) << " differs at (" << i << ","
                   << j << "," << k << ") on rank " << g.rank();
        }
  }
  return ::testing::AssertionSuccess();
}

/// One boundary layout: each axis is a local periodic wrap, a wall, or a
/// remote face through a 2-rank split.
struct RunCase {
  std::string name;
  BoundarySpec boundary;
  std::array<int, 3> dims;
};

void PrintTo(const RunCase& rc, std::ostream* os) { *os << rc.name; }

class HaloRunTest : public ::testing::TestWithParam<RunCase> {};

TEST_P(HaloRunTest, MatchesElementWalkBytewise) {
  const RunCase& rc = GetParam();
  GlobalGrid gg;
  gg.nx = 7;  // unequal axes: every plane shape differs
  gg.ny = 3;
  gg.nz = 5;
  gg.dx = gg.dy = gg.dz = 0.5;
  gg.boundary = rc.boundary;
  const int nranks = rc.dims[0] * rc.dims[1] * rc.dims[2];
  vmpi::run(nranks, [&](vmpi::Comm& comm) {
    const vmpi::CartTopology topo(rc.dims, {true, true, true});
    const LocalGrid g(gg, topo, comm.rank());
    FieldArray runs(g), elements(g);
    Halo halo(g, &comm);
    ElementHalo reference(g, &comm);
    Rng rng(hash_combine(0x4a10, std::uint64_t(comm.rank())));
    for (int round = 0; round < 2; ++round) {
      fill_bits(runs, rng, false);
      elements = runs;
      halo.refresh(runs, all_components());
      reference.refresh(elements, all_components());
      ASSERT_TRUE(same_bytes(runs, elements)) << "refresh, round " << round;

      const std::vector<Component> some = {Component::kCbz, Component::kEx};
      halo.refresh(runs, some);
      reference.refresh(elements, some);
      ASSERT_TRUE(same_bytes(runs, elements)) << "refresh of two components";

      fill_bits(runs, rng, true);
      elements = runs;
      halo.reduce_sources(runs);
      reference.reduce_sources(elements);
      ASSERT_TRUE(same_bytes(runs, elements)) << "reduce, round " << round;
    }
  });
}

constexpr BoundaryKind P = BoundaryKind::kPeriodic;
constexpr BoundaryKind W = BoundaryKind::kPec;
constexpr BoundaryKind A = BoundaryKind::kAbsorbing;

// Each axis meets each kind: a Latin square of (periodic, wall, remote),
// plus a split of every axis with walls beyond the x split.
INSTANTIATE_TEST_SUITE_P(
    Boundaries, HaloRunTest,
    ::testing::Values(
        RunCase{"XPeriodicYWallZRemote", {P, P, W, A, P, P}, {1, 1, 2}},
        RunCase{"XWallYRemoteZPeriodic", {A, W, P, P, P, P}, {1, 2, 1}},
        RunCase{"XRemoteYPeriodicZWall", {P, P, P, P, W, A}, {2, 1, 1}},
        RunCase{"AllSplitXWalled", {W, A, P, P, P, P}, {2, 2, 2}},
        RunCase{"SingleRankAllPeriodic", {P, P, P, P, P, P}, {1, 1, 1}}),
    [](const ::testing::TestParamInfo<RunCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace minivpic::grid
