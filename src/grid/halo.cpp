#include "grid/halo.hpp"

#include <algorithm>
#include <cstddef>

namespace minivpic::grid {

namespace {

/// Tag layout for halo traffic: disambiguates axis and message kind so the
/// two faces of an axis cannot cross even when both neighbors are the same
/// rank (2-rank periodic axes).
constexpr int kHaloTagBase = 1 << 20;
enum Kind : int { kFillLoGhost = 0, kFillHiGhost = 1, kReduceHi = 2 };

int halo_tag(int axis, Kind kind) { return kHaloTagBase + axis * 4 + kind; }

/// Voxel stride along an axis of the padded array.
std::ptrdiff_t axis_stride(const LocalGrid& g, int axis) {
  return axis == 0 ? 1 : axis == 1 ? g.sy() : g.sz();
}

/// Plane length for an axis (full padded extent of the two other axes).
std::size_t plane_size(const LocalGrid& g, int axis) {
  const std::size_t px = g.nx() + 2, py = g.ny() + 2, pz = g.nz() + 2;
  return axis == 0 ? py * pz : axis == 1 ? px * pz : px * py;
}

/// The one plane walk: calls run(voxel, count) for each contiguous run of
/// the padded plane `index` along `axis`, in message order. A z-plane is one
/// run of (nx+2)(ny+2) floats, a y-plane one run of nx+2 floats per k, an
/// x-plane single elements (j fastest, then k).
template <class Run>
void for_each_plane_run(const LocalGrid& g, int axis, int index, Run&& run) {
  const std::size_t px = g.nx() + 2, py = g.ny() + 2, pz = g.nz() + 2;
  const std::size_t sy = px, sz = px * py, at = std::size_t(index);
  switch (axis) {
    case 0:
      for (std::size_t k = 0; k < pz; ++k)
        for (std::size_t j = 0; j < py; ++j) run(at + sy * j + sz * k, 1);
      break;
    case 1:
      for (std::size_t k = 0; k < pz; ++k) run(sy * at + sz * k, px);
      break;
    default:
      run(sz * at, sz);
      break;
  }
}

/// to[0..n) = from[0..n), or += when `add`.
void apply_run(real* to, const real* from, std::size_t n, bool add) {
  if (add) {
    for (std::size_t i = 0; i < n; ++i) to[i] += from[i];
  } else {
    std::copy_n(from, n, to);
  }
}

void pack_plane(const LocalGrid& g, const real* data, int axis, int index,
                real* out) {
  for_each_plane_run(g, axis, index, [&](std::size_t v, std::size_t n) {
    out = std::copy_n(data + v, n, out);
  });
}

void unpack_plane(const LocalGrid& g, real* data, int axis, int index,
                  const real* in, bool add) {
  for_each_plane_run(g, axis, index, [&](std::size_t v, std::size_t n) {
    apply_run(data + v, in, n, add);
    in += n;
  });
}

/// Single-rank periodic wrap: plane `to` = plane `from` (or += when `add`),
/// run by run within one array.
void wrap_plane(const LocalGrid& g, real* data, int axis, int from, int to,
                bool add) {
  const std::ptrdiff_t shift = (to - from) * axis_stride(g, axis);
  for_each_plane_run(g, axis, from, [&](std::size_t v, std::size_t n) {
    apply_run(data + v + shift, data + v, n, add);
  });
}

}  // namespace

std::vector<Component> em_components() {
  return {Component::kEx,  Component::kEy,  Component::kEz,
          Component::kCbx, Component::kCby, Component::kCbz};
}

std::vector<Component> source_components() {
  return {Component::kJfx, Component::kJfy, Component::kJfz, Component::kRhof};
}

real* component_data(FieldArray& f, Component c) {
  switch (c) {
    case Component::kEx: return f.ex_span().data();
    case Component::kEy: return f.ey_span().data();
    case Component::kEz: return f.ez_span().data();
    case Component::kCbx: return f.cbx_span().data();
    case Component::kCby: return f.cby_span().data();
    case Component::kCbz: return f.cbz_span().data();
    case Component::kJfx: return f.jfx_span().data();
    case Component::kJfy: return f.jfy_span().data();
    case Component::kJfz: return f.jfz_span().data();
    case Component::kRhof: return f.rhof_span().data();
  }
  MV_ASSERT(false);
  return nullptr;
}

const real* component_data(const FieldArray& f, Component c) {
  return component_data(const_cast<FieldArray&>(f), c);
}

Halo::Halo(const LocalGrid& grid, vmpi::Comm* comm)
    : grid_(&grid), comm_(comm) {
  if (comm_ == nullptr) {
    MV_REQUIRE(grid.nranks() == 1,
               "multi-rank grid requires a communicator for halo exchange");
  } else {
    MV_REQUIRE(comm_->size() == grid.nranks(),
               "communicator size " << comm_->size()
                                    << " does not match grid rank count "
                                    << grid.nranks());
  }
}

void Halo::exchange_axis_refresh(FieldArray& f,
                                 const std::vector<Component>& comps,
                                 int axis) {
  const LocalGrid& g = *grid_;
  const int n = axis == 0 ? g.nx() : axis == 1 ? g.ny() : g.nz();
  const int lo = g.neighbor(face_of(axis, -1));
  const int hi = g.neighbor(face_of(axis, +1));

  // Local periodic wrap (neighbor is this rank itself).
  if (hi == g.rank()) {
    MV_ASSERT(lo == g.rank());
    for (Component c : comps) {
      real* data = component_data(f, c);
      wrap_plane(g, data, axis, n, 0, false);
      wrap_plane(g, data, axis, 1, n + 1, false);
    }
    return;
  }

  const std::size_t plane = plane_size(g, axis);
  const std::size_t msg = plane * comps.size();
  sendbuf_lo_.resize(msg);
  sendbuf_hi_.resize(msg);
  recvbuf_.resize(msg);

  // Post both buffered sends first, then receive — cannot deadlock.
  if (hi != LocalGrid::kNoNeighbor) {
    for (std::size_t c = 0; c < comps.size(); ++c)
      pack_plane(g, component_data(f, comps[c]), axis, n,
                 sendbuf_hi_.data() + c * plane);
    comm_->send(hi, halo_tag(axis, kFillLoGhost),
                std::span<const real>(sendbuf_hi_.data(), msg));
  }
  if (lo != LocalGrid::kNoNeighbor) {
    for (std::size_t c = 0; c < comps.size(); ++c)
      pack_plane(g, component_data(f, comps[c]), axis, 1,
                 sendbuf_lo_.data() + c * plane);
    comm_->send(lo, halo_tag(axis, kFillHiGhost),
                std::span<const real>(sendbuf_lo_.data(), msg));
  }
  if (lo != LocalGrid::kNoNeighbor) {
    comm_->recv(lo, halo_tag(axis, kFillLoGhost),
                std::span<real>(recvbuf_.data(), msg));
    for (std::size_t c = 0; c < comps.size(); ++c)
      unpack_plane(g, component_data(f, comps[c]), axis, 0,
                   recvbuf_.data() + c * plane, false);
  }
  if (hi != LocalGrid::kNoNeighbor) {
    comm_->recv(hi, halo_tag(axis, kFillHiGhost),
                std::span<real>(recvbuf_.data(), msg));
    for (std::size_t c = 0; c < comps.size(); ++c)
      unpack_plane(g, component_data(f, comps[c]), axis, n + 1,
                   recvbuf_.data() + c * plane, false);
  }
}

void Halo::exchange_axis_reduce(FieldArray& f,
                                const std::vector<Component>& comps, int axis) {
  const LocalGrid& g = *grid_;
  const int n = axis == 0 ? g.nx() : axis == 1 ? g.ny() : g.nz();
  const int lo = g.neighbor(face_of(axis, -1));
  const int hi = g.neighbor(face_of(axis, +1));

  // Deposition only reaches the high-side ghost plane (index n+1); fold it
  // into the hi neighbor's first interior plane.
  if (hi == g.rank()) {
    MV_ASSERT(lo == g.rank());
    for (Component c : comps)
      wrap_plane(g, component_data(f, c), axis, n + 1, 1, true);
    return;
  }

  const std::size_t plane = plane_size(g, axis);
  const std::size_t msg = plane * comps.size();
  sendbuf_hi_.resize(msg);
  recvbuf_.resize(msg);
  if (hi != LocalGrid::kNoNeighbor) {
    for (std::size_t c = 0; c < comps.size(); ++c)
      pack_plane(g, component_data(f, comps[c]), axis, n + 1,
                 sendbuf_hi_.data() + c * plane);
    comm_->send(hi, halo_tag(axis, kReduceHi),
                std::span<const real>(sendbuf_hi_.data(), msg));
  }
  if (lo != LocalGrid::kNoNeighbor) {
    comm_->recv(lo, halo_tag(axis, kReduceHi),
                std::span<real>(recvbuf_.data(), msg));
    for (std::size_t c = 0; c < comps.size(); ++c)
      unpack_plane(g, component_data(f, comps[c]), axis, 1,
                   recvbuf_.data() + c * plane, true);
  }
}

void Halo::refresh(FieldArray& f, const std::vector<Component>& comps) {
  for (int axis = 0; axis < 3; ++axis) exchange_axis_refresh(f, comps, axis);
}

void Halo::reduce_sources(FieldArray& f) {
  const auto comps = source_components();
  for (int axis = 0; axis < 3; ++axis) exchange_axis_reduce(f, comps, axis);
  zero_source_ghosts(f);
}

void Halo::zero_source_ghosts(FieldArray& f) const {
  const LocalGrid& g = *grid_;
  const int n[3] = {g.nx(), g.ny(), g.nz()};
  for (Component c : source_components()) {
    real* data = component_data(f, c);
    for (int axis = 0; axis < 3; ++axis)
      for (const int index : {0, n[axis] + 1})
        for_each_plane_run(g, axis, index, [&](std::size_t v, std::size_t m) {
          std::fill_n(data + v, m, real{0});
        });
  }
}

}  // namespace minivpic::grid
