// The width-templated SIMD particle advance (VPIC's advance_p quad kernel,
// generalized over lane width W).
//
// Included ONLY by the per-ISA translation units (push_simd*.cpp), each of
// which instantiates exactly one width inside util/simd.hpp's arch inline
// namespace — never include this from ordinary code; use push_simd.hpp.
//
// Batch structure (docs/KERNELS.md has the diagrams):
//   1. load_tr: transposed AoS->SoA load of W 32-byte particles — the 8
//      interleaved columns {dx,dy,dz,i,ux,uy,uz,w} become 8 packs. The
//      int32 voxel and the weight ride through as raw bits (transposes are
//      bit-preserving; no arithmetic ever touches the voxel column). The W
//      rows are W consecutive particles, or the next W entries of an index
//      list, addressed by offsets from the batch's first particle; the
//      4- and 16-wide kernels read them as row loads, the 8-wide one
//      gathers.
//   2. load_tr keyed by voxel: transposed load of each lane's 80-byte
//      Interpolator (18 coefficient columns at stride 20 floats). The
//      4-wide kernel reads 20 columns so every 4x4 transpose block is full
//      — the pad0/pad1 floats exist precisely to make the stride
//      block-friendly (interpolator.hpp). The 8-wide kernel gathers the 18;
//      the 16-wide one reads the first 16 as row loads and a 16x16
//      transpose and gathers only cbz and dcbzdz.
//   3. Boris rotation + position update in registers, as the *same
//      operation sequence* as the scalar loop in push.cpp: IEEE
//      correctly-rounded add/sub/mul/div/sqrt only, no FMA, so every lane
//      rounds bit-identically to the scalar reference.
//   4. store_tr back, as row stores after a register transpose at every
//      native width: momenta for all lanes; positions blended so lanes
//      that leave their cell keep the pre-move offsets move_p starts from.
//   5. Deposit/spill in lane order (= particle order): the 12 quadrant
//      addends are store_tr'd lane-major into `dep` (the 16-wide kernel as
//      three in-lane 4x4 transposes and 16-byte row stores), then in-cell
//      lanes add theirs to the accumulator; minority crossing/boundary
//      lanes spill to the scalar move_p — same RNG stream, same draw
//      order, same emigrant and dead ordering as scalar.
//   6. The call's remainder ((end - begin) % W slots) runs the scalar
//      reference loop: one remainder per slice, or per index list.
#pragma once

#include <cstddef>
#include <cstdint>

#include "particles/push_simd.hpp"
#include "util/simd.hpp"

namespace minivpic::particles {
inline namespace MV_SIMD_ARCH_NS {

template <int W>
void advance_range_simd(const Pusher& pusher, Species& sp,
                        const InterpolatorArray& interp, CellAccum* acc_block,
                        const std::uint32_t* idx, std::size_t begin,
                        std::size_t end, Rng& reflux_rng, Pusher::Result& res,
                        std::vector<std::size_t>& dead) {
  using P = simd::pack<W>;
  using M = simd::mask<W>;

  const grid::LocalGrid& g = SimdKernelAccess::grid(pusher);
  const float qdt_2mc = float(sp.q() * g.dt() / (2.0 * sp.m()));
  const Interpolator* f0 = interp.data();
  const float* fbase = &f0->ex;
  CellAccum* a0 = acc_block;
  Particle* parts = sp.data();

  const P one = P::broadcast(1.0f);
  const P third = P::broadcast(1.0f / 3.0f);
  const P two_fifteenths = P::broadcast(2.0f / 15.0f);
  const P vqdt_2mc = P::broadcast(qdt_2mc);
  const P vcdt_dx = P::broadcast(float(g.dt() / g.dx()));
  const P vcdt_dy = P::broadcast(float(g.dt() / g.dy()));
  const P vcdt_dz = P::broadcast(float(g.dt() / g.dz()));
  const P vqsp = P::broadcast(float(sp.q()));

  // Transpose row offsets: particle rows in floats from the batch's first
  // particle (stride 8 for a contiguous slice, rewritten per batch from an
  // index list), per-lane deposit rows at stride 12 floats.
  alignas(64) std::int32_t poff[W];
  alignas(64) std::int32_t doff[W];
  for (int w = 0; w < W; ++w) {
    poff[w] = w * 8;
    doff[w] = w * 12;
  }
  alignas(64) std::int32_t ioff[W];

  // Interpolator columns to fetch: the 4-wide transpose reads the two pads
  // too so every 4x4 block is full; the wider kernels fetch the 18 used.
  constexpr int kFCols = (W == 4) ? 20 : 18;
  enum : int {
    kEx, kDexdy, kDexdz, kD2exdydz,
    kEy, kDeydz, kDeydx, kD2eydzdx,
    kEz, kDezdx, kDezdy, kD2ezdxdy,
    kCbx, kDcbxdx, kCby, kDcbydy, kCbz, kDcbzdz,
  };

  alignas(64) float dep[std::size_t(W) * 12];  // quadrant addends, per lane
  alignas(64) float lx[W], ly[W], lz[W], lq[W];  // crossing-lane spill

  const std::size_t vend = begin + (end - begin) / W * W;

  for (std::size_t k = begin; k < vend; k += W) {
    // Particle index of lane w: slot k + w of the list, or of the slice.
    const auto row = [idx, k](int w) {
      const std::size_t slot = k + std::size_t(w);
      return idx != nullptr ? std::size_t(idx[slot]) : slot;
    };
    const std::size_t n = row(0);
    if (idx != nullptr)
      for (int w = 0; w < W; ++w)
        poff[w] = std::int32_t(idx[k + std::size_t(w)] - idx[k]) * 8;
    P cols[8];
    simd::load_tr<W>(&parts[n].dx, poff, 8, cols);
    const P dx = cols[0], dy = cols[1], dz = cols[2];

    for (int w = 0; w < W; ++w) ioff[w] = parts[row(w)].i * 20;
    P f[kFCols];
    simd::load_tr<W>(fbase, ioff, kFCols, f);

    // Field gather (same association as the scalar source).
    const P hax = vqdt_2mc * ((f[kEx] + dy * f[kDexdy]) +
                              dz * (f[kDexdz] + dy * f[kD2exdydz]));
    const P hay = vqdt_2mc * ((f[kEy] + dz * f[kDeydz]) +
                              dx * (f[kDeydx] + dz * f[kD2eydzdx]));
    const P haz = vqdt_2mc * ((f[kEz] + dx * f[kDezdx]) +
                              dy * (f[kDezdy] + dx * f[kD2ezdxdy]));
    const P cbx = f[kCbx] + dx * f[kDcbxdx];
    const P cby = f[kCby] + dy * f[kDcbydy];
    const P cbz = f[kCbz] + dz * f[kDcbzdz];

    // Half E acceleration.
    P ux = cols[4] + hax, uy = cols[5] + hay, uz = cols[6] + haz;

    // Boris rotation with the 7th-order tan correction.
    P v0 = vqdt_2mc / simd::sqrt(one + (ux * ux + (uy * uy + uz * uz)));
    const P v1 = cbx * cbx + (cby * cby + cbz * cbz);
    const P v2 = (v0 * v0) * v1;
    const P v3 = v0 * (one + v2 * (third + v2 * two_fifteenths));
    P v4 = v3 / (one + v1 * (v3 * v3));
    v4 = v4 + v4;
    v0 = ux + v3 * (uy * cbz - uz * cby);
    const P w1 = uy + v3 * (uz * cbx - ux * cbz);
    const P w2 = uz + v3 * (ux * cby - uy * cbx);
    ux = ux + v4 * (w1 * cbz - w2 * cby);
    uy = uy + v4 * (w2 * cbx - v0 * cbz);
    uz = uz + v4 * (v0 * cby - w1 * cbx);

    // Second half E acceleration.
    ux = ux + hax;
    uy = uy + hay;
    uz = uz + haz;

    // Displacement in cell units; offsets advance by twice that.
    v0 = one / simd::sqrt(one + (ux * ux + (uy * uy + uz * uz)));
    const P dispx = ux * v0 * vcdt_dx;
    const P dispy = uy * v0 * vcdt_dy;
    const P dispz = uz * v0 * vcdt_dz;
    const P mx = dx + dispx, my = dy + dispy, mz = dz + dispz;
    const P nx = mx + dispx, ny = my + dispy, nz = mz + dispz;

    const P q = vqsp * cols[7];

    const M in_cell = simd::cmp_le(nx, one) & simd::cmp_le(ny, one) &
                      simd::cmp_le(nz, one) & simd::cmp_le(-nx, one) &
                      simd::cmp_le(-ny, one) & simd::cmp_le(-nz, one);
    const unsigned in_bits = in_cell.bits();
    const unsigned all = simd::all_lanes<W>();

    // Store back. Momenta/voxel/weight for every lane; positions blended so
    // crossing lanes keep the offsets move_p integrates from (the scalar
    // path only writes p.d* in the in-cell branch).
    P out[8];
    out[0] = simd::select(in_cell, nx, dx);
    out[1] = simd::select(in_cell, ny, dy);
    out[2] = simd::select(in_cell, nz, dz);
    out[3] = cols[3];
    out[4] = ux;
    out[5] = uy;
    out[6] = uz;
    out[7] = cols[7];
    simd::store_tr<W>(out, 8, &parts[n].dx, poff);

    res.pushed += W;

    if (in_bits != 0) {
      // Vectorized accumulate_segment: compute each quadrant *addend* for
      // all lanes (the accumulator add itself happens per lane, in particle
      // order, below — one IEEE add per entry, exactly like scalar).
      const P v5 = q * dispx * dispy * dispz * third;
      P d[12];
      const auto quadrant = [&one, v5](P* out4, P qd, P da, P db) {
        const P t1 = qd * da;
        P t0 = qd - t1;
        P s1 = t1 + qd;
        const P hi = one + db;
        const P t2 = t0 * hi;
        const P t3 = s1 * hi;
        const P lo = one - db;
        t0 = t0 * lo;
        s1 = s1 * lo;
        out4[0] = t0 + v5;
        out4[1] = s1 - v5;
        out4[2] = t2 - v5;
        out4[3] = t3 + v5;
      };
      quadrant(d + 0, q * dispx, my, mz);
      quadrant(d + 4, q * dispy, mz, mx);
      quadrant(d + 8, q * dispz, mx, my);
      simd::store_tr<W>(d, 12, dep, doff);  // lane-major: 12 addends/lane
    }
    if (in_bits != all) {
      dispx.storeu(lx);
      dispy.storeu(ly);
      dispz.storeu(lz);
      q.storeu(lq);
    }

    // Lane loop in particle order: scatter-add the in-cell deposits, spill
    // crossing/boundary lanes to the scalar segment splitter.
    for (int w = 0; w < W; ++w) {
      Particle& p = parts[row(w)];
      if (in_bits >> w & 1u) {
        using Q = simd::pack<4>;
        CellAccum& a = a0[p.i];
        const float* dl = dep + w * 12;
        (Q::loadu(a.jx) + Q::loadu(dl + 0)).storeu(a.jx);
        (Q::loadu(a.jy) + Q::loadu(dl + 4)).storeu(a.jy);
        (Q::loadu(a.jz) + Q::loadu(dl + 8)).storeu(a.jz);
      } else {
        Mover m{lx[w], ly[w], lz[w]};
        Emigrant out_e;
        switch (SimdKernelAccess::move_p(pusher, p, m, lq[w], a0, &out_e,
                                         &res, reflux_rng)) {
          case Pusher::MoveStatus::kDone:
            break;
          case Pusher::MoveStatus::kEmigrated:
            res.emigrants.push_back(out_e);
            dead.push_back(row(w));
            break;
          case Pusher::MoveStatus::kAbsorbed:
            dead.push_back(row(w));
            break;
        }
      }
    }
  }

  // Remainder batch: the scalar reference finishes the slice or list.
  if (vend < end)
    SimdKernelAccess::advance_scalar(pusher, sp, interp, acc_block, idx, vend,
                                     end, reflux_rng, res, dead);
}

}  // inline namespace MV_SIMD_ARCH_NS
}  // namespace minivpic::particles
