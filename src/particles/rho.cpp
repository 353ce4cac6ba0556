#include "particles/rho.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "util/error.hpp"
#include "util/pipeline.hpp"
#include "util/simd.hpp"

namespace minivpic::particles {

namespace {

using P4 = simd::pack<4>;
using mask4 = simd::mask<4>;

/// A particle converts only while its pre-scaled charge q w / (8 V Q) is
/// below 2^28 (at most this largest float below it): with offsets in
/// [-1, 1] each of its 8 weights is then at most 8 times that (float
/// rounding is monotone), so below 2^31 quanta.
constexpr float kMaxScaledCharge = 0x1.fffffep27f;
/// The largest float below 2^31; every weight must lie within +-kMaxWeight,
/// which also rejects NaN and the weights of a wild offset.
constexpr float kMaxWeight = 0x1.fffffep30f;

/// The float factor q / (8 V) of a trilinear deposit, scaled exactly by the
/// power of two 1/Q.
float scaled_r8v(double q, double cell_volume, double quantum) {
  const float r8v = float(q / (8.0 * cell_volume));
  return float(double(r8v) / quantum);
}

/// True when every lane of `a` lies in [-hi, hi] (false for NaN).
mask4 within(P4 a, P4 hi) {
  return simd::cmp_le(a, hi) & simd::cmp_le(-hi, a);
}

/// Adds the 8 node weights of the 4 particles at `b` into the int64 node
/// block `sum`, in quanta. Returns false, converting nothing, if one of them
/// must not be converted.
[[gnu::always_inline]] inline bool deposit_batch(
    const Particle* b, P4 r8v, std::int32_t sy, std::int32_t sz,
    std::uint32_t last, std::int64_t* sum) {
  constexpr std::int32_t kRows[4] = {0, 8, 16, 24};
  const P4 one = P4::broadcast(1.0f);
  const P4 max_q = P4::broadcast(kMaxScaledCharge);
  const P4 max_w = P4::broadcast(kMaxWeight);
  // Columns dx, dy, dz, i, ux, uy, uz, w of the 4 particles.
  P4 c[8];
  simd::load_tr<4>(reinterpret_cast<const float*>(b), kRows, 8, c);
  const P4 q = r8v * c[7];
  // Trilinear node weights from offsets in [-1, 1], each formed in float
  // as ((q * l) * l) * l: exactly the float trilinear weight divided by Q,
  // since Q is a power of two.
  const P4 lx = one - c[0], hx = one + c[0];
  const P4 ly = one - c[1], hy = one + c[1];
  const P4 lz = one - c[2], hz = one + c[2];
  const P4 qlx = q * lx, qhx = q * hx;
  const P4 a0 = qlx * ly, a1 = qhx * ly, a2 = qlx * hy, a3 = qhx * hy;
  const P4 w[8] = {a0 * lz, a1 * lz, a2 * lz, a3 * lz,
                   a0 * hz, a1 * hz, a2 * hz, a3 * hz};
  const mask4 ok = within(q, max_q) & within(w[0], max_w) &
                   within(w[1], max_w) & within(w[2], max_w) &
                   within(w[3], max_w) & within(w[4], max_w) &
                   within(w[5], max_w) & within(w[6], max_w) &
                   within(w[7], max_w);
  if (ok.bits() != simd::all_lanes<4>()) return false;
  for (int j = 0; j < 4; ++j)
    if (std::uint32_t(b[j].i) > last) return false;
  alignas(16) std::int32_t iw[8][4];
  for (int a = 0; a < 8; ++a) simd::store_round_i32(w[a], iw[a]);
  for (int j = 0; j < 4; ++j) {
    std::int64_t* n000 = sum + b[j].i;
    n000[0] += iw[0][j];
    n000[1] += iw[1][j];
    n000[sy] += iw[2][j];
    n000[sy + 1] += iw[3][j];
    n000[sz] += iw[4][j];
    n000[sz + 1] += iw[5][j];
    n000[sz + sy] += iw[6][j];
    n000[sz + sy + 1] += iw[7][j];
  }
  return true;
}

/// Adds the 8 node weights of particles [0, n) of `p` into the int64 node
/// block `sum`, in quanta, 4 particles at a time. Returns false, leaving
/// the block partly filled, at the first batch holding a particle it must
/// not convert.
bool deposit_particles(const Particle* p, std::size_t n, float r8v,
                       std::int32_t sy, std::int32_t sz, std::uint32_t last,
                       std::int64_t* sum) {
  static_assert(sizeof(Particle) == 8 * sizeof(float));
  const P4 r8v4 = P4::broadcast(r8v);
  const std::size_t full = n / 4 * 4;
  for (std::size_t k = 0; k < full; k += 4)
    if (!deposit_batch(p + k, r8v4, sy, sz, last, sum)) return false;
  if (full == n) return true;
  // The last batch is padded with zero-weight particles at voxel 0, whose
  // weights are all +0.
  Particle tail[4] = {};
  std::copy(p + full, p + n, tail);
  return deposit_batch(tail, r8v4, sy, sz, last, sum);
}

}  // namespace

double full_weight_rho(double q, const LoadConfig& load) {
  if (load.ppc <= 0 || !(load.density > 0)) return 0;
  return std::fabs(q) * load.density / load.ppc;
}

RhoDeposit::RhoDeposit(const grid::LocalGrid& grid, double c)
    : voxels_(std::size_t(grid.num_voxels())),
      stride_((voxels_ + 7) / 8 * 8),
      cell_volume_(grid.cell_volume()) {
  MV_REQUIRE(std::isfinite(c) && c >= 0,
             "rho deposit: the full-weight charge density must be finite "
             "and non-negative, got "
                 << c);
  quantum_ =
      std::ldexp(1.0, (c > 0 ? std::ilogb(c * (1 + 0x1p-20)) : 0) - 24);
}

void RhoDeposit::check_weights(const Species& sp) const {
  const float r8v = scaled_r8v(sp.q(), cell_volume_, quantum_);
  for (const Particle& p : sp.particles()) {
    MV_REQUIRE(std::fabs(r8v * p.w) <= kMaxScaledCharge,
               "species '" << sp.name() << "': particle weight " << p.w
                           << " exceeds the rho deposit's headroom (weights "
                              "up to 64x the base weight, i.e. density "
                              "profiles up to 64, are supported)");
  }
}

void RhoDeposit::deposit(const std::vector<const Species*>& species,
                         grid::FieldArray& f, Pipeline* pool) {
  const grid::LocalGrid& g = f.grid();
  MV_REQUIRE(std::size_t(g.num_voxels()) == voxels_,
             "rho deposit: field grid has " << g.num_voxels()
                                            << " voxels, expected "
                                            << voxels_);
  std::size_t count = 0;
  for (const Species* sp : species) count += sp->size();
  MV_REQUIRE(count < (std::size_t(1) << 32),
             "rho deposit: " << count
                             << " particles on one rank; int64 node sums "
                                "are exact only below 2^32");
  const int npipe = pool != nullptr ? pool->size() : 1;
  if (sums_.size() < stride_ * std::size_t(npipe)) {
    sums_ = AlignedBuffer<std::int64_t>(stride_ * std::size_t(npipe));
  } else if (pending_) {
    sums_.zero();  // the last deposit threw before its fold
  }
  pending_ = true;

  std::vector<float> r8v;
  for (const Species* sp : species)
    r8v.push_back(scaled_r8v(sp->q(), cell_volume_, quantum_));
  const std::int32_t sy = g.sy(), sz = g.sz();
  // The highest voxel whose 8 nodes, up to n000 + sz + sy + 1, all lie on
  // the grid.
  const auto last = std::uint32_t(voxels_ - std::size_t(sz + sy + 2));
  const auto run = [&](const std::function<void(int)>& job) {
    if (pool != nullptr) {
      pool->dispatch(job);
    } else {
      job(0);
    }
  };

  std::vector<char> refused(std::size_t(npipe), 0);
  run([&](int p) {
    std::int64_t* sum = sums_.data() + stride_ * std::size_t(p);
    bool ok = true;
    for (std::size_t s = 0; s < species.size(); ++s) {
      const Species& sp = *species[s];
      const Pipeline::Range r = Pipeline::partition(sp.size(), npipe, p);
      ok = ok && deposit_particles(sp.data() + r.begin, r.size(), r8v[s], sy,
                                   sz, last, sum);
    }
    refused[std::size_t(p)] = !ok;
  });

  const bool poisoned =
      std::find(refused.begin(), refused.end(), 1) != refused.end();
  grid::real* rho = f.rhof_span().data();
  run([&](int p) {
    const Pipeline::Range r = Pipeline::partition(voxels_, npipe, p);
    for (std::size_t n = r.begin; n < r.end; ++n) {
      std::int64_t total = 0;
      for (int b = 0; b < npipe; ++b) {
        std::int64_t& v = sums_[std::size_t(b) * stride_ + n];
        total += v;
        v = 0;
      }
      rho[n] = poisoned ? std::numeric_limits<grid::real>::quiet_NaN()
                        : rho[n] + float(double(total) * quantum_);
    }
  });
  pending_ = false;
}

}  // namespace minivpic::particles
