// SIMD particle-advance kernels: dispatch interface.
//
// The vector kernels live in three translation units so each can carry its
// own ISA flags (particles/CMakeLists.txt):
//   push_simd.cpp        baseline build  -> 4-wide kernel (SSE2/NEON) +
//                                           the registry and dispatcher
//   push_simd_avx2.cpp   -mavx2          -> 8-wide kernel
//   push_simd_avx512.cpp -mavx512f       -> 16-wide kernel
// Every width-dependent symbol sits inside util/simd.hpp's arch inline
// namespace, so the differently-flagged TUs never ODR-merge incompatible
// codegen. A TU whose ISA the compiler cannot target (or a non-x86 build)
// returns a null entry; kernel_available() folds that together with
// runtime CPU detection (__builtin_cpu_supports).
//
// All kernels share one signature — the scalar advance_range_scalar's,
// with the Pusher passed explicitly — so Pusher::advance_range can swap
// them freely per slice or per index list. See docs/KERNELS.md for the
// kernel walk-through and the determinism contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "particles/kernel.hpp"
#include "particles/push.hpp"

namespace minivpic::particles {

/// One pipeline-slice advance: the particles at slots [begin, end) of `sp`
/// — slot k is particle idx[k] for a non-null ascending index list `idx`,
/// particle k otherwise — deposits into `acc_block`, dead indices appended
/// ascending. Matches Pusher::advance_range_scalar semantics exactly.
using SimdAdvanceFn = void (*)(const Pusher&, Species& sp,
                               const InterpolatorArray& interp,
                               CellAccum* acc_block, const std::uint32_t* idx,
                               std::size_t begin, std::size_t end,
                               Rng& reflux_rng, Pusher::Result& res,
                               std::vector<std::size_t>& dead);

/// The SIMD kernels are compiled in their own TUs but need three private
/// pieces of Pusher: the grid, move_p for spilled cell-crossing lanes, and
/// the scalar loop for the remainder batch. This friend shim is their only
/// doorway, so the private surface the kernels depend on stays explicit.
struct SimdKernelAccess {
  static const grid::LocalGrid& grid(const Pusher& pu) { return *pu.grid_; }

  static Pusher::MoveStatus move_p(const Pusher& pu, Particle& p, Mover& m,
                                   float macro_charge, CellAccum* acc,
                                   Emigrant* out, Pusher::Result* stats,
                                   Rng& reflux_rng) {
    return pu.move_p(p, m, macro_charge, acc, out, stats, reflux_rng);
  }

  static void advance_scalar(const Pusher& pu, Species& sp,
                             const InterpolatorArray& interp,
                             CellAccum* acc_block, const std::uint32_t* idx,
                             std::size_t begin, std::size_t end,
                             Rng& reflux_rng, Pusher::Result& res,
                             std::vector<std::size_t>& dead) {
    pu.advance_range_scalar(sp, interp, acc_block, idx, begin, end,
                            reflux_rng, res, dead);
  }
};

namespace detail {
/// Per-TU kernel entries; null when the TU's ISA was not compiled in.
SimdAdvanceFn advance_entry_w4();      // push_simd.cpp (SSE2/NEON/portable)
SimdAdvanceFn advance_entry_avx2();    // push_simd_avx2.cpp
SimdAdvanceFn advance_entry_avx512();  // push_simd_avx512.cpp
}  // namespace detail

/// Kernel entry for a *resolved* kernel; null for kScalar (the caller runs
/// its own scalar loop) and for kernels this build did not compile.
SimdAdvanceFn simd_advance_entry(Kernel k);

}  // namespace minivpic::particles
