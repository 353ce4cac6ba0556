// Batched Box–Muller for the particle loader: dispatch interface.
//
// The loader (loader.hpp) reads a cell's momentum draws by counter and
// hands them here W lanes at a time. Each lane evaluates the reference
// expression of Rng::maxwellian plus drift,
//
//   drift + (0.0 + uth * (sqrt(-2 log u1) * cos(2 pi u2)))
//
// with in-tree polynomials instead of libm's log and cos, rounds it to
// float, and keeps the float only when the guard proves it equals the
// float of the libm expression; every other lane is reported back for the
// scalar Rng::maxwellian. The error bounds and the guard are documented in
// loader.hpp.
//
// The kernels live in two translation units so each can carry its own ISA
// flags (particles/CMakeLists.txt), the scheme of push_simd.hpp:
//   loader_simd.cpp        baseline build -> 2-wide batch
//   loader_simd_avx2.cpp   -mavx2         -> 4-wide batch
// A TU whose ISA the compiler cannot target returns a null entry, and the
// advance kernel's registry (kernel.hpp) decides what the host can run.
// On one thread of an AVX-512 host, a 16x12x12 thermal slab (24 ppc)
// loads at about 65 ns per particle 2-wide and 44 ns 4-wide; a 1-wide
// batch took 141 ns, slower than the libm loop it replaces (125 ns), and
// an 8-wide AVX-512F batch 41 ns, too little gain for a third TU.
#pragma once

#include <cstddef>
#include <cstdint>

#include "particles/kernel.hpp"

namespace minivpic::particles {

/// One batch of `n` momentum components: out[m] is
/// float(drift + (0.0 + uth * normal)) for the Box–Muller pair (u1[m],
/// u2[m]) — u1 an Rng::open_unit draw, u2 an Rng::unit draw. Lanes the
/// guard cannot vouch for still get a value in out[], and their indices are
/// written ascending to redo[] (room for n); returns how many.
using NormalsFn = std::size_t (*)(const double* u1, const double* u2,
                                  std::size_t n, double uth, double drift,
                                  float* out, std::uint32_t* redo);

namespace detail {
/// Per-TU batch entries; null when the TU's ISA was not compiled in.
NormalsFn normals_entry_w2();    // loader_simd.cpp (SSE2/NEON/portable)
NormalsFn normals_entry_avx2();  // loader_simd_avx2.cpp

/// The batch's polynomials on one lane (every width runs the same
/// source), so tests can measure them against libm: log(u1) for u1 in
/// (0, 1) and cos(2 pi u2) for u2 in [0, 1).
double fast_log(double u1);
double fast_cos_turn(double u2);
}  // namespace detail

/// Batch entry for a resolved kernel: scalar and sse run the 2-wide batch,
/// avx2 and avx512 the 4-wide one. Throws for kAuto and for a kernel this
/// build did not compile.
NormalsFn normals_entry(Kernel k);

}  // namespace minivpic::particles
