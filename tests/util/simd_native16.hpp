// The 16-row transposes of util/simd.hpp as the AVX-512F build compiles
// them, behind plain float arrays. simd_native16.cpp is the only file built
// with -mavx512f (tests/CMakeLists.txt), so the test that calls these stays
// at the project's default arch and runs no AVX-512 instruction until it
// has checked the CPU.
#pragma once

#include <cstdint>

namespace minivpic::simd::native16 {

/// Most columns one call moves.
constexpr int kMaxCols = 32;

/// True when simd_native16.cpp was compiled with AVX-512F.
bool compiled();

/// load_tr<16>: cols[c * 16 + w] = base[off[w] + c] for c in [0, n).
void load_tr(const float* base, const std::int32_t* off, int n, float* cols);

/// store_tr<16>: base[off[w] + c] = cols[c * 16 + w] for c in [0, n).
void store_tr(const float* cols, int n, float* base, const std::int32_t* off);

}  // namespace minivpic::simd::native16
