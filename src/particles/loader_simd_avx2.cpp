// AVX2 translation unit of the loader's Box–Muller batch: compiled with
// -mavx2 when the compiler supports it (particles/CMakeLists.txt) and
// self-gated on __AVX2__, so without it the entry is null.
#include "particles/loader_simd.hpp"

#if defined(__AVX2__)
#include "particles/loader_simd_impl.hpp"
#endif

namespace minivpic::particles::detail {

NormalsFn normals_entry_avx2() {
#if defined(__AVX2__)
  return &normals_batch<4>;
#else
  return nullptr;
#endif
}

}  // namespace minivpic::particles::detail
