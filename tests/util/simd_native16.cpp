// Built with -mavx512f when the compiler takes it (tests/CMakeLists.txt);
// without __AVX512F__ the entries are never called (compiled() is false).
#include "simd_native16.hpp"

#if defined(__AVX512F__)
#include "util/simd.hpp"
#endif

namespace minivpic::simd::native16 {

#if defined(__AVX512F__)

bool compiled() { return true; }

void load_tr(const float* base, const std::int32_t* off, int n, float* cols) {
  pack<16> out[kMaxCols];
  simd::load_tr<16>(base, off, n, out);
  for (int c = 0; c < n; ++c) out[c].storeu(cols + 16 * c);
}

void store_tr(const float* cols, int n, float* base, const std::int32_t* off) {
  pack<16> in[kMaxCols];
  for (int c = 0; c < n; ++c) in[c] = pack<16>::loadu(cols + 16 * c);
  simd::store_tr<16>(in, n, base, off);
}

#else

bool compiled() { return false; }
void load_tr(const float*, const std::int32_t*, int, float*) {}
void store_tr(const float*, int, float*, const std::int32_t*) {}

#endif

}  // namespace minivpic::simd::native16
