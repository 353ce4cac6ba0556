// Baseline-ISA translation unit of the loader's Box–Muller batch: the
// 2-wide batch (SSE2 on x86-64, NEON on AArch64, the portable vector
// fallback elsewhere), the polynomial probes and the dispatch by kernel.
#include "particles/loader_simd.hpp"

#include "particles/loader_simd_impl.hpp"
#include "util/error.hpp"

namespace minivpic::particles {

namespace detail {

NormalsFn normals_entry_w2() { return &normals_batch<2>; }

double fast_log(double u1) { return log_lanes<2>(Lanes<2>::d{u1, u1})[0]; }

double fast_cos_turn(double u2) {
  return cos_turn_lanes<2>(Lanes<2>::d{u2, u2})[0];
}

}  // namespace detail

NormalsFn normals_entry(Kernel k) {
  NormalsFn fn = nullptr;
  if (k != Kernel::kAuto && kernel_available(k)) {
    switch (k) {
      case Kernel::kScalar:
      case Kernel::kSse: fn = detail::normals_entry_w2(); break;
      case Kernel::kAvx2:
      case Kernel::kAvx512: fn = detail::normals_entry_avx2(); break;
      case Kernel::kAuto: break;
    }
  }
  MV_REQUIRE(fn != nullptr, "no particle-load batch for kernel '"
                                << kernel_name(k)
                                << "' in this build on this host");
  return fn;
}

}  // namespace minivpic::particles
