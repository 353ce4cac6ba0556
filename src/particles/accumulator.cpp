#include "particles/accumulator.hpp"

#include "util/error.hpp"
#include "util/pipeline.hpp"

namespace minivpic::particles {

AccumulatorArray::AccumulatorArray(const grid::LocalGrid& grid, int blocks)
    : voxels_(std::size_t(grid.num_voxels())),
      blocks_(blocks),
      data_(voxels_ * std::size_t(blocks)) {
  MV_REQUIRE(blocks >= 1, "accumulator needs >= 1 block, got " << blocks);
}

void AccumulatorArray::reduce(Pipeline* pipeline) {
  if (blocks_ < 2) return;
  // Flat float streams: 16 floats per CellAccum, contiguous and aligned, so
  // the compiler can vectorize the += loop. Ascending block order keeps the
  // per-cell addition sequence identical to the serial deposit order. Each
  // pipeline folds whole voxels, so no cache line is shared across ranges.
  constexpr std::size_t kFloats = sizeof(CellAccum) / sizeof(float);
  const int npipe = pipeline != nullptr ? pipeline->size() : 1;
  const auto fold = [&](int p) {
    const auto r = Pipeline::partition(voxels_, npipe, p);
    float* dst = reinterpret_cast<float*>(block(0) + r.begin);
    const std::size_t floats = r.size() * kFloats;
    for (int b = 1; b < blocks_; ++b) {
      const float* src = reinterpret_cast<const float*>(block(b) + r.begin);
      for (std::size_t i = 0; i < floats; ++i) dst[i] += src[i];
    }
  };
  if (pipeline != nullptr) {
    pipeline->dispatch(fold);
  } else {
    fold(0);
  }
}

void AccumulatorArray::unload(grid::FieldArray& f) const {
  const auto& g = f.grid();
  // Quadrant charge -> current density: each accumulator entry is 4x the
  // charge through a quadrant of the edge's dual face; divide by 4, the
  // dual-face area and dt.
  const float cx = float(0.25 / (g.dy() * g.dz() * g.dt()));
  const float cy = float(0.25 / (g.dz() * g.dx() * g.dt()));
  const float cz = float(0.25 / (g.dx() * g.dy() * g.dt()));
  for (int k = 1; k <= g.nz(); ++k) {
    for (int j = 1; j <= g.ny(); ++j) {
      for (int i = 1; i <= g.nx(); ++i) {
        const CellAccum& a = data_[std::size_t(f.idx(i, j, k))];
        f.jfx(i, j, k) += cx * a.jx[0];
        f.jfx(i, j + 1, k) += cx * a.jx[1];
        f.jfx(i, j, k + 1) += cx * a.jx[2];
        f.jfx(i, j + 1, k + 1) += cx * a.jx[3];
        f.jfy(i, j, k) += cy * a.jy[0];
        f.jfy(i, j, k + 1) += cy * a.jy[1];
        f.jfy(i + 1, j, k) += cy * a.jy[2];
        f.jfy(i + 1, j, k + 1) += cy * a.jy[3];
        f.jfz(i, j, k) += cz * a.jz[0];
        f.jfz(i + 1, j, k) += cz * a.jz[1];
        f.jfz(i, j + 1, k) += cz * a.jz[2];
        f.jfz(i + 1, j + 1, k) += cz * a.jz[3];
      }
    }
  }
}

}  // namespace minivpic::particles
