#include "particles/accumulator.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/pipeline.hpp"

namespace minivpic::particles {

namespace {

constexpr std::size_t kFloats = sizeof(CellAccum) / sizeof(float);

/// Calls run(voxel, count) for each x-row run of the interior cells
/// [begin, end), numbered x fastest: cell c is voxel
/// (1 + c % nx, 1 + (c / nx) % ny, 1 + c / (nx * ny)).
template <class Run>
void for_each_row_run(std::size_t begin, std::size_t end, std::size_t nx,
                      std::size_t ny, Run&& run) {
  const std::size_t sy = nx + 2, sz = (nx + 2) * (ny + 2);
  for (std::size_t c = begin; c < end;) {
    const std::size_t row = c / nx, i = c % nx;
    const std::size_t count = std::min(nx - i, end - c);
    run(1 + i + sy * (1 + row % ny) + sz * (1 + row / ny), count);
    c += count;
  }
}

}  // namespace

AccumulatorArray::AccumulatorArray(const grid::LocalGrid& grid, int blocks)
    : voxels_(std::size_t(grid.num_voxels())),
      nx_(std::size_t(grid.nx())),
      ny_(std::size_t(grid.ny())),
      cells_(std::size_t(grid.num_cells())),
      blocks_(blocks),
      data_(voxels_ * std::size_t(blocks)) {
  MV_REQUIRE(blocks >= 1, "accumulator needs >= 1 block, got " << blocks);
}

void AccumulatorArray::clear() {
  if (folded_) {
    for_each_row_run(0, cells_, nx_, ny_, [&](std::size_t v, std::size_t n) {
      std::fill_n(reinterpret_cast<float*>(block(0) + v), n * kFloats, 0.0f);
    });
  } else {
    data_.zero();
  }
  folded_ = false;
}

void AccumulatorArray::reduce(Pipeline* pipeline) {
  if (blocks_ > 1) {
    // Ascending block order keeps the per-cell addition sequence identical
    // to the serial deposit order. Each pipeline folds whole cells (one
    // cache line each), so no line is shared across slices.
    const int npipe = pipeline != nullptr ? pipeline->size() : 1;
    const auto fold = [&](int p) {
      const auto r = Pipeline::partition(cells_, npipe, p);
      for_each_row_run(r.begin, r.end, nx_, ny_,
                       [&](std::size_t v, std::size_t n) {
        float* dst = reinterpret_cast<float*>(block(0) + v);
        for (int b = 1; b < blocks_; ++b) {
          float* src = reinterpret_cast<float*>(block(b) + v);
          for (std::size_t i = 0; i < n * kFloats; ++i) {
            dst[i] += src[i];
            src[i] = 0;
          }
        }
      });
    };
    if (pipeline != nullptr) {
      pipeline->dispatch(fold);
    } else {
      fold(0);
    }
  }
  folded_ = true;
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
