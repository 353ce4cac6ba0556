// Per-cell current accumulator (VPIC's accumulator array).
//
// The push deposits each particle's current into the accumulator of its
// cell — a compact, cache-resident write target — and the accumulated
// quadrant fluxes are unloaded onto the Yee J mesh once per step. Each
// entry stores, per component, 4 x the physical charge that crossed the
// corresponding edge quadrant during the step (VPIC's convention):
//   jx[0] edge (i, j,   k  ),  jx[1] edge (i, j+1, k  ),
//   jx[2] edge (i, j,   k+1), jx[3] edge (i, j+1, k+1)
// and cyclically for jy (k, i offsets) and jz (i, j offsets).
//
// For the multi-pipeline particle advance the array holds one block of
// num_voxels entries per pipeline: each pipeline deposits into its private
// block race-free, and reduce() folds blocks 1..B-1 into block 0 in block
// order before unload(), on the step's pipeline pool. Block 0 is also the
// target for serial depositors (migration move completion, the 1-pipeline
// reference path), so data() keeps its historical meaning.
#pragma once

#include <span>

#include "grid/fields.hpp"
#include "util/aligned.hpp"

namespace minivpic {
class Pipeline;  // util/pipeline.hpp; reduce() runs on its pipelines
}  // namespace minivpic

namespace minivpic::particles {

struct CellAccum {
  float jx[4] = {0, 0, 0, 0};
  float jy[4] = {0, 0, 0, 0};
  float jz[4] = {0, 0, 0, 0};
  float pad[4] = {0, 0, 0, 0};  ///< pad to 64 bytes (one cache line)
};
static_assert(sizeof(CellAccum) == 64, "accumulator layout");

class AccumulatorArray {
 public:
  /// `blocks` private deposit blocks (>= 1): one per particle pipeline.
  explicit AccumulatorArray(const grid::LocalGrid& grid, int blocks = 1);

  CellAccum* data() { return data_.data(); }
  const CellAccum* data() const { return data_.data(); }

  /// Entries of one pipeline's private block (b in [0, blocks())).
  CellAccum* block(int b) { return data_.data() + std::size_t(b) * voxels_; }
  const CellAccum* block(int b) const {
    return data_.data() + std::size_t(b) * voxels_;
  }

  int blocks() const { return blocks_; }
  std::size_t size() const { return voxels_; }  ///< voxels per block

  void clear() { data_.zero(); }

  /// Folds pipeline blocks 1..blocks()-1 into block 0, in ascending block
  /// order. The fold order is fixed and the particle partition is
  /// contiguous, so the result is bit-wise reproducible run to run for a
  /// given block count, and bit-identical to the serial deposit whenever
  /// each cell receives at most one deposit per block. Cells hit several
  /// times from the same later block see a different float rounding *order*
  /// than the serial running sum, so dense decks agree with serial to
  /// rounding (ULPs), not bit-for-bit. A flat vectorizable stream: 16
  /// floats per voxel per block. With a pool, each pipeline folds one
  /// contiguous voxel range; every float still gets the same additions in
  /// the same order, so the pooled fold is bit-identical to the serial one.
  void reduce(Pipeline* pipeline = nullptr);

  /// Adds the accumulated quadrant charges of block 0 onto the mesh
  /// free-current arrays (jfx += ...). Deposits reach voxel index n+1 along
  /// each axis; run the halo source reduction afterwards. Call reduce()
  /// first when more than one block was deposited into. Does not clear.
  void unload(grid::FieldArray& f) const;

 private:
  std::size_t voxels_;
  int blocks_;
  AlignedBuffer<CellAccum> data_;  ///< blocks_ consecutive voxel blocks
};

}  // namespace minivpic::particles
