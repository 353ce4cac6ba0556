// A plasma species: charge, mass, and its particle list.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "grid/geometry.hpp"
#include "particles/particle.hpp"
#include "util/aligned.hpp"

namespace minivpic {
class Pipeline;  // util/pipeline.hpp; sort() runs on its pipelines
}  // namespace minivpic

namespace minivpic::particles {

class Species {
 public:
  /// `q` and `m` are per *physical* particle in code units (electron:
  /// q = -1, m = 1); a macroparticle carries q*w charge and m*w mass.
  Species(std::string name, double q, double m, std::size_t capacity = 1024);

  const std::string& name() const { return name_; }
  double q() const { return q_; }
  double m() const { return m_; }

  std::size_t size() const { return np_; }
  std::size_t capacity() const { return storage_.size(); }
  bool empty() const { return np_ == 0; }

  Particle* data() { return storage_.data(); }
  const Particle* data() const { return storage_.data(); }
  std::span<Particle> particles() { return {storage_.data(), np_}; }
  std::span<const Particle> particles() const { return {storage_.data(), np_}; }

  Particle& operator[](std::size_t i) { return storage_[i]; }
  const Particle& operator[](std::size_t i) const { return storage_[i]; }

  /// Appends a particle, growing storage if needed.
  void add(const Particle& p);

  /// Replaces the whole particle list with `src` in one copy. This is the
  /// restart path: a per-particle add() loop is O(n) calls on
  /// trillion-particle-scale restores, a bulk assign is one memcpy.
  void assign(std::span<const Particle> src);

  /// Removes particle `idx` by swapping the last one into its slot.
  void remove(std::size_t idx);

  void clear() { np_ = 0; }

  /// Ensures room for at least n particles.
  void reserve(std::size_t n);

  /// Sets the particle count to n, growing storage as reserve(n) does.
  /// Slots past the old count keep whatever the storage holds: a bulk
  /// loader writes them (into reserved capacity) before it calls this.
  void resize(std::size_t n) {
    reserve(n);
    np_ = n;
  }

  // -- diagnostics ---------------------------------------------------------
  /// Total kinetic energy: sum of w m (gamma - 1) (c = 1).
  double kinetic_energy() const;

  /// Total momentum: sum of w m u.
  std::array<double, 3> momentum() const;

  /// Total charge: sum of q w.
  double charge() const;

  /// Bytes of particle storage in use (for data-motion accounting).
  std::int64_t bytes() const { return std::int64_t(np_) * sizeof(Particle); }

  /// Stable O(N) counting sort by voxel index — the locality optimization
  /// the paper's inner-loop rate depends on (docs/SORTING.md). With a pool,
  /// each pipeline histograms and then scatters its own contiguous slice
  /// into a particle-sized scratch buffer through per-(voxel, pipeline)
  /// write cursors; the two buffers are then swapped, nothing is copied
  /// back. The scratch is kept across calls at capacity(), so a periodic
  /// sort allocates only when the list has grown (32 B per particle of
  /// resident memory, the trade VPIC's sort_p makes).
  ///
  /// Stable: particles sharing a voxel keep their arrival order. A stable
  /// sort has exactly one output, so the result is identical for every
  /// pipeline count. A voxel index outside the grid throws Error and
  /// leaves the list untouched.
  void sort(const grid::LocalGrid& grid, Pipeline* pipeline = nullptr);

  /// Fraction of adjacent particle pairs in non-decreasing voxel order:
  /// 1.0 immediately after sort(), ~0.5 for a fully shuffled list. This is
  /// the cache-locality proxy the benches report alongside push rates.
  double sortedness() const;

 private:
  std::string name_;
  double q_, m_;
  std::size_t np_ = 0;
  AlignedBuffer<Particle> storage_;
  // sort() workspace, kept across calls so a periodic sort allocates only
  // on the first call (and when the list, pipeline count or grid grows).
  AlignedBuffer<Particle> sort_scratch_;  ///< scatter target, capacity()
  std::vector<std::size_t> sort_cursors_;  ///< per-pipeline rows of voxels
};

}  // namespace minivpic::particles
