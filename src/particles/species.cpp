#include "particles/species.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/pipeline.hpp"

namespace minivpic::particles {

Species::Species(std::string name, double q, double m, std::size_t capacity)
    : name_(std::move(name)), q_(q), m_(m), storage_(std::max<std::size_t>(capacity, 1)) {
  MV_REQUIRE(m > 0, "species mass must be positive");
  MV_REQUIRE(!name_.empty(), "species needs a name");
}

void Species::reserve(std::size_t n) {
  if (n <= storage_.size()) return;
  AlignedBuffer<Particle> grown(std::max(n, storage_.size() * 2));
  std::copy_n(storage_.data(), np_, grown.data());
  storage_ = std::move(grown);
}

void Species::add(const Particle& p) {
  if (np_ == storage_.size()) reserve(np_ + 1);
  storage_[np_++] = p;
}

void Species::assign(std::span<const Particle> src) {
  reserve(src.size());
  std::copy_n(src.data(), src.size(), storage_.data());
  np_ = src.size();
}

void Species::remove(std::size_t idx) {
  MV_ASSERT(idx < np_);
  storage_[idx] = storage_[--np_];
}

double Species::kinetic_energy() const {
  double e = 0;
  for (std::size_t n = 0; n < np_; ++n) {
    const Particle& p = storage_[n];
    e += double(p.w) * (gamma_of_u(p.ux, p.uy, p.uz) - 1.0);
  }
  return e * m_;
}

std::array<double, 3> Species::momentum() const {
  std::array<double, 3> mom{0, 0, 0};
  for (std::size_t n = 0; n < np_; ++n) {
    const Particle& p = storage_[n];
    mom[0] += double(p.w) * p.ux;
    mom[1] += double(p.w) * p.uy;
    mom[2] += double(p.w) * p.uz;
  }
  mom[0] *= m_;
  mom[1] *= m_;
  mom[2] *= m_;
  return mom;
}

double Species::charge() const {
  double c = 0;
  for (std::size_t n = 0; n < np_; ++n) c += storage_[n].w;
  return c * q_;
}

void Species::sort(const grid::LocalGrid& grid, Pipeline* pipeline) {
  if (np_ < 2) return;
  const std::size_t nv = std::size_t(grid.num_voxels());
  const int npipe = pipeline != nullptr ? pipeline->size() : 1;
  const auto each_pipeline = [pipeline](const std::function<void(int)>& job) {
    if (pipeline != nullptr) {
      pipeline->dispatch(job);
    } else {
      job(0);
    }
  };

  // Step 1 — histogram. Each pipeline counts its contiguous slice of the
  // list into a private row. The voxel range check runs here, before any
  // particle moves, so a corrupt index leaves the list untouched.
  sort_cursors_.resize(std::size_t(npipe) * nv);
  each_pipeline([&](int p) {
    std::size_t* row = sort_cursors_.data() + std::size_t(p) * nv;
    std::fill_n(row, nv, std::size_t(0));
    const auto r = Pipeline::partition(np_, npipe, p);
    for (std::size_t n = r.begin; n < r.end; ++n) {
      const std::int32_t v = storage_[n].i;
      MV_ASSERT_MSG(v >= 0 && std::size_t(v) < nv,
                    "particle " << n << " has invalid voxel " << v);
      ++row[std::size_t(v)];
    }
  });

  // Step 2 — one exclusive prefix sum in voxel-major order turns the counts
  // into per-(voxel, pipeline) write cursors: voxel v's bucket takes
  // pipeline 0's particles of v, then pipeline 1's, and so on. The slices
  // are contiguous and in pipeline order, so this is arrival order.
  std::size_t next = 0;
  for (std::size_t v = 0; v < nv; ++v) {
    for (int p = 0; p < npipe; ++p) {
      std::size_t& cursor = sort_cursors_[std::size_t(p) * nv + v];
      const std::size_t count = cursor;
      cursor = next;
      next += count;
    }
  }

  // Step 3 — scatter. Each pipeline copies its slice through its own
  // cursors into the scratch; the cursor ranges are disjoint, so no two
  // pipelines write the same slot. The scratch matches capacity() so the
  // swap below never shrinks the list's room for immigrants.
  if (sort_scratch_.size() != storage_.size())
    sort_scratch_ = AlignedBuffer<Particle>(storage_.size());
  each_pipeline([&](int p) {
    std::size_t* cursor = sort_cursors_.data() + std::size_t(p) * nv;
    Particle* out = sort_scratch_.data();
    const auto r = Pipeline::partition(np_, npipe, p);
    for (std::size_t n = r.begin; n < r.end; ++n) {
      const Particle& pt = storage_[n];
      out[cursor[std::size_t(pt.i)]++] = pt;
    }
  });

  // Step 4 — the scratch becomes the list and the old list the next
  // scratch. Nothing is copied back.
  storage_.swap(sort_scratch_);
}

double Species::sortedness() const {
  if (np_ < 2) return 1.0;
  std::size_t ordered = 0;
  for (std::size_t n = 1; n < np_; ++n)
    ordered += storage_[n - 1].i <= storage_[n].i ? 1 : 0;
  return double(ordered) / double(np_ - 1);
}

}  // namespace minivpic::particles
