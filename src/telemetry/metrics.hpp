// Metrics substrate for the telemetry layer: named counters, gauges, and
// fixed-bucket mergeable histograms held in a registry that preserves
// registration order. The registry is the hand-off point between producers
// (StepSampler, benches) and sinks (NDJSON stream, rank reduction, summary
// tables): every scalar metric can be flattened — in a deterministic order,
// identical on every rank — into a {name, unit, value} list that
// RankReducer can allreduce element-wise.
//
// Histograms use fixed bins on [lo, hi) plus underflow/overflow, and merge
// associatively and commutatively (bin-wise sums), so per-rank or per-shard
// histograms can be folded in any grouping without changing the result —
// the property test_metrics.cpp pins down.
//
// The registry owns its synchronisation (registration and lookup lock it,
// counters and gauges are atomic, each histogram locks itself), so threads
// share one registry without a lock of their own.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace minivpic::telemetry {

/// Monotonically accumulating value (totals: particles pushed, bytes out).
class Counter {
 public:
  void add(double d) { value_.fetch_add(d); }
  double value() const { return value_.load(); }
  void reset() { value_.store(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time value (rates, ratios, occupancy).
class Gauge {
 public:
  void set(double v) { value_.store(v); }
  double value() const { return value_.load(); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram on [lo, hi): `bins` equal-width buckets plus
/// underflow/overflow, tracking count, sum, min, max. merge() is bin-wise
/// addition — associative and commutative, so distributed merges are
/// order-independent.
class MetricHistogram {
 public:
  MetricHistogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0);

  /// Folds `other` (same lo/hi/bins required) into this histogram.
  void merge(const MetricHistogram& other);

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t num_bins() const { return counts_.size(); }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  double count(std::size_t i) const { return counts_[i]; }
  double underflow() const { return underflow_; }
  double overflow() const { return overflow_; }

  double total_count() const { return total_count_; }
  double sum() const { return sum_; }
  double mean() const { return total_count_ > 0 ? sum_ / total_count_ : 0.0; }
  double min() const { return min_; }  ///< 0 when empty
  double max() const { return max_; }  ///< 0 when empty

  /// Value below which fraction `q` in [0, 1] of the weight falls, linearly
  /// interpolated within the containing bin (under/overflow clamp to edges).
  double quantile(double q) const;

 private:
  double lo_, hi_, width_;
  std::vector<double> counts_;
  double underflow_ = 0.0;
  double overflow_ = 0.0;
  double total_count_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  bool empty_ = true;
};

/// A registry-owned MetricHistogram behind its own mutex: safe to add to
/// and read from any thread.
class SharedHistogram {
 public:
  SharedHistogram(double lo, double hi, std::size_t bins) : h_(lo, hi, bins) {}

  void add(double x, double weight = 1.0);
  double quantile(double q) const;
  /// A consistent copy of the current state.
  MetricHistogram snapshot() const;

 private:
  mutable std::mutex mu_;
  MetricHistogram h_;
};

/// One flattened scalar metric (the unit of NDJSON emission and rank
/// reduction). Units are plain strings from the catalogue in
/// docs/OBSERVABILITY.md ("s", "1/s", "Gflop/s", "GB/s", "count", "ratio").
struct ScalarMetric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Insertion-ordered registry of named metrics, safe to use from any
/// thread; instances live as long as the registry. Re-registering a name
/// returns the existing instance (a histogram keeps its first shape), but
/// a kind clash throws.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& unit = "");
  Gauge& gauge(const std::string& name, const std::string& unit = "");
  SharedHistogram& histogram(const std::string& name, double lo, double hi,
                             std::size_t bins, const std::string& unit = "");

  /// Flattens every metric to scalars in registration order. A histogram
  /// contributes `<name>.count`, `<name>.sum`, `<name>.min`, `<name>.max`.
  std::vector<ScalarMetric> scalars() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string unit;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<SharedHistogram> histogram;
  };
  /// The entry named `name` (null if absent); throws when it has another
  /// kind. Caller holds mu_.
  Entry* find(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace minivpic::telemetry
