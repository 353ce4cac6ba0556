#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace minivpic::telemetry {
namespace {

TEST(CounterTest, Accumulates) {
  Counter c;
  c.add(2.0);
  c.add(0.5);
  EXPECT_DOUBLE_EQ(c.value(), 2.5);
  c.reset();
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(HistogramTest, BinningAndStats) {
  MetricHistogram h(0.0, 10.0, 10);
  h.add(0.5);   // bin 0
  h.add(9.5);   // bin 9
  h.add(-1.0);  // underflow
  h.add(10.0);  // hi is exclusive: overflow
  h.add(42.0);  // overflow
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 2.0);
  EXPECT_DOUBLE_EQ(h.total_count(), 5.0);
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  EXPECT_DOUBLE_EQ(h.max(), 42.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 9.5 - 1.0 + 10.0 + 42.0);
}

TEST(HistogramTest, EmptyStatsAreZero) {
  MetricHistogram h(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.total_count(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(HistogramTest, WeightedAdds) {
  MetricHistogram h(0.0, 4.0, 4);
  h.add(1.5, 3.0);
  EXPECT_DOUBLE_EQ(h.count(1), 3.0);
  EXPECT_DOUBLE_EQ(h.total_count(), 3.0);
  EXPECT_DOUBLE_EQ(h.sum(), 4.5);
}

TEST(HistogramTest, QuantileInterpolates) {
  MetricHistogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  // Uniform fill: the q-quantile is ~100q.
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.0);
  EXPECT_LE(h.quantile(0.0), h.quantile(1.0));
}

TEST(HistogramTest, MergeRequiresSameShape) {
  MetricHistogram a(0.0, 1.0, 4);
  MetricHistogram b(0.0, 1.0, 8);
  MetricHistogram c(0.0, 2.0, 4);
  EXPECT_THROW(a.merge(b), Error);
  EXPECT_THROW(a.merge(c), Error);
}

/// The distributed-reduction property: merging per-shard histograms in any
/// grouping gives the identical result (associativity + commutativity).
TEST(HistogramTest, MergeIsAssociative) {
  Rng rng(7);
  auto make_shard = [&](int n) {
    MetricHistogram h(0.0, 1.0, 16);
    for (int i = 0; i < n; ++i) h.add(rng.uniform(-0.1, 1.1));
    return h;
  };
  const MetricHistogram s0 = make_shard(100);
  const MetricHistogram s1 = make_shard(57);
  const MetricHistogram s2 = make_shard(231);

  // (s0 + s1) + s2
  MetricHistogram left = s0;
  left.merge(s1);
  left.merge(s2);
  // s0 + (s2 + s1)  — different grouping AND order
  MetricHistogram inner = s2;
  inner.merge(s1);
  MetricHistogram right = s0;
  right.merge(inner);

  ASSERT_EQ(left.num_bins(), right.num_bins());
  for (std::size_t i = 0; i < left.num_bins(); ++i)
    EXPECT_DOUBLE_EQ(left.count(i), right.count(i)) << "bin " << i;
  EXPECT_DOUBLE_EQ(left.underflow(), right.underflow());
  EXPECT_DOUBLE_EQ(left.overflow(), right.overflow());
  EXPECT_DOUBLE_EQ(left.total_count(), right.total_count());
  EXPECT_DOUBLE_EQ(left.sum(), right.sum());
  EXPECT_DOUBLE_EQ(left.min(), right.min());
  EXPECT_DOUBLE_EQ(left.max(), right.max());
}

TEST(RegistryTest, ScalarsPreserveRegistrationOrder) {
  MetricsRegistry reg;
  reg.counter("pushed", "count").add(10);
  reg.gauge("rate", "1/s").set(2.5);
  reg.histogram("lap", 0.0, 1.0, 4, "s").add(0.3);
  const auto scalars = reg.scalars();
  ASSERT_EQ(scalars.size(), 6u);  // counter + gauge + 4 histogram scalars
  EXPECT_EQ(scalars[0].name, "pushed");
  EXPECT_DOUBLE_EQ(scalars[0].value, 10.0);
  EXPECT_EQ(scalars[1].name, "rate");
  EXPECT_EQ(scalars[1].unit, "1/s");
  EXPECT_EQ(scalars[2].name, "lap.count");
  EXPECT_EQ(scalars[3].name, "lap.sum");
  EXPECT_EQ(scalars[4].name, "lap.min");
  EXPECT_EQ(scalars[5].name, "lap.max");
}

TEST(RegistryTest, SameNameSameKindReturnsSameInstance) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(1);
  EXPECT_DOUBLE_EQ(b.value(), 1.0);
}

TEST(RegistryTest, KindClashThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), Error);
  EXPECT_THROW(reg.histogram("x", 0, 1, 4), Error);
  EXPECT_EQ(reg.scalars().size(), 1u);  // the clashes registered nothing
}

/// The registry owns its synchronisation: 8 threads register and update
/// shared and per-thread counters, gauges and histograms while a reader
/// flattens and queries it, with no lock outside telemetry. Every total
/// comes out exact (the weights are exactly representable, so summation
/// order cannot matter).
TEST(RegistryTest, ConcurrentUseIsSafeAndExact) {
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  MetricsRegistry reg;
  const SharedHistogram& shared = reg.histogram("shared.lat", 0.0, 1.0, 10);
  std::atomic<bool> writing{true};
  std::thread reader([&] {
    while (writing.load()) {
      for (const ScalarMetric& m : reg.scalars()) EXPECT_GE(m.value, 0.0);
      const double q = shared.quantile(0.5);
      EXPECT_TRUE(q == 0.0 || (q >= 0.2 && q <= 0.3)) << q;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, t] {
      const std::string own = "own" + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        reg.counter("shared.count").add(1.0);
        reg.counter(own + ".count").add(2.0);
        reg.gauge("shared.gauge").set(7.0);
        reg.gauge(own + ".gauge").set(double(i));
        reg.histogram("shared.lat", 0.0, 1.0, 10, "s").add(0.25);
        reg.histogram(own + ".lat", 0.0, 1.0, 10, "s").add(0.75, 2.0);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  writing.store(false);
  reader.join();

  // Three shared and three per-thread instruments; a histogram flattens
  // to four scalars.
  EXPECT_EQ(reg.scalars().size(), std::size_t(6 * (1 + kThreads)));
  EXPECT_EQ(reg.counter("shared.count").value(), double(kThreads * kIters));
  EXPECT_EQ(reg.gauge("shared.gauge").value(), 7.0);
  const MetricHistogram all = shared.snapshot();
  EXPECT_EQ(all.total_count(), double(kThreads * kIters));
  EXPECT_EQ(all.count(2), double(kThreads * kIters));
  EXPECT_EQ(all.sum(), 0.25 * kThreads * kIters);
  for (int t = 0; t < kThreads; ++t) {
    const std::string own = "own" + std::to_string(t);
    EXPECT_EQ(reg.counter(own + ".count").value(), 2.0 * kIters);
    EXPECT_EQ(reg.gauge(own + ".gauge").value(), double(kIters - 1));
    const MetricHistogram h = reg.histogram(own + ".lat", 0, 1, 10).snapshot();
    EXPECT_EQ(h.total_count(), 2.0 * kIters);
    EXPECT_EQ(h.sum(), 1.5 * kIters);
  }
}

}  // namespace
}  // namespace minivpic::telemetry
