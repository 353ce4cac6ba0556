#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace minivpic::telemetry {

MetricHistogram::MetricHistogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / double(bins)), counts_(bins, 0.0) {
  MV_REQUIRE(bins >= 1, "histogram needs at least one bin");
  MV_REQUIRE(hi > lo, "histogram range [" << lo << ", " << hi
                                          << ") is empty");
}

void MetricHistogram::add(double x, double weight) {
  MV_REQUIRE(std::isfinite(x), "histogram sample is not finite");
  if (x < lo_) {
    underflow_ += weight;
  } else if (x >= hi_) {
    overflow_ += weight;
  } else {
    auto i = std::size_t((x - lo_) / width_);
    if (i >= counts_.size()) i = counts_.size() - 1;  // x just below hi
    counts_[i] += weight;
  }
  total_count_ += weight;
  sum_ += weight * x;
  if (empty_) {
    min_ = max_ = x;
    empty_ = false;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

void MetricHistogram::merge(const MetricHistogram& other) {
  MV_REQUIRE(other.lo_ == lo_ && other.hi_ == hi_ &&
                 other.counts_.size() == counts_.size(),
             "merging histograms with different shapes: ["
                 << lo_ << ", " << hi_ << ")x" << counts_.size() << " vs ["
                 << other.lo_ << ", " << other.hi_ << ")x"
                 << other.counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_count_ += other.total_count_;
  sum_ += other.sum_;
  if (!other.empty_) {
    if (empty_) {
      min_ = other.min_;
      max_ = other.max_;
      empty_ = false;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
}

double MetricHistogram::bin_lo(std::size_t i) const {
  return lo_ + double(i) * width_;
}

double MetricHistogram::bin_hi(std::size_t i) const {
  return i + 1 == counts_.size() ? hi_ : lo_ + double(i + 1) * width_;
}

double MetricHistogram::quantile(double q) const {
  MV_REQUIRE(q >= 0.0 && q <= 1.0, "quantile " << q << " outside [0, 1]");
  if (total_count_ <= 0) return lo_;
  const double target = q * total_count_;
  double seen = underflow_;
  if (target <= seen) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (seen + counts_[i] >= target && counts_[i] > 0) {
      const double frac = (target - seen) / counts_[i];
      return bin_lo(i) + frac * (bin_hi(i) - bin_lo(i));
    }
    seen += counts_[i];
  }
  return hi_;
}

void SharedHistogram::add(double x, double weight) {
  std::lock_guard<std::mutex> lock(mu_);
  h_.add(x, weight);
}

double SharedHistogram::quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  return h_.quantile(q);
}

MetricHistogram SharedHistogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return h_;
}

MetricsRegistry::Entry* MetricsRegistry::find(const std::string& name,
                                               Kind kind) {
  for (Entry& e : entries_) {
    if (e.name != name) continue;
    MV_REQUIRE(e.kind == kind,
               "metric '" << name << "' already registered with another kind");
    return &e;
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = find(name, Kind::kCounter)) return *e->counter;
  entries_.push_back({name, unit, Kind::kCounter, std::make_unique<Counter>(),
                      nullptr, nullptr});
  return *entries_.back().counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = find(name, Kind::kGauge)) return *e->gauge;
  entries_.push_back({name, unit, Kind::kGauge, nullptr,
                      std::make_unique<Gauge>(), nullptr});
  return *entries_.back().gauge;
}

SharedHistogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                            double hi, std::size_t bins,
                                            const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = find(name, Kind::kHistogram)) return *e->histogram;
  entries_.push_back({name, unit, Kind::kHistogram, nullptr, nullptr,
                      std::make_unique<SharedHistogram>(lo, hi, bins)});
  return *entries_.back().histogram;
}

std::vector<ScalarMetric> MetricsRegistry::scalars() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ScalarMetric> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        out.push_back({e.name, e.unit, e.counter->value()});
        break;
      case Kind::kGauge:
        out.push_back({e.name, e.unit, e.gauge->value()});
        break;
      case Kind::kHistogram: {
        const MetricHistogram h = e.histogram->snapshot();
        out.push_back({e.name + ".count", "count", h.total_count()});
        out.push_back({e.name + ".sum", e.unit, h.sum()});
        out.push_back({e.name + ".min", e.unit, h.min()});
        out.push_back({e.name + ".max", e.unit, h.max()});
        break;
      }
    }
  }
  return out;
}

}  // namespace minivpic::telemetry
