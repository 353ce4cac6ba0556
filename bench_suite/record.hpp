// The benchmark suite's one record schema and the helpers every record
// needs: sample summaries that carry their sample count, the host
// fingerprint, and the JSON form bench_suite appends to a ledger file and
// bench_compare reads back.
//
// Ledger record (one NDJSON line per workload run):
//   {"schema":1,"suite":"bench_suite","workload":"lpi_1rank","seed":3,
//    "seconds":10,"trace":false,"host":{...},"correct":true,
//    "attempted":2800,"failed":0,
//    "metrics":{"op_ms_p50":{"value":3.61,"unit":"ms","n":2800},...}}
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "particles/kernel.hpp"
#include "telemetry/json.hpp"
#include "util/error.hpp"
#include "util/pipeline.hpp"
#include "util/timer.hpp"

#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif

namespace bench {

inline constexpr int kRecordSchema = 1;

/// Linear-interpolated percentile, q in [0, 1], of `sorted` (ascending,
/// non-empty) — numpy's default estimator.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  MV_REQUIRE(!sorted.empty(), "percentile of an empty sample");
  const double pos = q * double(sorted.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - double(lo)) * (sorted[hi] - sorted[lo]);
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 0.5);
}

/// The within-run summary of one timing, with the number of samples it was
/// taken from: the median of all samples, and as the tail the median over
/// consecutive blocks of kTailBlock samples (each block's 99th percentile
/// has 10 samples beyond it) of each block's 99th percentile. A burst of
/// host stalls then moves the tail of the blocks it falls in, not the
/// run's. With fewer than two blocks the tail is the 99th percentile of all
/// samples. Samples must be in the order they were taken.
struct Percentiles {
  double p50 = 0;
  double p99 = 0;
  std::int64_t n = 0;
};

inline constexpr std::size_t kTailBlock = 1000;

inline Percentiles percentiles(const std::vector<double>& v) {
  std::vector<double> tails;
  for (std::size_t b = 0; b + kTailBlock <= v.size(); b += kTailBlock) {
    std::vector<double> block(v.begin() + std::ptrdiff_t(b),
                              v.begin() + std::ptrdiff_t(b + kTailBlock));
    std::sort(block.begin(), block.end());
    tails.push_back(percentile_sorted(block, 0.99));
  }
  std::vector<double> all = v;
  std::sort(all.begin(), all.end());
  return {percentile_sorted(all, 0.50),
          tails.size() >= 2 ? median(tails) : percentile_sorted(all, 0.99),
          std::int64_t(v.size())};
}

/// Across-run quartiles, computed exactly as Python's
/// statistics.quantiles(values, n=4) does (its default "exclusive" method),
/// so the spreads bench_compare reports match any external check made that
/// way. Needs at least two values.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  std::int64_t n = 0;
  double iqr() const { return q3 - q1; }
};

inline Quartiles quartiles(std::vector<double> v) {
  MV_REQUIRE(v.size() >= 2, "quartiles need at least two values");
  std::sort(v.begin(), v.end());
  const std::int64_t n = std::int64_t(v.size());
  const std::int64_t m = n + 1;
  double cut[3];
  for (int i = 1; i <= 3; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, n - 1);
    const std::int64_t delta = i * m - j * 4;
    cut[i - 1] = (v[std::size_t(j - 1)] * double(4 - delta) +
                  v[std::size_t(j)] * double(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2], n};
}

/// Wall speed-up of `threads` threads each spinning a fixed amount of
/// integer work against one thread doing one share: `threads` on a host
/// whose threads really run in parallel, ~1 where they share a core.
inline double spin_speedup(int threads) {
  std::atomic<std::uint64_t> sink{0};
  const auto spin = [&sink] {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 100'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  minivpic::Timer one;
  spin();
  const double t1 = one.seconds();
  minivpic::Timer many;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(spin);
  for (std::thread& t : pool) t.join();
  return double(threads) * t1 / many.seconds();
}

/// What a record needs to be compared with another: where it ran and
/// what it ran.
struct Host {
  int nproc = 1;
  std::string isa;
  std::string kernel;  ///< what particles::Kernel::kAuto resolves to here
  std::string compiler;
  std::string build_type;
  std::string git_sha;
  double spin_speedup_4t = 0;

  minivpic::telemetry::Json to_json() const {
    using minivpic::telemetry::Json;
    Json j = Json::object();
    j.set("nproc", Json::number(std::int64_t{nproc}));
    j.set("isa", Json::string(isa));
    j.set("kernel", Json::string(kernel));
    j.set("compiler", Json::string(compiler));
    j.set("build_type", Json::string(build_type));
    j.set("git_sha", Json::string(git_sha));
    j.set("spin_speedup_4t", Json::number(spin_speedup_4t));
    return j;
  }
};

inline std::string host_isa() {
  std::string isa;
#if defined(__x86_64__) || defined(__i386__)
  const auto add = [&isa](bool has, const char* name) {
    if (has) isa += (isa.empty() ? "" : " ") + std::string(name);
  };
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
#elif defined(__aarch64__)
  isa = "neon";
#endif
  return isa.empty() ? "generic" : isa;
}

/// The fingerprint, spin speed-up included. Take it after the workload has
/// run: a fresh process's threads may not have spread across cores yet.
inline Host fingerprint(const std::string& git_sha) {
  namespace particles = minivpic::particles;
  Host h;
  h.nproc = minivpic::Pipeline::hardware_pipelines();
  h.isa = host_isa();
  h.kernel = particles::kernel_name(
      particles::resolve_kernel(particles::Kernel::kAuto));
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = BENCH_BUILD_TYPE;
  h.git_sha = git_sha.empty() ? "unknown" : git_sha;
  std::vector<double> runs;
  for (int i = 0; i < 3; ++i) runs.push_back(spin_speedup(4));
  h.spin_speedup_4t = median(runs);
  return h;
}

/// One named measurement with its unit and the number of samples behind it.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::int64_t n = 1;
};

/// {name: {"value", "unit"[, "n"]}}, names prefixed with `prefix`.
inline minivpic::telemetry::Json metrics_json(
    const std::vector<Metric>& metrics, bool with_counts,
    const std::string& prefix = "") {
  using minivpic::telemetry::Json;
  Json m = Json::object();
  for (const Metric& x : metrics) {
    Json e = Json::object();
    e.set("value", Json::number(x.value));
    e.set("unit", Json::string(x.unit));
    if (with_counts) e.set("n", Json::number(x.n));
    m.set(prefix + x.name, std::move(e));
  }
  return m;
}

/// One workload run in the ledger schema.
struct Record {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  Host host;
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  minivpic::telemetry::Json to_json() const {
    using minivpic::telemetry::Json;
    Json j = Json::object();
    j.set("schema", Json::number(std::int64_t{kRecordSchema}));
    j.set("suite", Json::string("bench_suite"));
    j.set("workload", Json::string(workload));
    j.set("seed", Json::number(std::int64_t(seed)));
    j.set("seconds", Json::number(seconds));
    j.set("trace", Json::boolean(trace));
    j.set("host", host.to_json());
    j.set("correct", Json::boolean(correct));
    j.set("attempted", Json::number(attempted));
    j.set("failed", Json::number(failed));
    j.set("metrics", metrics_json(metrics, true));
    return j;
  }
};

}  // namespace bench
