// bench_suite: the repository's performance ledger. One binary runs one of
// four named workloads (or all of them), checks that the program's outputs
// are correct, and prints every metric by name with its unit:
//
//   bench_suite --workload lpi_1rank|thermal_4rank|campaign_batch|service_mix|all
//               --seed N --seconds S --trace 0|1
//               [--json LEDGER] [--git-sha SHA] [--catalogue BENCHMARK.json]
//               [--scratch DIR] [--trace-dir DIR] [--smoke]
//
// --trace 0 reports the end-to-end metrics the catalogue (BENCHMARK.json)
// lists; --trace 1 reports its per-layer metrics, from a run that also
// writes one Chrome trace per workload and prints each layer's self time.
// The last line of standard output is one JSON object {correct, attempted,
// failed, metrics}. Exit codes: 0 all checks passed, 1 a correctness check
// failed, 2 the run could not complete (no result line is printed).
// --json appends the run's record (record.hpp) to a ledger file that
// bench_compare reads; --smoke shrinks every workload for the ctest smoke
// run.
//
// The workloads share three rules (README.md gives the reasons):
//   * warm-up is a fixed count of steps, jobs or requests, run on the very
//     objects that are then timed;
//   * set-up is repeated and reported as a median (setup_s);
//   * the timed phase runs whole windows until --seconds have passed.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/results.hpp"
#include "campaign/spec.hpp"
#include "particles/kernel.hpp"
#include "perf/costs.hpp"
#include "record.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "sim/checkpoint.hpp"
#include "sim/deck.hpp"
#include "sim/simulation.hpp"
#include "telemetry/json.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/trace.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "vmpi/cart.hpp"
#include "vmpi/runtime.hpp"

using namespace minivpic;
using telemetry::Json;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kSetups = 11;         // set-ups per run; setup_s is their median
constexpr int kWindowSteps = 100;   // steps per window: 5 sorts, 2 cleans
constexpr int kPipelines = 4;       // lpi_1rank's intra-rank pipelines
constexpr int kRanks = 4;           // thermal_4rank's vmpi ranks
constexpr int kJobSteps = 20;       // campaign_batch steps per job
constexpr int kWorkers = 4;         // campaign_batch executor workers
constexpr int kServiceWorkers = 2;  // service_mix executor workers
constexpr int kGenerators = 4;      // service_mix load threads/connections
constexpr int kWarmIds = 64;        // service_mix ids answered from the ledger
constexpr int kFreshEvery = 10;     // one never-seen id per ten requests
constexpr int kTraceBlock = 100;    // service requests per traced/untraced block
// Latency sample of a failed job or refused request: it misses any limit.
constexpr double kFailedMs = 1e9;
// Offered load of service_mix, requests/s over all generators: about half
// the rate at which fresh-request p99 latency starts to climb on the
// reference host (README.md, "Choosing the service rate").
constexpr double kServiceRate = 2000;
// How far the Gauss-law residual (rms div E - rho) may grow over a run.
// Charge-conserving deposition keeps it fixed up to float rounding on the
// periodic thermal deck. The LPI deck's absorbing walls delete particles
// whose charge div E still holds, and its Marder cleaning settles the
// residual near 0.01-0.02 (README.md, "Findings"), so there the check only
// catches a blow-up.
constexpr double kGaussGrowthPeriodic = 1e-5;
constexpr double kGaussGrowthLpi = 0.1;

const char* const kWorkloads[] = {"lpi_1rank", "thermal_4rank",
                                  "campaign_batch", "service_mix"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string scratch;
  std::string trace_dir;
};

/// Everything one workload run produced.
struct Outcome {
  std::vector<std::string> failures;  ///< correctness checks that failed
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<bench::Metric> e2e;    ///< reported by untraced runs
  std::vector<bench::Metric> layer;  ///< reported by traced runs

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void e2e_metric(std::string name, double v, std::string unit,
                  std::int64_t n = 1) {
    e2e.push_back({std::move(name), std::move(unit), v, n});
  }
  void layer_metric(std::string name, double v, std::string unit,
                    std::int64_t n = 1) {
    layer.push_back({std::move(name), std::move(unit), v, n});
  }
  void latency(const char* prefix, const std::vector<double>& ms,
               bool end_to_end) {
    const bench::Percentiles p = bench::percentiles(ms);
    const std::string base = prefix;
    if (end_to_end) {
      e2e_metric(base + "_p50", p.p50, "ms", p.n);
      e2e_metric(base + "_p99", p.p99, "ms", p.n);
    } else {
      layer_metric(base + "_p50", p.p50, "ms", p.n);
      layer_metric(base + "_p99", p.p99, "ms", p.n);
    }
  }
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string fixed9(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9f", v);
  return buf;
}

double overhead_pct(const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  if (traced.empty() || untraced.empty()) return 0;
  return 100.0 * (bench::median(traced) / bench::median(untraced) - 1.0);
}

// -- tracing -----------------------------------------------------------------

/// The suite's own spans with explicit timestamps, written as Chrome-trace
/// complete events. Job stages and requests need them: a job's set-up or a
/// request's due time begins before any call the suite could wrap.
/// Simulation workloads record through the program's TraceWriter instead,
/// so their bench spans and the in-program phase spans share one clock.
class SpanLog {
 public:
  void add(const char* name, int tid, Clock::time_point b,
           Clock::time_point e) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, tid, us(b), std::max(0.0, us(e) - us(b))});
  }

  void write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path, std::ios::trunc);
    MV_REQUIRE(os.good(), "cannot open trace file " << path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"ph\":\"X\",\"name\":\"" << s.name << "\",\"cat\":\"bench\""
         << std::fixed << std::setprecision(3) << ",\"ts\":" << s.ts
         << ",\"dur\":" << s.dur << ",\"pid\":0,\"tid\":" << s.tid << '}'
         << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    MV_REQUIRE(os.good(), "failed writing trace file " << path);
  }

 private:
  struct Span {
    const char* name;
    int tid;
    double ts, dur;  // microseconds
  };
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The module each span name belongs to — the rows of the self-time table.
const char* layer_of(const std::string& span) {
  static const std::map<std::string, const char*> kLayer = {
      {"step", "sim"},
      {"interpolate", "particles"},
      {"push", "particles"},
      {"push.skin", "particles"},
      {"push.interior", "particles"},
      {"sort", "particles"},
      {"collide", "particles"},
      {"reduce", "util.pipeline"},
      {"sources", "field"},
      {"field", "field"},
      {"clean", "field"},
      {"migrate", "vmpi"},
      {"migrate.async", "vmpi"},
      {"job.setup", "campaign"},
      {"job.simulate", "campaign"},
      {"job.ledger", "campaign"},
      {"request", "loadgen"},
      {"request.wait", "loadgen"},
      {"request.rpc", "service"},
  };
  if (const auto it = kLayer.find(span); it != kLayer.end()) return it->second;
  return span.rfind("bench.", 0) == 0 ? "bench" : "other";
}

/// Reads a Chrome trace back and prints each span's self time — its
/// duration minus what its direct children on the same thread cover —
/// grouped by layer.
void print_self_times(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const Json doc = Json::parse(text.str());
  const Json& events = doc.at("traceEvents");

  struct Interval {
    double b, e;
    std::string name;
    double children = 0;
  };
  std::map<std::pair<int, int>, std::vector<Interval>> threads;
  std::map<std::pair<int, int>, std::vector<std::pair<std::string, double>>>
      open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& ev = events.at(i);
    const std::string ph = ev.at("ph").as_string();
    const std::pair<int, int> key{int(ev.at("pid").as_number()),
                                  int(ev.at("tid").as_number())};
    const double ts = ev.at("ts").as_number();
    if (ph == "B") {
      open[key].emplace_back(ev.at("name").as_string(), ts);
    } else if (ph == "E" && !open[key].empty()) {
      threads[key].push_back({open[key].back().second, ts,
                              open[key].back().first});
      open[key].pop_back();
    } else if (ph == "X") {
      threads[key].push_back(
          {ts, ts + ev.at("dur").as_number(), ev.at("name").as_string()});
    }
  }

  std::map<std::pair<std::string, std::string>, double> self;  // (layer, span)
  double total = 0;
  for (auto& [key, spans] : threads) {
    std::sort(spans.begin(), spans.end(), [](const Interval& a,
                                             const Interval& b) {
      return a.b != b.b ? a.b < b.b : a.e > b.e;
    });
    // A span is a child of the innermost open span that contains it (to the
    // file's rounding of ts and dur); a late open-loop request overlaps its
    // predecessor without nesting.
    std::vector<Interval*> stack;
    for (Interval& s : spans) {
      while (!stack.empty() && stack.back()->e < s.e - 0.01) stack.pop_back();
      if (!stack.empty()) stack.back()->children += s.e - s.b;
      stack.push_back(&s);
    }
    for (const Interval& s : spans) {
      const double own = std::max(0.0, (s.e - s.b) - s.children) * 1e-6;
      self[{layer_of(s.name), s.name}] += own;
      total += own;
    }
  }
  std::cout << "self time by layer (" << path << "):\n";
  for (const auto& [key, seconds] : self) {
    std::cout << "  " << std::left << std::setw(14) << key.first
              << std::setw(16) << key.second << std::right << std::fixed
              << std::setprecision(4) << std::setw(10) << seconds << " s "
              << std::setprecision(1) << std::setw(6)
              << (total > 0 ? 100.0 * seconds / total : 0.0) << " %\n";
  }
  std::cout.unsetf(std::ios::floatfield);
  std::cout << std::setprecision(6);
}

std::string trace_path(const Options& o, const std::string& workload) {
  return o.trace_dir + "/" + workload + ".trace.json";
}

// -- the simulation layers ---------------------------------------------------

/// Times `steps` calls of sim.step() into `ms`, one sample per step.
void timed_steps(sim::Simulation& sim, int steps,
                 telemetry::TraceWriter* trace, std::vector<double>& ms) {
  for (int s = 0; s < steps; ++s) {
    telemetry::ScopedSpan span(trace, "bench.step", "bench");
    const Timer t;
    sim.step();
    ms.push_back(t.seconds() * 1e3);
  }
}

double sortedness(const sim::Simulation& sim) {
  double weighted = 0, count = 0;
  for (std::size_t s = 0; s < sim.num_species(); ++s) {
    if (!sim.deck().species[s].mobile || sim.species(s).empty()) continue;
    const double n = double(sim.species(s).size());
    weighted += n * sim.species(s).sortedness();
    count += n;
  }
  return count > 0 ? weighted / count : 0;
}

/// Per-layer metrics of the simulation workloads, from each rank's
/// StepSampler interval: seconds are means over ranks, counts and rates
/// sums. `step_seconds` is the suite-measured step wall time per rank;
/// `cells` is rank 0's local cell count.
void report_sim_layers(Outcome& out, double cells,
                       const std::vector<telemetry::StepSample>& ranks,
                       const std::vector<double>& step_seconds,
                       double sorted) {
  const double nr = double(ranks.size());
  std::map<std::string, double> phase;  // mean seconds over ranks
  double push_rate = 0, push_gflops = 0, field_gflops = 0, imbalance = 0;
  double phase_sum = 0, suite_sum = 0, comm = 0, hidden = 0, exposed = 0;
  double migrated = 0, immigrated = 0;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const telemetry::StepSample& s = ranks[r];
    for (const auto& [name, seconds] : s.phase_seconds)
      phase[name] += seconds / nr;
    push_rate += s.particles_per_sec;
    push_gflops += s.push_gflops;
    field_gflops += s.field_gflops;
    imbalance = std::max(imbalance, s.pipeline_imbalance);
    phase_sum += s.step_seconds;
    suite_sum += step_seconds[r];
    comm += s.overlap_comm_s / nr;
    hidden += s.overlap_hidden_s / nr;
    exposed += s.overlap_exposed_s / nr;
    migrated += double(s.migrated);
    immigrated += double(s.immigrated);
  }
  const telemetry::StepSample& s0 = ranks[0];
  const double bytes = perf::KernelCosts::push_bytes_per_particle(
      double(s0.particles_local) / cells);
  const double push_s = phase["push"];

  out.layer_metric("particles.push_s", push_s, "s");
  out.layer_metric("particles.push_rate_mps", push_rate / 1e6, "Mpart/s");
  out.layer_metric("particles.push_gflops", push_gflops, "Gflop/s");
  out.layer_metric("particles.bytes_per_particle_computed", bytes, "B");
  out.layer_metric("particles.flops_per_byte_computed",
                   perf::KernelCosts::push_flops_per_particle() / bytes,
                   "flop/B");
  out.layer_metric("particles.lane_width", s0.lane_width, "count");
  out.layer_metric("particles.sort_s", phase["sort"], "s");
  out.layer_metric("particles.sortedness", sorted, "ratio");
  for (const auto& [name, seconds] : phase)
    out.layer_metric("sim.phase." + name + "_s", seconds, "s");
  // The paper's inner-loop share: push over whole-step wall time.
  out.layer_metric("sim.push_share_pct", 100.0 * push_s * nr / suite_sum, "%");
  out.layer_metric("sim.phase_coverage_pct", 100.0 * phase_sum / suite_sum,
                   "%");
  out.layer_metric("pipeline.imbalance", imbalance, "ratio");
  out.layer_metric("pipeline.reduce_s", phase["reduce"], "s");
  out.layer_metric("field.solve_s", phase["field"], "s");
  out.layer_metric("field.gflops_computed", field_gflops, "Gflop/s");
  out.layer_metric("vmpi.migrated", migrated, "count");
  out.layer_metric("vmpi.immigrated", immigrated, "count");
  out.layer_metric("overlap.comm_s", comm, "s");
  out.layer_metric("overlap.hidden_s", hidden, "s");
  out.layer_metric("overlap.exposed_s", exposed, "s");
  out.layer_metric("overlap.exposed_pct", comm > 0 ? 100.0 * exposed / comm : 0,
                   "%");
}

/// The physics checks both simulation workloads share: finite energy, a
/// Gauss-law residual that grew by at most `gauss_growth`, and particle
/// conservation (loaded == resident + absorbed, summed over ranks by the
/// caller).
void check_physics(Outcome& out, double energy, double gauss0, double gauss1,
                   double gauss_growth, std::int64_t loaded,
                   std::int64_t resident, std::int64_t absorbed) {
  out.check(std::isfinite(energy), "total energy is not finite");
  out.check(std::isfinite(gauss1) && gauss1 <= gauss0 + gauss_growth,
            "Gauss residual grew from " + std::to_string(gauss0) + " to " +
                std::to_string(gauss1));
  out.check(resident + absorbed == loaded,
            "particle count not conserved: loaded " + std::to_string(loaded) +
                ", resident " + std::to_string(resident) + ", absorbed " +
                std::to_string(absorbed));
}

// -- lpi_1rank ---------------------------------------------------------------

sim::Deck lpi_deck(const Options& o, particles::Kernel kernel, int pipelines) {
  sim::LpiParams p;  // 192x4x4 cells, dx 0.25, 64 ppc
  p.a0 = 0.1;
  p.seed = o.seed;
  if (o.smoke) {
    p.nx = 64;
    p.ny = p.nz = 2;
    p.ppc = 16;
    p.vacuum_cells = 8;
  }
  sim::Deck deck = sim::lpi_deck(p);
  deck.pipelines = pipelines;
  deck.kernel = kernel;
  deck.sort_period = 20;
  return deck;
}

/// One point of the kernel and pipeline questions: the warmed LPI state
/// restored into a simulation with another kernel or pipeline count, and
/// the push rate and median step time of each window it was timed in.
struct Variant {
  particles::Kernel kernel;
  int pipelines;
  std::unique_ptr<sim::Simulation> sim;
  std::vector<double> push_mps, step_ms;
};

/// Times every variant in interleaved windows, so host speed drifting
/// during the measurement falls on all of them alike.
void time_variants(const Options& o, const std::string& checkpoint,
                   std::vector<Variant>& variants) {
  for (Variant& v : variants) {
    v.sim = std::make_unique<sim::Simulation>(
        lpi_deck(o, v.kernel, v.pipelines));
    sim::Checkpoint::restore(*v.sim, checkpoint);
    v.sim->run(o.smoke ? 5 : 100);
  }
  for (int round = 0; round < (o.smoke ? 1 : 5); ++round) {
    for (Variant& v : variants) {
      telemetry::StepSampler sampler(*v.sim);
      std::vector<double> ms;
      const Timer wall;
      timed_steps(*v.sim, o.smoke ? 10 : kWindowSteps, nullptr, ms);
      v.push_mps.push_back(sampler.sample(wall.seconds()).particles_per_sec /
                           1e6);
      v.step_ms.push_back(bench::median(ms));
    }
  }
}

Outcome run_lpi(const Options& o) {
  Outcome out;
  const sim::Deck deck = lpi_deck(o, particles::Kernel::kAuto, kPipelines);
  std::unique_ptr<telemetry::TraceWriter> trace;
  if (o.trace)
    trace = std::make_unique<telemetry::TraceWriter>(trace_path(o, "lpi_1rank"));
  telemetry::TraceWriter* const tw = trace.get();
  auto workload_span =
      std::make_unique<telemetry::ScopedSpan>(tw, "bench.workload", "bench");

  std::vector<double> setup_s;
  std::unique_ptr<sim::Simulation> sim;
  for (int i = 0; i < kSetups; ++i) {
    sim.reset();
    telemetry::ScopedSpan span(tw, "bench.setup", "bench");
    const Timer t;
    auto fresh = std::make_unique<sim::Simulation>(deck);
    fresh->initialize();
    setup_s.push_back(t.seconds());
    sim = std::move(fresh);
  }
  const std::int64_t loaded = sim->global_particle_count();
  const double gauss0 = sim->gauss_error();
  {
    telemetry::ScopedSpan span(tw, "bench.warmup", "bench");
    sim->run(o.smoke ? 20 : 800);
  }

  telemetry::StepSampler sampler(*sim);
  std::vector<double> untraced_ms, traced_ms, window_mps;
  const Timer wall;
  for (int window = 0; window < 2 || wall.seconds() < o.seconds; ++window) {
    // Traced runs alternate traced and untraced windows on the one
    // simulation, so the two medians differ only by the tracing.
    telemetry::TraceWriter* w = window % 2 == 1 ? tw : nullptr;
    sim->set_trace(w);
    telemetry::ScopedSpan span(w, "bench.window", "bench");
    const std::int64_t pushed = sim->particle_stats().pushed;
    const Timer t;
    timed_steps(*sim, kWindowSteps, w, w != nullptr ? traced_ms : untraced_ms);
    if (w == nullptr)
      window_mps.push_back(double(sim->particle_stats().pushed - pushed) /
                           t.seconds() / 1e6);
  }
  sim->set_trace(nullptr);
  const telemetry::StepSample sample = sampler.sample(wall.seconds());
  const double sorted = sortedness(*sim);

  const double gauss1 = sim->gauss_error();
  check_physics(out, sim->energies().total, gauss0, gauss1, kGaussGrowthLpi,
                loaded, sim->global_particle_count(),
                sim->particle_stats().absorbed);
  std::vector<double> all_ms = untraced_ms;
  all_ms.insert(all_ms.end(), traced_ms.begin(), traced_ms.end());
  out.attempted = std::int64_t(all_ms.size());

  out.e2e_metric("setup_s", bench::median(setup_s), "s", kSetups);
  out.latency("op_ms", untraced_ms, true);
  out.e2e_metric("particle_rate_mps", bench::median(window_mps), "Mpart/s",
                 std::int64_t(window_mps.size()));
  if (!o.trace) return out;

  double step_s = 0;
  for (double ms : all_ms) step_s += ms * 1e-3;
  report_sim_layers(out, double(sim->local_grid().num_cells()), {sample},
                    {step_s}, sorted);
  out.layer_metric("trace_overhead_pct", overhead_pct(traced_ms, untraced_ms),
                   "%");

  // The kernel ranking at 4 pipelines, and the widest kernel at 1 pipeline
  // for the 4-vs-1 question (available_kernels() ends with the widest).
  const std::string ckpt = o.scratch + "/lpi_warm";
  sim::Checkpoint::save(*sim, ckpt, 1);
  sim.reset();
  std::vector<Variant> variants;
  for (particles::Kernel k : particles::available_kernels())
    variants.push_back({k, kPipelines, nullptr, {}, {}});
  variants.push_back({variants.back().kernel, 1, nullptr, {}, {}});
  time_variants(o, ckpt, variants);
  sim::Checkpoint::remove_all(ckpt);
  for (std::size_t i = 0; i + 1 < variants.size(); ++i)
    out.layer_metric(std::string("particles.push_rate_mps.") +
                         particles::kernel_name(variants[i].kernel),
                     bench::median(variants[i].push_mps), "Mpart/s",
                     std::int64_t(variants[i].push_mps.size()));
  const Variant& one = variants.back();
  const Variant& four = variants[variants.size() - 2];
  out.layer_metric("pipeline.speedup_4v1",
                   bench::median(one.step_ms) / bench::median(four.step_ms),
                   "ratio", std::int64_t(one.step_ms.size()));

  workload_span.reset();
  trace->close();
  print_self_times(trace_path(o, "lpi_1rank"));
  return out;
}

// -- thermal_4rank -----------------------------------------------------------

sim::Deck thermal_deck(const Options& o) {
  sim::Deck deck;  // periodic in every direction
  deck.grid.nx = o.smoke ? 16 : 64;
  deck.grid.ny = deck.grid.nz = o.smoke ? 4 : 12;
  deck.grid.dx = deck.grid.dy = deck.grid.dz = 0.4;
  deck.kernel = particles::Kernel::kAuto;
  deck.overlap = sim::Deck::Overlap::kAuto;
  sim::SpeciesConfig e;
  e.name = "electron";
  e.q = -1;
  e.m = 1;
  e.load.ppc = o.smoke ? 8 : 24;
  e.load.uth = 0.15;
  e.load.seed = o.seed;
  deck.species.push_back(e);
  sim::SpeciesConfig ion = e;
  ion.name = "ion";
  ion.q = +1;
  ion.m = 1836;
  ion.mobile = false;
  ion.load.seed = o.seed + 1;
  deck.species.push_back(ion);
  return deck;
}

Outcome run_thermal(const Options& o) {
  Outcome out;
  const sim::Deck deck = thermal_deck(o);
  std::unique_ptr<telemetry::TraceWriter> trace;
  if (o.trace)
    trace = std::make_unique<telemetry::TraceWriter>(
        trace_path(o, "thermal_4rank"));
  telemetry::TraceWriter* const tw = trace.get();

  const auto nr = std::size_t(kRanks);
  std::vector<telemetry::StepSample> samples(nr);
  std::vector<double> step_s(nr, 0.0), barrier_s(nr, 0.0), sorted(nr, 0.0);
  // Rank 0's samples.
  std::vector<double> setup_s, untraced_ms, traced_ms, window_mps, scaling_eff;
  std::int64_t loaded = 0, resident = 0, absorbed = 0, migrated = 0,
               immigrated = 0;
  double gauss0 = 0, gauss1 = 0, energy = 0, cells = 0;

  vmpi::run(kRanks, [&](vmpi::Comm& comm) {
    const int rank = comm.rank();
    const auto r = std::size_t(rank);
    telemetry::ScopedSpan workload_span(tw, "bench.workload", "bench");
    const vmpi::CartTopology topo({kRanks, 1, 1}, {true, true, true});
    std::unique_ptr<sim::Simulation> sim;
    for (int i = 0; i < kSetups; ++i) {
      sim.reset();
      comm.barrier();
      telemetry::ScopedSpan span(tw, "bench.setup", "bench");
      const Timer t;
      sim = std::make_unique<sim::Simulation>(deck, &comm, &topo);
      sim->initialize();
      comm.barrier();
      if (rank == 0) setup_s.push_back(t.seconds());
    }
    const std::int64_t n0 = sim->global_particle_count();
    const double g0 = sim->gauss_error();
    {
      telemetry::ScopedSpan span(tw, "bench.warmup", "bench");
      sim->run(o.smoke ? 20 : 600);
    }

    telemetry::StepSampler sampler(*sim);
    std::vector<double> mine_untraced, mine_traced;
    const Timer wall;
    Timer window_wall;  // rank 0: window boundary to window boundary
    for (int window = 0;; ++window) {
      telemetry::TraceWriter* w = window % 2 == 1 ? tw : nullptr;
      sim->set_trace(w);
      const std::int64_t before = sim->particle_stats().pushed;
      {
        telemetry::ScopedSpan span(w, "bench.window", "bench");
        timed_steps(*sim, kWindowSteps, w,
                    w != nullptr ? mine_traced : mine_untraced);
      }
      // Rank 0's clock decides whether another window runs; the wait for
      // that decision is each rank's barrier wait.
      const Timer waited;
      const int more = comm.allreduce_value(
          rank == 0 && (window < 1 || wall.seconds() < o.seconds) ? 1 : 0,
          vmpi::Op::kMax);
      const std::int64_t pushed = comm.allreduce_value(
          sim->particle_stats().pushed - before, vmpi::Op::kSum);
      barrier_s[r] += waited.seconds();
      if (rank == 0 && w == nullptr)
        window_mps.push_back(double(pushed) / window_wall.seconds() / 1e6);
      window_wall.reset();
      if (more == 0) break;
    }
    sim->set_trace(nullptr);
    samples[r] = sampler.sample(wall.seconds());
    for (double ms : mine_untraced) step_s[r] += ms * 1e-3;
    for (double ms : mine_traced) step_s[r] += ms * 1e-3;
    sorted[r] = sortedness(*sim);

    const std::int64_t n1 = sim->global_particle_count();
    const sim::ParticleStats& st = sim->particle_stats();
    const auto sum = [&](std::int64_t v) {
      return comm.allreduce_value(v, vmpi::Op::kSum);
    };
    const std::int64_t lost = sum(st.absorbed);
    const std::int64_t sent = sum(st.migrated);
    const std::int64_t received = sum(st.immigrated);
    const double g1 = sim->gauss_error();
    const double e1 = sim->energies().total;
    if (rank == 0) {
      untraced_ms = std::move(mine_untraced);
      traced_ms = std::move(mine_traced);
      loaded = n0;
      resident = n1;
      absorbed = lost;
      migrated = sent;
      immigrated = received;
      gauss0 = g0;
      gauss1 = g1;
      energy = e1;
      cells = double(sim->local_grid().num_cells());
    }
    if (!o.trace) return;

    // Strong scaling: the same global problem on one rank, stepped by
    // rank 0 in windows interleaved with 4-rank windows, so host speed
    // drifting during the measurement falls on both alike.
    // Efficiency = t(1 rank) / (4 t(4 ranks)), per round.
    std::unique_ptr<sim::Simulation> one;
    if (rank == 0) {
      one = std::make_unique<sim::Simulation>(deck);
      one->initialize();
      one->run(o.smoke ? 5 : 50);
    }
    for (int round = 0; round < (o.smoke ? 1 : 5); ++round) {
      std::vector<double> four_ms, one_ms;
      timed_steps(*sim, o.smoke ? 10 : kWindowSteps, nullptr, four_ms);
      comm.barrier();
      if (rank == 0) {
        timed_steps(*one, o.smoke ? 5 : 25, nullptr, one_ms);
        scaling_eff.push_back(bench::median(one_ms) /
                              (kRanks * bench::median(four_ms)));
      }
      comm.barrier();
    }
  });

  check_physics(out, energy, gauss0, gauss1, kGaussGrowthPeriodic, loaded,
                resident, absorbed);
  out.check(migrated == immigrated,
            "migration unbalanced: " + std::to_string(migrated) +
                " emigrants vs " + std::to_string(immigrated) + " immigrants");
  out.check(migrated > 0, "no particle migrated between ranks");
  out.attempted = std::int64_t(untraced_ms.size() + traced_ms.size());

  out.e2e_metric("setup_s", bench::median(setup_s), "s", kSetups);
  out.latency("op_ms", untraced_ms, true);
  out.e2e_metric("particle_rate_mps", bench::median(window_mps), "Mpart/s",
                 std::int64_t(window_mps.size()));
  if (!o.trace) return out;

  double sorted_mean = 0, barrier = 0;
  for (std::size_t r = 0; r < nr; ++r) {
    sorted_mean += sorted[r] / double(nr);
    barrier += barrier_s[r];
  }
  report_sim_layers(out, cells, samples, step_s, sorted_mean);
  out.layer_metric("rank.barrier_wait_s", barrier, "s");
  out.layer_metric("trace_overhead_pct", overhead_pct(traced_ms, untraced_ms),
                   "%");

  out.layer_metric("rank.strong_scaling_eff_4v1", bench::median(scaling_eff),
                   "ratio", std::int64_t(scaling_eff.size()));
  trace->close();
  print_self_times(trace_path(o, "thermal_4rank"));
  return out;
}

// -- campaign_batch ----------------------------------------------------------

// decks/campaign_two_stream.deck's shape (32x2x2 cells, 3 x 24 ppc = 9,216
// particles), held here so a deck edit cannot silently change the workload.
const char* const kCampaignDeck = R"(
[grid]
nx = 32   ny = 2   nz = 2
dx = 0.5

[species beam_fwd]
q = -1   m = 1
ppc = 24   density = 0.5   uth = 0.002
drift_x = 0.3   seed = 100

[species beam_bwd]
q = -1   m = 1
ppc = 24   density = 0.5   uth = 0.002
drift_x = -0.3   seed = 101

[species ion]
q = 1   m = 1836
ppc = 24   density = 1.0
mobile = false

[control]
sort_every = 20
)";

/// `jobs` distinct drift values drawn from the seed (one per stratum of
/// [0.2, 0.4), so no two jobs share an id).
campaign::CampaignSpec campaign_spec(Rng& rng, int jobs) {
  campaign::CampaignSpec spec = campaign::CampaignSpec::from_deck_source(
      sim::DeckSource::from_text(kCampaignDeck));
  std::vector<std::string> values;
  for (int k = 0; k < jobs; ++k)
    values.push_back(fixed9(0.2 + 0.2 * (k + rng.uniform()) / jobs));
  spec.add_axis("species beam_fwd.drift_x", std::move(values));
  spec.set_steps(kJobSteps);
  return spec;
}

/// Per-job stage samples, in ms. A job's set-up runs from its worker's
/// previous result to its first step, its simulation from there to
/// on_complete, and its ledger append from on_complete to on_result.
struct Stages {
  std::vector<double> setup_ms, sim_ms, ledger_ms, job_ms;
  double staged_s = 0;    ///< set-up + simulate, summed over jobs
  double executor_s = 0;  ///< the executor's JobResult::seconds, summed

  void append(const Stages& o) {
    for (auto [from, to] : {std::pair{&o.setup_ms, &setup_ms},
                            std::pair{&o.sim_ms, &sim_ms},
                            std::pair{&o.ledger_ms, &ledger_ms},
                            std::pair{&o.job_ms, &job_ms}})
      to->insert(to->end(), from->begin(), from->end());
    staged_s += o.staged_s;
    executor_s += o.executor_s;
  }
};

/// Hook timestamps of one batch, per worker thread. A worker's first job of
/// a batch has no previous result: its wait covers the batch's own
/// expansion, so it gives simulate and ledger samples only.
class JobClock {
 public:
  explicit JobClock(SpanLog* spans) : spans_(spans) {}

  void first_step() {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    worker().first = now;
  }
  void complete(std::int64_t pushed) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    worker().complete = now;
    pushed_ += pushed;
  }
  void result(const campaign::JobResult& r) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    Worker& w = worker();
    stages.sim_ms.push_back(ms_between(w.first, w.complete));
    stages.ledger_ms.push_back(ms_between(w.complete, now));
    if (w.jobs++ > 0) {
      stages.setup_ms.push_back(ms_between(w.prev, w.first));
      stages.job_ms.push_back(r.status == "done" ? ms_between(w.prev, now)
                                                 : kFailedMs);
      stages.staged_s += ms_between(w.prev, w.complete) * 1e-3;
      stages.executor_s += r.seconds;
      if (spans_ != nullptr) spans_->add("job.setup", w.index, w.prev, w.first);
    }
    if (spans_ != nullptr) {
      spans_->add("job.simulate", w.index, w.first, w.complete);
      spans_->add("job.ledger", w.index, w.complete, now);
    }
    w.prev = now;
  }
  // Read after the batch, once the executor has joined its workers.
  std::int64_t pushed() const { return pushed_; }
  int workers() const { return int(workers_.size()); }
  Stages stages;

 private:
  struct Worker {
    int index = 0;
    int jobs = 0;
    Clock::time_point prev, first, complete;
  };
  /// The calling worker thread's timestamps; callers hold mu_.
  Worker& worker() {
    const auto [it, inserted] =
        workers_.try_emplace(std::this_thread::get_id());
    if (inserted) it->second.index = int(workers_.size()) - 1;
    return it->second;
  }

  SpanLog* spans_;
  std::mutex mu_;  // guards everything below and `stages`
  std::map<std::thread::id, Worker> workers_;
  std::int64_t pushed_ = 0;
};

struct Batch {
  campaign::CampaignSummary summary;
  double wall_s = 0;
};

/// Runs one batch of `jobs` jobs on a fresh executor and ledger, then checks
/// the ledger holds every expanded job as done.
Batch run_batch(const Options& o, Outcome& out, Rng& rng, int jobs,
                JobClock& clock, const std::string& ledger,
                campaign::CampaignSpec* keep_spec = nullptr) {
  campaign::CampaignSpec spec = campaign_spec(rng, jobs);
  campaign::ExecutorConfig cfg;
  cfg.workers = kWorkers;
  cfg.scratch_dir = o.scratch;
  cfg.per_step_hook = [&clock](sim::Simulation& sim, const campaign::Job&,
                               int) {
    if (sim.step_index() == 1) clock.first_step();
  };
  cfg.on_complete = [&clock](sim::Simulation& sim, const campaign::Job&,
                             const sim::ReflectivityProbe*,
                             campaign::JobResult*) {
    clock.complete(sim.particle_stats().pushed);
  };
  cfg.on_result = [&clock](const campaign::JobResult& r) { clock.result(r); };

  Batch b;
  {
    campaign::ResultStore store(ledger, /*resume=*/false);
    campaign::CampaignExecutor executor(spec, cfg);
    const Timer wall;
    b.summary = executor.run(store);
    b.wall_s = wall.seconds();
  }
  std::set<std::string> expected;
  for (const campaign::Job& j : spec.expand()) expected.insert(j.id);
  std::set<std::string> done;
  for (const campaign::JobResult& r : campaign::ResultStore::read_all(ledger))
    if (r.status == "done") done.insert(r.id);
  out.check(b.summary.all_done() && done == expected,
            "batch ledger does not hold every job as done (" +
                std::to_string(done.size()) + " of " +
                std::to_string(expected.size()) + ")");
  if (keep_spec != nullptr) *keep_spec = std::move(spec);
  return b;
}

/// Reruns `job` outside the executor and compares its final energy with
/// the ledger record bit for bit.
bool rerun_matches(const campaign::CampaignSpec& spec,
                   const campaign::JobResult& recorded) {
  campaign::Job job;
  job.overrides = recorded.overrides;
  job.steps = kJobSteps;
  sim::Deck deck = spec.make_deck(job);
  deck.pipelines = 1;  // as the executor runs it
  sim::Simulation sim(deck);
  sim.initialize();
  sim.run(kJobSteps);
  return std::bit_cast<std::uint64_t>(sim.energies().total) ==
         std::bit_cast<std::uint64_t>(recorded.energy_total);
}

Outcome run_campaign(const Options& o) {
  Outcome out;
  const int jobs = o.smoke ? 40 : 1000;
  Rng rng(o.seed, 0);

  std::vector<double> setup_s;
  {
    Rng setup_rng(o.seed, 1);
    campaign::ExecutorConfig cfg;
    cfg.workers = kWorkers;
    cfg.scratch_dir = o.scratch;
    for (int i = 0; i < kSetups; ++i) {
      const Timer t;
      const campaign::CampaignSpec spec = campaign_spec(setup_rng, jobs);
      const std::vector<campaign::Job> expanded = spec.expand();
      const campaign::CampaignExecutor executor(spec, cfg);
      setup_s.push_back(t.seconds());
    }
  }

  SpanLog spans;
  SpanLog* const log = o.trace ? &spans : nullptr;
  const std::string ledger = o.scratch + "/campaign_ledger.ndjson";
  {
    JobClock warm(nullptr);
    run_batch(o, out, rng, o.smoke ? 8 : 100, warm, ledger);
  }

  std::vector<double> untraced_ms, traced_ms, batch_mps;
  Stages all;  // every timed batch's stages, for the layer report
  double wall_s = 0;
  std::int64_t done = 0, retries = 0;
  int workers = 0;
  campaign::CampaignSpec last_spec;
  const Timer timed;
  for (int batch = 0; batch < 2 || timed.seconds() < o.seconds; ++batch) {
    const bool traced = log != nullptr && batch % 2 == 1;
    JobClock clock(traced ? log : nullptr);
    const Clock::time_point begin = Clock::now();
    const Batch b = run_batch(o, out, rng, jobs, clock, ledger, &last_spec);
    if (traced) spans.add("bench.batch", kWorkers, begin, Clock::now());
    std::vector<double>& ms = traced ? traced_ms : untraced_ms;
    ms.insert(ms.end(), clock.stages.job_ms.begin(), clock.stages.job_ms.end());
    if (!traced) batch_mps.push_back(double(clock.pushed()) / b.wall_s / 1e6);
    all.append(clock.stages);
    out.attempted += b.summary.total;
    out.failed += b.summary.failed;
    done += b.summary.done;
    retries += b.summary.retries;
    workers = std::max(workers, clock.workers());
    wall_s += b.wall_s;
  }

  // Three jobs of the last batch, chosen by the seed, rerun fresh.
  const std::vector<campaign::JobResult> records =
      campaign::ResultStore::read_all(ledger);
  for (int i = 0; i < 3 && !records.empty(); ++i) {
    const campaign::JobResult& r = records[rng.uniform_u64(records.size())];
    out.check(rerun_matches(last_spec, r),
              "job " + r.id + " rerun differs from its ledger record");
  }
  std::filesystem::remove(ledger);

  out.e2e_metric("setup_s", bench::median(setup_s), "s", kSetups);
  out.latency("op_ms", untraced_ms, true);
  out.e2e_metric("particle_rate_mps", bench::median(batch_mps), "Mpart/s",
                 std::int64_t(batch_mps.size()));
  if (!o.trace) return out;

  out.latency("campaign.job_setup_ms", all.setup_ms, false);
  out.layer_metric("campaign.job_sim_ms_p50", bench::median(all.sim_ms), "ms",
                   std::int64_t(all.sim_ms.size()));
  out.latency("campaign.ledger_ms", all.ledger_ms, false);
  out.layer_metric("campaign.retries", double(retries), "count");
  out.layer_metric("campaign.workers_effective", double(workers), "count");
  out.layer_metric("campaign.stage_coverage_pct",
                   100.0 * all.staged_s / all.executor_s, "%");
  out.layer_metric("campaign.jobs_per_hour", double(done) * 3600.0 / wall_s,
                   "1/h");
  out.layer_metric("trace_overhead_pct", overhead_pct(traced_ms, untraced_ms),
                   "%");
  spans.write(trace_path(o, "campaign_batch"));
  print_self_times(trace_path(o, "campaign_batch"));
  return out;
}

// -- service_mix -------------------------------------------------------------

// bench_service_throughput's deliberately tiny base deck (12x2x2 cells,
// 384 particles): a fresh job costs a real but small simulation.
const char* const kServiceDeck = R"(
[grid]
nx = 12  ny = 2  nz = 2  dx = 0.5

[species electron]
q = -1  m = 1  ppc = 4  uth = 0.05  seed = 7

[species ion]
q = 1  m = 1836  ppc = 4  uth = 0.001  mobile = false
)";
const char* const kServiceAxis = "species electron.uth=";

/// One started server with its ledger, warmed with the ids later requests
/// duplicate.
struct ServiceFixture {
  std::unique_ptr<campaign::ResultStore> store;
  std::unique_ptr<service::ServiceServer> server;
  std::vector<std::string> warm_results;  ///< warm replies' result records
};

ServiceFixture start_service(const Options& o, int index,
                             const campaign::CampaignSpec& spec,
                             const campaign::ExecutorConfig& exec,
                             const std::vector<std::string>& warm) {
  ServiceFixture f;
  f.store = std::make_unique<campaign::ResultStore>(
      o.scratch + "/service_ledger" + std::to_string(index) + ".ndjson",
      /*resume=*/false);
  service::ServerConfig config;
  config.max_queued = 1024;
  f.server =
      std::make_unique<service::ServiceServer>(spec, *f.store, exec, config);
  f.server->start();
  service::ServiceClient client(f.server->port());
  for (const std::string& ov : warm) {
    const Json resp = client.submit("", {ov}, -1, "warm");
    MV_REQUIRE(resp.at("type").as_string() == "result",
               "warm submission failed: " << resp.dump());
    f.warm_results.push_back(resp.at("result").dump());
  }
  return f;
}

/// What one request saw.
struct Request {
  enum class Source { kCache, kFresh, kCoalesced, kFailed };
  Clock::time_point due;
  double ms = 0;      ///< due to reply; kFailedMs when the request failed
  double lag_ms = 0;  ///< due to sent
  double job_s = 0;   ///< the executor's seconds for a fresh reply's job
  Source source = Source::kFailed;
  bool traced = false;
  bool mismatched = false;  ///< not the warm record or source it should be
};

/// Open-loop load on one connection: Poisson arrivals at `rate`, each
/// request timed from when it was due. In every block of ten requests one,
/// at a seeded position, carries a never-seen id; the rest duplicate a warm
/// id chosen by the seed. Stops after `count` requests or at `end`.
std::vector<Request> generate(int g, service::ServiceClient& client,
                              double rate, std::uint64_t seed,
                              Clock::time_point start, Clock::time_point end,
                              int count, const std::vector<std::string>& warm,
                              const std::vector<std::string>& warm_results,
                              std::int64_t& fresh_counter, SpanLog* spans) {
  // Sleep with 1 ns slack, then spin the last 100 us: the default 50 us
  // timer slack would otherwise land in every latency sample.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Rng rng(seed, std::uint64_t(g) + 2);
  std::vector<Request> out;
  Clock::time_point due = start;
  std::uint64_t fresh_slot = 0;
  for (int k = 0; k < count; ++k) {
    due += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(rng.exponential() / rate));
    if (due >= end) break;
    if (k % kFreshEvery == 0) fresh_slot = rng.uniform_u64(kFreshEvery);
    const bool fresh = std::uint64_t(k % kFreshEvery) == fresh_slot;
    const std::size_t warm_index = std::size_t(rng.uniform_u64(warm.size()));
    const std::string ov =
        fresh ? kServiceAxis +
                    fixed9(0.08 + 1e-9 * double(std::int64_t(g) * 10'000'000 +
                                                fresh_counter++))
              : warm[warm_index];

    std::this_thread::sleep_until(due - std::chrono::microseconds(100));
    while (Clock::now() < due) {
    }
    const Clock::time_point sent = Clock::now();
    Json resp;
    try {
      resp = client.submit("", {ov}, -1, "gen" + std::to_string(g));
    } catch (const Error&) {
      resp = Json::object();  // a dead connection fails the request
    }
    const Clock::time_point reply = Clock::now();
    Request& r = out.emplace_back();
    r.due = due;
    r.lag_ms = ms_between(due, sent);
    r.traced = spans != nullptr && (k / kTraceBlock) % 2 == 1;
    const Json* type = resp.find("type");
    if (type == nullptr || type->as_string() != "result") {
      r.ms = kFailedMs;
      continue;
    }
    r.ms = ms_between(due, reply);
    if (r.traced) {
      spans->add("request", g, due, reply);
      spans->add("request.wait", g, due, sent);
      spans->add("request.rpc", g, sent, reply);
    }
    const std::string& source = resp.at("source").as_string();
    if (source == "cache") {
      r.source = Request::Source::kCache;
      r.mismatched =
          fresh || resp.at("result").dump() != warm_results[warm_index];
    } else if (source == "fresh") {
      r.source = Request::Source::kFresh;
      r.job_s = resp.at("result").at("seconds").as_number();
      r.mismatched = !fresh;
    } else {
      r.source = Request::Source::kCoalesced;
    }
  }
  return out;
}

/// Every request of one pass of all generators, in due-time order.
struct Traffic {
  std::vector<Request> requests;

  std::int64_t count(Request::Source s) const {
    return std::count_if(requests.begin(), requests.end(),
                         [s](const Request& r) { return r.source == s; });
  }
  /// `field` of every request `keep` accepts, in due-time order.
  template <class Keep>
  std::vector<double> samples(double Request::*field, Keep keep) const {
    std::vector<double> v;
    for (const Request& r : requests)
      if (keep(r)) v.push_back(r.*field);
    return v;
  }
};

/// Runs all generators once over the given connections and merges what
/// they saw.
Traffic run_generators(std::vector<std::unique_ptr<service::ServiceClient>>&
                           clients,
                       double seconds, int count,
                       const std::vector<std::string>& warm,
                       const ServiceFixture& f,
                       std::vector<std::int64_t>& fresh_counters,
                       std::uint64_t seed, SpanLog* spans) {
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::vector<Request>> parts(kGenerators);
  std::vector<std::thread> pool;
  for (int g = 0; g < kGenerators; ++g) {
    pool.emplace_back([&, g] {
      parts[std::size_t(g)] =
          generate(g, *clients[std::size_t(g)], kServiceRate / kGenerators,
                   seed, start, end, count, warm, f.warm_results,
                   fresh_counters[std::size_t(g)], spans);
    });
  }
  for (std::thread& t : pool) t.join();
  Traffic all;
  for (const std::vector<Request>& p : parts)
    all.requests.insert(all.requests.end(), p.begin(), p.end());
  // The tail percentile works on blocks of consecutive samples, which must
  // be stretches of time, not one generator after another.
  std::sort(all.requests.begin(), all.requests.end(),
            [](const Request& a, const Request& b) { return a.due < b.due; });
  return all;
}

double metric_value(const Json& metrics, const std::string& name) {
  const Json* v = metrics.at("values").find(name);
  return v != nullptr ? v->as_number() : 0.0;
}

Outcome run_service(const Options& o) {
  Outcome out;
  campaign::CampaignSpec spec = campaign::CampaignSpec::from_deck_source(
      sim::DeckSource::from_text(kServiceDeck));
  spec.set_steps(4);

  Rng rng(o.seed, 1);
  std::vector<std::string> warm;
  for (int k = 0; k < kWarmIds; ++k)
    warm.push_back(kServiceAxis +
                   fixed9(0.03 + 0.04 * (k + rng.uniform()) / kWarmIds));

  std::atomic<std::int64_t> pushed{0};
  telemetry::MetricsRegistry registry;
  campaign::ExecutorConfig exec;
  exec.workers = kServiceWorkers;
  exec.scratch_dir = o.scratch;
  exec.metrics = &registry;
  exec.on_complete = [&pushed](sim::Simulation& sim, const campaign::Job&,
                               const sim::ReflectivityProbe*,
                               campaign::JobResult*) {
    pushed += sim.particle_stats().pushed;
  };

  std::vector<double> setup_s;
  ServiceFixture f;
  for (int i = 0; i < kSetups; ++i) {
    if (f.server) f.server->drain();
    f = ServiceFixture{};
    const Timer t;
    f = start_service(o, i, spec, exec, warm);
    setup_s.push_back(t.seconds());
  }

  std::vector<std::unique_ptr<service::ServiceClient>> clients;
  for (int g = 0; g < kGenerators; ++g)
    clients.push_back(
        std::make_unique<service::ServiceClient>(f.server->port()));
  service::ServiceClient probe(f.server->port());
  std::vector<std::int64_t> fresh_counters(kGenerators, 0);

  using Source = Request::Source;
  const Traffic warmup =
      run_generators(clients, 1e9, o.smoke ? 20 : 250, warm, f,
                     fresh_counters, o.seed * 2 + 1, nullptr);
  const Json before = probe.metrics();
  const std::int64_t pushed_before = pushed.load();

  SpanLog spans;
  const Traffic g =
      run_generators(clients, o.seconds, 1 << 30, warm, f, fresh_counters,
                     o.seed * 2 + 2, o.trace ? &spans : nullptr);
  const Json after = probe.metrics();
  const double pushed_timed = double(pushed.load() - pushed_before);
  clients.clear();
  f.server->drain();

  const auto delta = [&](const char* name) {
    return metric_value(after, name) - metric_value(before, name);
  };
  for (const Traffic* p : {&warmup, &g}) {
    const auto wrong = std::count_if(
        p->requests.begin(), p->requests.end(),
        [](const Request& r) { return r.mismatched; });
    out.check(wrong == 0,
              std::to_string(wrong) +
                  " replies differ from their warm record or expected source");
  }
  const auto sent = std::int64_t(g.requests.size());
  const std::int64_t hits = g.count(Source::kCache);
  const std::int64_t fresh = g.count(Source::kFresh);
  const std::int64_t coalesced = g.count(Source::kCoalesced);
  out.check(delta("service.submissions") == double(sent) &&
                delta("service.cache_hits") == double(hits) &&
                delta("service.coalesced") == double(coalesced) &&
                delta("service.completed") == double(fresh),
            "server counters disagree with the replies the clients saw");
  out.check(fresh > 0 && hits > 0, "traffic mix lacks a request class");
  out.attempted = sent;
  out.failed = g.count(Source::kFailed);

  const auto all = [](const Request&) { return true; };
  const auto untraced = [](const Request& r) { return !r.traced; };
  const auto from = [](Source s) {
    return [s](const Request& r) { return r.source == s; };
  };
  // The server's own speed, which the fixed arrival rate does not pin:
  // particle-steps per second of executor time spent on the fresh jobs.
  double job_s = 0;
  for (double s : g.samples(&Request::job_s, from(Source::kFresh))) job_s += s;
  out.e2e_metric("setup_s", bench::median(setup_s), "s", kSetups);
  out.latency("op_ms", g.samples(&Request::ms, untraced), true);
  out.e2e_metric("particle_rate_mps", pushed_timed / job_s / 1e6, "Mpart/s",
                 fresh);
  for (int i = 0; i < kSetups; ++i)
    std::filesystem::remove(o.scratch + "/service_ledger" + std::to_string(i) +
                            ".ndjson");
  if (!o.trace) return out;

  const double cache_p50 = metric_value(after, "service.latency.cache.p50");
  out.layer_metric("service.latency.cache_ms_p50", cache_p50 * 1e3, "ms");
  out.layer_metric("service.latency.cache_ms_p99",
                   metric_value(after, "service.latency.cache.p99") * 1e3,
                   "ms");
  out.layer_metric("service.latency.job_ms_p50",
                   metric_value(after, "service.latency.job.p50") * 1e3, "ms");
  out.layer_metric("service.latency.job_ms_p99",
                   metric_value(after, "service.latency.job.p99") * 1e3, "ms");
  const std::vector<double> hit_ms =
      g.samples(&Request::ms, from(Source::kCache));
  const std::vector<double> lag_ms = g.samples(&Request::lag_ms, all);
  out.latency("service.hit_ms", hit_ms, false);
  out.latency("service.fresh_ms", g.samples(&Request::ms, from(Source::kFresh)),
              false);
  out.layer_metric("service.wire_ms_p50",
                   bench::median(hit_ms) - cache_p50 * 1e3, "ms");
  out.layer_metric("service.cache_hits", delta("service.cache_hits"), "count");
  out.layer_metric("service.coalesced", delta("service.coalesced"), "count");
  out.layer_metric("service.completed", delta("service.completed"), "count");
  out.layer_metric("service.rejections", delta("service.rejections"), "count");
  out.layer_metric("loadgen.lag_ms_p99", bench::percentiles(lag_ms).p99, "ms",
                   std::int64_t(lag_ms.size()));
  out.layer_metric("loadgen.sent", double(sent), "count");
  out.layer_metric(
      "trace_overhead_pct",
      overhead_pct(g.samples(&Request::ms,
                             [](const Request& r) { return r.traced; }),
                   g.samples(&Request::ms, untraced)),
      "%");
  spans.write(trace_path(o, "service_mix"));
  print_self_times(trace_path(o, "service_mix"));
  return out;
}

// -- catalogue, output -------------------------------------------------------

/// The metric names and units BENCHMARK.json lists, by section.
struct Catalogue {
  std::vector<std::pair<std::string, std::string>> end_to_end, per_layer;
};

Catalogue load_catalogue(const std::string& path) {
  std::ifstream in(path);
  MV_REQUIRE(in.good(), "cannot read the metric catalogue " << path);
  std::stringstream text;
  text << in.rdbuf();
  const Json doc = Json::parse(text.str());
  Catalogue c;
  for (auto [section, list] : {std::pair{"end_to_end", &c.end_to_end},
                               std::pair{"per_layer", &c.per_layer}}) {
    const Json& arr = doc.at(section);
    for (std::size_t i = 0; i < arr.size(); ++i)
      list->emplace_back(arr.at(i).at("name").as_string(),
                         arr.at(i).at("unit").as_string());
  }
  return c;
}

/// The metrics one run reports, in catalogue order. End-to-end metrics must
/// all be measured; a per-layer metric of a layer the workload bypasses
/// reads 0. A measured metric the catalogue lacks, or a unit that differs
/// from the catalogue's, is an error.
std::vector<bench::Metric> reported(
    const std::vector<bench::Metric>& measured,
    const std::vector<std::pair<std::string, std::string>>& listed,
    bool zero_fill, std::set<std::string>& seen) {
  std::map<std::string, const bench::Metric*> by_name;
  for (const bench::Metric& m : measured) by_name[m.name] = &m;
  std::vector<bench::Metric> out;
  for (const auto& [name, unit] : listed) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      MV_REQUIRE(zero_fill, "metric " << name << " was not measured");
      out.push_back({name, unit, 0.0, 0});
      continue;
    }
    MV_REQUIRE(it->second->unit == unit, "metric " << name << " measured in "
                                                   << it->second->unit
                                                   << ", catalogue says "
                                                   << unit);
    out.push_back(*it->second);
    seen.insert(name);
    by_name.erase(it);
  }
  MV_REQUIRE(by_name.empty(),
             "metric " << by_name.begin()->first << " is not in the catalogue");
  return out;
}

Outcome run_workload(const std::string& name, const Options& o) {
  if (name == "lpi_1rank") return run_lpi(o);
  if (name == "thermal_4rank") return run_thermal(o);
  if (name == "campaign_batch") return run_campaign(o);
  return run_service(o);
}

}  // namespace

int main(int argc, char** argv) try {
  Args args(argc, argv);
  args.check_known({"workload", "seed", "seconds", "trace", "json", "git-sha",
                    "catalogue", "scratch", "trace-dir", "smoke"});
  Options o;
  o.workload = args.get("workload", "");
  o.seed = std::uint64_t(args.get_int("seed", 1));
  o.seconds = args.get_double("seconds", 10);
  o.trace = args.get_int("trace", 0) != 0;
  o.smoke = args.get_bool("smoke", false);
  o.scratch = args.get("scratch", ".bench_build/scratch");
  o.trace_dir = args.get("trace-dir", ".bench_build/traces");
  MV_REQUIRE(o.seconds > 0, "--seconds must be > 0");

  std::vector<std::string> workloads;
  for (const char* w : kWorkloads)
    if (o.workload == "all" || o.workload == w) workloads.push_back(w);
  MV_REQUIRE(!workloads.empty(), "--workload must be one of lpi_1rank, "
                                 "thermal_4rank, campaign_batch, "
                                 "service_mix, all (got '"
                                     << o.workload << "')");
  const Catalogue catalogue =
      load_catalogue(args.get("catalogue", "BENCHMARK.json"));
  std::filesystem::create_directories(o.scratch);
  if (o.trace) std::filesystem::create_directories(o.trace_dir);
  set_log_level(LogLevel::kError);  // the daemon and executor narrate

  std::vector<bench::Record> records;
  std::set<std::string> measured_layers;
  for (const std::string& w : workloads) {
    std::cout << "== " << w << " (seed " << o.seed << ", " << o.seconds
              << " s" << (o.trace ? ", traced" : "") << ")\n";
    const Outcome out = run_workload(w, o);
    bench::Record rec;
    rec.workload = w;
    rec.seed = o.seed;
    rec.seconds = o.seconds;
    rec.trace = o.trace;
    rec.correct = out.failures.empty();
    rec.attempted = out.attempted;
    rec.failed = out.failed;
    rec.metrics = o.trace ? reported(out.layer, catalogue.per_layer, true,
                                     measured_layers)
                          : reported(out.e2e, catalogue.end_to_end, false,
                                     measured_layers);
    for (const bench::Metric& m : rec.metrics)
      std::cout << "  " << std::left << std::setw(40) << m.name << std::right
                << std::setprecision(6) << m.value << " " << m.unit
                << (m.n == 0 ? "  (layer bypassed)"
                             : "  (n=" + std::to_string(m.n) + ")")
                << "\n";
    std::cout << "  attempted " << out.attempted << ", failed " << out.failed
              << "\n";
    for (const std::string& f : out.failures)
      std::cout << "  CHECK FAILED: " << f << "\n";
    records.push_back(std::move(rec));
  }
  if (o.trace && workloads.size() > 1) {
    for (const auto& [name, unit] : catalogue.per_layer)
      MV_REQUIRE(measured_layers.count(name) != 0,
                 "per-layer metric " << name << " is measured by no workload");
  }

  if (args.has("json")) {
    // Taken after the workloads, once their threads have spread.
    const bench::Host host = bench::fingerprint(args.get("git-sha", ""));
    std::cout << "host: " << host.to_json().dump() << "\n";
    std::ofstream ledger(args.get("json", ""), std::ios::app);
    MV_REQUIRE(ledger.good(), "cannot open ledger " << args.get("json", ""));
    for (bench::Record& r : records) {
      r.host = host;
      ledger << r.to_json().dump() << "\n";
    }
    MV_REQUIRE(ledger.good(), "ledger write failed");
  }

  bool correct = true;
  std::int64_t attempted = 0, failed = 0;
  Json metrics = Json::object();
  for (const bench::Record& r : records) {
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    const Json m = bench::metrics_json(
        r.metrics, false, records.size() > 1 ? r.workload + "." : "");
    for (const auto& [name, value] : m.members()) metrics.set(name, value);
  }
  Json result = Json::object();
  result.set("correct", Json::boolean(correct));
  result.set("attempted", Json::number(attempted));
  result.set("failed", Json::number(failed));
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
  return correct ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "bench_suite: " << e.what() << "\n";
  return 2;
}
