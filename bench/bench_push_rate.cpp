// T1 — per-node particle-advance performance table: particles advanced per
// second, sustained Gflop/s (s.p.) using the counted flops/particle, for a
// sorted uniform plasma at several grid sizes and particle densities.
// Google-benchmark microkernel timing of VPIC's inner loop plus its
// supporting kernels (interpolator load, accumulator unload + pipeline
// reduction, sort).
//
// The particle advance is swept over intra-rank pipeline counts (the
// paper's per-node parallel layer): by default {1, 2, 4, ..., hardware},
// and over advance kernels (docs/KERNELS.md): by default every kernel the
// host can run (scalar + each compiled-in SIMD width the CPU supports).
//   --pipelines=N   pin the advance to exactly N pipelines (1 = the serial
//                   reference path; google-benchmark flags still apply)
//   --kernel=NAME   pin the advance to one kernel: scalar|sse|avx2|avx512|
//                   auto (auto = widest available)
//   --shuffle       start from a fully shuffled particle list (worst-case
//                   gather order) instead of the default voxel-sorted one
//   --sort-every=N  bin-sort the species once per N advances inside the
//                   timed region (0 = never, the default): each timed
//                   iteration then spans a whole sort period (1 sort +
//                   N advances), so the reported particles/s amortizes the
//                   sort cost exactly like the stepping loop's cadence —
//                   pair with --shuffle for the sorted-vs-unsorted
//                   experiment (docs/SORTING.md). Per-iteration times are
//                   per *period* in this mode, not per advance.
//   --json=PATH     machine-readable results; shorthand for google-benchmark's
//                   --benchmark_out=PATH --benchmark_out_format=json
// The JSON context records the kernel sweep plus `sort_every` and
// `initial_order`, and every advance benchmark reports an end-of-run
// `sortedness` counter (fraction of adjacent particles in voxel order), so
// result files are self-describing about the locality they measured.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "particles/loader.hpp"
#include "particles/push.hpp"
#include "perf/costs.hpp"
#include "util/pipeline.hpp"
#include "util/rng.hpp"

using namespace minivpic;
using namespace minivpic::particles;

namespace {

struct PushFixture {
  PushFixture(int cells, int ppc, int pipelines = 1,
              Kernel kernel = Kernel::kScalar, bool shuffle = false)
      : grid(make_grid(cells)),
        fields(grid),
        interp(grid),
        acc(grid, pipelines),
        pusher(grid, periodic_particles()),
        pipeline(pipelines),
        sp("e", -1.0, 1.0) {
    pusher.set_kernel(kernel);
    for (int k = 0; k <= cells + 1; ++k)
      for (int j = 0; j <= cells + 1; ++j)
        for (int i = 0; i <= cells + 1; ++i) {
          fields.ey(i, j, k) = 0.01f * float(std::sin(0.3 * i));
          fields.cbz(i, j, k) = 0.02f * float(std::cos(0.2 * j));
        }
    interp.load(fields);
    LoadConfig cfg;
    cfg.ppc = ppc;
    cfg.uth = 0.05;
    // load_uniform emits particles cell-by-cell in ascending voxel order,
    // so the default warm-up is already the sorted best case and no extra
    // sort pass is needed; --shuffle produces the worst case instead.
    load_uniform(sp, grid, cfg);
    if (shuffle) shuffle_particles(sp);
  }

  /// Fisher–Yates with a fixed seed: the worst-case (random) gather order,
  /// reproducible across runs.
  static void shuffle_particles(Species& s, std::uint64_t seed = 4) {
    Rng rng(seed);
    for (std::size_t n = s.size(); n > 1; --n)
      std::swap(s[n - 1], s[std::size_t(rng.uniform_u64(n))]);
  }

  static grid::GlobalGrid make_grid(int cells) {
    grid::GlobalGrid g;
    g.nx = g.ny = g.nz = cells;
    g.dx = g.dy = g.dz = 0.5;
    return g;
  }

  grid::LocalGrid grid;
  grid::FieldArray fields;
  InterpolatorArray interp;
  AccumulatorArray acc;
  Pusher pusher;
  Pipeline pipeline;
  Species sp;
};

void BM_ParticleAdvance(benchmark::State& state, int cells, int ppc,
                        int pipelines, Kernel kernel, bool shuffle,
                        int sort_every) {
  PushFixture fx(cells, ppc, pipelines, kernel, shuffle);
  std::int64_t pushed = 0;
  // With a sort cadence, one timed iteration spans a whole sort period —
  // one sort plus sort_every advances — so the reported particles/s
  // amortizes the sort exactly the way the stepping loop does, no matter
  // how few iterations the harness decides to run.
  const int advances_per_iter = sort_every > 0 ? sort_every : 1;
  for (auto _ : state) {
    if (sort_every > 0) fx.sp.sort(fx.grid, &fx.pipeline);
    for (int n = 0; n < advances_per_iter; ++n) {
      fx.acc.clear();
      const auto res =
          fx.pusher.advance(fx.sp, fx.interp, fx.acc, &fx.pipeline);
      fx.acc.reduce(&fx.pipeline);
      pushed += res.pushed;
      benchmark::DoNotOptimize(res.pushed);
    }
  }
  state.counters["particles/s"] =
      benchmark::Counter(double(pushed), benchmark::Counter::kIsRate);
  state.counters["Gflop/s(sp)"] = benchmark::Counter(
      double(pushed) * perf::KernelCosts::push_flops_per_particle() / 1e9,
      benchmark::Counter::kIsRate);
  state.counters["flops/particle"] =
      perf::KernelCosts::push_flops_per_particle();
  state.counters["pipelines"] = double(pipelines);
  state.counters["lane_width"] =
      double(perf::KernelCosts::push_lane_width(fx.pusher.kernel()));
  state.counters["sort_every"] = double(sort_every);
  state.counters["sortedness"] = fx.sp.sortedness();
}

void BM_InterpolatorLoad(benchmark::State& state) {
  PushFixture fx(int(state.range(0)), 1);
  for (auto _ : state) {
    fx.interp.load(fx.fields);
    benchmark::DoNotOptimize(fx.interp.data());
  }
  state.counters["voxels/s"] = benchmark::Counter(
      double(state.iterations()) * double(fx.grid.num_cells()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpolatorLoad)->Arg(16)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_AccumulatorUnload(benchmark::State& state) {
  PushFixture fx(int(state.range(0)), 1);
  for (auto _ : state) {
    fx.acc.unload(fx.fields);
    benchmark::DoNotOptimize(fx.fields.jfx_span().data());
  }
  state.counters["voxels/s"] = benchmark::Counter(
      double(state.iterations()) * double(fx.grid.num_cells()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AccumulatorUnload)->Arg(16)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_AccumulatorReduce(benchmark::State& state) {
  // What the pipeline layer pays per step for its private blocks: fold
  // N blocks into base, on a pool of P pipelines (args: cells, N, P).
  PushFixture fx(int(state.range(0)), 1, int(state.range(1)));
  Pipeline pool(int(state.range(2)));
  for (auto _ : state) {
    fx.acc.reduce(&pool);
    benchmark::DoNotOptimize(fx.acc.data());
    benchmark::ClobberMemory();
  }
  state.counters["voxels/s"] = benchmark::Counter(
      double(state.iterations()) * double(fx.grid.num_cells()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AccumulatorReduce)
    ->ArgNames({"", "", "pipelines"})
    ->ArgsProduct({{16, 32}, {2, 8}, {1, 4}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_CountingSort(benchmark::State& state) {
  // Worst-case input each iteration: re-shuffle (untimed) so every timed
  // sort() scatters every particle to a random bucket — post-push disorder
  // in a real run is far milder, so this is the sort's cost *ceiling* on a
  // pool of P pipelines (args: ppc, P).
  PushFixture fx(16, int(state.range(0)), int(state.range(1)));
  for (auto _ : state) {
    state.PauseTiming();
    PushFixture::shuffle_particles(fx.sp);
    state.ResumeTiming();
    fx.sp.sort(fx.grid, &fx.pipeline);
    benchmark::DoNotOptimize(fx.sp.data());
    benchmark::ClobberMemory();
  }
  state.counters["particles/s"] = benchmark::Counter(
      double(state.iterations()) * double(fx.sp.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CountingSort)
    ->ArgNames({"", "pipelines"})
    ->ArgsProduct({{16, 64}, {1, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Pipeline counts to sweep: 1, 2, 4, ... up to the hardware thread count.
std::vector<int> pipeline_sweep() {
  std::vector<int> counts;
  const int hw = Pipeline::hardware_pipelines();
  for (int n = 1; n < hw; n *= 2) counts.push_back(n);
  counts.push_back(hw);
  return counts;
}

void register_advance_benchmarks(const std::vector<int>& pipeline_counts,
                                 const std::vector<Kernel>& kernels,
                                 bool shuffle, int sort_every) {
  struct Case {
    int cells, ppc;
  };
  const Case cases[] = {{16, 16}, {16, 64}, {32, 16}, {32, 64}, {32, 256}};
  for (const Case& c : cases) {
    for (int np : pipeline_counts) {
      for (Kernel k : kernels) {
        std::string name =
            "BM_ParticleAdvance/" + std::to_string(c.cells) + "/" +
            std::to_string(c.ppc) + "/pipelines:" + std::to_string(np) +
            "/kernel:" + kernel_name(k);
        // Non-default locality settings are part of the benchmark identity
        // (names stay unchanged for default runs so result files compare
        // across revisions).
        if (shuffle) name += "/shuffled";
        if (sort_every > 0)
          name += "/sort_every:" + std::to_string(sort_every);
        // The advance is internally threaded, so rate counters must divide
        // by wall time — the default (main-thread CPU time) would credit an
        // N-pipeline run with N× throughput even when the host can't run
        // them.
        benchmark::RegisterBenchmark(name.c_str(), BM_ParticleAdvance,
                                     c.cells, c.ppc, np, k, shuffle,
                                     sort_every)
            ->Unit(benchmark::kMillisecond)
            ->UseRealTime();
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off our own --pipelines/--json flags before google-benchmark sees
  // argv. --json is rewritten into the library's own JSON reporter flags so
  // every bench shares the one --json=PATH convention.
  std::vector<int> counts;
  std::vector<Kernel> kernels;
  std::vector<std::string> extra;
  std::vector<char*> bargv;
  bool shuffle = false;
  int sort_every = 0;
  for (int i = 0; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--pipelines=", 12) == 0) {
      counts = {std::max(1, std::atoi(a + 12))};
    } else if (std::strcmp(a, "--pipelines") == 0 && i + 1 < argc) {
      counts = {std::max(1, std::atoi(argv[++i]))};
    } else if (std::strncmp(a, "--kernel=", 9) == 0) {
      kernels = {resolve_kernel(parse_kernel(a + 9))};
    } else if (std::strcmp(a, "--kernel") == 0 && i + 1 < argc) {
      kernels = {resolve_kernel(parse_kernel(argv[++i]))};
    } else if (std::strcmp(a, "--shuffle") == 0) {
      shuffle = true;
    } else if (std::strncmp(a, "--sort-every=", 13) == 0) {
      sort_every = std::max(0, std::atoi(a + 13));
    } else if (std::strcmp(a, "--sort-every") == 0 && i + 1 < argc) {
      sort_every = std::max(0, std::atoi(argv[++i]));
    } else if (std::strncmp(a, "--json=", 7) == 0) {
      extra.push_back(std::string("--benchmark_out=") + (a + 7));
      extra.push_back("--benchmark_out_format=json");
    } else {
      bargv.push_back(argv[i]);
    }
  }
  for (std::string& s : extra) bargv.push_back(s.data());
  if (counts.empty()) counts = pipeline_sweep();
  if (kernels.empty()) kernels = available_kernels();
  {
    std::string names;
    for (Kernel k : kernels)
      names += (names.empty() ? "" : ",") + std::string(kernel_name(k));
    benchmark::AddCustomContext("kernels", names);
    // Locality provenance rides in the context next to the kernel list so
    // a JSON result is self-describing about the order it measured.
    benchmark::AddCustomContext("sort_every", std::to_string(sort_every));
    benchmark::AddCustomContext("initial_order",
                                shuffle ? "shuffled" : "sorted");
  }
  register_advance_benchmarks(counts, kernels, shuffle, sort_every);
  int bargc = int(bargv.size());
  benchmark::Initialize(&bargc, bargv.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, bargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
