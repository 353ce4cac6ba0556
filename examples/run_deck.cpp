// Deck-file runner: the "production" entry point. Loads a text deck,
// runs it with periodic checkpointing and runtime health sentinels,
// reports energies (and reflectivity if a laser is configured), and can
// resume an interrupted campaign from its rotated checkpoint sets.
//
//   ./run_deck my.deck --steps=500 [--report=10] [--probe_plane=16]
//              [--checkpoint=prefix]     # snapshot set prefix
//              [--checkpoint-every=N]    # periodic cadence (deck: checkpoint_every)
//              [--resume[=prefix]]       # restore latest set, run to --steps
//              [--max-walltime=seconds]  # checkpoint + exit 3 when exceeded
//              [--history=energies.csv]
//              [--pipelines=N]   # particle-advance threads; 0 = hardware
//              [--kernel=NAME]   # scalar|sse|avx2|avx512|auto (default auto)
//              [--sort-every=N]  # particle bin-sort cadence in steps;
//                                # 0 = never (deck: sort_every, default 20;
//                                # see docs/SORTING.md for tuning)
//              [--set=section.key=value] # deck override (repeatable)
//              [--metrics=PATH]  # NDJSON metrics stream (rank-reduced)
//              [--metrics-every=N]       # sample cadence (default: --report)
//              [--trace=PATH]    # Chrome trace (open in ui.perfetto.dev)
//              [--log-level=debug|info|warn|error]
//              [--ranks=N]       # multi-rank run under rollback recovery
//              [--comm-timeout=S]        # vmpi per-call deadline, seconds
//              [--inject-comm-fault=kind[:rank[:arg]]@step]  # repeatable;
//                                # kind = kill|flip|drop|dup|delay
//                                # (fault drill, docs/FAULTS.md)
//              [--flight-recorder[=events]]  # arm the per-rank flight
//                                # recorder (ring of `events` binary events,
//                                # default 4096; docs/OBSERVABILITY.md)
//              [--fdr-prefix=PATH]       # `.fdr` dump prefix (default: the
//                                # deck path); files are PATH.rank<r>.fdr
//
// Telemetry (see docs/OBSERVABILITY.md): --metrics streams one
// self-describing JSON record per sample cadence with per-phase seconds,
// achieved Gflop/s, particles/s, and pipeline load imbalance, reduced to
// min/mean/max/sum across ranks; --trace records nested per-phase spans
// plus health-sentinel and checkpoint instant events. An end-of-run
// rank-reduced summary table is always printed.
//
// SIGINT/SIGTERM finish the current step, write a final checkpoint set, and
// exit with code 3 ("interrupted but resumable"), as does --max-walltime.
// Deck or internal errors print to stderr and exit 1. The full exit-code
// table (0/1/2/3/4) and the forensic-dump paths taken on each are
// documented in README.md "Exit codes" and docs/FAULTS.md.
//
// With --flight-recorder armed, every exit path — normal completion,
// interruption, health abort, unrecoverable comm fault, SIGSEGV/SIGABRT —
// dumps the per-rank event rings to `.fdr` files for examples/postmortem
// to merge (docs/OBSERVABILITY.md "Flight recorder & postmortem").
//
// Fault-tolerant mode (--ranks > 1, --comm-timeout, or --inject-comm-fault;
// see docs/FAULTS.md): the run is supervised by sim::RecoveryCoordinator —
// detected communication faults roll the world back to the newest mutually
// agreed checkpoint set and replay. Exit codes: 0 = completed (recovered
// runs included), 4 = unrecoverable comm fault (no checkpoint to roll back
// to, or the recovery budget was exhausted). --probe_plane, --max-walltime,
// --metrics and --trace are not supported in this mode.
//
// Example deck (see sim/deck_io.hpp for the full grammar):
//
//   [grid]
//   nx = 480  ny = 1  nz = 1  dx = 0.2
//   boundary_x = absorbing  particle_bc_x = absorb
//   [species electron]
//   q = -1  m = 1  ppc = 128  uth = 0.0626  slab_x0 = 6  slab_x1 = 90
//   [species ion]
//   q = 1  m = 1836  ppc = 128  uth = 0.0008  mobile = false
//   slab_x0 = 6  slab_x1 = 90
//   [laser]
//   omega0 = 3.162  a0 = 0.15  ramp = 10
//   [control]
//   sort_every = 20  clean_period = 50
//   checkpoint_every = 500  health_period = 50  health_policy = abort
#include <chrono>
#include <csignal>
#include <iostream>
#include <memory>

#include "sim/checkpoint.hpp"
#include "sim/deck_io.hpp"
#include "sim/diagnostics.hpp"
#include "sim/health.hpp"
#include "sim/history.hpp"
#include "sim/recovery.hpp"
#include "sim/simulation.hpp"
#include "telemetry/anomaly.hpp"
#include "telemetry/ndjson.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/reduce.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/trace.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "vmpi/fault.hpp"

using namespace minivpic;

namespace {

/// End-of-run whole-run telemetry: one rank-reduced row per metric.
void print_summary(std::ostream& os, const sim::Simulation& sim,
                   double wall_seconds, const telemetry::RankReducer& reducer) {
  const telemetry::StepSample total =
      telemetry::StepSampler::derive_total(sim, wall_seconds);
  const auto reduced = reducer.reduce(total.scalars());
  if (!reducer.root()) return;
  Table table({"metric", "unit", "min", "mean", "max", "sum"});
  for (const auto& m : reduced) {
    table.add_row({m.name, m.unit, m.stats.min, m.stats.mean, m.stats.max,
                   m.stats.sum});
  }
  table.print(os, "telemetry summary (" + std::to_string(reducer.ranks()) +
                      " rank(s), min/mean/max/sum across ranks)");
}

/// Exit code for "stopped early but a final checkpoint set was written":
/// distinct from success (0), errors (1) and usage (2) so schedulers can
/// requeue the job with --resume.
constexpr int kExitInterrupted = 3;

/// Exit code for "an unrecoverable communication fault": the run died with
/// no checkpoint set to roll back to, or the recovery budget ran out.
/// Distinct from 1 so schedulers can tell a comm fault from a deck error.
constexpr int kExitCommFault = 4;

/// Flight-recorder arming, shared by both run paths: ring capacity from
/// `--flight-recorder[=events]`, dump-path prefix from `--fdr-prefix`
/// (default: the deck path). Per-rank dumps land at `<prefix>.rank<r>.fdr`.
struct RecorderOptions {
  bool enabled = false;
  std::size_t events = telemetry::Recorder::kDefaultCapacity;
  std::string prefix;
};

RecorderOptions recorder_options(const Args& args) {
  RecorderOptions opt;
  if (!args.has("flight-recorder")) return opt;
  opt.enabled = true;
  if (args.get("flight-recorder", "") != "true") {
    const std::int64_t n = args.get_int("flight-recorder", 4096);
    MV_REQUIRE(n >= 2, "--flight-recorder needs >= 2 events, got " << n);
    opt.events = std::size_t(n);
  }
  opt.prefix = args.get("fdr-prefix", args.positional()[0]);
  return opt;
}

std::string fdr_path(const RecorderOptions& opt, int rank) {
  return opt.prefix + ".rank" + std::to_string(rank) + ".fdr";
}

/// Fault-tolerant multi-rank path: the run is supervised by
/// sim::RecoveryCoordinator, which relaunches the vmpi world and rolls back
/// to the newest mutually agreed checkpoint set after a detected fault.
int run_fault_tolerant(const Args& args, sim::Deck deck, int ranks,
                       int steps, int report, const std::string& ckpt_prefix,
                       bool resume, const std::string& resume_prefix) {
  MV_REQUIRE(!args.has("probe_plane") && !args.has("max-walltime") &&
                 !args.has("metrics") && !args.has("trace"),
             "--probe_plane/--max-walltime/--metrics/--trace are not "
             "supported with --ranks/--comm-timeout/--inject-comm-fault");
  MV_REQUIRE(ranks >= 1, "--ranks must be >= 1");

  vmpi::FaultPlane plane;
  const std::vector<std::string> fault_specs =
      args.get_all("inject-comm-fault");
  for (const std::string& spec : fault_specs) plane.schedule_from_spec(spec);

  sim::RecoveryConfig rc;
  rc.ranks = ranks;
  rc.checkpoint_prefix = ckpt_prefix;
  rc.checkpoint_every = deck.checkpoint_every;
  rc.checkpoint_keep = deck.checkpoint_keep;
  rc.comm_timeout = args.get_double("comm-timeout", 0);
  // Message framing (CRC + sequence numbers) is what *detects* injected
  // corruption/loss; arm it whenever a drill is scheduled.
  rc.integrity = !fault_specs.empty();
  rc.fault_plane = fault_specs.empty() ? nullptr : &plane;
  if (resume) {
    MV_REQUIRE(resume_prefix == ckpt_prefix,
               "fault-tolerant mode resumes from the --checkpoint prefix; "
               "--resume=" << resume_prefix << " names a different set");
    rc.resume_step = sim::Checkpoint::latest_step(ckpt_prefix);
    MV_REQUIRE(rc.resume_step >= 0,
               "--resume: no complete checkpoint set under " << ckpt_prefix);
    std::cout << "resuming from " << ckpt_prefix << " at step "
              << rc.resume_step << "\n";
  }
  const bool final_save = args.has("checkpoint") || deck.checkpoint_every > 0;
  if (final_save) {
    // Collective and deterministic, so safe to repeat if a fault lands
    // between the final step and the last rank returning.
    rc.on_final = [&](sim::Simulation& sim, vmpi::Comm&) {
      sim::Checkpoint::save(sim, ckpt_prefix, deck.checkpoint_keep);
    };
  }

  // Flight recorder: one per rank, registered for crash dumps; the
  // coordinator wires rank r's simulation and comm hook to recorders[r].
  const RecorderOptions fdr = recorder_options(args);
  std::vector<std::unique_ptr<telemetry::Recorder>> recorders;
  if (fdr.enabled) {
    telemetry::install_crash_handlers();
    for (int r = 0; r < ranks; ++r)
      recorders.push_back(std::make_unique<telemetry::Recorder>(
          fdr_path(fdr, r), r, fdr.events));
    for (auto& r : recorders) rc.recorders.push_back(r.get());
  }

  sim::RecoveryCoordinator coordinator(deck, rc);
  const sim::RecoveryReport rep = coordinator.run(steps);

  Table table({"step", "time", "E_total"});
  for (const sim::HistoryRow& row : coordinator.history()) {
    if (row.step > 0 && row.step % report == 0)
      table.add_row({(long long)row.step, row.time, row.total});
  }
  table.print(std::cout, "run history (" + std::to_string(ranks) +
                             " rank(s), rollback recovery)");
  std::cout << "\nworlds: " << rep.worlds << ", rollbacks: " << rep.rollbacks
            << ", faults injected: " << rep.comm.faults_injected
            << ", detected: " << rep.comm.faults_detected
            << ", timeouts: " << rep.comm.timeouts << "\n";

  if (args.has("history"))
    coordinator.write_history_csv(args.get("history", ""));
  if (final_save && rep.completed) {
    std::cout << "checkpoint set written: "
              << sim::Checkpoint::set_path(ckpt_prefix, rep.final_step, 0)
              << "\n";
  }
  if (!rep.completed) {
    if (fdr.enabled) {
      for (auto& r : recorders)
        r->dump(telemetry::FdrDumpReason::kCommFault);
      std::cerr << "flight records dumped: " << fdr_path(fdr, 0) << " .. "
                << fdr_path(fdr, ranks - 1)
                << " (merge with examples/postmortem)\n";
    }
    std::cerr << "run_deck: unrecoverable comm fault: " << rep.last_fault
              << " (rollbacks: " << rep.rollbacks << ")\n";
    return kExitCommFault;
  }
  if (fdr.enabled) {
    for (auto& r : recorders) r->dump(telemetry::FdrDumpReason::kExit);
    std::cout << "flight records dumped: " << fdr_path(fdr, 0) << " .. "
              << fdr_path(fdr, ranks - 1) << "\n";
  }
  return 0;
}

volatile std::sig_atomic_t g_stop_signal = 0;

void handle_stop(int sig) { g_stop_signal = sig; }

int run(int argc, char** argv) {
  Args args(argc, argv);
  args.check_known({"steps", "report", "probe_plane", "checkpoint",
                    "checkpoint-every", "resume", "max-walltime", "history",
                    "pipelines", "kernel", "sort-every", "metrics",
                    "metrics-every", "trace", "log-level", "set", "ranks",
                    "comm-timeout", "inject-comm-fault", "flight-recorder",
                    "fdr-prefix"});
  if (args.positional().empty()) {
    std::cerr << "usage: run_deck <deck-file> [--steps=N] [--report=N]\n"
                 "       [--probe_plane=I] [--checkpoint=prefix] "
                 "[--checkpoint-every=N]\n"
                 "       [--resume[=prefix]] [--max-walltime=seconds] "
                 "[--history=csv] [--pipelines=N]\n"
                 "       [--metrics=ndjson] [--metrics-every=N] "
                 "[--trace=json] [--log-level=LVL]\n"
                 "       [--kernel=scalar|sse|avx2|avx512|auto] "
                 "[--sort-every=N]\n"
                 "       [--set=section.key=value ...]\n"
                 "       [--ranks=N] [--comm-timeout=seconds] "
                 "[--inject-comm-fault=kind[:rank[:arg]]@step ...]\n"
                 "       [--flight-recorder[=events]] [--fdr-prefix=PATH]\n";
    return 2;
  }
  if (args.has("log-level"))
    set_log_level(parse_log_level(args.get("log-level", "info")));
  const int steps = int(args.get_int("steps", 200));
  const int report = int(args.get_int("report", std::max(1, steps / 10)));
  const int metrics_every =
      int(args.get_int("metrics-every", std::max(1, report)));
  MV_REQUIRE(metrics_every >= 1, "--metrics-every must be >= 1");
  const double max_walltime = args.get_double("max-walltime", 0);

  // --set patches individual deck keys before the deck is built; unknown
  // sections/keys are rejected with the same errors a deck file would get.
  std::vector<sim::DeckOverride> overrides;
  for (const std::string& spec : args.get_all("set"))
    overrides.push_back(sim::parse_override(spec));
  sim::Deck deck = sim::load_deck_file(args.positional()[0], overrides);
  // CLI overrides the deck's [control] settings; pipelines both default to
  // hardware-aware (0 = one pipeline per hardware thread).
  if (args.has("pipelines")) {
    deck.pipelines = int(args.get_int("pipelines", 0));
  }
  // Advance kernel follows the same convention: the deck's [control]
  // `kernel` key (default auto for deck files) overridden by --kernel.
  if (args.has("kernel")) {
    deck.kernel = particles::parse_kernel(args.get("kernel", "auto"));
  }
  // Bin-sort cadence follows the same convention: the deck's [control]
  // `sort_every` overridden by --sort-every; 0 turns the periodic sort off
  // entirely.
  if (args.has("sort-every")) {
    deck.sort_period = int(args.get_int("sort-every", 20));
    MV_REQUIRE(deck.sort_period >= 0, "--sort-every must be >= 0");
  }
  if (args.has("checkpoint-every")) {
    deck.checkpoint_every = int(args.get_int("checkpoint-every", 0));
  }
  const std::string ckpt_prefix =
      args.get("checkpoint", args.positional()[0] + ".ckpt");
  // `--resume` alone restores from the checkpoint prefix; `--resume=prefix`
  // names another campaign's sets.
  const bool resume = args.has("resume");
  const std::string resume_prefix =
      args.get("resume", "") == "true" ? ckpt_prefix : args.get("resume", "");

  // Any fault-tolerance flag routes through the rollback-recovery path.
  if (args.has("ranks") || args.has("comm-timeout") ||
      args.has("inject-comm-fault")) {
    return run_fault_tolerant(args, deck, int(args.get_int("ranks", 1)),
                              steps, report, ckpt_prefix, resume,
                              resume_prefix);
  }

  // Flight recorder first: install_crash_handlers claims SIGTERM for the
  // forensic dump, and the graceful handler below then takes precedence so
  // SIGTERM still checkpoints and exits 3 (the dump happens on that path
  // too). SIGSEGV/SIGABRT keep the recorder's handler.
  const RecorderOptions fdr = recorder_options(args);
  std::unique_ptr<telemetry::Recorder> recorder;
  if (fdr.enabled) {
    telemetry::install_crash_handlers();
    recorder =
        std::make_unique<telemetry::Recorder>(fdr_path(fdr, 0), 0, fdr.events);
  }
  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);
  const auto wall_start = std::chrono::steady_clock::now();

  sim::Simulation sim(deck);
  if (recorder) sim.set_recorder(recorder.get());

  // Telemetry sinks. The trace writer must be attached before restore() so
  // the checkpoint.restore instant lands in the trace too.
  std::unique_ptr<telemetry::TraceWriter> trace;
  if (args.has("trace")) {
    trace = std::make_unique<telemetry::TraceWriter>(args.get("trace", ""),
                                                     /*pid=*/0);
    sim.set_trace(trace.get());
  }

  if (resume) {
    sim::Checkpoint::restore(sim, resume_prefix);
    std::cout << "resumed from " << resume_prefix << " at step "
              << sim.step_index() << "\n";
  } else {
    sim.initialize();
  }
  std::cout << "deck: " << args.positional()[0] << " — "
            << sim.global_particle_count() << " particles, dt = "
            << sim.local_grid().dt() << ", pipelines = " << sim.pipelines()
            << ", kernel = " << particles::kernel_name(sim.kernel()) << "\n\n";

  sim::HealthMonitor health(sim, deck.health, ckpt_prefix);

  std::unique_ptr<sim::ReflectivityProbe> probe;
  if (args.has("probe_plane")) {
    probe = std::make_unique<sim::ReflectivityProbe>(
        sim, int(args.get_int("probe_plane", 16)));
  }
  sim::EnergyHistory history(sim);
  history.sample();

  // NDJSON metrics stream: per-interval derived metrics, rank-reduced
  // (degenerate single-rank reduction here; run_deck drives one rank).
  telemetry::StepSampler sampler(sim);
  telemetry::RankReducer reducer(sim.comm());
  std::unique_ptr<telemetry::NdjsonWriter> metrics;
  if (args.has("metrics") && reducer.root()) {
    metrics = std::make_unique<telemetry::NdjsonWriter>(
        args.get("metrics", ""));
  }
  bool metrics_meta_written = false;
  // Online anomaly detection rides the metrics cadence: EWMA+MAD baselines
  // over the reduced sample flag step-rate regressions, migrate-phase
  // latency spikes, and per-rank stragglers (docs/OBSERVABILITY.md
  // "Anomaly detection").
  telemetry::AnomalyDetector detector;
  Timer sample_timer;
  const Timer loop_timer;

  Table table(probe ? std::vector<std::string>{"step", "time", "E_total",
                                               "reflectivity"}
                    : std::vector<std::string>{"step", "time", "E_total"});
  bool interrupted = false;
  // step_index, not a loop counter: a health rollback rewinds the clock and
  // the loop must replay the rewound steps.
  try {
  while (sim.step_index() < steps) {
    sim.step();
    if (probe) probe->sample();
    history.sample();
    health.check();
    const std::int64_t s = sim.step_index();
    if (deck.checkpoint_every > 0 && s % deck.checkpoint_every == 0) {
      sim::Checkpoint::save(sim, ckpt_prefix, deck.checkpoint_keep);
    }
    if (args.has("metrics") && s % metrics_every == 0) {
      const telemetry::StepSample smp = sampler.sample(sample_timer.seconds());
      sample_timer.reset();
      auto reduced = reducer.reduce(smp.scalars());
      telemetry::append_load_imbalance(&reduced);
      // Per-rank load shards in rank order (root only; degenerate {value}
      // in this single-rank path): the straggler detector's input and the
      // NDJSON "load" record the dynamic-load-balancing work needs.
      const std::vector<double> rank_particles =
          reducer.gather(double(smp.particles_local));
      const std::vector<double> rank_busy = reducer.gather(smp.busy_seconds);
      const auto anomalies =
          detector.observe(s, reduced, rank_particles, rank_busy);
      detector.publish(anomalies, nullptr, trace.get());
      // Anomaly verdicts ride the stream as synthetic reduced metrics.
      const double flagged = double(anomalies.size());
      const double flagged_total = double(detector.total_flagged());
      reduced.push_back(
          {"anomaly.count", "count", {flagged, flagged, flagged, flagged}});
      reduced.push_back({"anomaly.total",
                         "count",
                         {flagged_total, flagged_total, flagged_total,
                          flagged_total}});
      if (metrics) {
        if (!metrics_meta_written) {
          telemetry::Json extra = telemetry::Json::object();
          extra.set("deck", telemetry::Json::string(args.positional()[0]));
          extra.set("sample_every",
                    telemetry::Json::number(std::int64_t{metrics_every}));
          metrics->write(telemetry::meta_record(
              reducer.ranks(), sim.pipelines(),
              particles::kernel_name(sim.kernel()), reduced, extra));
          metrics_meta_written = true;
        }
        metrics->write(
            telemetry::sample_record(smp, reduced, rank_particles, rank_busy));
      }
    }
    if (s % report == 0) {
      const double total = sim.energies().total;
      if (probe)
        table.add_row({(long long)s, sim.time(), total, probe->reflectivity()});
      else
        table.add_row({(long long)s, sim.time(), total});
    }
    if (g_stop_signal != 0) {
      std::cerr << "\nsignal " << int(g_stop_signal)
                << " received — writing final checkpoint set\n";
      interrupted = true;
      break;
    }
    if (max_walltime > 0) {
      const std::chrono::duration<double> used =
          std::chrono::steady_clock::now() - wall_start;
      if (used.count() >= max_walltime) {
        std::cerr << "\nwalltime budget (" << max_walltime
                  << " s) exhausted — writing final checkpoint set\n";
        interrupted = true;
        break;
      }
    }
  }
  } catch (...) {
    // Health abort or any other Error unwinding the loop: leave the black
    // box behind before the error propagates to main's exit-1 path.
    if (recorder) recorder->dump(telemetry::FdrDumpReason::kHealthAbort);
    throw;
  }
  if (interrupted) {
    sim::Checkpoint::save(sim, ckpt_prefix, deck.checkpoint_keep);
    std::cerr << "checkpoint set written at step " << sim.step_index()
              << "; resume with --resume"
              << (args.has("checkpoint") ? "=" + ckpt_prefix : "") << "\n";
    if (trace) trace->close();  // keep the partial trace loadable
    if (recorder) {
      recorder->dump(telemetry::FdrDumpReason::kInterrupted);
      std::cerr << "flight record dumped: " << fdr_path(fdr, 0) << "\n";
    }
    return kExitInterrupted;
  }

  table.print(std::cout, "run history");
  // The whole-run telemetry summary; the push rate below is derived by the
  // same StepSampler formula the NDJSON stream and the benches use.
  const double loop_seconds = loop_timer.seconds();
  print_summary(std::cout, sim, loop_seconds, reducer);
  const telemetry::StepSample total =
      telemetry::StepSampler::derive_total(sim, loop_seconds);
  std::cout << "\nGauss residual: " << sim.gauss_error()
            << ", energy drift: " << 100 * history.worst_relative_drift()
            << "%, push rate: " << total.particles_per_sec / 1e6
            << " M particles/s (" << total.push_gflops
            << " Gflop/s s.p. in the advance)\n";

  if (args.has("history")) history.write_csv(args.get("history", ""));
  if (args.has("checkpoint") || deck.checkpoint_every > 0) {
    sim::Checkpoint::save(sim, ckpt_prefix, deck.checkpoint_keep);
    std::cout << "checkpoint set written: "
              << sim::Checkpoint::set_path(ckpt_prefix, sim.step_index(), 0)
              << "\n";
  }
  if (trace) {
    trace->close();
    std::cout << "trace written: " << args.get("trace", "")
              << " (open in ui.perfetto.dev or chrome://tracing)\n";
  }
  if (metrics) {
    std::cout << "metrics stream written: " << args.get("metrics", "") << " ("
              << metrics->records_written() << " records)\n";
    std::cout << "anomalies flagged: " << detector.total_flagged() << "\n";
  }
  if (recorder) {
    recorder->record(telemetry::FdrKind::kExit);
    recorder->dump(telemetry::FdrDumpReason::kExit);
    std::cout << "flight record dumped: " << fdr_path(fdr, 0) << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Exceptions must not escape as std::terminate: a long campaign's exit
  // code is parsed by schedulers deciding whether to requeue.
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::cerr << "run_deck: error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "run_deck: unexpected error: " << e.what() << "\n";
    return 1;
  }
}
