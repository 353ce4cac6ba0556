// Campaign service daemon: a long-lived simulation server. Clients submit
// jobs (deck text or overrides against this daemon's base deck) as
// line-delimited JSON over TCP; duplicate work is answered from the result
// ledger or coalesced onto the running job; a full queue yields typed
// rejections instead of hangs (docs/SERVICE.md).
//
//   ./serve_campaigns <deck> [--port=N]        # 0 (default) = ephemeral port
//            [--port-file=PATH]                # write the bound port here
//            [--jobs=N] [--ranks=N] [--pipelines=N] [--max-threads=N]
//            [--retries=N] [--backoff=s] [--timeout=s] [--max-resumes=N]
//            [--max-queued=N]                  # admission bound (default 64)
//            [--read-deadline=s]               # per-line slow-loris deadline
//            [--results=PATH]                  # ledger (default <deck>.results.ndjson)
//            [--queue-state=PATH]              # drain persistence (default
//                                              #   <results>.queue.ndjson)
//            [--scratch=DIR]                   # per-job checkpoint directory
//            [--metrics=PATH]                  # write final counters at exit
//            [--fdr=PATH]                      # service flight recorder dump
//            [--fail-label=L --fail-attempts=M]# fault drill: job with label L
//                                              # throws on its first M attempts
//            [--log-level=LVL]
//
// The deck may carry a [campaign] section (its steps become the default
// per-job step count) or be a plain deck. The ledger is always opened in
// resume mode: results survive restarts, which is what makes the cache
// useful across daemon lifetimes.
//
// SIGTERM/SIGINT drain gracefully: stop accepting, finish (or checkpoint)
// running jobs, answer every waiting client, persist the still-pending
// queue to --queue-state — the next start reloads it, so an accepted job
// is never lost. Exit 0 on a clean drain.
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <thread>

#include "service/server.hpp"
#include "telemetry/ndjson.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

using namespace minivpic;

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

int run(int argc, char** argv) {
  Args args(argc, argv);
  args.check_known({"port", "port-file", "jobs", "ranks", "pipelines",
                    "max-threads", "retries", "backoff", "timeout",
                    "max-resumes", "max-queued", "read-deadline", "results",
                    "queue-state", "scratch", "metrics", "fdr", "fail-label",
                    "fail-attempts", "log-level"});
  if (args.has("log-level"))
    set_log_level(parse_log_level(args.get("log-level", "info")));
  if (args.positional().empty()) {
    std::cerr << "usage: serve_campaigns <deck> [--port=N] [--port-file=PATH] "
                 "[--jobs=N]\n"
                 "       [--max-queued=N] [--results=PATH] "
                 "[--queue-state=PATH] [--metrics=PATH]\n";
    return 2;
  }
  const std::string deck_path = args.positional()[0];

  // A deck with a [campaign] section contributes its steps default; a plain
  // deck serves with the spec's built-in default (overridable per submit).
  sim::DeckSource source = sim::DeckSource::from_file(deck_path);
  campaign::CampaignSpec spec =
      source.campaign_lines().empty()
          ? campaign::CampaignSpec::from_deck_source(std::move(source))
          : campaign::CampaignSpec::from_deck_file(deck_path);

  campaign::ExecutorConfig exec;
  exec.workers = int(args.get_int("jobs", 2));
  exec.ranks_per_job = int(args.get_int("ranks", 1));
  exec.pipelines_per_job = int(args.get_int("pipelines", 1));
  exec.max_threads = int(args.get_int("max-threads", 0));
  exec.retry.max_attempts = int(args.get_int("retries", 3));
  exec.retry.backoff_seconds = args.get_double("backoff", 0.1);
  exec.retry.timeout_seconds = args.get_double("timeout", 0);
  exec.retry.max_resumes = int(args.get_int("max-resumes", 64));
  exec.scratch_dir = args.get("scratch", ".");
  telemetry::MetricsRegistry registry;
  exec.metrics = &registry;

  // Fault drill: the job whose label matches --fail-label throws on its
  // first step while attempt <= --fail-attempts — with --retries=1 this
  // produces a terminal failure the CI smoke asserts on.
  const std::string fail_label = args.get("fail-label", "");
  const int fail_attempts = int(args.get_int("fail-attempts", 1));
  if (!fail_label.empty()) {
    exec.per_step_hook = [fail_label, fail_attempts](sim::Simulation& sim,
                                                     const campaign::Job& job,
                                                     int attempt) {
      if (job.label == fail_label && attempt <= fail_attempts &&
          sim.step_index() <= 1) {
        MV_REQUIRE(false, "injected service fault (job " << job.label
                                                         << ", attempt "
                                                         << attempt << ")");
      }
    };
  }

  const std::string results_path =
      args.get("results", deck_path + ".results.ndjson");
  campaign::ResultStore store(results_path, /*resume=*/true);
  if (!store.completed_ids().empty()) {
    MV_LOG_INFO << "service: " << store.completed_ids().size()
                << " cached result(s) in " << results_path;
  }

  service::ServerConfig config;
  config.port = int(args.get_int("port", 0));
  config.max_queued = int(args.get_int("max-queued", 64));
  config.read_deadline_seconds = args.get_double("read-deadline", 30);
  config.queue_state_path =
      args.get("queue-state", results_path + ".queue.ndjson");
  std::unique_ptr<telemetry::Recorder> recorder;
  if (args.has("fdr")) {
    recorder = std::make_unique<telemetry::Recorder>(args.get("fdr", ""));
    config.recorder = recorder.get();
  }

  service::ServiceServer server(spec, store, exec, config);

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  server.start();
  std::cout << "serve_campaigns: listening on 127.0.0.1:" << server.port()
            << " (ledger " << results_path << ")" << std::endl;
  if (args.has("port-file")) {
    std::ofstream pf(args.get("port-file", ""), std::ios::trunc);
    pf << server.port() << "\n";
    MV_REQUIRE(pf.good(), "cannot write port file");
  }

  while (!g_stop.load(std::memory_order_relaxed))
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  server.drain();

  if (args.has("metrics")) {
    telemetry::NdjsonWriter metrics(args.get("metrics", ""));
    telemetry::Json j = telemetry::Json::object();
    j.set("type", telemetry::Json::string("service_metrics"));
    telemetry::Json vals = telemetry::Json::object();
    for (const telemetry::ScalarMetric& m : registry.scalars())
      vals.set(m.name, telemetry::Json::number(m.value));
    j.set("metrics", std::move(vals));
    metrics.write(j);
  }
  if (recorder != nullptr)
    recorder->dump(telemetry::FdrDumpReason::kInterrupted);

  std::cout << "serve_campaigns: drained (" << server.persisted_jobs()
            << " pending job(s) persisted); ledger has "
            << store.records_written() << " record(s)" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::cerr << "serve_campaigns: error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "serve_campaigns: unexpected error: " << e.what() << "\n";
    return 1;
  }
}
