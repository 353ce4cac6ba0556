// Campaign runner: expands the [campaign] section of a deck file into a
// parameter sweep and drives it with the concurrent CampaignExecutor —
// retries, wall-time slicing with checkpoint/resume, and a crash-safe
// NDJSON result ledger (see docs/CAMPAIGNS.md).
//
//   ./run_campaign sweep.deck [--jobs=N]      # concurrent jobs (workers)
//            [--ranks=N]                      # vmpi ranks per job
//            [--pipelines=N]                  # particle pipelines per job
//            [--max-threads=N]                # cap on jobs x ranks x pipelines
//            [--retries=N]                    # failure attempts per job
//            [--backoff=seconds]              # first retry delay
//            [--timeout=seconds]              # per-attempt wall budget
//            [--max-resumes=N]                # timeout/resume cycles per job
//            [--steps=N]                      # override [campaign] steps
//            [--set=section.key=value ...]    # base-deck override (repeatable)
//            [--results=PATH]                 # ledger (default <deck>.results.ndjson)
//            [--resume]                       # skip jobs already done in the ledger
//            [--scratch=DIR]                  # per-job checkpoint directory
//            [--curve=PATH.csv]               # aggregated curve output
//            [--curve-axis=section.key]       # curve x axis (default: first axis)
//            [--curve-metric=NAME]            # default reflectivity
//            [--metrics=PATH]                 # campaign.* counters as NDJSON
//            [--flight-recorder[=events]]     # per-rank flight recorders per
//                                             # attempt; failed attempts dump
//                                             # `.fdr` files next to the ledger
//            [--list]                         # print the expanded jobs and exit
//            [--log-level=LVL]
//
// Validation mode (no deck run): `./run_campaign --validate=results.ndjson`
// parses every record against schema v1, reports each malformed line as
// `<path>: line N: <reason>`, and exits 0 iff every line parses and every
// job is done.
//
// Fault drill (CI smoke / demos): --fail-job=I --fail-attempts=M makes the
// I-th expanded job throw on its first step for its first M attempts,
// exercising the retry path end to end.
//
// Exit codes: 0 = every job done (or skipped as already done), 1 = any job
// failed or an internal error, 2 = usage.
#include <fstream>
#include <iostream>

#include "campaign/executor.hpp"
#include "campaign/results.hpp"
#include "campaign/spec.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/ndjson.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

using namespace minivpic;

namespace {

int validate(const std::string& path) {
  // Line-by-line so every malformed record is reported with its line
  // number and reason — not just the first one read_all() would throw on.
  std::ifstream in(path);
  if (!in.good()) {
    std::cerr << "run_campaign: cannot open " << path << "\n";
    return 1;
  }
  std::vector<campaign::JobResult> results;
  std::string line;
  int lineno = 0, bad = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    try {
      results.push_back(
          campaign::result_from_json(telemetry::Json::parse(line)));
    } catch (const Error& e) {
      std::cout << path << ": line " << lineno << ": " << e.what() << "\n";
      ++bad;
    }
  }
  int done = 0, failed = 0;
  for (const campaign::JobResult& r : results) {
    if (r.status == "done") ++done;
    else ++failed;
  }
  std::cout << path << ": " << results.size() << " records, " << done
            << " done, " << failed << " failed";
  if (bad > 0) std::cout << ", " << bad << " malformed line(s)";
  std::cout << "\n";
  for (const campaign::JobResult& r : results) {
    if (r.status != "done")
      std::cout << "  failed: " << r.id << " (" << r.label << "): " << r.error
                << "\n";
  }
  return (failed == 0 && bad == 0) ? 0 : 1;
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  args.check_known({"jobs", "ranks", "pipelines", "max-threads", "retries",
                    "backoff", "timeout", "max-resumes", "steps", "set",
                    "results", "resume", "scratch", "curve", "curve-axis",
                    "curve-metric", "metrics", "flight-recorder", "list",
                    "validate", "fail-job", "fail-attempts", "log-level"});
  if (args.has("log-level"))
    set_log_level(parse_log_level(args.get("log-level", "info")));
  if (args.has("validate")) return validate(args.get("validate", ""));
  if (args.positional().empty()) {
    std::cerr << "usage: run_campaign <deck-with-[campaign]> [--jobs=N] "
                 "[--ranks=N] [--pipelines=N]\n"
                 "       [--max-threads=N] [--retries=N] [--timeout=seconds] "
                 "[--max-resumes=N]\n"
                 "       [--steps=N] [--set=section.key=value ...] "
                 "[--results=PATH] [--resume]\n"
                 "       [--scratch=DIR] [--curve=PATH.csv] "
                 "[--curve-axis=section.key] [--curve-metric=NAME]\n"
                 "       [--metrics=PATH] [--list] | "
                 "--validate=results.ndjson\n";
    return 2;
  }
  const std::string deck_path = args.positional()[0];

  // Base deck + [campaign] section; --set patches the base (and thereby
  // every job — and every job id, since ids hash the base deck too).
  sim::DeckSource source = sim::DeckSource::from_file(deck_path);
  for (const std::string& spec_str : args.get_all("set"))
    source.apply_override(sim::parse_override(spec_str));
  campaign::CampaignSpec spec =
      campaign::CampaignSpec::from_deck_source(std::move(source));
  MV_REQUIRE(!spec.axes().empty(),
             deck_path << ": no [campaign] axes to sweep (add lines like "
                          "'laser.a0 = 0.05, 0.10')");
  if (args.has("steps")) spec.set_steps(int(args.get_int("steps", 0)));

  const std::vector<campaign::Job> jobs = spec.expand();
  if (args.get_bool("list", false)) {
    Table table({"#", "id", "label", "steps"});
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      table.add_row({(long long)i, jobs[i].id, jobs[i].label,
                     (long long)jobs[i].steps});
    }
    table.print(std::cout, "campaign jobs (" + deck_path + ")");
    return 0;
  }

  campaign::ExecutorConfig config;
  config.workers = int(args.get_int("jobs", 1));
  config.ranks_per_job = int(args.get_int("ranks", 1));
  config.pipelines_per_job = int(args.get_int("pipelines", 1));
  config.max_threads = int(args.get_int("max-threads", 0));
  config.retry.max_attempts = int(args.get_int("retries", 3));
  config.retry.backoff_seconds = args.get_double("backoff", 0.1);
  config.retry.timeout_seconds = args.get_double("timeout", 0);
  config.retry.max_resumes = int(args.get_int("max-resumes", 64));
  config.scratch_dir = args.get("scratch", ".");
  telemetry::MetricsRegistry registry;
  config.metrics = &registry;

  // Fault drill: job --fail-job throws on its first step while its attempt
  // number is <= --fail-attempts, then runs clean — the retry path must
  // carry it to done.
  const long long fail_job = args.get_int("fail-job", -1);
  const int fail_attempts = int(args.get_int("fail-attempts", 1));
  if (fail_job >= 0) {
    MV_REQUIRE(std::size_t(fail_job) < jobs.size(),
               "--fail-job=" << fail_job << " but the campaign has only "
                             << jobs.size() << " jobs");
    const std::string fail_id = jobs[std::size_t(fail_job)].id;
    config.per_step_hook = [fail_id, fail_attempts](sim::Simulation& sim,
                                                    const campaign::Job& job,
                                                    int attempt) {
      if (job.id == fail_id && attempt <= fail_attempts &&
          sim.step_index() <= 1) {
        MV_REQUIRE(false, "injected campaign fault (job " << job.label
                                                          << ", attempt "
                                                          << attempt << ")");
      }
    };
  }

  const std::string results_path =
      args.get("results", deck_path + ".results.ndjson");

  // Flight recorders: failed attempts leave per-rank `.fdr` dumps in the
  // ledger's directory, ready for examples/postmortem.
  if (args.has("flight-recorder")) {
    const auto slash = results_path.find_last_of('/');
    config.recorder_dir =
        slash == std::string::npos ? "." : results_path.substr(0, slash);
    const std::string v = args.get("flight-recorder", "true");
    if (v != "true" && v != "1") {
      const long long n = args.get_int("flight-recorder", 0);
      MV_REQUIRE(n >= 2, "--flight-recorder=" << v
                             << ": event capacity must be >= 2");
      config.recorder_events = std::size_t(n);
    }
    telemetry::install_crash_handlers();
  }

  campaign::ResultStore store(results_path, args.get_bool("resume", false));
  if (!store.completed_ids().empty()) {
    std::cout << "resuming: " << store.completed_ids().size()
              << " job(s) already done in " << results_path << "\n";
  }

  campaign::CampaignExecutor executor(spec, config);
  std::cout << "campaign: " << jobs.size() << " job(s) x " << spec.steps()
            << " steps, " << executor.effective_workers() << " worker(s) x "
            << config.ranks_per_job << " rank(s) x "
            << config.pipelines_per_job << " pipeline(s)\n";
  const campaign::CampaignSummary summary = executor.run(store);

  Table table({"total", "skipped", "done", "failed", "retries", "resumes",
               "wall s", "jobs/h"});
  table.add_row({(long long)summary.total, (long long)summary.skipped,
                 (long long)summary.done, (long long)summary.failed,
                 (long long)summary.retries, (long long)summary.resumes,
                 summary.wall_seconds, summary.jobs_per_hour});
  table.print(std::cout, "campaign summary");
  std::cout << "results ledger: " << results_path << " ("
            << store.records_written() << " records)\n";

  if (args.has("curve")) {
    const std::string axis = args.get("curve-axis", spec.axes()[0].key);
    const std::string metric = args.get("curve-metric", "reflectivity");
    const auto curve = campaign::aggregate_curve(
        campaign::ResultStore::read_all(results_path), axis, metric);
    campaign::write_curve_csv(args.get("curve", ""), axis, metric, curve);
    std::cout << "curve (" << metric << " vs " << axis << "): "
              << args.get("curve", "") << " (" << curve.size()
              << " points)\n";
  }
  if (args.has("metrics")) {
    telemetry::NdjsonWriter metrics(args.get("metrics", ""));
    telemetry::Json j = telemetry::Json::object();
    j.set("type", telemetry::Json::string("campaign_metrics"));
    telemetry::Json vals = telemetry::Json::object();
    for (const telemetry::ScalarMetric& m : registry.scalars())
      vals.set(m.name, telemetry::Json::number(m.value));
    j.set("metrics", std::move(vals));
    metrics.write(j);
  }
  return summary.all_done() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::cerr << "run_campaign: error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "run_campaign: unexpected error: " << e.what() << "\n";
    return 1;
  }
}
