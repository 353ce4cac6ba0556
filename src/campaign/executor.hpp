// CampaignExecutor: a worker pool that drives a CampaignSpec's jobs to
// completion. Each job runs as an isolated Simulation inside its own
// in-process vmpi world (vmpi::run), so N jobs execute concurrently from N
// worker threads with no shared simulation state — the concurrency audit
// in tests/vmpi/test_stress.cpp pins down that worlds compose this way.
//
// Thread budget: a campaign's total concurrency is workers x ranks_per_job
// x pipelines_per_job. The executor clamps the worker count so that product
// never exceeds max_threads (default: the hardware thread count) — the
// campaign-level analogue of the paper's "one pipeline per SPE" discipline:
// oversubscription makes every job slower instead of any job faster.
//
// Failure handling (see queue.hpp): a throwing attempt is retried with
// exponential backoff up to the retry budget; an attempt that exceeds its
// wall-time budget checkpoints (v2 checksummed format, sim/checkpoint.hpp),
// yields its worker, and is requeued to resume from that checkpoint —
// long jobs make progress in bounded slices without starving the queue.
//
// Telemetry: pass a MetricsRegistry to get the campaign.* counters and the
// queue-depth gauge of docs/OBSERVABILITY.md.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/queue.hpp"
#include "campaign/results.hpp"
#include "campaign/spec.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"

namespace minivpic::sim {
class Simulation;
class ReflectivityProbe;
}

namespace minivpic::campaign {

struct ExecutorConfig {
  int workers = 1;           ///< concurrent jobs
  int ranks_per_job = 1;     ///< vmpi world size per job
  int pipelines_per_job = 1; ///< Deck::pipelines per job (>= 1; no "auto")
  /// Cap on workers x ranks_per_job x pipelines_per_job; 0 = one per
  /// hardware thread. Workers are clamped to fit.
  int max_threads = 0;
  RetryPolicy retry;
  /// Directory for per-job checkpoint sets (timeout/resume); must exist.
  std::string scratch_dir = ".";
  /// Per-call deadline (seconds) for every blocking vmpi call inside a
  /// job's world; 0 = wait forever (the pre-fault-tolerance default). A
  /// wedged or dead rank then surfaces as vmpi::CommError within one
  /// deadline and the job takes the retry path instead of hanging its
  /// worker. See docs/FAULTS.md.
  double comm_timeout_seconds = 0;
  /// CRC32-frame + sequence-number every vmpi message inside job worlds
  /// (detects corruption, duplication and loss; payloads untouched).
  bool comm_integrity = false;
  /// Optional campaign.* counters + queue-depth gauge sink. Must outlive
  /// run(). The registry locks itself, so it may be shared with other
  /// producers (the service layer's service.* instruments).
  telemetry::MetricsRegistry* metrics = nullptr;

  /// When non-empty, every attempt runs with per-rank flight recorders
  /// (telemetry/recorder.hpp) wired into the job's world; a failed attempt
  /// dumps `<recorder_dir>/<job-id>.attempt<k>.rank<r>.fdr` so the
  /// forensics of a flaky job land next to the result ledger and feed the
  /// postmortem tool. Successful attempts leave no dumps behind. The
  /// directory must exist.
  std::string recorder_dir;
  /// Ring capacity (events per rank) for campaign flight recorders.
  std::size_t recorder_events = telemetry::Recorder::kDefaultCapacity;

  // -- hooks (tests, fault drills, science diagnostics) --------------------
  /// Called on every rank after every step; a throw fails the attempt and
  /// takes the retry path (sim::FaultInjector composes here).
  std::function<void(sim::Simulation&, const Job&, int attempt)> per_step_hook;
  /// Called on every rank when a job's final step completes, while the
  /// simulation is still alive — collectives are safe. `probe` is the job's
  /// reflectivity probe (null when the job has none); `result` is non-null
  /// on rank 0 only, and hooks attach science extras there.
  std::function<void(sim::Simulation&, const Job&,
                     const sim::ReflectivityProbe* probe, JobResult* result)>
      on_complete;
  /// Called (from a worker thread) after every terminal job's record has
  /// been appended to the ResultStore — done and failed alike. The service
  /// front door resolves waiting clients here. Fires in both batch and
  /// service mode.
  std::function<void(const JobResult&)> on_result;
};

struct CampaignSummary {
  int total = 0;    ///< expanded jobs
  int skipped = 0;  ///< already done in the ResultStore (resume)
  int done = 0;
  int failed = 0;
  int retries = 0;
  int resumes = 0;
  int workers = 0;  ///< effective (post-clamp) worker count
  double wall_seconds = 0;
  double jobs_per_hour = 0;  ///< done / wall hours
  bool all_done() const { return failed == 0 && done + skipped == total; }
};

class CampaignExecutor {
 public:
  CampaignExecutor(const CampaignSpec& spec, ExecutorConfig config);

  /// Worker count after the thread-budget clamp.
  int effective_workers() const { return workers_; }

  /// Expands the spec, skips jobs the store already holds as done, runs
  /// everything else to a terminal state, and appends one record per
  /// executed job. Blocks until the queue drains.
  CampaignSummary run(ResultStore& results);

  // -- service mode (external submission; see docs/SERVICE.md) -------------
  /// Starts the worker pool against an open queue that submit() feeds.
  /// Results land in `results` exactly as in run(); the spec contributes
  /// the base deck and defaults, while submitted jobs may carry their own
  /// deck text (Job::deck_text). Mutually exclusive with run().
  void start(ResultStore& results);

  /// Enqueues one externally built job (id from campaign::job_id). A
  /// non-negative `resume_step` restarts a drained checkpoint-sliced job
  /// from its checkpoint under `resume_prefix`.
  void submit(const Job& job, std::int64_t resume_step = -1,
              const std::string& resume_prefix = {});

  /// Pending/running totals of the service queue (dispatch gating).
  JobQueue::Counts queue_counts() const;

  /// Graceful drain: stop handing out leases, let in-flight attempts reach
  /// their natural end (a wall-time-sliced attempt checkpoints as usual),
  /// join the pool, and return the still-pending jobs — with any resume
  /// state — for the caller to persist and resubmit after restart.
  std::vector<Lease> stop();

 private:
  struct AttemptOutcome {
    JobResult result;
    bool timed_out = false;
    std::int64_t ckpt_step = -1;
    bool failed = false;
    std::string error;
    double seconds = 0;
    std::int64_t steps_advanced = 0;
  };

  AttemptOutcome run_attempt(const Lease& lease);
  void worker_loop(JobQueue& queue, ResultStore& results);
  void finish_terminal(JobQueue& queue, const JobResult& r);
  std::string scratch_prefix(const Job& job) const;
  void count(const char* counter, double d = 1.0);
  void set_queue_gauge(const JobQueue& queue);

  const CampaignSpec* spec_;
  ExecutorConfig config_;
  int workers_ = 1;

  std::mutex seconds_mu_;           ///< guards seconds_acc_
  std::map<std::string, double> seconds_acc_;  ///< wall seconds per job id

  // Service mode (start/submit/stop).
  bool service_ = false;
  std::unique_ptr<JobQueue> service_queue_;
  ResultStore* service_results_ = nullptr;
  std::vector<std::thread> service_pool_;
};

}  // namespace minivpic::campaign
