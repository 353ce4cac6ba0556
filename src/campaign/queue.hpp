// JobQueue: the thread-safe heart of the campaign executor. Jobs move
// through pending -> running -> done | failed, with two distinct re-entry
// paths back to pending:
//
//  * fail(): an attempt threw. Retried with exponential backoff until the
//    retry budget (max_attempts) is exhausted, then the job is failed.
//  * yield_resume(): an attempt hit its wall-time budget after writing a
//    checkpoint. Requeued immediately (no backoff — nothing is wrong with
//    the job) carrying the checkpoint prefix and step so the next attempt
//    restores instead of reinitializing. Bounded by max_resumes so a job
//    that cannot make progress inside its budget eventually fails instead
//    of cycling forever; a resume is NOT a retry (it made progress).
//
// acquire() blocks until a job is runnable, the earliest backoff deadline
// passes, or every job is terminal (returns nullopt -> worker exits). All
// timing uses steady_clock.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "campaign/spec.hpp"

namespace minivpic::campaign {

/// Failure/timeout handling knobs shared by the queue and the executor.
struct RetryPolicy {
  int max_attempts = 3;         ///< failure attempts per job (>= 1)
  double backoff_seconds = 0.1; ///< delay before retry #2; doubles per retry
  double timeout_seconds = 0;   ///< per-attempt wall budget; 0 = unlimited
  int max_resumes = 64;         ///< timeout->checkpoint->resume cycles per job
};

enum class JobState { kPending, kRunning, kDone, kFailed };
const char* job_state_name(JobState s);

/// A job handed to a worker, with everything the attempt needs to know.
struct Lease {
  Job job;
  int attempt = 1;               ///< 1-based failure-attempt number
  int resumes = 0;               ///< resume cycles consumed so far
  std::int64_t resume_step = -1; ///< restore from this step; < 0 = fresh
  std::string resume_prefix;     ///< checkpoint prefix when resuming
};

class JobQueue {
 public:
  JobQueue(std::vector<Job> jobs, RetryPolicy policy);

  /// An *open* queue for the service executor: starts empty, accepts push()
  /// until close(), and acquire() blocks while the queue is open even when
  /// nothing is currently runnable.
  explicit JobQueue(RetryPolicy policy);

  const RetryPolicy& policy() const { return policy_; }

  /// Adds a job to an open queue (external service submissions). A terminal
  /// entry with the same id is replaced — resubmitting a failed job re-runs
  /// it — while a live duplicate throws (the service coalesces those before
  /// they reach the queue). A non-negative `resume_step` seeds a
  /// checkpoint-resume lease: how a drained daemon restarts sliced jobs.
  void push(Job job, std::int64_t resume_step = -1,
            std::string resume_prefix = {});

  /// Stops handing out leases: acquire() returns nullopt immediately, while
  /// running attempts may still complete/fail/yield (their entries stay for
  /// pending_leases()). The first half of a graceful drain.
  void freeze();

  /// No more push(); acquire() returns nullopt once nothing is runnable.
  void close();

  /// Blocks until a job is runnable and leases it, or returns nullopt once
  /// every job is terminal (and the queue is closed and not frozen). Safe
  /// to call from many worker threads.
  std::optional<Lease> acquire();

  /// Removes a terminal (done/failed) entry so a long-lived service queue
  /// does not grow without bound; the cumulative done/failed counts()
  /// survive the removal. No-op when the id is absent or still live.
  void erase_terminal(const std::string& id);

  /// Pending (leasable, not running, not terminal) jobs with their resume
  /// state — what a draining service persists for restart.
  std::vector<Lease> pending_leases() const;

  /// Terminal success for a leased job.
  void complete(const std::string& id);

  /// Attempt failed: requeues with backoff and returns true, or — when the
  /// retry budget is exhausted — marks the job failed and returns false.
  bool fail(const std::string& id, const std::string& error);

  /// Attempt hit its wall budget after checkpointing at `step` under
  /// `prefix`: requeues for resume and returns true, or — when the resume
  /// budget is exhausted — marks the job failed and returns false.
  bool yield_resume(const std::string& id, const std::string& prefix,
                    std::int64_t step);

  struct Counts {
    int pending = 0, running = 0, done = 0, failed = 0;
    int retries = 0;  ///< failure re-runs handed out
    int resumes = 0;  ///< resume re-runs handed out
    int total() const { return pending + running + done + failed; }
    bool finished() const { return pending == 0 && running == 0; }
  };
  Counts counts() const;

  /// Terminal per-job state (id, state, attempts, last error) snapshot.
  struct JobStatus {
    std::string id;
    std::string label;
    JobState state = JobState::kPending;
    int attempts = 0;
    int resumes = 0;
    std::string last_error;
  };
  std::vector<JobStatus> snapshot() const;

 private:
  using SteadyTime = std::chrono::steady_clock::time_point;

  struct Entry {
    Job job;
    JobState state = JobState::kPending;
    int attempts = 0;  ///< leases handed out minus resume leases
    int resumes = 0;
    SteadyTime not_before{};  ///< backoff gate while pending
    std::int64_t resume_step = -1;
    std::string resume_prefix;
    std::string last_error;
  };

  Entry* find(const std::string& id);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Entry> entries_;
  RetryPolicy policy_;
  bool open_ = false;    ///< service mode: push() allowed, acquire() waits
  bool frozen_ = false;  ///< drain: no further leases
  int done_ = 0;         ///< cumulative, survives erase_terminal()
  int failed_ = 0;       ///< cumulative, survives erase_terminal()
  int retries_handed_ = 0;
  int resumes_handed_ = 0;
};

}  // namespace minivpic::campaign
