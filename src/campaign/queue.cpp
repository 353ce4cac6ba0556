#include "campaign/queue.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace minivpic::campaign {

namespace {
constexpr double kBackoffFactor = 2.0;  // delay multiplier per further retry
}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kPending: return "pending";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
  }
  return "?";
}

JobQueue::JobQueue(std::vector<Job> jobs, RetryPolicy policy)
    : policy_(policy) {
  MV_REQUIRE(policy_.max_attempts >= 1, "retry policy needs max_attempts >= 1");
  MV_REQUIRE(policy_.max_resumes >= 0, "retry policy needs max_resumes >= 0");
  MV_REQUIRE(policy_.timeout_seconds >= 0,
             "retry policy needs timeout_seconds >= 0");
  entries_.reserve(jobs.size());
  for (Job& j : jobs) {
    for (const Entry& e : entries_)
      MV_REQUIRE(e.job.id != j.id,
                 "duplicate campaign job id " << j.id << " (" << j.label
                                              << ")");
    Entry e;
    e.job = std::move(j);
    entries_.push_back(std::move(e));
  }
}

JobQueue::JobQueue(RetryPolicy policy) : JobQueue({}, policy) { open_ = true; }

void JobQueue::push(Job job, std::int64_t resume_step,
                    std::string resume_prefix) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MV_REQUIRE(open_, "push() on a closed campaign queue");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].job.id != job.id) continue;
      const JobState s = entries_[i].state;
      MV_REQUIRE(s == JobState::kDone || s == JobState::kFailed,
                 "push() of live campaign job id " << job.id
                                                   << " (coalesce upstream)");
      entries_.erase(entries_.begin() + std::ptrdiff_t(i));
      break;
    }
    Entry e;
    e.job = std::move(job);
    e.resume_step = resume_step;
    e.resume_prefix = std::move(resume_prefix);
    entries_.push_back(std::move(e));
  }
  cv_.notify_all();
}

void JobQueue::freeze() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    frozen_ = true;
  }
  cv_.notify_all();
}

void JobQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }
  cv_.notify_all();
}

void JobQueue::erase_terminal(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].job.id != id) continue;
    if (entries_[i].state == JobState::kDone ||
        entries_[i].state == JobState::kFailed) {
      entries_.erase(entries_.begin() + std::ptrdiff_t(i));
    }
    return;
  }
}

std::vector<Lease> JobQueue::pending_leases() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Lease> out;
  for (const Entry& e : entries_) {
    if (e.state != JobState::kPending) continue;
    Lease lease;
    lease.job = e.job;
    lease.attempt = std::max(1, e.attempts);
    lease.resumes = e.resumes;
    lease.resume_step = e.resume_step;
    lease.resume_prefix = e.resume_prefix;
    out.push_back(std::move(lease));
  }
  return out;
}

JobQueue::Entry* JobQueue::find(const std::string& id) {
  for (Entry& e : entries_)
    if (e.job.id == id) return &e;
  MV_REQUIRE(false, "unknown campaign job id " << id);
  return nullptr;
}

std::optional<Lease> JobQueue::acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (frozen_) return std::nullopt;
    const auto now = std::chrono::steady_clock::now();
    Entry* ready = nullptr;
    std::optional<SteadyTime> earliest;
    bool any_pending_or_running = false;
    for (Entry& e : entries_) {
      if (e.state == JobState::kRunning) {
        any_pending_or_running = true;
        continue;
      }
      if (e.state != JobState::kPending) continue;
      any_pending_or_running = true;
      if (e.not_before <= now) {
        ready = &e;
        break;
      }
      if (!earliest || e.not_before < *earliest) earliest = e.not_before;
    }
    if (ready != nullptr) {
      ready->state = JobState::kRunning;
      const bool resuming = ready->resume_step >= 0;
      if (!resuming) ++ready->attempts;
      Lease lease;
      lease.job = ready->job;
      lease.attempt = std::max(1, ready->attempts);
      lease.resumes = ready->resumes;
      lease.resume_step = ready->resume_step;
      lease.resume_prefix = ready->resume_prefix;
      return lease;
    }
    if (!any_pending_or_running && !open_) return std::nullopt;
    // Nothing runnable right now: wait for a state change (complete/fail/
    // yield — or push/freeze/close on an open queue — wake us) or for the
    // earliest backoff gate to open.
    if (earliest) {
      cv_.wait_until(lock, *earliest);
    } else {
      cv_.wait(lock);
    }
  }
}

void JobQueue::complete(const std::string& id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry* e = find(id);
    MV_REQUIRE(e->state == JobState::kRunning,
               "complete() on a job that is not running: " << id);
    e->state = JobState::kDone;
    e->last_error.clear();
    ++done_;
  }
  cv_.notify_all();
}

bool JobQueue::fail(const std::string& id, const std::string& error) {
  bool will_retry = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry* e = find(id);
    MV_REQUIRE(e->state == JobState::kRunning,
               "fail() on a job that is not running: " << id);
    e->last_error = error;
    // A failed attempt restarts the job from scratch — a checkpoint written
    // before a later crash is not trusted.
    e->resume_step = -1;
    e->resume_prefix.clear();
    if (e->attempts >= policy_.max_attempts) {
      e->state = JobState::kFailed;
      ++failed_;
    } else {
      e->state = JobState::kPending;
      double delay = policy_.backoff_seconds;
      for (int i = 1; i < e->attempts; ++i) delay *= kBackoffFactor;
      e->not_before = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<SteadyTime::duration>(
                          std::chrono::duration<double>(delay));
      ++retries_handed_;
      will_retry = true;
    }
  }
  cv_.notify_all();
  return will_retry;
}

bool JobQueue::yield_resume(const std::string& id, const std::string& prefix,
                            std::int64_t step) {
  bool accepted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry* e = find(id);
    MV_REQUIRE(e->state == JobState::kRunning,
               "yield_resume() on a job that is not running: " << id);
    if (e->resumes >= policy_.max_resumes) {
      e->state = JobState::kFailed;
      ++failed_;
      e->last_error = "resume budget exhausted (" +
                      std::to_string(policy_.max_resumes) +
                      " wall-time yields)";
    } else {
      ++e->resumes;
      ++resumes_handed_;
      e->state = JobState::kPending;
      e->not_before = {};  // no backoff: the attempt made progress
      e->resume_step = step;
      e->resume_prefix = prefix;
      accepted = true;
    }
  }
  cv_.notify_all();
  return accepted;
}

JobQueue::Counts JobQueue::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  Counts c;
  for (const Entry& e : entries_) {
    switch (e.state) {
      case JobState::kPending: ++c.pending; break;
      case JobState::kRunning: ++c.running; break;
      case JobState::kDone: break;   // cumulative below
      case JobState::kFailed: break; // cumulative below
    }
  }
  // Cumulative so erase_terminal() (service garbage collection) does not
  // make finished work disappear from the tallies. In batch mode nothing
  // is ever erased and these equal the entry scan.
  c.done = done_;
  c.failed = failed_;
  c.retries = retries_handed_;
  c.resumes = resumes_handed_;
  return c;
}

std::vector<JobQueue::JobStatus> JobQueue::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobStatus> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    out.push_back({e.job.id, e.job.label, e.state, e.attempts, e.resumes,
                   e.last_error});
  }
  return out;
}

}  // namespace minivpic::campaign
