#include "campaign/executor.hpp"

#include <algorithm>
#include <optional>
#include <thread>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/diagnostics.hpp"
#include "sim/simulation.hpp"
#include "telemetry/sampler.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/pipeline.hpp"
#include "util/timer.hpp"
#include "vmpi/cart.hpp"
#include "vmpi/runtime.hpp"

namespace minivpic::campaign {

CampaignExecutor::CampaignExecutor(const CampaignSpec& spec,
                                   ExecutorConfig config)
    : spec_(&spec), config_(std::move(config)) {
  MV_REQUIRE(config_.workers >= 1, "campaign needs at least one worker");
  MV_REQUIRE(config_.ranks_per_job >= 1, "campaign needs >= 1 rank per job");
  MV_REQUIRE(config_.pipelines_per_job >= 1,
             "campaign needs an explicit pipelines_per_job >= 1 (the thread "
             "budget cannot resolve 'auto' per job)");
  const int budget = config_.max_threads > 0 ? config_.max_threads
                                             : Pipeline::hardware_pipelines();
  const int per_job = config_.ranks_per_job * config_.pipelines_per_job;
  MV_REQUIRE(per_job <= budget || config_.workers == 1,
             "one job already needs " << per_job << " threads but the budget "
                                      << "is " << budget);
  workers_ = std::min(config_.workers, std::max(1, budget / per_job));
  if (workers_ < config_.workers) {
    MV_LOG_WARN << "campaign: clamping " << config_.workers << " workers to "
                << workers_ << " (thread budget " << budget << " = workers x "
                << config_.ranks_per_job << " rank(s) x "
                << config_.pipelines_per_job << " pipeline(s))";
  }
  // Pre-register every campaign metric so scalars() and the metrics dump
  // list them in this order, whichever a worker touches first.
  if (config_.metrics != nullptr) {
    auto& m = *config_.metrics;
    for (const char* counter :
         {"campaign.jobs.done", "campaign.jobs.failed", "campaign.jobs.skipped",
          "campaign.failures", "campaign.retries", "campaign.resumes",
          "campaign.steps"})
      m.counter(counter, "count");
    m.gauge("campaign.queue.depth", "count");
    m.gauge("campaign.workers", "count");
  }
}

std::string CampaignExecutor::scratch_prefix(const Job& job) const {
  return config_.scratch_dir + "/campaign_" + job.id + ".ckpt";
}

void CampaignExecutor::count(const char* counter, double d) {
  if (config_.metrics != nullptr) config_.metrics->counter(counter).add(d);
}

void CampaignExecutor::set_queue_gauge(const JobQueue& queue) {
  if (config_.metrics == nullptr) return;
  const JobQueue::Counts c = queue.counts();
  config_.metrics->gauge("campaign.queue.depth")
      .set(double(c.pending + c.running));
}

CampaignExecutor::AttemptOutcome CampaignExecutor::run_attempt(
    const Lease& lease) {
  AttemptOutcome out;
  Timer wall;
  const std::string prefix = scratch_prefix(lease.job);

  // Per-attempt flight recorders: one ring per rank, dumped only when the
  // attempt fails (the success path leaves no `.fdr` files behind).
  std::vector<std::unique_ptr<telemetry::Recorder>> recorders;
  std::vector<telemetry::Recorder*> recorder_ptrs;
  telemetry::RecorderSet recorder_set;
  if (!config_.recorder_dir.empty()) {
    for (int r = 0; r < config_.ranks_per_job; ++r) {
      recorders.push_back(std::make_unique<telemetry::Recorder>(
          config_.recorder_dir + "/" + lease.job.id + ".attempt" +
              std::to_string(lease.attempt) + ".rank" + std::to_string(r) +
              ".fdr",
          r, config_.recorder_events));
      recorder_ptrs.push_back(recorders.back().get());
    }
    recorder_set = {recorder_ptrs.data(), config_.ranks_per_job};
  }
  const auto dump_recorders = [&](telemetry::FdrDumpReason reason) {
    for (const auto& rec : recorders) rec->dump(reason);
  };

  try {
    sim::Deck deck = spec_->make_deck(lease.job);
    deck.pipelines = config_.pipelines_per_job;
    const int ranks = config_.ranks_per_job;
    const double timeout = config_.retry.timeout_seconds;
    const auto& hook = config_.per_step_hook;
    const auto& done_hook = config_.on_complete;

    vmpi::WorldConfig wc;
    wc.timeout_seconds = config_.comm_timeout_seconds;
    wc.integrity = config_.comm_integrity;
    if (!recorders.empty()) {
      wc.comm_hook = telemetry::vmpi_comm_hook;
      wc.comm_hook_ctx = &recorder_set;
    }

    vmpi::run(ranks, [&](vmpi::Comm& comm) {
      // x-only decomposition: every canned/LPI deck is longest along x, and
      // a 1-D split keeps the smallest surface for these job sizes.
      const vmpi::CartTopology topo(
          {ranks, 1, 1},
          {deck.grid.boundary[0] == grid::BoundaryKind::kPeriodic,
           deck.grid.boundary[2] == grid::BoundaryKind::kPeriodic,
           deck.grid.boundary[4] == grid::BoundaryKind::kPeriodic});
      sim::Simulation sim(deck, ranks > 1 ? &comm : nullptr,
                          ranks > 1 ? &topo : nullptr);
      if (!recorders.empty())
        sim.set_recorder(recorders[std::size_t(comm.rank())].get());
      if (lease.resume_step >= 0) {
        sim::Checkpoint::restore(sim, lease.resume_prefix);
      } else {
        sim.initialize();
      }
      std::optional<sim::ReflectivityProbe> probe;
      if (lease.job.probe_plane >= 0)
        probe.emplace(sim, lease.job.probe_plane);

      Timer attempt_timer;
      const std::int64_t start_step = sim.step_index();
      bool yielded = false;
      while (sim.step_index() < lease.job.steps) {
        sim.step();
        if (probe) probe->sample(lease.job.warmup);
        if (hook) hook(sim, lease.job, lease.attempt);
        if (timeout > 0 && sim.step_index() < lease.job.steps) {
          // Rank 0's clock decides; the decision is broadcast so every rank
          // takes the same branch (a split would deadlock the collectives).
          int stop = (comm.rank() == 0 &&
                      attempt_timer.seconds() >= timeout)
                         ? 1
                         : 0;
          if (ranks > 1) stop = comm.allreduce_value(stop, vmpi::Op::kMax);
          if (stop != 0) {
            sim::Checkpoint::save(sim, prefix, /*keep=*/2);
            if (comm.rank() == 0) {
              out.timed_out = true;
              out.ckpt_step = sim.step_index();
            }
            yielded = true;
            break;
          }
        }
      }
      if (comm.rank() == 0)
        out.steps_advanced = sim.step_index() - start_step;
      if (yielded) return;

      // Terminal success: gather the result (collectives — all ranks).
      const sim::EnergyReport energies = sim.energies();
      const std::int64_t particles = sim.global_particle_count();
      const double refl = probe ? probe->reflectivity() : -1.0;
      if (done_hook) {
        done_hook(sim, lease.job, probe ? &*probe : nullptr,
                  comm.rank() == 0 ? &out.result : nullptr);
      }
      if (comm.rank() == 0) {
        JobResult& r = out.result;
        r.id = lease.job.id;
        r.label = lease.job.label;
        r.overrides = lease.job.overrides;
        r.status = "done";
        r.steps = sim.step_index();
        r.reflectivity = refl;
        r.energy_total = energies.total;
        r.kinetic_total = energies.kinetic_total;
        r.particles = particles;
        const telemetry::StepSample total = telemetry::StepSampler::
            derive_total(sim, attempt_timer.seconds());
        r.particles_per_sec = total.particles_per_sec;
      }
    }, wc);
  } catch (const vmpi::CommError& e) {
    // A dead world: a comm-layer fault (timeout, corruption, dead peer) or
    // a poisoned world whose reason now carries the failing rank's root
    // cause. The typed prefix keeps the fault class greppable in the
    // result ledger.
    out.failed = true;
    out.error = std::string("comm fault [") + vmpi::fault_name(e.fault()) +
                "]: " + e.what();
    dump_recorders(telemetry::FdrDumpReason::kCommFault);
  } catch (const std::exception& e) {
    out.failed = true;
    out.error = e.what();
    dump_recorders(telemetry::FdrDumpReason::kHealthAbort);
  }
  out.seconds = wall.seconds();
  return out;
}

void CampaignExecutor::worker_loop(JobQueue& queue, ResultStore& results) {
  while (std::optional<Lease> lease = queue.acquire()) {
    const std::string& id = lease->job.id;
    AttemptOutcome out = run_attempt(*lease);
    count("campaign.steps", double(out.steps_advanced));
    double total_seconds = 0;
    {
      std::lock_guard<std::mutex> lock(seconds_mu_);
      total_seconds = (seconds_acc_[id] += out.seconds);
    }
    if (out.timed_out) {
      if (queue.yield_resume(id, scratch_prefix(lease->job), out.ckpt_step)) {
        count("campaign.resumes");
      } else {
        JobResult r;
        r.id = id;
        r.label = lease->job.label;
        r.overrides = lease->job.overrides;
        r.status = "failed";
        r.attempts = lease->attempt;
        r.resumes = lease->resumes;
        r.steps = out.ckpt_step;
        r.seconds = total_seconds;
        r.error = "resume budget exhausted";
        results.append(r);
        count("campaign.jobs.failed");
        finish_terminal(queue, r);
      }
    } else if (out.failed) {
      MV_LOG_WARN << "campaign job " << id << " (" << lease->job.label
                  << ") attempt " << lease->attempt << " failed: "
                  << out.error;
      count("campaign.failures");  // every failed attempt, retried or not
      if (queue.fail(id, out.error)) {
        count("campaign.retries");
      } else {
        JobResult r;
        r.id = id;
        r.label = lease->job.label;
        r.overrides = lease->job.overrides;
        r.status = "failed";
        r.attempts = lease->attempt;
        r.resumes = lease->resumes;
        r.seconds = total_seconds;
        r.error = out.error;
        results.append(r);
        count("campaign.jobs.failed");
        finish_terminal(queue, r);
      }
    } else {
      queue.complete(id);
      out.result.attempts = lease->attempt;
      out.result.resumes = lease->resumes;
      out.result.seconds = total_seconds;
      results.append(out.result);
      count("campaign.jobs.done");
      // Scratch checkpoints of a finished job are dead weight.
      try {
        sim::Checkpoint::remove_all(scratch_prefix(lease->job),
                                    config_.ranks_per_job);
      } catch (const std::exception& e) {
        MV_LOG_WARN << "campaign: could not clean checkpoints of job " << id
                    << ": " << e.what();
      }
      finish_terminal(queue, out.result);
    }
    set_queue_gauge(queue);
  }
}

void CampaignExecutor::finish_terminal(JobQueue& queue, const JobResult& r) {
  if (config_.on_result) config_.on_result(r);
  if (service_) {
    // A long-lived service queue garbage-collects terminal entries (the
    // cumulative counts survive); the ledger + its index keep the record.
    queue.erase_terminal(r.id);
    std::lock_guard<std::mutex> lock(seconds_mu_);
    seconds_acc_.erase(r.id);
  }
}

void CampaignExecutor::start(ResultStore& results) {
  MV_REQUIRE(!service_, "campaign executor already started");
  service_ = true;
  service_results_ = &results;
  service_queue_ = std::make_unique<JobQueue>(config_.retry);
  if (config_.metrics != nullptr)
    config_.metrics->gauge("campaign.workers").set(double(workers_));
  service_pool_.reserve(std::size_t(workers_));
  for (int w = 0; w < workers_; ++w) {
    service_pool_.emplace_back(
        [this] { worker_loop(*service_queue_, *service_results_); });
  }
}

void CampaignExecutor::submit(const Job& job, std::int64_t resume_step,
                              const std::string& resume_prefix) {
  MV_REQUIRE(service_ && service_queue_ != nullptr,
             "submit() needs a start()ed executor");
  service_queue_->push(job, resume_step, resume_prefix);
  set_queue_gauge(*service_queue_);
}

JobQueue::Counts CampaignExecutor::queue_counts() const {
  MV_REQUIRE(service_queue_ != nullptr, "queue_counts() needs service mode");
  return service_queue_->counts();
}

std::vector<Lease> CampaignExecutor::stop() {
  MV_REQUIRE(service_, "stop() without start()");
  // Freeze first so no further leases go out, then close so workers exit
  // once their in-flight attempt reaches a terminal or yield state.
  service_queue_->freeze();
  service_queue_->close();
  for (std::thread& t : service_pool_) t.join();
  service_pool_.clear();
  std::vector<Lease> pending = service_queue_->pending_leases();
  service_ = false;
  return pending;
}

CampaignSummary CampaignExecutor::run(ResultStore& results) {
  MV_REQUIRE(!service_, "run() on a service-mode executor");
  Timer wall;
  std::vector<Job> jobs = spec_->expand();
  CampaignSummary summary;
  summary.total = int(jobs.size());

  // Resume: jobs the ledger already holds as done never reach the queue.
  std::vector<Job> todo;
  todo.reserve(jobs.size());
  for (Job& j : jobs) {
    if (results.completed_ids().count(j.id) != 0) {
      ++summary.skipped;
    } else {
      todo.push_back(std::move(j));
    }
  }
  count("campaign.jobs.skipped", double(summary.skipped));

  JobQueue queue(std::move(todo), config_.retry);
  const int nworkers =
      std::max(1, std::min(workers_, queue.counts().total()));
  summary.workers = nworkers;
  if (config_.metrics != nullptr)
    config_.metrics->gauge("campaign.workers").set(double(nworkers));
  set_queue_gauge(queue);

  std::vector<std::thread> pool;
  pool.reserve(std::size_t(nworkers - 1));
  for (int w = 1; w < nworkers; ++w)
    pool.emplace_back([&] { worker_loop(queue, results); });
  worker_loop(queue, results);
  for (std::thread& t : pool) t.join();

  const JobQueue::Counts c = queue.counts();
  summary.done = c.done;
  summary.failed = c.failed;
  summary.retries = c.retries;
  summary.resumes = c.resumes;
  summary.wall_seconds = wall.seconds();
  summary.jobs_per_hour = summary.wall_seconds > 0
                              ? double(summary.done) * 3600.0 /
                                    summary.wall_seconds
                              : 0.0;
  return summary;
}

}  // namespace minivpic::campaign
