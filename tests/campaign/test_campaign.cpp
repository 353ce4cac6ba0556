// Campaign subsystem proof: spec expansion with stable content-hashed job
// ids, the retry/backoff and timeout/checkpoint/resume state machine, the
// crash-safe NDJSON result ledger with resume-skip, and curve aggregation
// matching a hand-rolled serial reference. The capstone: a job sliced into
// wall-time slivers (checkpoint + resume after every step) must end
// bit-identical to an uninterrupted run of the same deck.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/queue.hpp"
#include "campaign/results.hpp"
#include "campaign/spec.hpp"
#include "grid/halo.hpp"
#include "sim/simulation.hpp"
#include "telemetry/metrics.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/error.hpp"

namespace minivpic::campaign {
namespace {

// A deliberately tiny base deck so executor tests run in milliseconds.
const char* kBaseDeck = R"(
[grid]
nx = 12  ny = 2  nz = 2  dx = 0.5

[species electron]
q = -1  m = 1  ppc = 4  uth = 0.05  seed = 7

[species ion]
q = 1  m = 1836  ppc = 4  uth = 0.001  mobile = false
)";

std::string campaign_deck_text() {
  return std::string(kBaseDeck) +
         "\n[campaign]\n"
         "species electron.uth = 0.05, 0.07\n"
         "grid.nx = 12, 16\n"
         "steps = 4\n";
}

std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "/minivpic_campaign_" + tag;
}

std::vector<std::string> ids_of(const std::vector<Job>& jobs) {
  std::vector<std::string> ids;
  for (const Job& j : jobs) ids.push_back(j.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Quiet the expected retry warnings so fault-drill tests don't spam.
struct LogSilencer {
  LogLevel prev = log_level();
  LogSilencer() { set_log_level(LogLevel::kError); }
  ~LogSilencer() { set_log_level(prev); }
};

// -- spec expansion and job ids ----------------------------------------------

TEST(CampaignSpec, ExpandsCartesianProductWithControls) {
  CampaignSpec spec = CampaignSpec::from_deck_text(campaign_deck_text());
  ASSERT_EQ(spec.axes().size(), 2u);
  EXPECT_EQ(spec.steps(), 4);
  const std::vector<Job> jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 4u);
  // First axis slowest; labels carry every override.
  EXPECT_EQ(jobs[0].label, "species electron.uth=0.05,grid.nx=12");
  EXPECT_EQ(jobs[3].label, "species electron.uth=0.07,grid.nx=16");
  for (const Job& j : jobs) {
    EXPECT_EQ(j.id.size(), 16u);
    EXPECT_EQ(j.steps, 4);
    const sim::Deck d = spec.make_deck(j);
    EXPECT_EQ(d.species[0].load.uth,
              std::stod(j.overrides[0].value));
  }
  // All ids distinct.
  const auto ids = ids_of(jobs);
  EXPECT_EQ(std::set<std::string>(ids.begin(), ids.end()).size(), 4u);
}

TEST(CampaignSpec, IdsStableAcrossAxisReorderButNotValueChange) {
  sim::DeckSource base = sim::DeckSource::from_text(kBaseDeck);
  CampaignSpec a = CampaignSpec::from_deck_source(base);
  a.add_axis("species electron.uth", {"0.05", "0.07"});
  a.add_axis("grid.nx", {"12", "16"});
  CampaignSpec b = CampaignSpec::from_deck_source(base);
  b.add_axis("grid.nx", {"12", "16"});
  b.add_axis("species electron.uth", {"0.05", "0.07"});
  EXPECT_EQ(ids_of(a.expand()), ids_of(b.expand()));

  // A changed axis value, step count, or base deck changes the ids.
  CampaignSpec c = CampaignSpec::from_deck_source(base);
  c.add_axis("species electron.uth", {"0.05", "0.08"});
  c.add_axis("grid.nx", {"12", "16"});
  EXPECT_NE(ids_of(a.expand()), ids_of(c.expand()));
  CampaignSpec d = CampaignSpec::from_deck_source(base);
  d.add_axis("species electron.uth", {"0.05", "0.07"});
  d.add_axis("grid.nx", {"12", "16"});
  d.set_steps(11);
  EXPECT_NE(ids_of(a.expand()), ids_of(d.expand()));
}

TEST(CampaignSpec, UnknownOverrideKeyRejectedAtExpand) {
  sim::DeckSource base = sim::DeckSource::from_text(kBaseDeck);
  CampaignSpec spec = CampaignSpec::from_deck_source(base);
  spec.add_axis("grid.bogus_key", {"1", "2"});
  EXPECT_THROW(spec.expand(), Error);
}

TEST(CampaignSpec, UnknownControlKeyRejected) {
  EXPECT_THROW(CampaignSpec::from_deck_text(std::string(kBaseDeck) +
                                            "\n[campaign]\nfrobnicate = 3\n"),
               Error);
}

TEST(CampaignSpec, FactoryBaseSweepsProgrammaticDecks) {
  CampaignSpec spec = CampaignSpec::with_factory(
      "two_stream|v1", [](const std::vector<sim::DeckOverride>& overrides) {
        double drift = 0.2;
        for (const sim::DeckOverride& ov : overrides)
          if (ov.key == "drift_x") drift = std::stod(ov.value);
        return sim::two_stream_deck(8, 4, drift);
      });
  spec.add_axis("species beam.drift_x", {"0.1", "0.2"});
  spec.set_steps(2);
  const std::vector<Job> jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_NE(jobs[0].id, jobs[1].id);
  const sim::Deck d = spec.make_deck(jobs[0]);
  EXPECT_DOUBLE_EQ(d.species[0].load.drift[0], 0.1);
}

// -- job queue state machine --------------------------------------------------

TEST(JobQueue, RetriesWithBackoffUntilBudgetThenFails) {
  Job job;
  job.id = "j1";
  job.label = "the job";
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_seconds = 0.01;
  JobQueue queue({job}, policy);

  auto lease = queue.acquire();
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->attempt, 1);
  EXPECT_TRUE(queue.fail("j1", "first crash"));  // retry granted

  lease = queue.acquire();  // blocks through the backoff gate
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->attempt, 2);
  EXPECT_LT(lease->resume_step, 0);  // failures restart from scratch
  EXPECT_FALSE(queue.fail("j1", "second crash"));  // budget exhausted

  EXPECT_FALSE(queue.acquire().has_value());  // everything terminal
  const JobQueue::Counts c = queue.counts();
  EXPECT_EQ(c.failed, 1);
  EXPECT_EQ(c.retries, 1);
  const auto status = queue.snapshot();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].state, JobState::kFailed);
  EXPECT_EQ(status[0].last_error, "second crash");
}

TEST(JobQueue, BackoffDoublesPerRetry) {
  Job job;
  job.id = "j1";
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_seconds = 0.02;
  JobQueue queue({job}, policy);
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };

  ASSERT_TRUE(queue.acquire().has_value());
  // Lower bounds only: a slow host may hand the lease out later, never
  // sooner. The clock is read before fail() starts the gate.
  Clock::time_point failed_at = Clock::now();
  ASSERT_TRUE(queue.fail("j1", "first crash"));
  auto lease = queue.acquire();
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->attempt, 2);
  EXPECT_GE(seconds_since(failed_at), 0.02);

  failed_at = Clock::now();
  ASSERT_TRUE(queue.fail("j1", "second crash"));
  lease = queue.acquire();
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->attempt, 3);
  EXPECT_GE(seconds_since(failed_at), 0.04);
  EXPECT_FALSE(queue.fail("j1", "third crash"));
}

TEST(JobQueue, YieldResumeCarriesCheckpointAndHonorsBudget) {
  Job job;
  job.id = "j1";
  RetryPolicy policy;
  policy.max_resumes = 1;
  JobQueue queue({job}, policy);

  auto lease = queue.acquire();
  ASSERT_TRUE(lease.has_value());
  EXPECT_TRUE(queue.yield_resume("j1", "/tmp/ck", 5));

  lease = queue.acquire();
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->attempt, 1);  // a resume is not a retry
  EXPECT_EQ(lease->resumes, 1);
  EXPECT_EQ(lease->resume_step, 5);
  EXPECT_EQ(lease->resume_prefix, "/tmp/ck");

  EXPECT_FALSE(queue.yield_resume("j1", "/tmp/ck", 6));  // budget exhausted
  EXPECT_FALSE(queue.acquire().has_value());
  const auto status = queue.snapshot();
  EXPECT_EQ(status[0].state, JobState::kFailed);
  EXPECT_NE(status[0].last_error.find("resume budget"), std::string::npos);
}

TEST(JobQueue, DuplicateIdsRejected) {
  Job a, b;
  a.id = b.id = "same";
  EXPECT_THROW(JobQueue({a, b}, RetryPolicy{}), Error);
}

// -- executor ----------------------------------------------------------------

TEST(CampaignExecutor, ThreadBudgetClampsWorkers) {
  CampaignSpec spec = CampaignSpec::from_deck_text(campaign_deck_text());
  ExecutorConfig config;
  config.workers = 8;
  config.max_threads = 2;
  EXPECT_EQ(CampaignExecutor(spec, config).effective_workers(), 2);
  config.workers = 4;
  config.ranks_per_job = 2;
  config.pipelines_per_job = 2;
  config.max_threads = 8;
  EXPECT_EQ(CampaignExecutor(spec, config).effective_workers(), 2);
}

TEST(CampaignExecutor, InjectedFaultsRetryToDoneAndCountersTrack) {
  CampaignSpec spec = CampaignSpec::from_deck_text(campaign_deck_text());
  const std::vector<Job> jobs = spec.expand();
  const std::string victim = jobs[1].id;

  ExecutorConfig config;
  config.retry.max_attempts = 3;
  config.retry.backoff_seconds = 0.001;
  config.scratch_dir = ::testing::TempDir();
  telemetry::MetricsRegistry registry;
  config.metrics = &registry;
  std::atomic<int> faults{0};
  config.per_step_hook = [&](sim::Simulation& sim, const Job& job,
                             int attempt) {
    if (job.id == victim && attempt <= 2 && sim.step_index() <= 1) {
      faults.fetch_add(1);
      MV_REQUIRE(false, "injected fault");
    }
  };

  ResultStore store(temp_path("retry.ndjson"), /*resume=*/false);
  LogSilencer quiet;
  const CampaignSummary summary = CampaignExecutor(spec, config).run(store);
  EXPECT_TRUE(summary.all_done());
  EXPECT_EQ(summary.done, 4);
  EXPECT_EQ(summary.retries, 2);
  EXPECT_EQ(faults.load(), 2);
  EXPECT_EQ(registry.counter("campaign.jobs.done").value(), 4.0);
  EXPECT_EQ(registry.counter("campaign.retries").value(), 2.0);
  EXPECT_EQ(registry.gauge("campaign.queue.depth").value(), 0.0);

  // The ledger records the attempt count of the flaky job.
  for (const JobResult& r : ResultStore::read_all(store.path())) {
    EXPECT_EQ(r.status, "done");
    EXPECT_EQ(r.attempts, r.id == victim ? 3 : 1);
  }
}

TEST(CampaignExecutor, ExhaustedRetriesRecordFailure) {
  CampaignSpec spec = CampaignSpec::from_deck_text(campaign_deck_text());
  ExecutorConfig config;
  config.retry.max_attempts = 2;
  config.retry.backoff_seconds = 0.001;
  config.scratch_dir = ::testing::TempDir();
  config.per_step_hook = [&](sim::Simulation&, const Job&, int) {
    MV_REQUIRE(false, "always crashes");
  };
  ResultStore store(temp_path("exhaust.ndjson"), /*resume=*/false);
  LogSilencer quiet;
  const CampaignSummary summary = CampaignExecutor(spec, config).run(store);
  EXPECT_FALSE(summary.all_done());
  EXPECT_EQ(summary.failed, 4);
  const auto results = ResultStore::read_all(store.path());
  ASSERT_EQ(results.size(), 4u);
  for (const JobResult& r : results) {
    EXPECT_EQ(r.status, "failed");
    EXPECT_EQ(r.attempts, 2);
    EXPECT_NE(r.error.find("always crashes"), std::string::npos);
  }
}

TEST(CampaignExecutor, TimeoutSlicedRunMatchesUninterruptedBitForBit) {
  // One job, wall budget so small every attempt yields after one step:
  // the job only finishes through the checkpoint -> resume path.
  sim::DeckSource base = sim::DeckSource::from_text(kBaseDeck);
  CampaignSpec spec = CampaignSpec::from_deck_source(base);
  spec.add_axis("species electron.uth", {"0.06"});
  spec.set_steps(8);

  ExecutorConfig config;
  config.retry.timeout_seconds = 1e-6;
  config.retry.max_resumes = 64;
  config.scratch_dir = ::testing::TempDir();

  struct Captured {
    std::mutex mu;
    std::vector<std::vector<grid::real>> fields;
    double energy = 0;
    std::int64_t particles = 0;
    std::int64_t step = 0;
  } captured;
  config.on_complete = [&captured](sim::Simulation& sim, const Job&,
                                   const sim::ReflectivityProbe*,
                                   JobResult* result) {
    if (result == nullptr) return;
    std::lock_guard<std::mutex> lock(captured.mu);
    for (const auto c : grid::em_components()) {
      const grid::real* p = grid::component_data(sim.fields(), c);
      captured.fields.emplace_back(p, p + sim.fields().grid().num_voxels());
    }
    captured.energy = sim.energies().total;
    captured.particles = sim.global_particle_count();
    captured.step = sim.step_index();
  };

  ResultStore store(temp_path("slice.ndjson"), /*resume=*/false);
  const CampaignSummary summary = CampaignExecutor(spec, config).run(store);
  ASSERT_TRUE(summary.all_done());
  EXPECT_GT(summary.resumes, 0) << "timeout path never exercised";
  EXPECT_EQ(captured.step, 8);

  // Uninterrupted reference of the same job deck.
  const std::vector<Job> jobs = spec.expand();
  sim::Simulation ref(spec.make_deck(jobs[0]));
  ref.initialize();
  ref.run(8);
  EXPECT_DOUBLE_EQ(ref.energies().total, captured.energy);
  EXPECT_EQ(ref.global_particle_count(), captured.particles);
  const auto components = grid::em_components();
  ASSERT_EQ(captured.fields.size(), components.size());
  for (std::size_t ci = 0; ci < components.size(); ++ci) {
    const grid::real* p = grid::component_data(ref.fields(), components[ci]);
    for (std::int64_t v = 0; v < ref.fields().grid().num_voxels(); ++v)
      ASSERT_EQ(p[v], captured.fields[ci][std::size_t(v)])
          << "field mismatch, component " << ci << " voxel " << v;
  }

  // The ledger shows how the job actually got there.
  const auto results = ResultStore::read_all(store.path());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].resumes, summary.resumes);
  EXPECT_EQ(results[0].steps, 8);
}

TEST(CampaignExecutor, MultiRankJobsComplete) {
  sim::DeckSource base = sim::DeckSource::from_text(kBaseDeck);
  CampaignSpec spec = CampaignSpec::from_deck_source(base);
  spec.add_axis("species electron.uth", {"0.05", "0.07"});
  spec.set_steps(3);
  ExecutorConfig config;
  config.ranks_per_job = 2;
  config.max_threads = 2;
  config.scratch_dir = ::testing::TempDir();
  ResultStore store(temp_path("multirank.ndjson"), /*resume=*/false);
  const CampaignSummary summary = CampaignExecutor(spec, config).run(store);
  EXPECT_TRUE(summary.all_done());
  for (const JobResult& r : ResultStore::read_all(store.path())) {
    EXPECT_EQ(r.status, "done");
    EXPECT_EQ(r.particles, 12 * 2 * 2 * 4 * 2);  // voxels x ppc x species
  }
}

TEST(CampaignExecutor, CommTimeoutFailsJobWithTypedReason) {
  // Rank 0 receives on a tag nobody ever sends; with a comm deadline the
  // world dies with a typed timeout instead of hanging the worker, and the
  // ledger records the fault class.
  sim::DeckSource base = sim::DeckSource::from_text(kBaseDeck);
  CampaignSpec spec = CampaignSpec::from_deck_source(base);
  spec.add_axis("species electron.uth", {"0.05"});
  spec.set_steps(3);

  ExecutorConfig config;
  config.ranks_per_job = 2;
  config.max_threads = 2;
  config.retry.max_attempts = 1;
  config.comm_timeout_seconds = 0.25;
  config.scratch_dir = ::testing::TempDir();
  telemetry::MetricsRegistry registry;
  config.metrics = &registry;
  config.per_step_hook = [](sim::Simulation& sim, const Job&, int) {
    if (sim.step_index() == 1 && sim.comm() != nullptr &&
        sim.comm()->rank() == 0) {
      (void)sim.comm()->recv_value<int>(1, /*tag=*/77);  // never sent
    }
  };

  ResultStore store(temp_path("commtimeout.ndjson"), /*resume=*/false);
  LogSilencer quiet;
  const CampaignSummary summary = CampaignExecutor(spec, config).run(store);
  EXPECT_EQ(summary.failed, 1);
  const auto results = ResultStore::read_all(store.path());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, "failed");
  EXPECT_NE(results[0].error.find("comm fault [timeout]"), std::string::npos)
      << results[0].error;
  EXPECT_EQ(registry.counter("campaign.failures").value(), 1.0);
}

TEST(CampaignExecutor, CommFaultTakesRetryPathAndCountsFailures) {
  sim::DeckSource base = sim::DeckSource::from_text(kBaseDeck);
  CampaignSpec spec = CampaignSpec::from_deck_source(base);
  spec.add_axis("species electron.uth", {"0.05"});
  spec.set_steps(3);

  ExecutorConfig config;
  config.ranks_per_job = 2;
  config.max_threads = 2;
  config.retry.max_attempts = 2;
  config.retry.backoff_seconds = 0.001;
  config.scratch_dir = ::testing::TempDir();
  telemetry::MetricsRegistry registry;
  config.metrics = &registry;
  config.per_step_hook = [](sim::Simulation& sim, const Job&, int attempt) {
    if (attempt == 1 && sim.comm() != nullptr && sim.comm()->rank() == 1)
      throw vmpi::CommError(vmpi::Fault::kLost, "synthetic link loss");
  };

  ResultStore store(temp_path("commretry.ndjson"), /*resume=*/false);
  LogSilencer quiet;
  const CampaignSummary summary = CampaignExecutor(spec, config).run(store);
  EXPECT_TRUE(summary.all_done());
  EXPECT_EQ(summary.retries, 1);
  EXPECT_EQ(registry.counter("campaign.failures").value(), 1.0);
  const auto results = ResultStore::read_all(store.path());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, "done");
  EXPECT_EQ(results[0].attempts, 2);
}

TEST(CampaignExecutor, DeadWorldLedgerCarriesFailingRankRootCause) {
  // One rank of a two-rank job throws; the peer is released by the poison.
  // The ledger must carry the actual root cause, not a generic message.
  sim::DeckSource base = sim::DeckSource::from_text(kBaseDeck);
  CampaignSpec spec = CampaignSpec::from_deck_source(base);
  spec.add_axis("species electron.uth", {"0.05"});
  spec.set_steps(3);

  ExecutorConfig config;
  config.ranks_per_job = 2;
  config.max_threads = 2;
  config.retry.max_attempts = 1;
  config.scratch_dir = ::testing::TempDir();
  config.per_step_hook = [](sim::Simulation& sim, const Job&, int) {
    if (sim.comm() != nullptr && sim.comm()->rank() == 1)
      MV_REQUIRE(false, "disk on fire");
  };

  ResultStore store(temp_path("rootcause.ndjson"), /*resume=*/false);
  LogSilencer quiet;
  const CampaignSummary summary = CampaignExecutor(spec, config).run(store);
  EXPECT_EQ(summary.failed, 1);
  const auto results = ResultStore::read_all(store.path());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NE(results[0].error.find("disk on fire"), std::string::npos)
      << results[0].error;
}

TEST(CampaignExecutor, ResumedCampaignSkipsLedgeredJobs) {
  CampaignSpec spec = CampaignSpec::from_deck_text(campaign_deck_text());
  const std::vector<Job> jobs = spec.expand();
  const std::string path = temp_path("skip.ndjson");
  {
    ResultStore first(path, /*resume=*/false);
    JobResult done;
    done.id = jobs[0].id;
    done.label = jobs[0].label;
    done.status = "done";
    first.append(done);
    JobResult failed;  // failed records must NOT be skipped on resume
    failed.id = jobs[1].id;
    failed.status = "failed";
    failed.error = "earlier crash";
    first.append(failed);
  }
  ResultStore store(path, /*resume=*/true);
  EXPECT_EQ(store.completed_ids().size(), 1u);
  ExecutorConfig config;
  config.scratch_dir = ::testing::TempDir();
  const CampaignSummary summary = CampaignExecutor(spec, config).run(store);
  EXPECT_TRUE(summary.all_done());
  EXPECT_EQ(summary.skipped, 1);
  EXPECT_EQ(summary.done, 3);

  // Re-read: the previously-failed job now has a done record too.
  int done_records = 0;
  for (const JobResult& r : ResultStore::read_all(path))
    if (r.id == jobs[1].id && r.status == "done") ++done_records;
  EXPECT_EQ(done_records, 1);
}

// -- result store ------------------------------------------------------------

TEST(ResultStore, RoundTripsEveryField) {
  JobResult r;
  r.id = "00ff00ff00ff00ff";
  r.label = "laser.a0=0.1";
  r.overrides.push_back(sim::parse_override("laser.a0=0.1"));
  r.status = "done";
  r.attempts = 2;
  r.resumes = 3;
  r.steps = 40;
  r.seconds = 1.25;
  r.reflectivity = 0.125;
  r.energy_total = 2.5;
  r.kinetic_total = 1.5;
  r.particles = 9216;
  r.particles_per_sec = 1.5e7;
  r.extra.emplace_back("hot_fraction", 0.03125);

  const std::string path = temp_path("roundtrip.ndjson");
  {
    ResultStore store(path, /*resume=*/false);
    store.append(r);
  }
  const auto back = ResultStore::read_all(path);
  ASSERT_EQ(back.size(), 1u);
  const JobResult& b = back[0];
  EXPECT_EQ(b.id, r.id);
  EXPECT_EQ(b.label, r.label);
  ASSERT_EQ(b.overrides.size(), 1u);
  EXPECT_EQ(b.overrides[0].spec(), "laser.a0=0.1");
  EXPECT_EQ(b.attempts, 2);
  EXPECT_EQ(b.resumes, 3);
  EXPECT_EQ(b.steps, 40);
  EXPECT_DOUBLE_EQ(b.seconds, 1.25);
  EXPECT_DOUBLE_EQ(b.reflectivity, 0.125);
  EXPECT_DOUBLE_EQ(b.energy_total, 2.5);
  EXPECT_EQ(b.particles, 9216);
  ASSERT_EQ(b.extra.size(), 1u);
  EXPECT_EQ(b.extra[0].first, "hot_fraction");
  EXPECT_DOUBLE_EQ(b.extra[0].second, 0.03125);
}

TEST(ResultStore, ToleratesOnlyATrailingPartialLine) {
  JobResult r;
  r.id = "aaaaaaaaaaaaaaaa";
  r.status = "done";
  const std::string path = temp_path("partial.ndjson");
  {
    ResultStore store(path, /*resume=*/false);
    store.append(r);
    r.id = "bbbbbbbbbbbbbbbb";
    store.append(r);
  }
  // A crash mid-append leaves a partial trailing line: dropped with a warn.
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"type\":\"job_result\",\"schema\":1,\"id\":\"cccc";
  }
  LogSilencer quiet;
  EXPECT_EQ(ResultStore::read_all(path).size(), 2u);
  ResultStore resumed(path, /*resume=*/true);
  EXPECT_EQ(resumed.completed_ids().size(), 2u);

  // Corruption anywhere else is a hard error.
  const std::string bad = temp_path("midcorrupt.ndjson");
  {
    ResultStore store(bad, /*resume=*/false);
    store.append(r);
  }
  std::string good_line;
  {
    std::ifstream in(bad);
    std::getline(in, good_line);
  }
  {
    std::ofstream out(bad, std::ios::trunc);
    out << "not json at all\n" << good_line << "\n";
  }
  EXPECT_THROW(ResultStore::read_all(bad), Error);
}

// -- curve aggregation --------------------------------------------------------

std::vector<JobResult> curve_fixture() {
  std::vector<JobResult> results;
  const double a0s[] = {0.05, 0.10, 0.10, 0.20};
  const double refl[] = {0.01, 0.10, 0.14, 0.30};
  for (int i = 0; i < 4; ++i) {
    JobResult r;
    r.id = "job" + std::to_string(i);
    std::ostringstream v;
    v << a0s[i];
    r.overrides.push_back(sim::parse_override("laser.a0=" + v.str()));
    r.status = "done";
    r.reflectivity = refl[i];
    r.extra.emplace_back("hot_fraction", refl[i] / 10);
    results.push_back(r);
  }
  JobResult failed;  // failed jobs never contribute points
  failed.id = "failed";
  failed.overrides.push_back(sim::parse_override("laser.a0=0.40"));
  failed.status = "failed";
  results.push_back(failed);
  return results;
}

TEST(AggregateCurve, MatchesHandRolledSerialReference) {
  const std::vector<JobResult> results = curve_fixture();
  const std::vector<CurvePoint> curve =
      aggregate_curve(results, "laser.a0", "reflectivity");
  ASSERT_EQ(curve.size(), 3u);  // 0.05, 0.10 (two jobs), 0.20

  // Serial reference, computed the obvious way.
  EXPECT_DOUBLE_EQ(curve[0].x, 0.05);
  EXPECT_DOUBLE_EQ(curve[0].mean, 0.01);
  EXPECT_EQ(curve[0].n, 1);
  EXPECT_DOUBLE_EQ(curve[1].x, 0.10);
  EXPECT_DOUBLE_EQ(curve[1].mean, (0.10 + 0.14) / 2.0);
  EXPECT_DOUBLE_EQ(curve[1].min, 0.10);
  EXPECT_DOUBLE_EQ(curve[1].max, 0.14);
  EXPECT_EQ(curve[1].n, 2);
  EXPECT_DOUBLE_EQ(curve[2].x, 0.20);
  EXPECT_DOUBLE_EQ(curve[2].mean, 0.30);

  // Extra metrics aggregate the same way.
  const auto hot = aggregate_curve(results, "laser.a0", "hot_fraction");
  ASSERT_EQ(hot.size(), 3u);
  EXPECT_DOUBLE_EQ(hot[1].mean, (0.010 + 0.014) / 2.0);
}

TEST(AggregateCurve, CsvAndJsonOutputs) {
  const auto curve = aggregate_curve(curve_fixture(), "laser.a0");
  const std::string path = temp_path("curve.csv");
  write_curve_csv(path, "laser.a0", "reflectivity", curve);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "laser.a0,reflectivity_mean,reflectivity_min,reflectivity_max,"
            "jobs");
  int rows = 0;
  for (std::string line; std::getline(in, line);) ++rows;
  EXPECT_EQ(rows, 3);

  const telemetry::Json j = curve_to_json("laser.a0", "reflectivity", curve);
  EXPECT_EQ(j.at("axis").as_string(), "laser.a0");
  EXPECT_EQ(j.at("points").size(), 3u);
}

}  // namespace
}  // namespace minivpic::campaign
