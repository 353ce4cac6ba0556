#include "sim/recovery.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/checkpoint.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/trace.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "vmpi/cart.hpp"
#include "vmpi/error.hpp"
#include "vmpi/fault.hpp"
#include "vmpi/runtime.hpp"

namespace minivpic::sim {

namespace {

/// Sentinel for "no rank reached the agreement round this world".
constexpr std::int64_t kNoAgreement = std::numeric_limits<std::int64_t>::max();

}  // namespace

RecoveryCoordinator::RecoveryCoordinator(const Deck& deck,
                                         RecoveryConfig config)
    : deck_(deck), config_(std::move(config)) {
  MV_REQUIRE(config_.ranks >= 1, "recovery needs at least one rank, got "
                                     << config_.ranks);
  MV_REQUIRE(config_.checkpoint_every <= 0 || !config_.checkpoint_prefix.empty(),
             "checkpoint_every > 0 requires a checkpoint_prefix");
  MV_REQUIRE(config_.max_recoveries >= 0, "max_recoveries must be >= 0");
  MV_REQUIRE(config_.recorders.empty() ||
                 static_cast<int>(config_.recorders.size()) == config_.ranks,
             "recorders must be empty or one per rank");
}

void RecoveryCoordinator::record_history_row(Simulation& sim,
                                             vmpi::Comm& comm) {
  if (!config_.record_history) return;
  // energies() is collective — every rank must get here; only rank 0 keeps
  // the row.
  const EnergyReport e = sim.energies();
  if (comm.rank() != 0) return;
  HistoryRow row;
  row.step = sim.step_index();
  row.time = sim.time();
  row.field = e.field.total();
  row.kinetic = e.kinetic_total;
  row.total = e.total;
  std::lock_guard<std::mutex> lock(history_mu_);
  history_.push_back(row);
}

void RecoveryCoordinator::push_metric_deltas(
    vmpi::CommStats::Snapshot* last) {
  if (config_.metrics == nullptr) return;
  const vmpi::CommStats::Snapshot now = stats_.snapshot();
  auto& m = *config_.metrics;
  m.counter("comm.faults_injected", "count")
      .add(static_cast<double>(now.faults_injected - last->faults_injected));
  m.counter("comm.faults_detected", "count")
      .add(static_cast<double>(now.faults_detected - last->faults_detected));
  m.counter("comm.timeouts", "count")
      .add(static_cast<double>(now.timeouts - last->timeouts));
  m.counter("comm.peer_deaths", "count")
      .add(static_cast<double>(now.peer_deaths - last->peer_deaths));
  *last = now;
}

RecoveryReport RecoveryCoordinator::run(std::int64_t steps) {
  MV_REQUIRE(steps >= 0, "step count must be >= 0, got " << steps);

  // Register every metric up front, which fixes their order in the dump.
  if (config_.metrics != nullptr) {
    config_.metrics->counter("comm.faults_injected", "count");
    config_.metrics->counter("comm.faults_detected", "count");
    config_.metrics->counter("comm.timeouts", "count");
    config_.metrics->counter("comm.peer_deaths", "count");
    config_.metrics->counter("recovery.rollbacks", "count");
    config_.metrics->counter("recovery.worlds", "count");
  }

  RecoveryReport report;
  vmpi::CommStats::Snapshot last = stats_.snapshot();
  std::int64_t start_from = config_.resume_step;

  const bool px = deck_.grid.boundary[0] == grid::BoundaryKind::kPeriodic;
  const bool py = deck_.grid.boundary[2] == grid::BoundaryKind::kPeriodic;
  const bool pz = deck_.grid.boundary[4] == grid::BoundaryKind::kPeriodic;

  for (;;) {
    // Per-world shared state, written by rank threads under attempt_mu.
    std::mutex attempt_mu;
    bool fault = false;          // a recoverable comm fault was detected
    bool fatal = false;          // the world was poisoned (non-comm error)
    std::string fault_reason;
    std::int64_t agreed = kNoAgreement;  // min over agreement participants
    int completed = 0;
    std::int64_t final_step = -1;

    vmpi::WorldConfig wc;
    wc.timeout_seconds = config_.comm_timeout;
    wc.integrity = config_.integrity;
    wc.fault_plane = config_.fault_plane;
    wc.stats = &stats_;
    telemetry::RecorderSet recorder_set{config_.recorders.data(),
                                        config_.ranks};
    if (!config_.recorders.empty()) {
      wc.comm_hook = telemetry::vmpi_comm_hook;
      wc.comm_hook_ctx = &recorder_set;
    }

    auto rank_fn = [&](vmpi::Comm& comm) {
      telemetry::Recorder* recorder =
          config_.recorders.empty()
              ? nullptr
              : config_.recorders[static_cast<std::size_t>(comm.rank())];
      try {
        // Same x-only decomposition as campaign::CampaignExecutor: the
        // canned decks are longest along x.
        const vmpi::CartTopology topo({config_.ranks, 1, 1}, {px, py, pz});
        Simulation sim(deck_, config_.ranks > 1 ? &comm : nullptr,
                       config_.ranks > 1 ? &topo : nullptr);
        sim.set_recorder(recorder);
        if (start_from >= 0) {
          Checkpoint::restore_step(sim, config_.checkpoint_prefix,
                                   start_from);
          if (recorder != nullptr)
            recorder->record(telemetry::FdrKind::kRestore, 0, -1,
                             static_cast<std::uint64_t>(start_from));
        } else {
          sim.initialize();
          record_history_row(sim, comm);  // the step-0 row
        }
        while (sim.step_index() < steps) {
          if (config_.fault_plane != nullptr)
            config_.fault_plane->on_step(comm.rank(), sim.step_index());
          sim.step();
          if (config_.per_step) config_.per_step(sim, comm);
          record_history_row(sim, comm);
          if (config_.checkpoint_every > 0 &&
              sim.step_index() % config_.checkpoint_every == 0 &&
              sim.step_index() < steps) {
            Checkpoint::save(sim, config_.checkpoint_prefix,
                             config_.checkpoint_keep);
            if (recorder != nullptr)
              recorder->record(telemetry::FdrKind::kCheckpoint, 0, -1,
                               static_cast<std::uint64_t>(sim.step_index()));
          }
        }
        if (config_.on_final) config_.on_final(sim, comm);
        if (recorder != nullptr) recorder->record(telemetry::FdrKind::kExit);
        {
          std::lock_guard<std::mutex> lock(attempt_mu);
          ++completed;
          if (comm.rank() == 0) final_step = sim.step_index();
        }
      } catch (const vmpi::CommError& e) {
        // The black box sees the typed fault before any recovery reaction,
        // so the postmortem's first-stalled verdict keys off this ordering
        // (the killed rank records its kKilled strictly before survivors
        // record the timeouts/revocations it causes).
        if (recorder != nullptr)
          recorder->record(telemetry::FdrKind::kFault,
                           static_cast<std::uint16_t>(e.fault()));
        switch (e.fault()) {
          case vmpi::Fault::kKilled:
            // A scheduled kill: this rank cooperatively dies. Marking the
            // liveness epoch is the in-process stand-in for an external
            // failure detector — peers blocked on this rank fail fast. The
            // dead rank does NOT revoke (a dead node can't); a survivor
            // detecting the death does.
            {
              std::lock_guard<std::mutex> lock(attempt_mu);
              fault = true;
              if (fault_reason.empty()) fault_reason = e.what();
            }
            // Kills fire out of FaultPlane::on_step, not the send path, so
            // the world's counters never see them — account for it here.
            stats_.faults_injected.fetch_add(1);
            comm.mark_self_dead(e.what());
            return;
          case vmpi::Fault::kPoisoned:
            // Another rank threw a non-comm error; vmpi::run will rethrow
            // it. Nothing to recover from here.
            {
              std::lock_guard<std::mutex> lock(attempt_mu);
              fatal = true;
              if (fault_reason.empty()) fault_reason = e.what();
            }
            return;
          default: {
            // Detected failure (timeout, corruption, loss, dead peer,
            // revoked world): revoke so every survivor converges within one
            // blocking call, then agree on the newest mutually restorable
            // checkpoint step. The values fed into the agreement all come
            // from the shared manifest, so the no-collector fallback inside
            // agree_min still converges.
            {
              std::lock_guard<std::mutex> lock(attempt_mu);
              fault = true;
              if (fault_reason.empty()) fault_reason = e.what();
            }
            comm.revoke(e.what());
            std::int64_t local =
                config_.checkpoint_prefix.empty()
                    ? -1
                    : Checkpoint::latest_step(config_.checkpoint_prefix);
            // The agreement deadline must always be finite: ranks that
            // already completed never join the round.
            const double agree_timeout =
                config_.comm_timeout > 0 ? config_.comm_timeout : 5.0;
            std::int64_t got = local;
            try {
              got = comm.agree_min(local, agree_timeout);
            } catch (...) {
              got = local;
            }
            std::lock_guard<std::mutex> lock(attempt_mu);
            agreed = std::min(agreed, got);
            return;
          }
        }
      }
    };

    ++report.worlds;
    if (config_.metrics != nullptr)
      config_.metrics->counter("recovery.worlds", "count").add(1);

    try {
      vmpi::run(config_.ranks, rank_fn, wc);
    } catch (...) {
      // A rank failed with a non-communication error (physics fault, I/O
      // failure, bug). That is not recoverable by rollback — surface it.
      push_metric_deltas(&last);
      report.comm = stats_.snapshot();
      throw;
    }
    push_metric_deltas(&last);

    if (completed == config_.ranks) {
      report.completed = true;
      report.final_step = final_step;
      break;
    }
    report.last_fault = fault_reason;
    if (fatal && !fault) break;  // poisoned but nothing thrown: give up

    // Rollback decision.
    if (report.rollbacks >= config_.max_recoveries) break;
    std::int64_t target = agreed;
    if (target == kNoAgreement) {
      // No survivor reached the agreement round (e.g. the fault hit after
      // the last communication). Fall back to the manifest directly.
      target = config_.checkpoint_prefix.empty()
                   ? -1
                   : Checkpoint::latest_step(config_.checkpoint_prefix);
    }
    if (target < 0) break;  // nothing to roll back to

    ++report.rollbacks;
    for (telemetry::Recorder* r : config_.recorders)
      if (r != nullptr)
        r->record(telemetry::FdrKind::kRecovery, 0, -1,
                  static_cast<std::uint64_t>(target));
    if (config_.metrics != nullptr)
      config_.metrics->counter("recovery.rollbacks", "count").add(1);
    if (config_.trace != nullptr) {
      telemetry::Json args = telemetry::Json::object();
      args.set("rollback_to_step", telemetry::Json::number(target));
      args.set("world", telemetry::Json::number(
                            static_cast<std::int64_t>(report.worlds)));
      args.set("fault", telemetry::Json::string(fault_reason));
      config_.trace->instant("recovery.rollback", "recovery",
                             std::move(args));
    }

    // Drop history rows the rollback will replay, so the final history is
    // row-for-row what a fault-free run records.
    {
      std::lock_guard<std::mutex> lock(history_mu_);
      while (!history_.empty() && history_.back().step > target)
        history_.pop_back();
    }
    start_from = target;
  }

  report.comm = stats_.snapshot();
  return report;
}

void RecoveryCoordinator::write_history_csv(const std::string& path) const {
  Table table({"step", "time", "field_energy", "kinetic_energy",
               "total_energy"});
  for (const HistoryRow& r : history_) {
    table.add_row({static_cast<long long>(r.step), r.time, r.field, r.kinetic,
                   r.total});
  }
  table.write_csv_file(path);
}

}  // namespace minivpic::sim
