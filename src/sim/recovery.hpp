// Coordinated rollback recovery: the bridge between the vmpi fault-tolerance
// plane (vmpi/error.hpp, vmpi/fault.hpp) and the checkpoint subsystem.
//
// A RecoveryCoordinator supervises a multi-rank simulation run as a sequence
// of vmpi worlds. Inside each world every rank steps its domain, takes
// periodic collective checkpoints, and — when any rank detects a typed
// CommError (timeout, CRC corruption, lost message, dead peer) — the
// detecting rank *revokes* the world so every survivor fails fast, the
// survivors run an agreement round over the checkpoint-manifest steps, and
// all ranks return. The coordinator then tears the world down, relaunches a
// full-size replacement, and resumes every rank from the newest *mutually
// agreed* checkpoint set. Because stepping and checkpoint restore are
// bit-deterministic (docs/ARCHITECTURE.md "Determinism contract"), a
// recovered run finishes with state bit-identical to a fault-free run.
//
// A rank killed by a scheduled FaultPlane kill marks itself dead (the
// in-process stand-in for a failure detector) and returns; peers learn of
// the death through the liveness epoch the moment they block on it.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sim/deck.hpp"
#include "sim/simulation.hpp"
#include "vmpi/config.hpp"

namespace minivpic::telemetry {
class MetricsRegistry;
class Recorder;
class TraceWriter;
}  // namespace minivpic::telemetry

namespace minivpic::sim {

struct RecoveryConfig {
  /// World size; the domain is split along x (the long axis of every canned
  /// deck), periodicity taken from the deck boundaries.
  int ranks = 2;

  /// Checkpoint set prefix; required when checkpoint_every > 0 (rollback
  /// needs a set to return to).
  std::string checkpoint_prefix;
  int checkpoint_every = 0;  ///< steps between collective saves; 0 = never
  int checkpoint_keep = 2;   ///< rotation depth passed to Checkpoint::save

  /// Rollback budget: recovery fails once a run needs more than this many
  /// world relaunches after faults.
  int max_recoveries = 8;

  /// Per-call deadline (seconds) for every blocking vmpi call inside the
  /// world; 0 = wait forever. This bounds failure detection: a wedged peer
  /// surfaces as Fault::kTimeout within one deadline.
  double comm_timeout = 10.0;

  /// CRC32-frame + sequence-number every message (detects corruption,
  /// duplication and loss at the receiver).
  bool integrity = true;

  /// Optional injection schedule; outlives the coordinator. Scheduled
  /// faults fire once across all relaunches, so replays are clean.
  vmpi::FaultPlane* fault_plane = nullptr;

  telemetry::MetricsRegistry* metrics = nullptr;  ///< comm.* / recovery.*
  telemetry::TraceWriter* trace = nullptr;        ///< spans + rollback instants

  /// Per-rank flight recorders (index = rank), empty or size == ranks. Each
  /// world wires rank r's Simulation and comm hook to recorders[r]:
  /// checkpoint/restore/fault/recovery events land in the black box, and
  /// the caller dumps the `.fdr` files on an unrecoverable exit. Not owned;
  /// must outlive run().
  std::vector<telemetry::Recorder*> recorders;

  /// Record a step-keyed energy history on rank 0 (collective: every rank
  /// samples energies each step). Rolled-back rows are truncated, so the
  /// final history matches a fault-free run row for row.
  bool record_history = true;

  /// Resume support: restore this manifest step before the first step
  /// (from checkpoint_prefix); -1 starts fresh via initialize().
  std::int64_t resume_step = -1;

  /// Called on every rank after each step (collective code only — every
  /// rank must make the same vmpi calls).
  std::function<void(Simulation&, vmpi::Comm&)> per_step;

  /// Called on every rank after the final step of a world that completed
  /// (collective). May run more than once if a fault lands after it but
  /// before every rank returned — it must be idempotent.
  std::function<void(Simulation&, vmpi::Comm&)> on_final;
};

struct RecoveryReport {
  bool completed = false;     ///< the run reached `steps` on every rank
  int rollbacks = 0;          ///< worlds relaunched after a fault
  int worlds = 0;             ///< worlds launched in total (>= 1)
  std::int64_t final_step = -1;
  std::string last_fault;     ///< description of the most recent fault
  vmpi::CommStats::Snapshot comm;  ///< final comm fault-tolerance counters
};

/// One step-keyed row of the rank-0 energy history.
struct HistoryRow {
  std::int64_t step = 0;
  double time = 0;
  double field = 0;
  double kinetic = 0;
  double total = 0;
};

class RecoveryCoordinator {
 public:
  RecoveryCoordinator(const Deck& deck, RecoveryConfig config);

  /// Runs the deck to `steps` steps under fault-tolerant supervision.
  /// Returns a report; report.completed == false means the recovery budget
  /// was exhausted or no mutually agreed checkpoint existed to roll back
  /// to. Rethrows non-communication rank errors (a poisoned world) —
  /// those are bugs or physics faults, not recoverable comm failures.
  RecoveryReport run(std::int64_t steps);

  const std::vector<HistoryRow>& history() const { return history_; }
  void write_history_csv(const std::string& path) const;

  /// Cumulative comm fault-tolerance counters across all worlds launched.
  const vmpi::CommStats& comm_stats() const { return stats_; }

 private:
  void record_history_row(Simulation& sim, vmpi::Comm& comm);
  void push_metric_deltas(vmpi::CommStats::Snapshot* last);

  Deck deck_;
  RecoveryConfig config_;
  vmpi::CommStats stats_;
  std::mutex history_mu_;
  std::vector<HistoryRow> history_;
};

}  // namespace minivpic::sim
