// The step-phase vocabulary, defined once. The StepTimings slots, the
// sampler's `phase.<p>.s` NDJSON keys (timed phases, table order), trace
// span names and `.fdr` phase codes all derive from kPhases. A Phase value
// is its `.fdr` code and the table order is the NDJSON key order, both
// on-disk schemas (docs/OBSERVABILITY.md): append, never reorder.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>

#include "telemetry/recorder.hpp"
#include "telemetry/trace.hpp"
#include "util/timer.hpp"

namespace minivpic::telemetry {

enum class Phase : std::uint16_t {
  kStep,          ///< the whole step; every other span nests inside it
  kInterpolate,   ///< interpolator load
  kPush,          ///< particle advance (the paper's inner loop)
  kMigrate,       ///< inter-rank exchange (overlapped runs: the join wait)
  kSort,          ///< periodic bin sort
  kReduce,        ///< pipeline accumulator-block reduction
  kSources,       ///< source clear + antenna; accumulator unload + halo fold
  kField,         ///< B/E advances incl. halo refresh
  kClean,         ///< Marder passes
  kCollide,       ///< binary collision operator
  kPushSkin,      ///< overlap sub-phases (docs/OVERLAP.md), nested in push
  kPushInterior,
  kMigrateAsync,  ///< the async exchange, on the comm worker thread
};

struct PhaseInfo {
  const char* name;  ///< span name, NDJSON `phase.<name>.s`, `.fdr` label
  bool timed;        ///< owns a StepTimings slot and an NDJSON key
};

inline constexpr PhaseInfo kPhases[] = {
    {"step", false},         {"interpolate", true}, {"push", true},
    {"migrate", true},       {"sort", true},        {"reduce", true},
    {"sources", true},       {"field", true},       {"clean", true},
    {"collide", true},       {"push.skin", false},  {"push.interior", false},
    {"migrate.async", false},
};
inline constexpr std::size_t kNumPhases = std::size(kPhases);
static_assert(kNumPhases == std::size_t(Phase::kMigrateAsync) + 1,
              "every Phase needs exactly one kPhases entry");

constexpr const PhaseInfo& phase_info(Phase p) {
  return kPhases[std::size_t(p)];
}

/// The name of a `.fdr` phase code ("phase?" when out of range).
inline const char* fdr_phase_name(std::uint16_t code) {
  return code < kNumPhases ? kPhases[code].name : "phase?";
}

/// Wall-clock cost of each timed phase of the steps taken so far, indexed
/// by Phase (the slots of untimed phases stay zero).
class StepTimings {
 public:
  Stopwatch& operator[](Phase p) { return laps_[std::size_t(p)]; }
  const Stopwatch& operator[](Phase p) const { return laps_[std::size_t(p)]; }

  /// Sum over the timed phases, in table order.
  double total_seconds() const {
    double total = 0;
    for (std::size_t p = 0; p < kNumPhases; ++p)
      if (kPhases[p].timed) total += laps_[p].total_seconds();
    return total;
  }

 private:
  std::array<Stopwatch, kNumPhases> laps_;
};

/// The step loop's one instrumentation primitive, an RAII probe around one
/// phase: laps the scope into the phase's StepTimings slot (timed phases
/// only), mirrors it as a trace span (category `step`) and as flight
/// recorder begin/end events, and reports its elapsed seconds for the
/// overlap ledger. Null sinks cost one pointer test each.
class PhaseProbe {
 public:
  PhaseProbe(Phase phase, StepTimings& timings, TraceWriter* trace,
             Recorder* recorder)
      : phase_(phase), timings_(timings), trace_(trace), recorder_(recorder) {
    if (trace_ != nullptr)
      trace_->begin(phase_info(phase_).name, phase_info(Phase::kStep).name);
    if (recorder_ != nullptr)
      recorder_->record(FdrKind::kPhaseBegin, std::uint16_t(phase_));
  }
  ~PhaseProbe() {
    if (recorder_ != nullptr)
      recorder_->record(FdrKind::kPhaseEnd, std::uint16_t(phase_));
    if (trace_ != nullptr) trace_->end();
    if (phase_info(phase_).timed) timings_[phase_].add_lap(clock_.seconds());
  }
  PhaseProbe(const PhaseProbe&) = delete;
  PhaseProbe& operator=(const PhaseProbe&) = delete;

  /// Seconds since construction.
  double seconds() const { return clock_.seconds(); }

 private:
  Phase phase_;
  StepTimings& timings_;
  TraceWriter* trace_;
  Recorder* recorder_;
  Timer clock_;
};

}  // namespace minivpic::telemetry
