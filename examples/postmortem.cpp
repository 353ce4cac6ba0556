// Crash forensics: merges per-rank flight-recorder dumps (`.fdr`, written
// by the Recorder on crash / comm fault / request; docs/OBSERVABILITY.md)
// into one cross-rank Chrome trace plus a human-readable report:
//
//   ./postmortem run.rank0.fdr run.rank1.fdr ...
//       [--trace=merged.json] [--last=12] [--report=report.txt]
//
// All ranks of a vmpi run are threads of one process and every Recorder
// shares one steady-clock epoch, so timestamps from different dumps order
// correctly against each other without clock reconciliation. The merged
// trace puts each rank on its own pid track (tid 0); phase begin/end pairs
// become duration spans and everything else becomes instant events, so the
// output passes `telemetry_check --trace` and loads in any Chrome-trace
// viewer next to the live TraceWriter output.
//
// The report prints the last N events per rank and two verdicts:
//   - who stalled first: the rank with the earliest fault-class event
//     (comm fault, rank fault, failed health sentinel) — or, with no fault
//     events at all, the rank that went silent (stopped recording) first;
//   - the divergence point: the last step every rank completed, and which
//     ranks fell short of the furthest rank.
//
// Exits 0 on success, 1 on unreadable/invalid dumps, 2 on usage errors.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/phase.hpp"
#include "telemetry/recorder.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "vmpi/error.hpp"  // inline fault_name only; no vmpi link needed

using namespace minivpic;
using telemetry::FdrEvent;
using telemetry::FdrKind;
using telemetry::Json;
using telemetry::Recorder;

namespace {

struct RankDump {
  std::string path;
  int rank = -1;
  Recorder::Dump dump;  ///< events oldest first, sorted by timestamp
};

bool is_fault_event(const FdrEvent& e) {
  const auto kind = FdrKind(e.kind);
  return kind == FdrKind::kCommFault || kind == FdrKind::kFault ||
         (kind == FdrKind::kHealth && e.code != 0);
}

/// Kind-specific detail column for the report and the trace args.
std::string event_detail(const FdrEvent& e) {
  std::ostringstream os;
  switch (FdrKind(e.kind)) {
    case FdrKind::kPhaseBegin:
    case FdrKind::kPhaseEnd:
      os << telemetry::fdr_phase_name(e.code);
      break;
    case FdrKind::kStep:
      os << "step " << e.arg;
      break;
    case FdrKind::kCommSend:
      os << "-> rank " << e.peer << " (" << e.arg << " B)";
      break;
    case FdrKind::kCommRecv:
      os << "<- rank " << e.peer << " (" << e.arg << " B)";
      break;
    case FdrKind::kCommFault:
      os << vmpi::fault_name(vmpi::Fault(e.code));
      if (e.peer >= 0) os << " (peer " << e.peer << ")";
      break;
    case FdrKind::kCheckpoint:
      os << "saved step " << e.arg;
      break;
    case FdrKind::kRestore:
      os << "restored step " << e.arg;
      break;
    case FdrKind::kHealth:
      os << (e.code == 0 ? "ok" : "FAULT") << " @ step " << e.arg;
      break;
    case FdrKind::kFault:
      os << vmpi::fault_name(vmpi::Fault(e.code));
      break;
    case FdrKind::kRecovery:
      os << "rollback to step " << e.arg;
      break;
    case FdrKind::kAnomaly:
      os << "kind " << e.code;
      break;
    case FdrKind::kDump:
      os << telemetry::fdr_dump_reason_name(telemetry::FdrDumpReason(e.code));
      break;
    case FdrKind::kServiceAccept:
      os << "accepted (depth " << e.arg << ")";
      break;
    case FdrKind::kServiceDispatch:
      os << "dispatched";
      break;
    case FdrKind::kServiceComplete:
      os << (e.code == 0 ? "done" : "failed");
      break;
    default:
      break;
  }
  return os.str();
}

/// Rank parsed from `<prefix>.rankN.fdr`; falls back to the header field.
int rank_from_path(const std::string& path, int header_rank) {
  const auto pos = path.rfind(".rank");
  if (pos != std::string::npos) {
    const char* s = path.c_str() + pos + 5;
    char* end = nullptr;
    const long r = std::strtol(s, &end, 10);
    if (end != s && r >= 0) return int(r);
  }
  return header_rank;
}

void emit_trace(const std::vector<RankDump>& dumps, const std::string& path) {
  Json events = Json::array();
  for (const RankDump& rd : dumps) {
    // Phase stack per rank: B without E at the tail (the ring stopped
    // mid-phase — the interesting case) is closed at the rank's last
    // timestamp; E without B at the head (begin rotated out of the ring)
    // is dropped. Both keep the merged trace well formed.
    std::vector<std::pair<std::uint16_t, double>> open;  // (phase, ts_us)
    double last_us = 0;
    for (const FdrEvent& e : rd.dump.events) {
      const double ts_us = double(e.ts_ns) / 1000.0;
      last_us = std::max(last_us, ts_us);
      Json ev = Json::object();
      const auto kind = FdrKind(e.kind);
      if (kind == FdrKind::kPhaseBegin) {
        ev.set("name", Json::string(telemetry::fdr_phase_name(e.code)));
        ev.set("cat", Json::string("phase"));
        ev.set("ph", Json::string("B"));
        open.emplace_back(e.code, ts_us);
      } else if (kind == FdrKind::kPhaseEnd) {
        if (open.empty()) continue;  // begin predates the ring
        open.pop_back();
        ev.set("ph", Json::string("E"));
      } else {
        ev.set("name", Json::string(telemetry::fdr_kind_name(kind)));
        ev.set("cat", Json::string("fdr"));
        ev.set("ph", Json::string("i"));
        ev.set("s", Json::string("t"));
      }
      ev.set("ts", Json::number(ts_us));
      ev.set("pid", Json::number(std::int64_t{rd.rank}));
      ev.set("tid", Json::number(std::int64_t{0}));
      if (kind != FdrKind::kPhaseBegin && kind != FdrKind::kPhaseEnd) {
        Json args = Json::object();
        args.set("detail", Json::string(event_detail(e)));
        if (e.step >= 0) args.set("step", Json::number(e.step));
        if (e.peer >= 0) args.set("peer", Json::number(std::int64_t{e.peer}));
        ev.set("args", std::move(args));
      }
      events.push_back(std::move(ev));
    }
    // Close spans still open when the recorder stopped (crash mid-phase).
    for (auto it = open.rbegin(); it != open.rend(); ++it) {
      Json ev = Json::object();
      ev.set("ph", Json::string("E"));
      ev.set("ts", Json::number(last_us));
      ev.set("pid", Json::number(std::int64_t{rd.rank}));
      ev.set("tid", Json::number(std::int64_t{0}));
      events.push_back(std::move(ev));
    }
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", Json::string("ms"));
  std::ofstream os(path, std::ios::trunc);
  MV_REQUIRE(os.good(), "cannot open trace output file: " << path);
  os << doc.dump() << "\n";
  MV_REQUIRE(os.good(), "failed writing merged trace to " << path);
}

void print_report(const std::vector<RankDump>& dumps, int last_n,
                  std::ostream& os) {
  os << "postmortem: " << dumps.size() << " rank dump(s)\n";

  // Per-rank summaries + tail of the event log.
  for (const RankDump& rd : dumps) {
    const auto& h = rd.dump.header;
    os << "\n-- rank " << rd.rank << " (" << rd.path << ") --\n";
    os << "   events: " << h.total << " recorded, " << h.stored
       << " in dump (ring capacity " << h.capacity << ")";
    if (h.total > h.stored) os << ", " << (h.total - h.stored) << " rotated out";
    os << "\n   dump reason: "
       << telemetry::fdr_dump_reason_name(telemetry::FdrDumpReason(h.reason))
       << "\n";
    const auto& ev = rd.dump.events;
    const std::size_t n = std::min<std::size_t>(ev.size(), std::size_t(last_n));
    os << "   last " << n << " events:\n";
    for (std::size_t i = ev.size() - n; i < ev.size(); ++i) {
      const FdrEvent& e = ev[i];
      os << "     t=" << double(e.ts_ns) / 1e9 << "s";
      if (e.step >= 0) os << " step " << e.step;
      os << "  " << telemetry::fdr_kind_name(FdrKind(e.kind));
      const std::string detail = event_detail(e);
      if (!detail.empty()) os << "  " << detail;
      os << "\n";
    }
  }

  // Verdict 1: who stalled first. Earliest fault-class event wins; with no
  // fault events anywhere, the rank whose recording ends earliest (it went
  // silent while the others kept logging).
  const FdrEvent* first_fault = nullptr;
  int first_fault_rank = -1;
  const RankDump* first_silent = nullptr;
  std::uint64_t silent_ts = 0;
  for (const RankDump& rd : dumps) {
    for (const FdrEvent& e : rd.dump.events) {
      if (is_fault_event(e) &&
          (first_fault == nullptr || e.ts_ns < first_fault->ts_ns)) {
        first_fault = &e;
        first_fault_rank = rd.rank;
      }
    }
    if (!rd.dump.events.empty()) {
      const std::uint64_t last = rd.dump.events.back().ts_ns;
      if (first_silent == nullptr || last < silent_ts) {
        first_silent = &rd;
        silent_ts = last;
      }
    }
  }
  os << "\n== verdict ==\n";
  if (first_fault != nullptr) {
    os << "first stalled: rank " << first_fault_rank << " — "
       << telemetry::fdr_kind_name(FdrKind(first_fault->kind)) << " ("
       << event_detail(*first_fault) << ") at t="
       << double(first_fault->ts_ns) / 1e9 << "s";
    if (first_fault->step >= 0) os << ", step " << first_fault->step;
    os << "\n";
  } else if (first_silent != nullptr) {
    os << "no fault events recorded; rank " << first_silent->rank
       << " went silent first (last event at t=" << double(silent_ts) / 1e9
       << "s)\n";
  } else {
    os << "no events recorded on any rank\n";
  }

  // Verdict 2: divergence point. Compare the furthest step each rank
  // reached; healthy ranks agree, the victim stops short (or agrees too —
  // a post-recovery dump, where the rollback events tell the story).
  std::int64_t max_step = -1, min_step = -1;
  bool any = false;
  for (const RankDump& rd : dumps) {
    std::int64_t last_step = -1;
    for (const FdrEvent& e : rd.dump.events)
      last_step = std::max(last_step, e.step);
    if (!any) {
      max_step = min_step = last_step;
      any = true;
    } else {
      max_step = std::max(max_step, last_step);
      min_step = std::min(min_step, last_step);
    }
  }
  if (any && max_step >= 0) {
    if (min_step == max_step) {
      os << "divergence: none — every rank reached step " << max_step << "\n";
    } else {
      os << "divergence: furthest rank reached step " << max_step
         << "; behind:";
      for (const RankDump& rd : dumps) {
        std::int64_t last_step = -1;
        for (const FdrEvent& e : rd.dump.events)
          last_step = std::max(last_step, e.step);
        if (last_step < max_step)
          os << " rank " << rd.rank << " (step " << last_step << ")";
      }
      os << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args(argc, argv);
    args.check_known({"trace", "report", "last"});
    if (args.positional().empty()) {
      std::cerr << "usage: postmortem <dump.fdr> [more.fdr ...] "
                   "[--trace=merged.json] [--report=report.txt] [--last=N]\n";
      return 2;
    }
    const int last_n = int(args.get_int("last", 12));
    MV_REQUIRE(last_n > 0, "--last must be positive");

    std::vector<RankDump> dumps;
    for (const std::string& path : args.positional()) {
      RankDump rd;
      rd.path = path;
      rd.dump = Recorder::read(path);
      rd.rank = rank_from_path(path, rd.dump.header.rank);
      // Defensive: a dump torn by a concurrent writer can carry a handful
      // of out-of-order timestamps; the trace checker requires monotone
      // tracks, and the verdicts key off time order.
      std::stable_sort(rd.dump.events.begin(), rd.dump.events.end(),
                       [](const FdrEvent& a, const FdrEvent& b) {
                         return a.ts_ns < b.ts_ns;
                       });
      dumps.push_back(std::move(rd));
    }
    std::sort(dumps.begin(), dumps.end(),
              [](const RankDump& a, const RankDump& b) {
                return a.rank < b.rank;
              });

    if (args.has("trace")) {
      const std::string path = args.get("trace", "");
      emit_trace(dumps, path);
      std::cout << "merged trace: " << path << "\n";
    }
    if (args.has("report")) {
      const std::string path = args.get("report", "");
      std::ofstream os(path, std::ios::trunc);
      MV_REQUIRE(os.good(), "cannot open report output file: " << path);
      print_report(dumps, last_n, os);
      std::cout << "report: " << path << "\n";
    } else {
      print_report(dumps, last_n, std::cout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "postmortem: error: " << e.what() << "\n";
    return 1;
  }
}
