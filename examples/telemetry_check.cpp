// Telemetry output validator — the CI smoke gate for the observability
// layer (docs/OBSERVABILITY.md):
//
//   ./telemetry_check --metrics=m.ndjson --trace=t.json
//
// Metrics stream checks: every line parses as strict JSON; the first
// record is a `meta` record with schema/ranks/units; every `step_sample`
// carries the required metric keys (per-phase seconds, push.rate,
// push.gflops, pipeline.imbalance, ...) each with min/mean/max/sum
// satisfying min <= mean <= max. One *trailing* partial line — the
// signature a killed run leaves, since the writer flushes per line — is
// tolerated and counted instead of failing the stream.
//
// Trace checks: the file parses as a Chrome trace-event JSON object;
// every event has ph/ts/pid/tid; B/E events balance per (pid, tid) with
// timestamps that never run backwards.
//
// Exits 0 when everything holds, 1 with a diagnostic otherwise, 2 on
// usage errors. No metrics/trace flag = nothing to check = usage error.
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/phase.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

using namespace minivpic;
using telemetry::Json;

namespace {

/// Metric names every step_sample record must carry (subset of the
/// catalogue; see docs/OBSERVABILITY.md): one `phase.<p>.s` per timed
/// phase of the phase table, then the headline derived metrics.
std::vector<std::string> required_metrics() {
  std::vector<std::string> names;
  for (const telemetry::PhaseInfo& p : telemetry::kPhases)
    if (p.timed) names.push_back("phase." + std::string(p.name) + ".s");
  for (const char* name :
       {"step.s", "particles.pushed", "push.rate", "push.gflops",
        "push.gbytes_per_s", "pipeline.count", "pipeline.imbalance",
        "push.lane_width", "particles.local", "pipeline.busy.s",
        "load.imbalance"})
    names.push_back(name);
  return names;
}

int check_metrics(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) {
    std::cerr << "telemetry_check: cannot open metrics file: " << path
              << "\n";
    return 1;
  }
  // Slurp all lines up front: a run killed mid-write (the writer flushes
  // per line, so only the final line can be cut short) leaves one partial
  // trailing line, which is tolerated and counted instead of failing the
  // whole stream — every *complete* record must still validate.
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  std::int64_t lineno = 0, samples = 0, partial = 0;
  bool saw_meta = false;
  const std::vector<std::string> required = required_metrics();
  for (std::size_t li = 0; li < lines.size(); ++li) {
    line = lines[li];
    const bool last = li + 1 == lines.size();
    ++lineno;
    if (line.empty()) {
      std::cerr << "metrics:" << lineno << ": empty line\n";
      return 1;
    }
    Json rec;
    try {
      rec = Json::parse(line);
    } catch (const Error& e) {
      if (last) {
        ++partial;
        break;
      }
      std::cerr << "metrics:" << lineno << ": " << e.what() << "\n";
      return 1;
    }
    try {
      const std::string& type = rec.at("type").as_string();
      if (lineno == 1) {
        if (type != "meta") {
          std::cerr << "metrics:1: first record must be a meta record\n";
          return 1;
        }
        saw_meta = true;
        rec.at("schema").as_number();
        rec.at("ranks").as_number();
        rec.at("kernel").as_string();
        rec.at("units").members();
        continue;
      }
      if (type != "step_sample") {
        std::cerr << "metrics:" << lineno << ": unknown record type '"
                  << type << "'\n";
        return 1;
      }
      rec.at("step").as_number();
      rec.at("t").as_number();
      const Json& metrics = rec.at("metrics");
      for (const std::string& name : required) {
        const Json* m = metrics.find(name);
        if (m == nullptr) {
          if (last) throw Error("truncated final record");
          std::cerr << "metrics:" << lineno << ": missing required metric '"
                    << name << "'\n";
          return 1;
        }
        const double mn = m->at("min").as_number();
        const double mean = m->at("mean").as_number();
        const double mx = m->at("max").as_number();
        m->at("sum").as_number();
        if (!(mn <= mean && mean <= mx)) {
          std::cerr << "metrics:" << lineno << ": metric '" << name
                    << "' violates min <= mean <= max (" << mn << ", "
                    << mean << ", " << mx << ")\n";
          return 1;
        }
      }
      ++samples;
    } catch (const Error& e) {
      // A final line that parses but fails field validation is the same
      // crash artifact as one that does not parse: the write was cut at a
      // point that still happens to be JSON. Complete lines stay strict.
      if (last) {
        ++partial;
        break;
      }
      std::cerr << "metrics:" << lineno << ": " << e.what() << "\n";
      return 1;
    }
  }
  if (!saw_meta || samples == 0) {
    std::cerr << "metrics: expected a meta record plus at least one "
                 "step_sample (got "
              << samples << " samples)\n";
    return 1;
  }
  std::cout << "metrics ok: " << path << " (" << samples << " samples";
  if (partial != 0) std::cout << ", 1 partial trailing line tolerated";
  std::cout << ")\n";
  return 0;
}

int check_trace(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) {
    std::cerr << "telemetry_check: cannot open trace file: " << path << "\n";
    return 1;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  Json doc;
  try {
    doc = Json::parse(buf.str());
  } catch (const Error& e) {
    std::cerr << "trace: " << e.what() << "\n";
    return 1;
  }
  try {
    const Json& events = doc.at("traceEvents");
    std::map<std::pair<int, int>, std::vector<double>> open;  // B-event ts
    std::map<std::pair<int, int>, double> last_ts;
    std::int64_t spans = 0, instants = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Json& e = events.at(i);
      const std::string& ph = e.at("ph").as_string();
      const double ts = e.at("ts").as_number();
      const auto track = std::make_pair(int(e.at("pid").as_number()),
                                        int(e.at("tid").as_number()));
      if (last_ts.count(track) != 0 && ts < last_ts[track]) {
        std::cerr << "trace: event " << i << " runs backwards in time on "
                  << "pid " << track.first << " tid " << track.second
                  << "\n";
        return 1;
      }
      last_ts[track] = ts;
      if (ph == "B") {
        e.at("name").as_string();
        open[track].push_back(ts);
        ++spans;
      } else if (ph == "E") {
        if (open[track].empty()) {
          std::cerr << "trace: event " << i << ": E without matching B on "
                    << "pid " << track.first << " tid " << track.second
                    << "\n";
          return 1;
        }
        open[track].pop_back();
      } else if (ph == "i") {
        e.at("name").as_string();
        ++instants;
      } else {
        std::cerr << "trace: event " << i << ": unexpected phase '" << ph
                  << "'\n";
        return 1;
      }
    }
    for (const auto& [track, stack] : open) {
      if (!stack.empty()) {
        std::cerr << "trace: " << stack.size() << " unclosed span(s) on pid "
                  << track.first << " tid " << track.second << "\n";
        return 1;
      }
    }
    if (spans == 0) {
      std::cerr << "trace: no duration spans recorded\n";
      return 1;
    }
    std::cout << "trace ok: " << path << " (" << spans << " spans, "
              << instants << " instant events)\n";
  } catch (const Error& e) {
    std::cerr << "trace: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args(argc, argv);
    args.check_known({"metrics", "trace"});
    if (!args.has("metrics") && !args.has("trace")) {
      std::cerr << "usage: telemetry_check [--metrics=ndjson] "
                   "[--trace=json]\n";
      return 2;
    }
    int rc = 0;
    if (args.has("metrics")) rc |= check_metrics(args.get("metrics", ""));
    if (args.has("trace")) rc |= check_trace(args.get("trace", ""));
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "telemetry_check: error: " << e.what() << "\n";
    return 1;
  }
}
