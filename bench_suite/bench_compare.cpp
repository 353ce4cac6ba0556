// bench_compare: diffs two sets of bench_suite ledger records (the parent's
// and the change's) per workload x end-to-end metric, with the rules of the
// benchmark's method:
//
//   regression  the change's median is worse than the parent's by more than
//               the metric's bound (BENCHMARK.json);
//   unresolved  either side's spread (quartile distance over median) is wider
//               than the bound, unless every change run beats every parent
//               run;
//   gain        at least 10 pairs, the change wins at least 9 in 10 of them
//               (ties count for neither), and the medians differ by more
//               than the parent's quartile distance;
//   refused     would be a gain, but the change fails a larger share of
//               its operations on that workload than the parent;
//   slower      the gain test the other way round: worse, but within the
//               bound. A bound covers the noisiest workload, so a steady
//               workload can slow by less than it and still show this;
//   flat        anything else.
//
// Each workload also gets an `ops_failed` row, failed over attempted
// operations summed over its runs: a regression when the change's share is
// the larger.
//
// Records pair up in file order: run both sides alternately with the same
// seeds. Only untraced records (trace = false) are compared; traced runs
// carry per-layer metrics, which have no bound. A record whose correctness
// checks failed (correct = false) makes the ledger unusable.
//
//   bench_compare [--catalogue BENCHMARK.json] PARENT.ndjson CHANGE.ndjson
//
// Exit codes: 0 no regression, 1 at least one regression, 2 bad input.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "record.hpp"
#include "telemetry/json.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

using namespace minivpic;
using telemetry::Json;

namespace {

struct Bound {
  std::string name;
  bool lower_is_better = true;
  double bound = 0;
};

Json read_json(const std::string& path) {
  std::ifstream in(path);
  MV_REQUIRE(in.good(), "cannot read " << path);
  std::stringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

/// One workload's untraced runs in one ledger.
struct Runs {
  std::map<std::string, std::vector<double>> metrics;  ///< in file order
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// workload -> its runs.
using Ledger = std::map<std::string, Runs>;

Ledger read_ledger(const std::string& path) {
  std::ifstream in(path);
  MV_REQUIRE(in.good(), "cannot read " << path);
  Ledger ledger;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    Json rec;
    try {
      rec = Json::parse(line);
    } catch (const Error& e) {
      MV_REQUIRE(false, path << ":" << line_no << ": " << e.what());
    }
    MV_REQUIRE(rec.at("correct").as_bool(),
               path << ":" << line_no << ": the " << rec.at("workload").as_string()
                    << " run failed its correctness checks; its timings "
                       "measure a broken program");
    if (rec.at("trace").as_bool()) continue;
    Runs& runs = ledger[rec.at("workload").as_string()];
    runs.attempted += std::int64_t(rec.at("attempted").as_number());
    runs.failed += std::int64_t(rec.at("failed").as_number());
    for (const auto& [name, m] : rec.at("metrics").members())
      runs.metrics[name].push_back(m.at("value").as_number());
  }
  return ledger;
}

double failed_share(const Runs& r) {
  return r.attempted > 0 ? double(r.failed) / double(r.attempted) : 0.0;
}

struct Verdict {
  std::string label;
  bench::Quartiles parent, change;
  double delta_pct = 0;  ///< change median vs parent median
  int wins = 0, pairs = 0;
};

Verdict judge(const Bound& b, const std::vector<double>& p,
              const std::vector<double>& c, bool fails_more) {
  Verdict v;
  v.parent = bench::quartiles(p);
  v.change = bench::quartiles(c);
  v.delta_pct = 100.0 * (v.change.median - v.parent.median) / v.parent.median;
  const auto better = [&](double x, double y) {  // x better than y
    return b.lower_is_better ? x < y : x > y;
  };
  v.pairs = int(std::min(p.size(), c.size()));
  int losses = 0;
  for (int i = 0; i < v.pairs; ++i) {
    if (better(c[std::size_t(i)], p[std::size_t(i)])) ++v.wins;
    if (better(p[std::size_t(i)], c[std::size_t(i)])) ++losses;
  }
  bool all_better = true;
  for (double x : c)
    for (double y : p) all_better = all_better && better(x, y);
  // The method's test for a real difference, in either direction: at least
  // 10 pairs, one side ahead in at least 9 in 10 of them, and medians
  // further apart than the parent's quartile distance.
  const auto decisive = [&](int ahead) {
    return v.pairs >= 10 && 10 * ahead >= 9 * v.pairs &&
           std::fabs(v.change.median - v.parent.median) > v.parent.iqr();
  };

  const double worse = (b.lower_is_better ? 1.0 : -1.0) * v.delta_pct / 100.0;
  const double spread = std::max(v.parent.iqr() / v.parent.median,
                                 v.change.iqr() / v.change.median);
  if (worse > b.bound) {
    v.label = "regression";
  } else if (spread > b.bound && !all_better) {
    v.label = "unresolved";
  } else if (decisive(v.wins) && better(v.change.median, v.parent.median)) {
    v.label = fails_more ? "refused" : "gain";
  } else if (decisive(losses) && better(v.parent.median, v.change.median)) {
    v.label = "slower";
  } else {
    v.label = "flat";
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) try {
  Args args(argc, argv);
  args.check_known({"catalogue"});
  MV_REQUIRE(args.positional().size() == 2,
             "usage: bench_compare [--catalogue BENCHMARK.json] "
             "PARENT.ndjson CHANGE.ndjson");
  const Json catalogue = read_json(args.get("catalogue", "BENCHMARK.json"));
  std::vector<Bound> bounds;
  const Json& e2e = catalogue.at("end_to_end");
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const Json& m = e2e.at(i);
    bounds.push_back({m.at("name").as_string(),
                      m.at("better").as_string() == "lower",
                      m.at("bound").as_number()});
  }
  const Ledger parent = read_ledger(args.positional()[0]);
  const Ledger change = read_ledger(args.positional()[1]);

  std::printf("%-16s %-18s %12s %12s %8s %8s %6s  %s\n", "workload", "metric",
              "parent p50", "change p50", "delta%", "spread%", "wins",
              "verdict");
  int regressions = 0, compared = 0;
  for (const auto& [workload, pr] : parent) {
    const auto cw = change.find(workload);
    if (cw == change.end()) continue;
    const Runs& cr = cw->second;
    const bool fails_more = failed_share(cr) > failed_share(pr);
    std::printf("%-16s %-18s %12.6g %12.6g %8s %8s %6s  %s "
                "(failed %lld/%lld vs %lld/%lld)\n",
                workload.c_str(), "ops_failed", failed_share(pr),
                failed_share(cr), "", "", "",
                fails_more ? "regression" : "flat", (long long)pr.failed,
                (long long)pr.attempted, (long long)cr.failed,
                (long long)cr.attempted);
    if (fails_more) ++regressions;
    for (const Bound& b : bounds) {
      const auto p = pr.metrics.find(b.name);
      const auto c = cr.metrics.find(b.name);
      if (p == pr.metrics.end() || c == cr.metrics.end()) continue;
      MV_REQUIRE(p->second.size() >= 2 && c->second.size() >= 2,
                 workload << " " << b.name
                          << ": each side needs at least two runs");
      const Verdict v = judge(b, p->second, c->second, fails_more);
      const double spread =
          100.0 * std::max(v.parent.iqr() / v.parent.median,
                           v.change.iqr() / v.change.median);
      std::printf("%-16s %-18s %12.6g %12.6g %+8.2f %8.2f %3d/%-3d %s "
                  "(bound %.0f%%, n=%lld/%lld)\n",
                  workload.c_str(), b.name.c_str(), v.parent.median,
                  v.change.median, v.delta_pct, spread, v.wins, v.pairs,
                  v.label.c_str(), 100.0 * b.bound,
                  (long long)v.parent.n, (long long)v.change.n);
      ++compared;
      if (v.label == "regression") ++regressions;
    }
  }
  MV_REQUIRE(compared > 0, "the two ledgers share no workload x metric");
  std::printf("%d compared, %d regression(s)\n", compared, regressions);
  return regressions > 0 ? 1 : 0;
} catch (const std::exception& e) {
  std::cerr << "bench_compare: " << e.what() << "\n";
  return 2;
}
