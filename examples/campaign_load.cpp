// Load generator for the campaign service: N client threads each fire M
// submit requests at a running serve_campaigns daemon, with a configurable
// fraction of deliberate duplicates (exercising the cache/coalescing path)
// and of deliberately invalid requests (exercising the error path), then
// report per-source counts and client-side latency percentiles.
//
//   ./campaign_load --port=N [--clients=C] [--requests=R]
//            [--duplicate-ratio=F]   # fraction of repeats of one hot job
//            [--invalid-ratio=F]     # fraction of bad-override submits
//            [--axis=section.key]    # swept override key (unique jobs)
//            [--base=X] [--spread=X] # unique values: base + k * spread
//            [--steps=N]             # per-job steps (server default if 0)
//            [--priority=P] [--client-prefix=NAME]
//            [--json]                # machine-readable summary on stdout
//            [--metrics-json]        # also fetch the server's metrics
//            [--timeout=s]           # per-response client deadline
//            [--log-level=LVL]       # debug|info|warn|error
//
// Unique jobs vary `--axis` by thread and request index, so every
// non-duplicate submit is a distinct content hash; duplicates all submit
// the value `--base`, so they collapse onto one job server-side. The
// request mix is deterministic (index-hashed, no RNG seed to misremember),
// making CI assertions on the server's counters exact.
//
// Exit codes: 0 = every response was a well-formed protocol object (results,
// rejections and error responses all count as served), 1 = transport-level
// failure (connect, send, response timeout).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "telemetry/json.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

using namespace minivpic;
using telemetry::Json;

namespace {

struct Tally {
  int fresh = 0, cache = 0, coalesced = 0, accepted = 0, rejected = 0;
  int errors = 0, transport_failures = 0;
  std::vector<double> latencies;  ///< seconds, responses of any kind
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - double(lo));
}

std::string format_value(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", x);
  return buf;
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  args.check_known({"port", "clients", "requests", "duplicate-ratio",
                    "invalid-ratio", "axis", "base", "spread", "steps",
                    "priority", "client-prefix", "json", "metrics-json",
                    "timeout", "log-level"});
  if (args.has("log-level"))
    set_log_level(parse_log_level(args.get("log-level", "info")));
  if (!args.has("port")) {
    std::cerr << "usage: campaign_load --port=N [--clients=C] [--requests=R] "
                 "[--duplicate-ratio=F]\n"
                 "       [--invalid-ratio=F] [--axis=section.key] [--base=X] "
                 "[--spread=X] [--json]\n";
    return 2;
  }
  const int port = int(args.get_int("port", 0));
  const int clients = int(args.get_int("clients", 4));
  const int requests = int(args.get_int("requests", 8));
  const double dup_ratio = args.get_double("duplicate-ratio", 0.5);
  const double invalid_ratio = args.get_double("invalid-ratio", 0.0);
  const std::string axis = args.get("axis", "species beam_fwd.drift_x");
  const double base = args.get_double("base", 0.31);
  const double spread = args.get_double("spread", 0.001);
  const int steps = int(args.get_int("steps", 0));
  const double priority = args.get_double("priority", 1.0);
  const std::string prefix = args.get("client-prefix", "load");
  const double timeout = args.get_double("timeout", 120.0);

  std::mutex mu;
  Tally tally;

  auto worker = [&](int c) {
    Tally local;
    try {
      service::ServiceClient client(port, timeout);
      for (int i = 0; i < requests; ++i) {
        const int k = c * requests + i;
        // Deterministic mix: the first ceil(dup+invalid fractions) of each
        // client's requests are special, the rest unique. Index arithmetic
        // (not RNG) so the expected counter values are exact in CI.
        const bool invalid = double(i) < invalid_ratio * double(requests);
        const bool duplicate =
            !invalid &&
            double(i) < (invalid_ratio + dup_ratio) * double(requests);
        std::string value;
        if (invalid) {
          value = "not-a-number";
        } else if (duplicate) {
          value = format_value(base);  // everyone's hot job
        } else {
          value = format_value(base + double(k + 1) * spread);
        }
        Timer t;
        const Json resp = client.submit(
            "", {axis + "=" + value}, steps, prefix + std::to_string(c),
            priority, /*wait=*/true);
        const double latency = t.seconds();
        const std::string& type = resp.at("type").as_string();
        local.latencies.push_back(latency);
        if (type == "result") {
          const std::string& source = resp.at("source").as_string();
          if (source == "fresh") ++local.fresh;
          else if (source == "cache") ++local.cache;
          else ++local.coalesced;
        } else if (type == "accepted") {
          ++local.accepted;
        } else if (type == "rejected") {
          ++local.rejected;
        } else {
          ++local.errors;  // protocol `error` (expected for invalid submits)
        }
      }
    } catch (const Error& e) {
      MV_LOG_WARN << "client " << c << ": " << e.what();
      ++local.transport_failures;
    }
    std::lock_guard<std::mutex> lock(mu);
    tally.fresh += local.fresh;
    tally.cache += local.cache;
    tally.coalesced += local.coalesced;
    tally.accepted += local.accepted;
    tally.rejected += local.rejected;
    tally.errors += local.errors;
    tally.transport_failures += local.transport_failures;
    tally.latencies.insert(tally.latencies.end(), local.latencies.begin(),
                           local.latencies.end());
  };

  Timer wall;
  std::vector<std::thread> pool;
  pool.reserve(std::size_t(clients));
  for (int c = 0; c < clients; ++c) pool.emplace_back(worker, c);
  for (std::thread& t : pool) t.join();
  const double wall_s = wall.seconds();

  Json summary = Json::object();
  summary.set("type", Json::string("campaign_load"));
  summary.set("clients", Json::number(std::int64_t{clients}));
  summary.set("requests", Json::number(std::int64_t{clients * requests}));
  summary.set("fresh", Json::number(std::int64_t{tally.fresh}));
  summary.set("cache", Json::number(std::int64_t{tally.cache}));
  summary.set("coalesced", Json::number(std::int64_t{tally.coalesced}));
  summary.set("accepted", Json::number(std::int64_t{tally.accepted}));
  summary.set("rejected", Json::number(std::int64_t{tally.rejected}));
  summary.set("errors", Json::number(std::int64_t{tally.errors}));
  summary.set("transport_failures",
              Json::number(std::int64_t{tally.transport_failures}));
  summary.set("wall_seconds", Json::number(wall_s));
  summary.set("latency_p50_s",
              Json::number(percentile(tally.latencies, 0.5)));
  summary.set("latency_p99_s",
              Json::number(percentile(tally.latencies, 0.99)));
  if (args.get_bool("metrics-json", false)) {
    service::ServiceClient client(port, timeout);
    summary.set("server_metrics", client.metrics().at("values"));
  }

  if (args.get_bool("json", false)) {
    std::cout << summary.dump() << "\n";
  } else {
    std::cout << "campaign_load: " << clients << " client(s) x " << requests
              << " request(s) in " << wall_s << " s\n"
              << "  fresh " << tally.fresh << ", cache " << tally.cache
              << ", coalesced " << tally.coalesced << ", accepted "
              << tally.accepted << ", rejected " << tally.rejected
              << ", errors " << tally.errors << "\n"
              << "  latency p50 " << percentile(tally.latencies, 0.5)
              << " s, p99 " << percentile(tally.latencies, 0.99) << " s\n";
  }
  return tally.transport_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::cerr << "campaign_load: error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "campaign_load: unexpected error: " << e.what() << "\n";
    return 1;
  }
}
