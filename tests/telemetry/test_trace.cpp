#include "telemetry/trace.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

namespace minivpic::telemetry {
namespace {

std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "/minivpic_trace_" + tag + ".json";
}

Json load_trace(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream buf;
  buf << is.rdbuf();
  return Json::parse(buf.str());
}

TEST(TraceWriterTest, NullWriterSpansAreNoops) {
  // The disabled-sink path used on every un-traced run.
  ScopedSpan a(nullptr, "anything", "test");
  ScopedSpan b(nullptr, "nested", "test");
  SUCCEED();
}

TEST(TraceWriterTest, WritesWellFormedDocument) {
  const std::string path = temp_path("basic");
  {
    TraceWriter w(path, /*pid=*/3);
    {
      ScopedSpan step(&w, "step", "step");
      ScopedSpan push(&w, "push", "step");
    }
    Json args = Json::object();
    args.set("step", Json::number(std::int64_t{7}));
    w.instant("health.fault", "health", std::move(args));
    EXPECT_EQ(w.num_events(), 5u);  // 2 B + 2 E + 1 i
  }  // destructor closes
  const Json doc = load_trace(path);
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    EXPECT_DOUBLE_EQ(e.at("pid").as_number(), 3.0);
    e.at("tid").as_number();
    EXPECT_GE(e.at("ts").as_number(), 0.0);
  }
  // Instant events carry their args and scope marker.
  bool saw_instant = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    if (e.at("ph").as_string() == "i") {
      saw_instant = true;
      EXPECT_EQ(e.at("name").as_string(), "health.fault");
      EXPECT_EQ(e.at("cat").as_string(), "health");
      EXPECT_DOUBLE_EQ(e.at("args").at("step").as_number(), 7.0);
    }
  }
  EXPECT_TRUE(saw_instant);
}

TEST(TraceWriterTest, SpansBalancePerThread) {
  const std::string path = temp_path("threads");
  {
    TraceWriter w(path, 0);
    auto worker = [&w](int laps) {
      for (int i = 0; i < laps; ++i) {
        ScopedSpan outer(&w, "outer", "test");
        ScopedSpan inner(&w, "inner", "test");
      }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) threads.emplace_back(worker, 5 + t);
    for (auto& th : threads) th.join();
    w.close();
  }
  const Json doc = load_trace(path);
  const Json& events = doc.at("traceEvents");
  // Per-tid B/E stacks must balance and timestamps must be monotonic.
  std::map<int, int> depth;
  std::map<int, double> last_ts;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    const int tid = int(e.at("tid").as_number());
    const double ts = e.at("ts").as_number();
    if (last_ts.count(tid)) {
      EXPECT_GE(ts, last_ts[tid]);
    }
    last_ts[tid] = ts;
    const std::string& ph = e.at("ph").as_string();
    if (ph == "B") ++depth[tid];
    if (ph == "E") {
      --depth[tid];
      EXPECT_GE(depth[tid], 0);
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
  EXPECT_EQ(depth.size(), 4u);  // one track per worker thread
}

TEST(TraceWriterTest, CloseIsIdempotent) {
  const std::string path = temp_path("idempotent");
  TraceWriter w(path, 0);
  { ScopedSpan s(&w, "only", "test"); }
  w.close();
  w.close();  // second close must not rewrite or throw
  const Json doc = load_trace(path);
  EXPECT_EQ(doc.at("traceEvents").size(), 2u);
}

}  // namespace
}  // namespace minivpic::telemetry
