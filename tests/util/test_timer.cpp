#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace minivpic {
namespace {

void spin(std::chrono::microseconds d) { std::this_thread::sleep_for(d); }

TEST(TimerTest, ElapsedIsNonNegativeAndMonotonic) {
  Timer t;
  const double a = t.seconds();
  EXPECT_GE(a, 0.0);
  spin(std::chrono::microseconds(200));
  const double b = t.seconds();
  EXPECT_GE(b, a);
}

TEST(TimerTest, ResetRestartsTheClock) {
  Timer t;
  spin(std::chrono::microseconds(500));
  EXPECT_GT(t.seconds(), 0.0);
  t.reset();
  // Freshly reset, the reading must be tiny compared with the pre-reset
  // sleep (steady_clock has sub-microsecond resolution everywhere we run).
  EXPECT_LT(t.seconds(), 400e-6);
}

TEST(StopwatchTest, StartsAtZero) {
  Stopwatch sw;
  EXPECT_EQ(sw.total_seconds(), 0.0);
  EXPECT_EQ(sw.laps(), 0u);
  EXPECT_EQ(sw.mean_seconds(), 0.0);
}

TEST(StopwatchTest, AccumulatesLaps) {
  Stopwatch sw;
  for (int i = 0; i < 3; ++i) {
    sw.start();
    spin(std::chrono::microseconds(100));
    sw.stop();
  }
  EXPECT_EQ(sw.laps(), 3u);
  EXPECT_GT(sw.total_seconds(), 0.0);
  EXPECT_NEAR(sw.mean_seconds(), sw.total_seconds() / 3.0, 1e-12);
}

TEST(StopwatchTest, StopWithoutStartIsIgnored) {
  Stopwatch sw;
  sw.stop();  // never started: must not record a lap
  EXPECT_EQ(sw.laps(), 0u);
  EXPECT_EQ(sw.total_seconds(), 0.0);
}

TEST(StopwatchTest, DoubleStopRecordsOneLap) {
  Stopwatch sw;
  sw.start();
  sw.stop();
  const double after_first = sw.total_seconds();
  sw.stop();  // second stop of the same lap: no-op
  EXPECT_EQ(sw.laps(), 1u);
  EXPECT_EQ(sw.total_seconds(), after_first);
}

TEST(StopwatchTest, RestartDropsTheOpenLap) {
  Stopwatch sw;
  sw.start();
  spin(std::chrono::microseconds(200));
  sw.start();  // restart: the first lap was never stopped, so never counted
  sw.stop();
  EXPECT_EQ(sw.laps(), 1u);
}

TEST(StopwatchTest, ResetClearsEverything) {
  Stopwatch sw;
  sw.start();
  sw.stop();
  sw.reset();
  EXPECT_EQ(sw.laps(), 0u);
  EXPECT_EQ(sw.total_seconds(), 0.0);
  // reset() while running must also forget the open lap.
  sw.start();
  sw.reset();
  sw.stop();
  EXPECT_EQ(sw.laps(), 0u);
}

}  // namespace
}  // namespace minivpic
