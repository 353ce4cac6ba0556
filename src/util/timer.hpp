// Wall-clock timing for kernels and whole-step cost breakdowns.
#pragma once

#include <chrono>
#include <cstdint>

namespace minivpic {

/// Simple steady-clock stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulating timer for repeated kernel invocations (cost breakdowns).
class Stopwatch {
 public:
  void start() { t_.reset(); running_ = true; }

  void stop() {
    if (!running_) return;
    total_ += t_.seconds();
    ++laps_;
    running_ = false;
  }

  /// Records a lap timed elsewhere (telemetry::PhaseProbe keeps its clock).
  void add_lap(double seconds) {
    total_ += seconds;
    ++laps_;
  }

  double total_seconds() const { return total_; }
  std::uint64_t laps() const { return laps_; }
  double mean_seconds() const { return laps_ ? total_ / double(laps_) : 0.0; }

  void reset() {
    total_ = 0.0;
    laps_ = 0;
    running_ = false;
  }

 private:
  Timer t_;
  double total_ = 0.0;
  std::uint64_t laps_ = 0;
  bool running_ = false;
};

}  // namespace minivpic
