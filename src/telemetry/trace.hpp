// Chrome trace-event sink: records begin/end duration spans and instant
// events in the Trace Event Format understood by Perfetto and
// chrome://tracing. Events are buffered in memory (a span is two small
// structs, no I/O on the hot path) and serialized as one JSON document on
// close().
//
// Threading: begin/end/instant are safe to call from any thread; each
// thread's events carry a stable small integer tid (assigned on first use),
// so B/E pairs nest per thread as the format requires. `pid` is the vmpi
// rank, which groups each rank's spans into its own track group in the
// viewer.
//
// ScopedSpan is the RAII form and tolerates a null writer, which is the
// disabled-sink fast path: one pointer test, no clock read. The step loop's
// phases use telemetry::PhaseProbe (phase.hpp), which couples each span to
// the phase's Stopwatch lap and flight-recorder events.
#pragma once

#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/json.hpp"
#include "util/timer.hpp"

namespace minivpic::telemetry {

class TraceWriter {
 public:
  /// Events are written to `path` on close() (or destruction). `pid`
  /// labels this writer's process track — pass the vmpi rank.
  explicit TraceWriter(std::string path, int pid = 0);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Opens a duration span on the calling thread.
  void begin(const char* name, const char* category);
  /// Closes the most recent open span on the calling thread.
  void end();
  /// Thread-scoped instant event with optional structured args.
  void instant(const char* name, const char* category = "event",
               Json args = Json());

  std::size_t num_events() const;

  /// Serializes `{"traceEvents": [...]}` to the path. Idempotent; called
  /// by the destructor if not called explicitly. Throws on I/O failure.
  void close();

 private:
  struct Event {
    char phase;  // 'B', 'E', 'i'
    double ts_us;
    int tid;
    std::string name;      // empty for 'E'
    std::string category;  // empty for 'E'
    std::string args;      // pre-rendered JSON object, may be empty
  };

  int tid_for_current_thread();

  std::string path_;
  int pid_;
  Timer clock_;  ///< common epoch for all threads
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::vector<std::thread::id> tids_;
  bool closed_ = false;
};

/// RAII duration span; a null writer makes every operation a no-op.
class ScopedSpan {
 public:
  ScopedSpan(TraceWriter* writer, const char* name, const char* category)
      : writer_(writer) {
    if (writer_ != nullptr) writer_->begin(name, category);
  }
  ~ScopedSpan() {
    if (writer_ != nullptr) writer_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceWriter* writer_;
};

}  // namespace minivpic::telemetry
