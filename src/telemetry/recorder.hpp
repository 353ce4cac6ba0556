// Flight recorder: an always-on, fixed-size, allocation-free per-rank ring
// buffer of compact binary events — the black box a crashed or wedged run
// leaves behind. Producers (the step loop's phases, the vmpi comm layer,
// checkpointing, health sentinels, rollback recovery) record 32-byte events
// into preallocated storage with one relaxed fetch_add and a struct store;
// nothing on the record path allocates, locks, or does I/O, so the recorder
// can stay armed on every production run (measured overhead is within the
// telemetry layer's ≤1% budget; docs/OBSERVABILITY.md).
//
// The buffer is dumped to a per-rank `.fdr` file (header + raw events,
// oldest first) by dump(), which uses only async-signal-safe primitives
// (open/write/close on a precomputed path) so it can run from a SIGSEGV or
// SIGABRT handler. Every live Recorder self-registers in a global slot
// table; dump_registered() walks it from signal context, and
// install_crash_handlers() arms handlers that dump everything and then
// re-raise the signal's default disposition.
//
// The postmortem tool (examples/postmortem.cpp) merges per-rank dumps into
// a cross-rank Chrome trace and a stall/divergence report; all timestamps
// share one process-wide steady-clock epoch, so events from different ranks
// (threads of one process under vmpi) order correctly against each other.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace minivpic::telemetry {

/// Event kinds. Numeric values are part of the `.fdr` on-disk format
/// (docs/OBSERVABILITY.md "Flight recorder & postmortem") — append new
/// kinds, never renumber.
enum class FdrKind : std::uint16_t {
  kNone = 0,
  kPhaseBegin = 1,   ///< code = telemetry::Phase (phase.hpp)
  kPhaseEnd = 2,     ///< code = phase id
  kStep = 3,         ///< step boundary; arg = step index
  kCommSend = 4,     ///< peer = destination, arg = payload bytes
  kCommRecv = 5,     ///< peer = source, arg = payload bytes
  kCommFault = 6,    ///< code = vmpi::Fault discriminant, peer = rank if known
  kCheckpoint = 7,   ///< collective save; arg = step saved
  kRestore = 8,      ///< checkpoint restore; arg = step restored
  kHealth = 9,       ///< sentinel verdict; code = 0 ok / 1 fault
  kFault = 10,       ///< rank-level fault (kill, poison, abort); code = detail
  kRecovery = 11,    ///< rollback decision; arg = target step
  kAnomaly = 12,     ///< online detector verdict; code = AnomalyKind
  kDump = 13,        ///< dump marker; code = FdrDumpReason
  kExit = 14,        ///< normal end of run
  kServiceAccept = 15,    ///< service job accepted; arg = queue depth
  kServiceDispatch = 16,  ///< service job leased to a worker
  kServiceComplete = 17,  ///< service job terminal; code = 0 done / 1 failed
};

/// Why a dump was written (FdrHeader::reason and the kDump event code).
enum class FdrDumpReason : std::uint16_t {
  kManual = 0,
  kSignal = 1,      ///< crash handler (SIGSEGV/SIGABRT/SIGTERM)
  kCommFault = 2,   ///< unrecoverable communication fault
  kHealthAbort = 3, ///< health sentinel abort or other Error unwind
  kInterrupted = 4, ///< graceful stop (signal / walltime budget)
  kExit = 5,        ///< normal exit, dump requested
};

const char* fdr_kind_name(FdrKind kind);          ///< "phase_begin", ...
const char* fdr_dump_reason_name(FdrDumpReason reason);

/// One recorded event: 32 bytes, trivially copyable, written to disk as-is
/// (little-endian host layout; the dump and the postmortem tool run on the
/// same machine class).
struct FdrEvent {
  std::uint64_t ts_ns = 0;  ///< process-epoch steady-clock nanoseconds
  std::int64_t step = -1;   ///< simulation step at record time (-1 unknown)
  std::uint16_t kind = 0;   ///< FdrKind
  std::uint16_t code = 0;   ///< kind-specific discriminant
  std::int32_t peer = -1;   ///< peer rank for comm events, else -1
  std::uint64_t arg = 0;    ///< kind-specific payload (bytes, step, ...)
};
static_assert(sizeof(FdrEvent) == 32, "FdrEvent is part of the .fdr format");

/// `.fdr` file header (followed by `stored` raw FdrEvents, oldest first).
struct FdrHeader {
  char magic[8];             ///< "MVFDR1\0\0"
  std::uint32_t version;     ///< 1
  std::int32_t rank;         ///< owning rank
  std::uint64_t capacity;    ///< ring capacity in events
  std::uint64_t total;       ///< events recorded since construction
  std::uint64_t stored;      ///< events present in this file
  std::uint32_t event_size;  ///< sizeof(FdrEvent)
  std::uint32_t reason;      ///< FdrDumpReason of this dump
};
static_assert(sizeof(FdrHeader) == 48, "FdrHeader is part of the .fdr format");

class Recorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// `path` is where dump() writes (precomputed so the signal path never
  /// builds strings). `capacity` is rounded up to a power of two. The
  /// recorder self-registers for crash dumps (see dump_registered) and
  /// unregisters on destruction.
  explicit Recorder(std::string path, int rank = 0,
                    std::size_t capacity = kDefaultCapacity);
  ~Recorder();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Records one event. Allocation-free, lock-free, safe from any thread:
  /// one relaxed fetch_add reserves a slot, one struct store fills it. A
  /// writer lapped by `capacity` newer events overwrites the oldest slot —
  /// by design: the black box keeps the *last* moments.
  void record(FdrKind kind, std::uint16_t code = 0, int peer = -1,
              std::uint64_t arg = 0) noexcept;

  /// Step index stamped into subsequently recorded events (relaxed atomic;
  /// the step loop updates it once per step).
  void set_step(std::int64_t step) noexcept {
    step_.store(step, std::memory_order_relaxed);
  }

  int rank() const { return rank_; }
  const std::string& path() const { return path_; }
  std::size_t capacity() const { return capacity_; }
  /// Events recorded since construction (>= capacity() means wrapped).
  std::uint64_t total_recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// Writes header + events (oldest first) to path() using only
  /// async-signal-safe primitives; records a kDump marker first. Returns
  /// false on I/O failure instead of throwing (a dying process can't
  /// handle exceptions). Idempotent — later dumps overwrite. Concurrent
  /// recorders may tear at most the in-flight events of other threads.
  bool dump(FdrDumpReason reason = FdrDumpReason::kManual) const noexcept;

  // -- decode side (postmortem, tests; not signal-safe) --------------------
  struct Dump {
    FdrHeader header{};
    std::vector<FdrEvent> events;  ///< oldest first
  };
  /// Parses a `.fdr` file; throws minivpic::Error on bad magic/size.
  static Dump read(const std::string& path);

 private:
  std::string path_;
  int rank_;
  std::size_t capacity_;  ///< power of two
  std::size_t mask_;
  std::unique_ptr<FdrEvent[]> events_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::int64_t> step_{-1};
  int crash_slot_ = -1;  ///< index in the global registry, -1 = none
};

// -- crash-dump registry (async-signal-safe) --------------------------------

/// Dumps every live recorder (all ranks, all campaign jobs) with `reason`.
/// Async-signal-safe; returns the number of successful dumps.
int dump_registered(FdrDumpReason reason) noexcept;

/// Installs SIGSEGV/SIGABRT/SIGTERM handlers that dump every registered
/// recorder and then re-raise with the default disposition (so exit codes
/// and cores behave as without the recorder). Idempotent. A caller that
/// wants graceful SIGTERM handling (run_deck's checkpoint-and-exit-3 path)
/// installs its own SIGTERM handler afterwards, which takes precedence.
void install_crash_handlers();

/// vmpi comm-event hook (matches vmpi::WorldConfig::comm_hook): routes
/// send/recv/fault events into per-rank recorders. `ctx` must point to a
/// RecorderSet whose `recorders[rank]` entries may be null.
struct RecorderSet {
  Recorder* const* recorders = nullptr;
  int count = 0;
};
void vmpi_comm_hook(void* ctx, int rank, int event, int peer, int detail,
                    unsigned long long bytes) noexcept;

}  // namespace minivpic::telemetry
