// Fault-tolerance configuration and counters for a vmpi world.
//
// A WorldConfig is passed to vmpi::run(nranks, fn, config); the default
// configuration (no deadline, no framing, no fault plane) preserves the
// pre-fault-tolerance semantics bit for bit — payloads are never touched and
// blocking calls wait forever.
#pragma once

#include <atomic>
#include <cstdint>

namespace minivpic::vmpi {

class FaultPlane;

/// Comm-event hook: a plain-C callback (no telemetry dependency — vmpi sits
/// below telemetry in the link graph) invoked from rank threads on every
/// send, every successful receive, and every CommError about to propagate.
/// `event` is one of kCommHook*; `peer` is the other rank (-1 unknown);
/// `detail` is the vmpi::Fault discriminant for kCommHookFault, else 0;
/// `bytes` is the payload size where meaningful. Must be noexcept-ish and
/// cheap — it runs on the message hot path.
using CommHook = void (*)(void* ctx, int rank, int event, int peer,
                          int detail, unsigned long long bytes);
inline constexpr int kCommHookSend = 0;
inline constexpr int kCommHookRecv = 1;
inline constexpr int kCommHookFault = 2;

/// Caller-owned fault-tolerance counters for one world. The world holds a
/// pointer, so the caller can read totals after vmpi::run returns (and
/// accumulate across the relaunches of a recovery sequence). All fields are
/// monotonic; mutated from rank threads, hence atomic.
struct CommStats {
  std::atomic<std::int64_t> faults_injected{0};   ///< FaultPlane actions applied
  std::atomic<std::int64_t> crc_failures{0};      ///< payload CRC mismatches
  std::atomic<std::int64_t> duplicates_dropped{0};///< stale seq, discarded
  std::atomic<std::int64_t> sequence_gaps{0};     ///< missing-message detections
  std::atomic<std::int64_t> timeouts{0};          ///< deadline expiries
  std::atomic<std::int64_t> peer_deaths{0};       ///< ranks marked dead
  std::atomic<std::int64_t> revokes{0};           ///< world revocations

  /// Faults detected by the receiver-side machinery (CRC + dedup + gaps).
  std::int64_t faults_detected() const {
    return crc_failures.load() + duplicates_dropped.load() +
           sequence_gaps.load();
  }

  struct Snapshot {
    std::int64_t faults_injected = 0;
    std::int64_t faults_detected = 0;
    std::int64_t crc_failures = 0;
    std::int64_t duplicates_dropped = 0;
    std::int64_t sequence_gaps = 0;
    std::int64_t timeouts = 0;
    std::int64_t peer_deaths = 0;
    std::int64_t revokes = 0;
  };

  Snapshot snapshot() const {
    Snapshot s;
    s.faults_injected = faults_injected.load();
    s.crc_failures = crc_failures.load();
    s.duplicates_dropped = duplicates_dropped.load();
    s.sequence_gaps = sequence_gaps.load();
    s.faults_detected = s.crc_failures + s.duplicates_dropped +
                        s.sequence_gaps;
    s.timeouts = timeouts.load();
    s.peer_deaths = peer_deaths.load();
    s.revokes = revokes.load();
    return s;
  }
};

/// Per-world fault-tolerance knobs.
struct WorldConfig {
  /// Default deadline, in seconds, for every blocking call (recv, wait,
  /// barrier, collectives). 0 means wait forever (the pre-FT default).
  double timeout_seconds = 0.0;

  /// Integrity framing: every message carries a CRC32 of its payload and a
  /// per-link sequence number. The receiver throws CommError(Fault::kCorrupt)
  /// on a CRC mismatch, discards duplicated messages on arrival, and
  /// surfaces a gap (a dropped message) as CommError(Fault::kLost) at the
  /// next receive from that source. Payload bytes are untouched.
  bool integrity = false;

  /// Optional fault-injection schedule (not owned; may be null).
  FaultPlane* fault_plane = nullptr;

  /// Optional counter sink (not owned; may be null). Must outlive the world.
  CommStats* stats = nullptr;

  /// Optional comm-event hook (e.g. the flight recorder's vmpi_comm_hook).
  /// Both may be null; ctx must outlive the world.
  CommHook comm_hook = nullptr;
  void* comm_hook_ctx = nullptr;
};

}  // namespace minivpic::vmpi
