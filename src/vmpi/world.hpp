// Internal shared state of a vmpi Runtime::run invocation: one mailbox per
// rank, a central barrier, and the fault-tolerance state (liveness epochs,
// revocation flag) they share. Not part of the public API.
//
// A mailbox matches messages one way. A send copies its message into the
// receiver's FIFO queue at send time, and every receive (blocking, a
// collective's, or a Request's test/wait) takes the first deliverable match
// from that queue: pop blocks for it, try_pop does not.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "vmpi/config.hpp"

namespace minivpic::vmpi::detail {

using Clock = std::chrono::steady_clock;

/// Sentinel for "block forever" (the default when no timeout is configured).
inline constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

/// Tag reserved for the recovery agreement round. Traffic on this tag is
/// exempt from world revocation, so survivors can still agree on a rollback
/// step after every other plane of communication has been shut down.
inline constexpr int kAgreeTag = -3;

struct Message {
  int source = -1;
  int tag = -1;
  std::vector<std::byte> payload;
  // Optional integrity framing (WorldConfig::integrity): a payload CRC and
  // a per-link sequence number. Carried beside the payload, never inside
  // it, so enabling framing cannot perturb delivered bytes.
  bool framed = false;
  std::uint32_t crc = 0;
  std::uint64_t seq = 0;
  // Delay-fault hold: the message is invisible to pop/try_pop before this.
  Clock::time_point not_before{};
  bool delayed = false;
};

/// Thread-safe per-rank message queue with (source, tag) FIFO matching,
/// deadlines, duplicate/loss detection, and peer-liveness wakeups.
class Mailbox {
 public:
  Mailbox(int owner, int nranks, CommStats* stats);

  void push(Message msg);

  /// Blocks until a message matching (src, tag) is deliverable; removes and
  /// returns it. Wildcards: kAnySource / kAnyTag. Throws CommError on
  /// poison, revocation, deadline expiry, a lost predecessor from the
  /// matched source, or (for a specific src) a dead peer.
  Message pop(int src, int tag, Clock::time_point deadline = kNoDeadline);

  /// Non-blocking twin of pop: if a match is deliverable now, moves it into
  /// *out and returns true; otherwise returns false at once (a delay-held
  /// match becomes deliverable once its hold expires). Throws on poison,
  /// revocation, or a lost predecessor — but not on peer death, so pollers
  /// can keep draining stragglers.
  bool try_pop(int src, int tag, Message* out);

  /// Marks the mailbox dead; all blocked and future pops throw.
  void poison(const std::string& reason);

  /// Liveness epoch: records that `rank` died and wakes all waiters, so a
  /// pop blocked on that source throws immediately instead of timing out.
  void note_dead(int rank, const std::string& reason);

  /// Revocation: wakes all waiters; every blocked or future call on a tag
  /// other than kAgreeTag throws CommError(Fault::kRevoked).
  void note_revoked(const std::string& reason);

 private:
  bool matches(const Message& m, int src, int tag) const {
    return (src == -1 || m.source == src) && (tag == -1 || m.tag == tag);
  }

  /// The find-and-erase behind pop and try_pop. Call with mutex_ held.
  /// Throws on poison, revocation (off the agreement plane), or a lost
  /// predecessor; returns false if no match is deliverable now.
  bool take_locked(int src, int tag, Message* out);

  /// Throws if the mailbox state forbids a (src, tag) wait; returns the
  /// wake-up bound (deadline, or an earlier delayed-match due time).
  Clock::time_point check_and_bound(int src, int tag,
                                    Clock::time_point deadline);

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  int owner_;
  bool poisoned_ = false;
  std::string poison_reason_;
  bool revoked_ = false;
  std::string revoke_reason_;
  std::vector<char> dead_;                 // per-rank death flags
  std::string dead_reason_;                // reason of the latest death
  std::vector<char> lost_;                 // per-source sequence-gap flags
  std::vector<std::uint64_t> next_seq_;    // per-source expected sequence
  CommStats* stats_;
};

/// Sense-reversing barrier shared by all ranks of a world. A dead rank makes
/// every later barrier incompletable, so arrivals throw instead of hanging.
class Barrier {
 public:
  explicit Barrier(int n, CommStats* stats = nullptr)
      : n_(n), stats_(stats) {}

  void arrive_and_wait(Clock::time_point deadline = kNoDeadline);
  void poison(const std::string& reason);
  void note_dead(int rank, const std::string& reason);
  void note_revoked(const std::string& reason);

 private:
  /// Throws if the barrier can no longer complete; call with mutex_ held.
  void check_failed();

  std::mutex mutex_;
  std::condition_variable cv_;
  int n_;
  int waiting_ = 0;
  std::uint64_t generation_ = 0;
  bool poisoned_ = false;
  std::string poison_reason_;
  bool any_dead_ = false;
  std::string dead_reason_;
  bool revoked_ = false;
  std::string revoke_reason_;
  CommStats* stats_;
};

class World {
 public:
  explicit World(int nranks, WorldConfig config = {});

  int size() const { return static_cast<int>(mailboxes_.size()); }
  Mailbox& mailbox(int rank) { return *mailboxes_[static_cast<std::size_t>(rank)]; }
  Barrier& barrier() { return barrier_; }
  const WorldConfig& config() const { return config_; }
  CommStats* stats() const { return config_.stats; }

  /// Poisons every mailbox and the barrier (called when a rank throws).
  void poison_all(const std::string& reason);

  /// Liveness epoch: marks `rank` dead and wakes every blocked call in the
  /// world so waiters on that rank fail fast. Idempotent.
  void mark_dead(int rank, const std::string& reason);

  /// Revokes the world: every blocked and future call outside the agreement
  /// plane throws CommError(Fault::kRevoked). The detecting rank calls this
  /// so all survivors converge on recovery within one blocking call, not one
  /// timeout each. Idempotent.
  void revoke(const std::string& reason);

  bool revoked() const;
  bool is_dead(int rank) const;
  std::vector<int> live_ranks() const;

  /// Monotone count of deaths observed (a cheap "did anything change" probe).
  std::uint64_t death_epoch() const;

 private:
  WorldConfig config_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  Barrier barrier_;
  mutable std::mutex mu_;
  std::vector<char> dead_;
  std::uint64_t death_epoch_ = 0;
  bool revoked_ = false;
};

}  // namespace minivpic::vmpi::detail
