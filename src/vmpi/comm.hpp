// vmpi: an in-process message-passing runtime with MPI semantics.
//
// This is the substitution for Roadrunner's MPI layer (see DESIGN.md §2):
// ranks are threads inside one process, point-to-point messages are buffered
// byte payloads matched on (source, tag) in FIFO order, and collectives are
// built on top of point-to-point exactly as a simple MPI implementation
// would. Application code (ghost exchange, particle migration, reductions)
// is written against this interface exactly as it would be against MPI, so
// the algorithmic structure of the paper's code is preserved.
//
// Semantics:
//  * send() is buffered: it copies the payload and returns immediately, so a
//    matched send/recv pair can never deadlock (like MPI_Bsend).
//  * recv() blocks until a matching message arrives; matching is FIFO per
//    (source, tag) with kAnySource / kAnyTag wildcards.
//  * ipost() is a deferred recv of unknown size: its Request pops the same
//    queue when test() or wait() runs, so every receive matches one way.
//  * Collectives must be called by every rank in the same order (as in
//    MPI). They use a reserved internal tag, which combined with per-source
//    FIFO ordering makes successive collectives unambiguous.
//  * If any rank throws, the runtime poisons all mailboxes: blocked calls
//    throw minivpic::Error instead of hanging.
//
// Fault tolerance (see docs/FAULTS.md): a WorldConfig passed to vmpi::run can
// add per-call deadlines, integrity framing (a CRC32 and a per-link sequence
// number on every message), and a FaultPlane injection schedule. Detected
// failures throw the typed vmpi::CommError; the default configuration
// changes nothing.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "util/error.hpp"
#include "vmpi/config.hpp"
#include "vmpi/error.hpp"

namespace minivpic::vmpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Metadata for a received message (MPI_Status equivalent).
struct Status {
  int source = -1;
  int tag = -1;
  std::size_t bytes = 0;
};

/// Reduction operations for allreduce/reduce.
enum class Op { kSum, kMin, kMax };

namespace detail {
class World;     // shared state of one Runtime::run invocation
struct Message;  // a queued point-to-point message
/// Tag reserved for collective traffic; user tags must be >= 0.
inline constexpr int kCollectiveTag = -2;
}  // namespace detail

/// Handle for a pending nonblocking receive, made by Comm::ipost.
///
/// The request records only its (source, tag) pattern: it is a deferred pop
/// of the rank's mailbox queue, which every send fills at send time. test()
/// takes a matching message without blocking and wait() blocks for one,
/// with the same FIFO matching, delay holds, typed faults, deadlines and
/// comm hooks as a blocking receive, on the thread driving the request. The
/// payload is stored inside the request (retrieve it with take<T>() or
/// bytes()). A dropped request leaves nothing behind: a message it never
/// took stays queued for the next receive that matches it.
class Request {
 public:
  Request() = default;
  bool valid() const { return impl_ != nullptr; }

  /// True once test()/wait() observed completion.
  bool done() const;

  /// Nonblocking completion check: if a matching message is deliverable,
  /// consumes it and returns true (filling `status` if given). Idempotent
  /// once complete, like wait().
  bool test(Status* status = nullptr);

  /// Payload of a completed receive.
  const std::vector<std::byte>& bytes() const;

  /// Copies the payload of a completed receive out as a vector<T>;
  /// the payload length must be a multiple of sizeof(T).
  template <typename T>
  std::vector<T> take() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<std::byte>& b = bytes();
    MV_REQUIRE(b.size() % sizeof(T) == 0,
               "payload length " << b.size()
                                 << " not a multiple of element size");
    std::vector<T> out(b.size() / sizeof(T));
    if (!b.empty()) std::memcpy(out.data(), b.data(), b.size());
    return out;
  }

 private:
  friend class Comm;
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Per-rank communicator endpoint. Each rank's thread owns exactly one Comm;
/// Comm methods are not thread-safe within a rank (as in MPI).
class Comm {
 public:
  Comm(detail::World* world, int rank, int size);

  int rank() const { return rank_; }
  int size() const { return size_; }

  // -- point to point (raw bytes) ----------------------------------------

  /// Buffered send of `bytes` bytes to `dst` with non-negative `tag`.
  void send_bytes(int dst, int tag, const void* data, std::size_t bytes);

  /// Blocking receive matching (src, tag); payload must fit `capacity`.
  Status recv_bytes(int src, int tag, void* data, std::size_t capacity);

  // -- point to point (typed) ---------------------------------------------

  template <typename T>
  void send(int dst, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, tag, data.data(), data.size_bytes());
  }

  template <typename T>
  void send_value(int dst, int tag, const T& v) {
    send(dst, tag, std::span<const T>(&v, 1));
  }

  /// Receives into `out`; the message length must be exactly out.size().
  template <typename T>
  Status recv(int src, int tag, std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    Status st = recv_bytes(src, tag, out.data(), out.size_bytes());
    MV_REQUIRE(st.bytes == out.size_bytes(),
               "recv size mismatch: got " << st.bytes << " bytes, expected "
                                          << out.size_bytes());
    return st;
  }

  template <typename T>
  T recv_value(int src, int tag) {
    T v{};
    recv(src, tag, std::span<T>(&v, 1));
    return v;
  }

  // -- nonblocking ----------------------------------------------------------

  /// Nonblocking receive of unknown size: returns a request for (src, tag)
  /// whose test()/wait() pops the first matching message (see Request).
  /// Two outstanding requests whose patterns overlap complete in the order
  /// they are observed, not the order they were posted. (Sends are
  /// buffered, so there is no isend: send() already returns at once.)
  Request ipost(int src, int tag);

  /// Blocks until the request completes; returns its Status.
  Status wait(Request& request);

  /// Waits for every request in order; returns one Status per request. Each
  /// wait is bounded by the communicator deadline individually, so the worst
  /// case is requests.size() timeouts.
  std::vector<Status> waitall(std::span<Request> requests);

  // -- collectives ------------------------------------------------------------

  void barrier();

  /// In-place elementwise allreduce over all ranks (rank 0 reduces, then
  /// broadcasts — the latency-bound flat tree is fine at our rank counts).
  template <typename T>
  void allreduce(std::span<T> data, Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (size_ == 1) return;
    if (rank_ == 0) {
      std::vector<T> buf(data.size());
      for (int r = 1; r < size_; ++r) {
        recv_internal(r, buf.data(), buf.size() * sizeof(T));
        apply_op(op, data.data(), buf.data(), data.size());
      }
      for (int r = 1; r < size_; ++r)
        send_internal(r, data.data(), data.size_bytes());
    } else {
      send_internal(0, data.data(), data.size_bytes());
      recv_internal(0, data.data(), data.size_bytes());
    }
  }

  template <typename T>
  T allreduce_value(T v, Op op) {
    allreduce(std::span<T>(&v, 1), op);
    return v;
  }

  /// Broadcast from root, in place.
  template <typename T>
  void bcast(std::span<T> data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    bcast_bytes(data.data(), data.size_bytes(), root);
  }

  template <typename T>
  T bcast_value(T v, int root) {
    bcast(std::span<T>(&v, 1), root);
    return v;
  }

  /// Gathers one value per rank to root; non-roots get an empty vector.
  template <typename T>
  std::vector<T> gather(const T& v, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (rank_ == root) {
      std::vector<T> out(static_cast<std::size_t>(size_));
      out[static_cast<std::size_t>(root)] = v;
      for (int r = 0; r < size_; ++r) {
        if (r == root) continue;
        recv_internal(r, &out[static_cast<std::size_t>(r)], sizeof(T));
      }
      return out;
    }
    send_internal(root, &v, sizeof(T));
    return {};
  }

  // -- fault tolerance ----------------------------------------------------

  /// Per-communicator deadline (seconds) for every blocking call, initially
  /// WorldConfig::timeout_seconds. 0 restores "wait forever".
  void set_timeout(double seconds);
  double timeout() const { return timeout_seconds_; }

  bool is_alive(int rank) const;
  std::vector<int> live_ranks() const;

  /// Announces this rank's death (liveness epoch): peers blocked on it fail
  /// fast with CommError(Fault::kPeerDead). Called by a rank that catches a
  /// scheduled kill and is about to return from its rank function.
  void mark_self_dead(const std::string& reason);

  /// Revokes the world (ULFM-style): every blocked and future vmpi call on
  /// any rank — except agreement traffic — throws CommError(Fault::kRevoked).
  /// The first rank to detect a fault calls this so all survivors converge
  /// on recovery within one blocking call instead of one timeout each.
  void revoke(const std::string& reason);
  bool revoked() const;

  /// Recovery agreement round: returns the minimum of `value` over every
  /// live rank that responds within `timeout_seconds`. The lowest live rank
  /// collects and redistributes; non-responders are marked dead and
  /// excluded. A rank that cannot reach the collector falls back to its own
  /// value (callers feed values derived from shared state — the checkpoint
  /// manifest — so the fallback still converges). Runs on the kAgreeTag
  /// plane, which survives revocation. Every live rank must call this.
  std::int64_t agree_min(std::int64_t value, double timeout_seconds);

 private:
  /// Invokes WorldConfig::comm_hook if set (flight-recorder feed). One
  /// branch when unset, so the hookless hot path is unchanged.
  void notify(int event, int peer, int detail, std::size_t bytes) const;

  /// Common send path: framing (seq/CRC), fault-plane actions, delivery.
  void deliver(int dst, int tag, const void* data, std::size_t bytes);

  /// Verifies CRC framing of a received message; throws CommError(kCorrupt).
  void verify_frame(const detail::Message& msg) const;

  /// Deadline for a blocking call starting now (kNoDeadline if timeout 0).
  std::chrono::steady_clock::time_point call_deadline() const;

  /// The one receive path of recv_bytes, the collectives and Request
  /// completion: takes the first message matching (src, tag), blocking
  /// until the call deadline if `block` (Mailbox::pop), else only if one is
  /// deliverable now (Mailbox::try_pop, which returns false otherwise);
  /// verifies its CRC frame and feeds the recv hook. A CommError feeds the
  /// fault hook on its way out.
  bool receive(int src, int tag, bool block, detail::Message* out);

  /// Completes a request through receive(); Request::test calls it without
  /// blocking, wait() with.
  friend class Request;
  bool complete(Request::Impl& impl, bool block);

  /// Collective-plane p2p (reserved tag; exact-size receive).
  void send_internal(int dst, const void* data, std::size_t bytes);
  void recv_internal(int src, void* data, std::size_t bytes);
  void bcast_bytes(void* data, std::size_t bytes, int root);

  template <typename T>
  static void apply_op(Op op, T* acc, const T* in, std::size_t n) {
    switch (op) {
      case Op::kSum:
        for (std::size_t i = 0; i < n; ++i) acc[i] += in[i];
        break;
      case Op::kMin:
        for (std::size_t i = 0; i < n; ++i) acc[i] = std::min(acc[i], in[i]);
        break;
      case Op::kMax:
        for (std::size_t i = 0; i < n; ++i) acc[i] = std::max(acc[i], in[i]);
        break;
    }
  }

  detail::World* world_;
  int rank_;
  int size_;
  double timeout_seconds_ = 0.0;
  std::vector<std::uint64_t> send_seq_;  // per-destination sequence counters
};

}  // namespace minivpic::vmpi
