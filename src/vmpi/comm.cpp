#include "vmpi/comm.hpp"

#include <thread>

#include "util/crc32.hpp"
#include "vmpi/fault.hpp"
#include "vmpi/world.hpp"

namespace minivpic::vmpi {

namespace detail {

namespace {

std::string wait_target(int src, int tag) {
  return "(src=" + (src == -1 ? std::string("any") : std::to_string(src)) +
         ", tag=" + (tag == -1 ? std::string("any") : std::to_string(tag)) +
         ")";
}

}  // namespace

Mailbox::Mailbox(int owner, int nranks, CommStats* stats)
    : owner_(owner),
      dead_(static_cast<std::size_t>(nranks), 0),
      lost_(static_cast<std::size_t>(nranks), 0),
      next_seq_(static_cast<std::size_t>(nranks), 0),
      stats_(stats) {}

void Mailbox::push(Message msg) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (msg.framed) {
      auto& expected = next_seq_[static_cast<std::size_t>(msg.source)];
      if (msg.seq < expected) {
        // A duplicate delivery (replayed or fault-injected): discard.
        if (stats_ != nullptr) ++stats_->duplicates_dropped;
        return;
      }
      if (msg.seq > expected) {
        // A predecessor never arrived; poison this link so the receiver
        // fails typed instead of consuming the wrong message.
        lost_[static_cast<std::size_t>(msg.source)] = 1;
        if (stats_ != nullptr) ++stats_->sequence_gaps;
      }
      expected = msg.seq + 1;
    }
    queue_.push_back(std::move(msg));
  }
  cv_.notify_all();
}

bool Mailbox::take_locked(int src, int tag, Message* out) {
  if (poisoned_)
    throw CommError(Fault::kPoisoned, "vmpi recv aborted: " + poison_reason_);
  if (revoked_ && tag != kAgreeTag)
    throw CommError(Fault::kRevoked, "vmpi recv aborted: " + revoke_reason_);
  const auto now = Clock::now();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (!matches(*it, src, tag)) continue;
    if (lost_[static_cast<std::size_t>(it->source)])
      throw CommError(Fault::kLost,
                      "a message from rank " + std::to_string(it->source) +
                          " was lost before " + wait_target(src, tag));
    // FIFO: never overtake the first match, even while a delay fault holds
    // it back.
    if (it->delayed && it->not_before > now) return false;
    *out = std::move(*it);
    queue_.erase(it);
    return true;
  }
  return false;
}

Clock::time_point Mailbox::check_and_bound(int src, int tag,
                                           Clock::time_point deadline) {
  // Call with mutex_ held, after take_locked() found nothing deliverable.
  const auto now = Clock::now();
  Clock::time_point bound = deadline;
  bool have_pending = false;
  for (const auto& m : queue_) {
    if (!matches(m, src, tag)) continue;
    have_pending = true;  // a delayed match is on its way
    if (m.delayed && m.not_before < bound) bound = m.not_before;
    break;
  }
  if (!have_pending) {
    if (src != -1 && lost_[static_cast<std::size_t>(src)])
      throw CommError(Fault::kLost, "a message from rank " +
                                        std::to_string(src) +
                                        " was lost before " +
                                        wait_target(src, tag));
    if (src != -1 && dead_[static_cast<std::size_t>(src)])
      throw CommError(Fault::kPeerDead,
                      "rank " + std::to_string(src) + " is dead (" +
                          dead_reason_ + "); nothing more will arrive at " +
                          wait_target(src, tag));
    if (src == -1) {
      int live_peers = 0;
      for (int r = 0; r < static_cast<int>(dead_.size()); ++r)
        if (r != owner_ && !dead_[static_cast<std::size_t>(r)]) ++live_peers;
      if (live_peers == 0)
        throw CommError(Fault::kPeerDead,
                        "every peer is dead (" + dead_reason_ +
                            "); nothing more will arrive at " +
                            wait_target(src, tag));
    }
  }
  if (now >= deadline) {
    if (stats_ != nullptr) ++stats_->timeouts;
    throw CommError(Fault::kTimeout,
                    "deadline expired waiting for " + wait_target(src, tag));
  }
  return bound;
}

Message Mailbox::pop(int src, int tag, Clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  Message msg;
  while (!take_locked(src, tag, &msg)) {
    const Clock::time_point bound = check_and_bound(src, tag, deadline);
    if (bound == kNoDeadline)
      cv_.wait(lock);
    else
      cv_.wait_until(lock, bound);
  }
  return msg;
}

bool Mailbox::try_pop(int src, int tag, Message* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  return take_locked(src, tag, out);
}

void Mailbox::poison(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    poisoned_ = true;
    poison_reason_ = reason;
  }
  cv_.notify_all();
}

void Mailbox::note_dead(int rank, const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dead_[static_cast<std::size_t>(rank)] = 1;
    dead_reason_ = reason;
  }
  cv_.notify_all();
}

void Mailbox::note_revoked(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    revoked_ = true;
    revoke_reason_ = reason;
  }
  cv_.notify_all();
}

void Barrier::check_failed() {
  if (poisoned_)
    throw CommError(Fault::kPoisoned, "vmpi barrier aborted: " + poison_reason_);
  if (revoked_)
    throw CommError(Fault::kRevoked, "vmpi barrier aborted: " + revoke_reason_);
  if (any_dead_)
    throw CommError(Fault::kPeerDead,
                    "vmpi barrier cannot complete: " + dead_reason_);
}

void Barrier::arrive_and_wait(Clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  check_failed();
  const std::uint64_t gen = generation_;
  if (++waiting_ == n_) {
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  for (;;) {
    if (deadline == kNoDeadline)
      cv_.wait(lock);
    else
      cv_.wait_until(lock, deadline);
    if (generation_ != gen) return;
    try {
      check_failed();
    } catch (...) {
      --waiting_;
      throw;
    }
    if (Clock::now() >= deadline) {
      --waiting_;
      if (stats_ != nullptr) ++stats_->timeouts;
      throw CommError(Fault::kTimeout, "barrier deadline expired");
    }
  }
}

void Barrier::poison(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    poisoned_ = true;
    poison_reason_ = reason;
  }
  cv_.notify_all();
}

void Barrier::note_dead(int rank, const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    any_dead_ = true;
    dead_reason_ = "rank " + std::to_string(rank) + " died: " + reason;
  }
  cv_.notify_all();
}

void Barrier::note_revoked(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    revoked_ = true;
    revoke_reason_ = reason;
  }
  cv_.notify_all();
}

World::World(int nranks, WorldConfig config)
    : config_(config),
      barrier_(nranks, config.stats),
      dead_(static_cast<std::size_t>(nranks), 0) {
  MV_REQUIRE(nranks > 0, "world needs at least one rank");
  MV_REQUIRE(config_.timeout_seconds >= 0.0,
             "timeout must be >= 0, got " << config_.timeout_seconds);
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    mailboxes_.push_back(std::make_unique<Mailbox>(r, nranks, config.stats));
}

void World::poison_all(const std::string& reason) {
  for (auto& mb : mailboxes_) mb->poison(reason);
  barrier_.poison(reason);
}

void World::mark_dead(int rank, const std::string& reason) {
  MV_REQUIRE(rank >= 0 && rank < size(), "mark_dead of invalid rank " << rank);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_[static_cast<std::size_t>(rank)]) return;
    dead_[static_cast<std::size_t>(rank)] = 1;
    ++death_epoch_;
  }
  if (stats() != nullptr) ++stats()->peer_deaths;
  for (auto& mb : mailboxes_) mb->note_dead(rank, reason);
  barrier_.note_dead(rank, reason);
}

void World::revoke(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (revoked_) return;
    revoked_ = true;
  }
  if (stats() != nullptr) ++stats()->revokes;
  for (auto& mb : mailboxes_) mb->note_revoked(reason);
  barrier_.note_revoked(reason);
}

bool World::revoked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return revoked_;
}

bool World::is_dead(int rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_[static_cast<std::size_t>(rank)] != 0;
}

std::vector<int> World::live_ranks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> out;
  for (int r = 0; r < static_cast<int>(dead_.size()); ++r)
    if (!dead_[static_cast<std::size_t>(r)]) out.push_back(r);
  return out;
}

std::uint64_t World::death_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return death_epoch_;
}

}  // namespace detail

struct Request::Impl {
  Comm* comm = nullptr;
  int src = -1;  // the (src, tag) pattern the deferred pop matches
  int tag = -1;
  bool done = false;
  Status status;
  std::vector<std::byte> payload;
};

bool Request::done() const {
  MV_REQUIRE(impl_ != nullptr, "done() on an empty request");
  return impl_->done;
}

const std::vector<std::byte>& Request::bytes() const {
  MV_REQUIRE(impl_ != nullptr, "bytes() on an empty request");
  MV_REQUIRE(impl_->done, "bytes() on an incomplete request");
  return impl_->payload;
}

bool Request::test(Status* status) {
  MV_REQUIRE(impl_ != nullptr, "test on an empty request");
  if (!impl_->done && !impl_->comm->complete(*impl_, /*block=*/false))
    return false;
  if (status != nullptr) *status = impl_->status;
  return true;
}

Comm::Comm(detail::World* world, int rank, int size)
    : world_(world),
      rank_(rank),
      size_(size),
      timeout_seconds_(world->config().timeout_seconds),
      send_seq_(static_cast<std::size_t>(size), 0) {}

void Comm::set_timeout(double seconds) {
  MV_REQUIRE(seconds >= 0.0, "timeout must be >= 0, got " << seconds);
  timeout_seconds_ = seconds;
}

namespace {

detail::Clock::time_point deadline_in(double seconds) {
  if (seconds <= 0.0) return detail::kNoDeadline;
  return detail::Clock::now() +
         std::chrono::duration_cast<detail::Clock::duration>(
             std::chrono::duration<double>(seconds));
}

}  // namespace

detail::Clock::time_point Comm::call_deadline() const {
  return deadline_in(timeout_seconds_);
}

void Comm::notify(int event, int peer, int detail, std::size_t bytes) const {
  const WorldConfig& cfg = world_->config();
  if (cfg.comm_hook != nullptr)
    cfg.comm_hook(cfg.comm_hook_ctx, rank_, event, peer, detail,
                  static_cast<unsigned long long>(bytes));
}

void Comm::deliver(int dst, int tag, const void* data, std::size_t bytes) {
  notify(kCommHookSend, dst, 0, bytes);
  detail::Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.payload.resize(bytes);
  if (bytes != 0) std::memcpy(msg.payload.data(), data, bytes);

  const WorldConfig& cfg = world_->config();
  if (cfg.integrity) {
    msg.framed = true;
    msg.seq = send_seq_[static_cast<std::size_t>(dst)]++;
    msg.crc = Crc32::of(msg.payload.data(), bytes);
  }

  if (cfg.fault_plane != nullptr) {
    const FaultPlane::SendAction act = cfg.fault_plane->on_send(rank_, bytes);
    if (act.any() && world_->stats() != nullptr) {
      const int n = static_cast<int>(act.drop) + static_cast<int>(act.duplicate) +
                    static_cast<int>(act.flip_bit >= 0) +
                    static_cast<int>(act.delay_seconds > 0.0);
      world_->stats()->faults_injected += n;
    }
    if (act.flip_bit >= 0 && bytes != 0) {
      const std::size_t bit = static_cast<std::size_t>(act.flip_bit) %
                              (8 * bytes);
      msg.payload[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    }
    if (act.drop) return;  // the consumed sequence number becomes the gap
    if (act.delay_seconds > 0.0) {
      msg.delayed = true;
      msg.not_before = deadline_in(act.delay_seconds);
    }
    if (act.duplicate) {
      detail::Message copy = msg;
      world_->mailbox(dst).push(std::move(copy));
    }
  }
  world_->mailbox(dst).push(std::move(msg));
}

void Comm::verify_frame(const detail::Message& msg) const {
  if (!msg.framed) return;
  if (Crc32::of(msg.payload.data(), msg.payload.size()) == msg.crc) return;
  if (world_->stats() != nullptr) ++world_->stats()->crc_failures;
  throw CommError(Fault::kCorrupt,
                  "payload of message from rank " + std::to_string(msg.source) +
                      " (tag " + std::to_string(msg.tag) + ", " +
                      std::to_string(msg.payload.size()) +
                      " bytes) failed its CRC check");
}

void Comm::send_bytes(int dst, int tag, const void* data, std::size_t bytes) {
  MV_REQUIRE(dst >= 0 && dst < size_, "send to invalid rank " << dst);
  MV_REQUIRE(tag >= 0, "user message tags must be non-negative, got " << tag);
  deliver(dst, tag, data, bytes);
}

bool Comm::receive(int src, int tag, bool block, detail::Message* out) {
  detail::Mailbox& mailbox = world_->mailbox(rank_);
  try {
    if (block)
      *out = mailbox.pop(src, tag, call_deadline());
    else if (!mailbox.try_pop(src, tag, out))
      return false;
    verify_frame(*out);
  } catch (const CommError& e) {
    notify(kCommHookFault, src, static_cast<int>(e.fault()), 0);
    throw;
  }
  notify(kCommHookRecv, out->source, 0, out->payload.size());
  return true;
}

Status Comm::recv_bytes(int src, int tag, void* data, std::size_t capacity) {
  MV_REQUIRE(src == kAnySource || (src >= 0 && src < size_),
             "recv from invalid rank " << src);
  detail::Message msg;
  receive(src, tag, /*block=*/true, &msg);
  MV_REQUIRE(msg.payload.size() <= capacity,
             "message of " << msg.payload.size() << " bytes exceeds buffer of "
                           << capacity);
  if (!msg.payload.empty())
    std::memcpy(data, msg.payload.data(), msg.payload.size());
  return Status{msg.source, msg.tag, msg.payload.size()};
}

Request Comm::ipost(int src, int tag) {
  MV_REQUIRE(src == kAnySource || (src >= 0 && src < size_),
             "posted recv from invalid rank " << src);
  Request req;
  req.impl_ = std::make_shared<Request::Impl>();
  req.impl_->comm = this;
  req.impl_->src = src;
  req.impl_->tag = tag;
  return req;
}

bool Comm::complete(Request::Impl& impl, bool block) {
  detail::Message msg;
  if (!receive(impl.src, impl.tag, block, &msg)) return false;
  impl.payload = std::move(msg.payload);
  impl.status = Status{msg.source, msg.tag, impl.payload.size()};
  impl.done = true;
  return true;
}

Status Comm::wait(Request& request) {
  MV_REQUIRE(request.impl_ != nullptr, "wait on an empty request");
  Request::Impl& impl = *request.impl_;
  MV_REQUIRE(impl.comm == this, "request waited on a different communicator");
  if (!impl.done) complete(impl, /*block=*/true);
  return impl.status;
}

std::vector<Status> Comm::waitall(std::span<Request> requests) {
  std::vector<Status> out;
  out.reserve(requests.size());
  for (Request& r : requests) out.push_back(wait(r));
  return out;
}

void Comm::barrier() {
  try {
    world_->barrier().arrive_and_wait(call_deadline());
  } catch (const CommError& e) {
    notify(kCommHookFault, -1, static_cast<int>(e.fault()), 0);
    throw;
  }
}

bool Comm::is_alive(int rank) const { return !world_->is_dead(rank); }

std::vector<int> Comm::live_ranks() const { return world_->live_ranks(); }

void Comm::mark_self_dead(const std::string& reason) {
  world_->mark_dead(rank_, reason);
}

void Comm::revoke(const std::string& reason) { world_->revoke(reason); }

bool Comm::revoked() const { return world_->revoked(); }

std::int64_t Comm::agree_min(std::int64_t value, double timeout_seconds) {
  const std::vector<int> live = world_->live_ranks();
  MV_REQUIRE(!live.empty(), "agreement round with no live ranks");
  const int root = live.front();
  const detail::Clock::time_point dl = deadline_in(timeout_seconds);

  if (rank_ != root) {
    deliver(root, detail::kAgreeTag, &value, sizeof(value));
    // The collector legitimately waits the full timeout for silent ranks
    // before redistributing; wait twice that window for its answer so a
    // live collector always beats this rank's local fallback.
    const detail::Clock::time_point reply_dl =
        deadline_in(timeout_seconds * 2);
    try {
      detail::Message msg =
          world_->mailbox(rank_).pop(root, detail::kAgreeTag, reply_dl);
      verify_frame(msg);
      MV_REQUIRE(msg.payload.size() == sizeof(value),
                 "agreement payload size mismatch");
      std::int64_t result = 0;
      std::memcpy(&result, msg.payload.data(), sizeof(result));
      return result;
    } catch (const CommError&) {
      // The collector died or went silent. Fall back to the local value:
      // callers derive it from shared state (the checkpoint manifest), so
      // survivors still converge.
      return value;
    }
  }

  // One receive per live peer, tested under one shared deadline. A rank
  // that dies meanwhile is excluded by resetting its request; one still
  // silent at the deadline is marked dead.
  struct Pending {
    int rank = -1;
    Request req;
    bool open() const { return req.valid() && !req.done(); }
  };
  std::vector<Pending> pending;
  pending.reserve(live.size() - 1);
  for (int r : live)
    if (r != rank_) pending.push_back({r, ipost(r, detail::kAgreeTag)});

  std::int64_t result = value;
  for (;;) {
    bool waiting = false;
    for (Pending& p : pending) {
      if (!p.open()) continue;
      if (p.req.test()) {
        const std::vector<std::int64_t> got = p.req.take<std::int64_t>();
        MV_REQUIRE(got.size() == 1, "agreement payload holds "
                                        << got.size() << " values, expected 1");
        result = std::min(result, got[0]);
      } else if (world_->is_dead(p.rank)) {
        p.req = Request();  // a dead rank is excluded from the agreement
      } else {
        waiting = true;
      }
    }
    if (!waiting) break;
    if (detail::Clock::now() >= dl) {
      for (Pending& p : pending) {
        if (!p.open()) continue;
        if (world_->stats() != nullptr) ++world_->stats()->timeouts;
        world_->mark_dead(p.rank, "no response in the agreement round");
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  for (int r : world_->live_ranks())
    if (r != rank_) deliver(r, detail::kAgreeTag, &result, sizeof(result));
  return result;
}

void Comm::send_internal(int dst, const void* data, std::size_t bytes) {
  deliver(dst, detail::kCollectiveTag, data, bytes);
}

void Comm::recv_internal(int src, void* data, std::size_t bytes) {
  detail::Message msg;
  receive(src, detail::kCollectiveTag, /*block=*/true, &msg);
  MV_REQUIRE(msg.payload.size() == bytes,
             "collective size mismatch: got " << msg.payload.size()
                                              << ", expected " << bytes
                                              << " — collectives must be "
                                                 "called in the same order on "
                                                 "every rank");
  if (bytes != 0) std::memcpy(data, msg.payload.data(), bytes);
}

void Comm::bcast_bytes(void* data, std::size_t bytes, int root) {
  MV_REQUIRE(root >= 0 && root < size_, "bcast from invalid root " << root);
  if (size_ == 1) return;
  if (rank_ == root) {
    for (int r = 0; r < size_; ++r) {
      if (r != root) send_internal(r, data, bytes);
    }
  } else {
    recv_internal(root, data, bytes);
  }
}

}  // namespace minivpic::vmpi
