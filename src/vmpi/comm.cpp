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
    if (msg.has_seq) {
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
    // Direct fulfillment of a posted receive. Only a clean, immediately
    // deliverable message may skip the queue: a delay-held message, a
    // message from a source with a lost predecessor, or a message whose
    // pattern already has a queued match must all go through the queue so
    // FIFO order and typed failures stay exactly those of the pop path.
    bool fulfilled = false;
    if (!msg.delayed && !lost_[static_cast<std::size_t>(msg.source)]) {
      for (auto& e : posted_) {
        if (e->complete) continue;
        if (!matches(msg, e->src, e->tag)) continue;
        if (queue_has_match(e->src, e->tag)) continue;  // FIFO: queue wins
        e->msg = std::move(msg);
        e->complete = true;
        fulfilled = true;
        break;
      }
    }
    if (!fulfilled) queue_.push_back(std::move(msg));
  }
  cv_.notify_all();
}

Message* Mailbox::find(int src, int tag) {
  const auto now = Clock::now();
  for (auto& m : queue_) {
    if (!matches(m, src, tag)) continue;
    if (lost_[static_cast<std::size_t>(m.source)])
      throw CommError(Fault::kLost,
                      "a message from rank " + std::to_string(m.source) +
                          " was lost before " + wait_target(src, tag));
    // FIFO: never overtake the first match, even while a delay fault holds
    // it back.
    if (m.delayed && m.not_before > now) return nullptr;
    return &m;
  }
  return nullptr;
}

bool Mailbox::queue_has_match(int src, int tag) const {
  for (const auto& m : queue_)
    if (matches(m, src, tag)) return true;
  return false;
}

Clock::time_point Mailbox::check_and_bound(int src, int tag,
                                           Clock::time_point deadline) {
  // Call with mutex_ held, after find() returned nothing deliverable.
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
  for (;;) {
    if (poisoned_)
      throw CommError(Fault::kPoisoned, "vmpi recv aborted: " + poison_reason_);
    if (revoked_ && tag != kAgreeTag)
      throw CommError(Fault::kRevoked, "vmpi recv aborted: " + revoke_reason_);
    if (Message* m = find(src, tag)) {
      Message msg = std::move(*m);
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (&*it == m) {
          queue_.erase(it);
          break;
        }
      }
      return msg;
    }
    const Clock::time_point bound = check_and_bound(src, tag, deadline);
    if (bound == kNoDeadline)
      cv_.wait(lock);
    else
      cv_.wait_until(lock, bound);
  }
}

std::shared_ptr<PostedRecv> Mailbox::post(int src, int tag) {
  auto entry = std::make_shared<PostedRecv>();
  entry->src = src;
  entry->tag = tag;
  std::lock_guard<std::mutex> lock(mutex_);
  // Pure registration, never a throw: if a match is already queued (or the
  // link is lost), the claim path consumes it — with the same FIFO order and
  // typed failures as pop — so post() stays safe to call in bulk.
  posted_.push_back(entry);
  return entry;
}

void Mailbox::erase_posted_locked(const std::shared_ptr<PostedRecv>& entry) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (*it == entry) {
      posted_.erase(it);
      return;
    }
  }
}

bool Mailbox::claim_from_queue_locked(const std::shared_ptr<PostedRecv>& entry,
                                      Message* out) {
  if (Message* m = find(entry->src, entry->tag)) {
    *out = std::move(*m);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (&*it == m) {
        queue_.erase(it);
        break;
      }
    }
    erase_posted_locked(entry);
    return true;
  }
  return false;
}

bool Mailbox::try_claim(const std::shared_ptr<PostedRecv>& entry,
                        Message* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (poisoned_)
    throw CommError(Fault::kPoisoned, "vmpi recv aborted: " + poison_reason_);
  if (revoked_ && entry->tag != kAgreeTag)
    throw CommError(Fault::kRevoked, "vmpi recv aborted: " + revoke_reason_);
  if (entry->complete) {
    *out = std::move(entry->msg);
    erase_posted_locked(entry);
    return true;
  }
  // The non-blocking path reports lost predecessors (via find) but not peer
  // death, so pollers can keep draining stragglers.
  return claim_from_queue_locked(entry, out);
}

Message Mailbox::claim(const std::shared_ptr<PostedRecv>& entry,
                       Clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (poisoned_)
      throw CommError(Fault::kPoisoned, "vmpi recv aborted: " + poison_reason_);
    if (revoked_ && entry->tag != kAgreeTag)
      throw CommError(Fault::kRevoked, "vmpi recv aborted: " + revoke_reason_);
    if (entry->complete) {
      Message msg = std::move(entry->msg);
      erase_posted_locked(entry);
      return msg;
    }
    Message msg;
    if (claim_from_queue_locked(entry, &msg)) return msg;
    const Clock::time_point bound =
        check_and_bound(entry->src, entry->tag, deadline);
    if (bound == kNoDeadline)
      cv_.wait(lock);
    else
      cv_.wait_until(lock, bound);
  }
}

void Mailbox::cancel(const std::shared_ptr<PostedRecv>& entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  erase_posted_locked(entry);
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
  bool done = false;
  Status status;
  // The mailbox entry a send fulfills, the delivered payload, and the
  // one-shot completion callback.
  std::shared_ptr<detail::PostedRecv> entry;
  std::vector<std::byte> payload;
  RecvCallback on_complete;
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
  if (!impl_->done && !impl_->comm->try_complete(*impl_)) return false;
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
  if (cfg.sequencing) {
    msg.seq = send_seq_[static_cast<std::size_t>(dst)]++;
    msg.has_seq = true;
  }
  if (cfg.checksum) {
    msg.crc = Crc32::of(msg.payload.data(), bytes);
    msg.has_crc = true;
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
  if (!msg.has_crc) return;
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

Status Comm::recv_bytes(int src, int tag, void* data, std::size_t capacity) {
  MV_REQUIRE(src == kAnySource || (src >= 0 && src < size_),
             "recv from invalid rank " << src);
  try {
    detail::Message msg = world_->mailbox(rank_).pop(src, tag, call_deadline());
    verify_frame(msg);
    MV_REQUIRE(msg.payload.size() <= capacity,
               "message of " << msg.payload.size()
                             << " bytes exceeds buffer of " << capacity);
    if (!msg.payload.empty())
      std::memcpy(data, msg.payload.data(), msg.payload.size());
    notify(kCommHookRecv, msg.source, 0, msg.payload.size());
    return Status{msg.source, msg.tag, msg.payload.size()};
  } catch (const CommError& e) {
    notify(kCommHookFault, src, static_cast<int>(e.fault()), 0);
    throw;
  }
}

Request Comm::ipost(int src, int tag, RecvCallback on_complete) {
  MV_REQUIRE(src == kAnySource || (src >= 0 && src < size_),
             "posted recv from invalid rank " << src);
  Request req;
  req.impl_ = std::make_shared<Request::Impl>();
  req.impl_->comm = this;
  req.impl_->on_complete = std::move(on_complete);
  req.impl_->entry = world_->mailbox(rank_).post(src, tag);
  return req;
}

void Comm::cancel(Request& request) {
  if (request.impl_ == nullptr) return;
  Request::Impl& impl = *request.impl_;
  if (!impl.done) world_->mailbox(rank_).cancel(impl.entry);
  // The request no longer represents anything: drop it entirely so
  // valid() turns false (a canceled request is inert, not "completed").
  request.impl_.reset();
}

void Comm::complete(Request::Impl& impl, detail::Message msg) {
  // Observation-time half of a nonblocking receive: everything that can fail
  // or that observers may see (CRC verification, the recv hook, the
  // completion callback) runs here, on the thread driving the request —
  // bit-for-bit the semantics of the blocking recv path, just with transport
  // already done.
  verify_frame(msg);
  impl.payload = std::move(msg.payload);
  impl.status = Status{msg.source, msg.tag, impl.payload.size()};
  impl.done = true;
  notify(kCommHookRecv, msg.source, 0, impl.payload.size());
  if (impl.on_complete) {
    RecvCallback cb = std::move(impl.on_complete);
    impl.on_complete = nullptr;
    cb(impl.status);
  }
}

bool Comm::try_complete(Request::Impl& impl) {
  detail::Message msg;
  try {
    if (!world_->mailbox(rank_).try_claim(impl.entry, &msg)) return false;
    complete(impl, std::move(msg));
  } catch (const CommError& e) {
    notify(kCommHookFault, impl.entry->src, static_cast<int>(e.fault()), 0);
    throw;
  }
  return true;
}

Status Comm::wait(Request& request) {
  MV_REQUIRE(request.impl_ != nullptr, "wait on an empty request");
  Request::Impl& impl = *request.impl_;
  MV_REQUIRE(impl.comm == this, "request waited on a different communicator");
  if (impl.done) return impl.status;
  try {
    complete(impl, world_->mailbox(rank_).claim(impl.entry, call_deadline()));
  } catch (const CommError& e) {
    notify(kCommHookFault, impl.entry->src, static_cast<int>(e.fault()), 0);
    throw;
  }
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

  // One posted receive per live peer. A posted entry stays registered in
  // this rank's mailbox until claimed or canceled, so the receive of every
  // rank the round excludes (dead or silent) is canceled.
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
  try {
    for (;;) {
      bool waiting = false;
      for (Pending& p : pending) {
        if (!p.open()) continue;
        if (p.req.test()) {
          const std::vector<std::int64_t> got = p.req.take<std::int64_t>();
          MV_REQUIRE(got.size() == 1, "agreement payload holds "
                                          << got.size()
                                          << " values, expected 1");
          result = std::min(result, got[0]);
        } else if (world_->is_dead(p.rank)) {
          cancel(p.req);  // a dead rank is excluded from the agreement
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
          cancel(p.req);
        }
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  } catch (...) {
    for (Pending& p : pending) cancel(p.req);
    throw;
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
  try {
    msg = world_->mailbox(rank_).pop(src, detail::kCollectiveTag,
                                     call_deadline());
    verify_frame(msg);
  } catch (const CommError& e) {
    notify(kCommHookFault, src, static_cast<int>(e.fault()), 0);
    throw;
  }
  notify(kCommHookRecv, msg.source, 0, msg.payload.size());
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
