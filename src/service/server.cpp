#include "service/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/error.hpp"
#include "util/log.hpp"

namespace minivpic::service {

using campaign::JobResult;
using telemetry::FdrKind;
using telemetry::Json;

namespace {

// Instrument updates; every instrument is null when no registry is attached.
void count(telemetry::Counter* counter, double d = 1.0) {
  if (counter != nullptr) counter->add(d);
}
void set(telemetry::Gauge* gauge, double v) {
  if (gauge != nullptr) gauge->set(v);
}
void observe(telemetry::SharedHistogram* histogram, double seconds) {
  if (histogram != nullptr) histogram->add(seconds);
}

}  // namespace

ServiceServer::ServiceServer(const campaign::CampaignSpec& spec,
                             campaign::ResultStore& results,
                             campaign::ExecutorConfig exec,
                             ServerConfig config)
    : spec_(&spec),
      results_(&results),
      config_(std::move(config)),
      metrics_(exec.metrics),
      scheduler_(config_.max_queued, config_.drr_quantum) {
  // Register every service.* instrument up front — which fixes the order
  // of scalars() and the metrics dump — and keep the handles.
  if (metrics_ != nullptr) {
    telemetry::MetricsRegistry& m = *metrics_;
    m_.submissions = &m.counter("service.submissions", "count");
    m_.cache_hits = &m.counter("service.cache_hits", "count");
    m_.coalesced = &m.counter("service.coalesced", "count");
    m_.rejections = &m.counter("service.rejections", "count");
    m_.invalid = &m.counter("service.invalid", "count");
    m_.completed = &m.counter("service.completed", "count");
    m_.failed = &m.counter("service.failed", "count");
    m_.disconnects = &m.counter("service.disconnects", "count");
    m_.queue_depth = &m.gauge("service.queue_depth", "count");
    m_.inflight = &m.gauge("service.inflight", "count");
    // 10 us bins over [0, 20 ms): a ~0.1 ms cache hit resolves, and the
    // multi-millisecond bursts under load still land inside the range.
    m_.latency_cache =
        &m.histogram("service.latency.cache", 0.0, 0.02, 2000, "s");
    m_.latency_job = &m.histogram("service.latency.job", 0.0, 120.0, 240, "s");
  }
  exec.on_result = [this](const JobResult& r) { handle_result(r); };
  executor_ = std::make_unique<campaign::CampaignExecutor>(spec, exec);
  listener_ = std::make_unique<TcpListener>(config_.port);
}

ServiceServer::~ServiceServer() {
  if (started_ && !drained_) drain();
}

void ServiceServer::fdr(FdrKind kind, std::uint16_t code, std::uint64_t arg) {
  if (config_.recorder != nullptr) config_.recorder->record(kind, code, -1, arg);
}

void ServiceServer::start() {
  MV_REQUIRE(!started_, "service server already started");
  started_ = true;
  load_queue_state();
  executor_->start(*results_);
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
  MV_LOG_INFO << "service: listening on 127.0.0.1:" << port() << " ("
              << executor_->effective_workers() << " workers, queue bound "
              << config_.max_queued << ")";
}

// -- accept / session --------------------------------------------------------

void ServiceServer::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    int fd = -1;
    try {
      fd = listener_->accept_fd(0.2);
    } catch (const Error&) {
      break;  // listener closed under us: drain in progress
    }
    reap_sessions();  // every ~200ms tick, so churn cannot accumulate
    if (fd < 0) continue;
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::lock_guard<std::mutex> lock(sessions_mu_);
    SessionSlot slot;
    slot.done = done;
    slot.thread = std::thread([this, fd, done] {
      session(fd);
      done->store(true, std::memory_order_release);
    });
    sessions_.push_back(std::move(slot));
  }
}

// Joins and drops every session thread that has finished — a
// connection-churning workload must not grow the sessions_ vector (and its
// dead thread handles) for the daemon's lifetime. The joins happen outside
// sessions_mu_ so a (briefly) still-exiting thread never stalls accept.
void ServiceServer::reap_sessions() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.begin();
    while (it != sessions_.end()) {
      if (it->done->load(std::memory_order_acquire)) {
        finished.push_back(std::move(it->thread));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::thread& t : finished)
    if (t.joinable()) t.join();
}

void ServiceServer::session(int fd) {
  TcpConn conn(fd);
  conn.set_send_timeout(config_.send_timeout_seconds);
  for (;;) {
    std::string line;
    const ReadStatus rs = conn.read_line(&line, config_.read_deadline_seconds,
                                         config_.max_line_bytes, &stopping_);
    switch (rs) {
      case ReadStatus::kLine:
        break;
      case ReadStatus::kEof:
        return;
      case ReadStatus::kTimeout:
        conn.send_line(make_error_response("read deadline exceeded").dump());
        count(m_.disconnects);
        return;
      case ReadStatus::kOverflow:
        conn.send_line(
            make_error_response("request line exceeds " +
                                std::to_string(config_.max_line_bytes) +
                                " bytes")
                .dump());
        count(m_.disconnects);
        return;
      case ReadStatus::kStopped:
      case ReadStatus::kError:
        return;
    }
    if (line.empty()) continue;
    handle_request(conn, line);
  }
}

void ServiceServer::handle_request(TcpConn& conn, const std::string& line) {
  Request req;
  try {
    req = parse_request(line);
  } catch (const Error& e) {
    count(m_.invalid);
    conn.send_line(make_error_response(e.what()).dump());
    return;
  }
  switch (req.type) {
    case Request::Type::kPing:
      conn.send_line(make_pong_response().dump());
      return;
    case Request::Type::kStatus:
      conn.send_line(status_json().dump());
      return;
    case Request::Type::kMetrics:
      conn.send_line(metrics_json().dump());
      return;
    case Request::Type::kSubmit:
      handle_submit(conn, req.submit);
      return;
  }
}

// -- submit: cache -> coalesce -> admit -> wait -------------------------------

void ServiceServer::handle_submit(TcpConn& conn, const SubmitRequest& req) {
  const double t0 = epoch_.seconds();
  count(m_.submissions);

  // Build and validate the job before touching any shared state, so a bad
  // deck costs one error line, not a queue slot.
  campaign::Job job;
  job.overrides = req.overrides;
  job.steps = req.steps > 0 ? req.steps : spec_->steps();
  job.probe_plane = spec_->probe_plane();
  job.warmup = spec_->warmup();
  job.deck_text = req.deck_text;
  try {
    const std::string fingerprint =
        req.deck_text.empty()
            ? spec_->fingerprint()
            : sim::DeckSource::from_text(req.deck_text).canonical_text();
    job.id = campaign::job_id(fingerprint, job.overrides, job.steps);
    std::string label;
    for (const sim::DeckOverride& ov : job.overrides) {
      if (!label.empty()) label += ",";
      label += ov.spec();
    }
    job.label = label.empty() ? "base" : label;
    (void)spec_->make_deck(job);  // full validation: unknown keys throw here
  } catch (const Error& e) {
    count(m_.invalid);
    conn.send_line(make_error_response(e.what()).dump());
    return;
  }

  // Ledger cache: a done record with this content hash answers instantly.
  if (const auto cached = results_->find(job.id);
      cached && cached->status == "done") {
    count(m_.cache_hits);
    observe(m_.latency_cache, epoch_.seconds() - t0);
    conn.send_line(make_result_response(*cached, "cache").dump());
    return;
  }

  // Every reply below is BUILT under mu_ but SENT after unlocking: send()
  // blocks without bound on a peer that stops reading, and a blocked send
  // under the global lock would wedge the dispatcher, every other session,
  // the executor's result path, and drain() itself.
  bool fresh = false;
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = inflight_.find(job.id);
  if (it != inflight_.end() && !it->second.terminal) {
    // Duplicate of an accepted-but-unfinished job: attach, don't re-run.
    count(m_.coalesced);
  } else if (draining_) {
    lock.unlock();
    count(m_.rejections);
    conn.send_line(
        make_rejected_response(job.id, "server draining", 5.0).dump());
    return;
  } else {
    ScheduledJob sj;
    sj.job = job;
    sj.client = req.client;
    sj.priority = req.priority;
    if (!scheduler_.enqueue(std::move(sj))) {
      const double retry = std::max(
          1.0, ewma_job_seconds_ * double(scheduler_.depth()) /
                   double(std::max(1, executor_->effective_workers())));
      lock.unlock();
      count(m_.rejections);
      conn.send_line(
          make_rejected_response(job.id, "queue full", retry).dump());
      return;
    }
    fresh = true;
    // find-or-create rather than overwrite: a resubmit of a just-failed id
    // may race waiters still waking on the old terminal entry, and their
    // registration count must survive into the new run.
    Inflight& inf = inflight_[job.id];
    inf.terminal = false;
    inf.result = JobResult{};
    inf.accept_seconds = t0;
    inf.client = req.client;
    inf.priority = req.priority;
    set(m_.queue_depth, double(scheduler_.depth()));
    set(m_.inflight, double(inflight_.size()));
    fdr(FdrKind::kServiceAccept, 0, std::uint64_t(scheduler_.depth()));
    cv_.notify_all();  // wake the dispatcher
  }

  if (!req.wait) {
    const int depth = scheduler_.depth();
    lock.unlock();
    conn.send_line(make_accepted_response(job.id, depth).dump());
    return;
  }

  // Register as a waiter (keeps the entry alive until we read the result),
  // then block until the job reaches a terminal state (result arrives via
  // handle_result) or the drain finishes without it having started.
  if (const auto w = inflight_.find(job.id); w != inflight_.end())
    ++w->second.waiters;
  cv_.wait(lock, [&] {
    const auto w = inflight_.find(job.id);
    return w == inflight_.end() || w->second.terminal || drain_complete_;
  });
  bool have_result = false;
  JobResult r;
  if (const auto done = inflight_.find(job.id); done != inflight_.end()) {
    --done->second.waiters;
    if (done->second.terminal) {
      have_result = true;
      r = done->second.result;
      if (done->second.waiters == 0) {
        inflight_.erase(done);  // the ledger serves any later duplicate
        set(m_.inflight, double(inflight_.size()));
      }
    }
  }
  lock.unlock();
  if (have_result) {
    conn.send_line(
        make_result_response(r, fresh ? "fresh" : "coalesced").dump());
    return;
  }
  // Drained before the job ran: it is persisted, not lost — tell the client
  // to come back after the restart.
  conn.send_line(make_rejected_response(
                     job.id, "server draining; job persisted for restart", 5.0)
                     .dump());
}

// -- dispatcher ---------------------------------------------------------------

void ServiceServer::dispatch_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // A worker is free when the executor's queue holds fewer live jobs
    // than it has workers — only then does handing over the next job start
    // it immediately, keeping ordering decisions in the FairScheduler.
    auto free_workers = [&] {
      const auto c = executor_->queue_counts();
      return executor_->effective_workers() - (c.pending + c.running);
    };
    cv_.wait(lock, [&] {
      return draining_ || (scheduler_.depth() > 0 && free_workers() > 0);
    });
    if (draining_) return;
    auto next = scheduler_.next();
    if (!next) continue;
    fdr(FdrKind::kServiceDispatch);
    set(m_.queue_depth, double(scheduler_.depth()));
    executor_->submit(next->job, next->resume_step, next->resume_prefix);
  }
}

// Runs on the worker thread that finished the job (ExecutorConfig::
// on_result). Every terminal job both resolves its waiters and frees a
// worker slot, so one notify_all serves the session threads and the
// dispatcher alike.
void ServiceServer::handle_result(const JobResult& r) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Inflight& inf = inflight_[r.id];
    inf.terminal = true;
    inf.result = r;
    const double latency = epoch_.seconds() - inf.accept_seconds;
    ewma_job_seconds_ = 0.8 * ewma_job_seconds_ + 0.2 * std::max(r.seconds, 1e-3);
    // The executor appended this record to the ledger before calling us, so
    // the entry only has to outlive its registered waiters: with none, drop
    // it now — inflight_ tracks actual in-flight work, not every id ever
    // seen, and the gauge below stays meaningful in a long-lived daemon.
    if (inf.waiters == 0) inflight_.erase(r.id);
    count(r.status == "done" ? m_.completed : m_.failed);
    observe(m_.latency_job, latency);
    set(m_.inflight, double(inflight_.size()));
    fdr(FdrKind::kServiceComplete, r.status == "done" ? 0 : 1);
  }
  cv_.notify_all();
}

// -- status / metrics ---------------------------------------------------------

telemetry::Json ServiceServer::status_json() {
  Json j = Json::object();
  j.set("type", Json::string("status"));
  const auto c = executor_->queue_counts();
  std::lock_guard<std::mutex> lock(mu_);
  j.set("queued", Json::number(std::int64_t{scheduler_.depth()}));
  j.set("dispatched_pending", Json::number(std::int64_t{c.pending}));
  j.set("running", Json::number(std::int64_t{c.running}));
  j.set("done", Json::number(std::int64_t{c.done}));
  j.set("failed", Json::number(std::int64_t{c.failed}));
  j.set("inflight", Json::number(std::int64_t(inflight_.size())));
  j.set("workers", Json::number(std::int64_t{executor_->effective_workers()}));
  j.set("draining", Json::boolean(draining_));
  return j;
}

telemetry::Json ServiceServer::metrics_json() {
  Json j = Json::object();
  j.set("type", Json::string("metrics"));
  Json vals = Json::object();
  if (metrics_ != nullptr) {
    for (const telemetry::ScalarMetric& m : metrics_->scalars())
      vals.set(m.name, Json::number(m.value));
    const std::pair<const char*, telemetry::SharedHistogram*> latencies[] = {
        {"service.latency.cache", m_.latency_cache},
        {"service.latency.job", m_.latency_job}};
    for (const auto& [name, histogram] : latencies) {
      const telemetry::MetricHistogram h = histogram->snapshot();
      if (h.total_count() == 0) continue;
      vals.set(std::string(name) + ".p50", Json::number(h.quantile(0.5)));
      vals.set(std::string(name) + ".p99", Json::number(h.quantile(0.99)));
    }
  }
  j.set("values", std::move(vals));
  return j;
}

// -- drain / persistence ------------------------------------------------------

void ServiceServer::drain() {
  if (!started_ || drained_) return;
  drained_ = true;
  MV_LOG_INFO << "service: draining";
  stopping_.store(true, std::memory_order_relaxed);
  listener_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  cv_.notify_all();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();

  // Let in-flight attempts reach their natural end (checkpoint-sliced ones
  // land back as pending leases with resume state).
  std::vector<campaign::Lease> pending = executor_->stop();

  std::vector<QueuedJob> queued;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (ScheduledJob& sj : scheduler_.drain()) {
      QueuedJob q;
      q.job = std::move(sj.job);
      q.client = std::move(sj.client);
      q.priority = sj.priority;
      q.resume_step = sj.resume_step;
      q.resume_prefix = std::move(sj.resume_prefix);
      queued.push_back(std::move(q));
    }
    for (campaign::Lease& lease : pending) {
      QueuedJob q;
      q.job = std::move(lease.job);
      q.resume_step = lease.resume_step;
      q.resume_prefix = std::move(lease.resume_prefix);
      if (const auto it = inflight_.find(q.job.id); it != inflight_.end()) {
        q.client = it->second.client;
        q.priority = it->second.priority;
      }
      queued.push_back(std::move(q));
    }
    drain_complete_ = true;
  }
  cv_.notify_all();  // waiters for unfinished jobs give up with `rejected`

  persist_queue_state(queued);
  persisted_jobs_ = int(queued.size());
  // The freshly persisted file supersedes any backlog start() set aside:
  // every job in the marker either completed into the ledger or was just
  // re-persisted above, so the marker's crash-recovery duty is over.
  if (!config_.queue_state_path.empty())
    std::remove((config_.queue_state_path + ".consumed").c_str());

  std::vector<SessionSlot> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (SessionSlot& s : sessions)
    if (s.thread.joinable()) s.thread.join();
  MV_LOG_INFO << "service: drained (" << queued.size()
              << " pending jobs persisted)";
}

void ServiceServer::persist_queue_state(const std::vector<QueuedJob>& queued) {
  if (config_.queue_state_path.empty()) return;
  std::ofstream out(config_.queue_state_path, std::ios::trunc);
  MV_REQUIRE(out.good(),
             "cannot write queue state: " << config_.queue_state_path);
  for (const QueuedJob& q : queued) out << queued_job_to_json(q).dump() << "\n";
  out.flush();
  MV_REQUIRE(out.good(),
             "queue state write failed: " << config_.queue_state_path);
}

void ServiceServer::load_queue_state() {
  if (config_.queue_state_path.empty()) return;
  // Move the backlog aside to a consumed marker instead of truncating it:
  // truncation would make a crash (as opposed to a clean drain) after
  // restart silently lose every reloaded job. The marker stays on disk
  // until the next drain() re-persists whatever is still pending — and if
  // the daemon crashes before that, the next boot finds the marker (no
  // fresh queue-state file exists, so the rename below fails with ENOENT)
  // and reloads from it, skipping jobs the ledger already shows done.
  const std::string consumed = config_.queue_state_path + ".consumed";
  std::string src = consumed;
  if (std::rename(config_.queue_state_path.c_str(), consumed.c_str()) != 0 &&
      errno != ENOENT) {
    MV_LOG_WARN << "service: cannot set queue state aside ("
                << std::strerror(errno) << "); loading it in place";
    src = config_.queue_state_path;
  }
  std::ifstream in(src);
  if (!in.good()) return;  // first boot: nothing persisted yet
  std::string line;
  int loaded = 0, line_no = 0, already_done = 0;
  std::lock_guard<std::mutex> lock(mu_);
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    QueuedJob q;
    try {
      q = queued_job_from_json(Json::parse(line));
    } catch (const std::exception& e) {
      // A corrupt or partial record (e.g. a crash mid-persist) costs that
      // one job, not the whole backlog — and never the daemon's boot.
      MV_LOG_WARN << "service: skipping unparseable queue-state record at "
                  << src << ":" << line_no << ": " << e.what();
      continue;
    }
    // Crash-after-restart replay: a reloaded job may have completed before
    // the crash, in which case the ledger already serves it.
    if (const auto cached = results_->find(q.job.id);
        cached && cached->status == "done") {
      ++already_done;
      continue;
    }
    ScheduledJob sj;
    Inflight inf;
    inf.accept_seconds = epoch_.seconds();
    inf.client = q.client;
    inf.priority = q.priority;
    inflight_[q.job.id] = std::move(inf);
    sj.job = std::move(q.job);
    sj.client = std::move(q.client);
    sj.priority = q.priority;
    sj.resume_step = q.resume_step;
    sj.resume_prefix = std::move(q.resume_prefix);
    if (!scheduler_.enqueue(std::move(sj))) {
      // Cannot happen when max_queued matches the previous run's bound,
      // but a shrunk bound must not silently drop accepted work.
      MV_LOG_WARN << "service: queue state overflows max_queued; job "
                  << "dropped from restart backlog";
      continue;
    }
    ++loaded;
  }
  if (loaded > 0 || already_done > 0)
    MV_LOG_INFO << "service: reloaded " << loaded << " persisted jobs from "
                << src << " (" << already_done << " already in the ledger)";
}

}  // namespace minivpic::service
