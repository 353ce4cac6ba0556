// ServiceServer: the campaign-as-a-service front door. A long-lived daemon
// core that accepts line-delimited JSON jobs over TCP (protocol.hpp),
// multiplexes many concurrent clients onto one shared CampaignExecutor
// worker pool, and answers duplicate work without recomputing it:
//
//   submit --> validate --> ledger cache?  --> serve the stored record
//                       --> in flight?     --> coalesce onto the running job
//                       --> queue full?    --> typed rejection + retry hint
//                       --> else           --> fair-queue, dispatch, wait
//
// Threads: one accept loop (which also reaps finished session threads), one
// session thread per client connection, one dispatcher that moves jobs from
// the FairScheduler into the executor only when a worker is free (so
// scheduling order stays the scheduler's call), plus the executor's own
// workers. All shared state — scheduler, in-flight map, drain flags — lives
// under one mutex `mu_`; the metrics registry, which the executor's workers
// also touch, locks itself. No thread ever writes to a socket while
// holding `mu_`: send() can block indefinitely on a peer
// that stops reading, and a blocked send under the global lock would wedge
// the dispatcher, every other session, and drain() itself. Responses are
// built under the lock and sent after unlocking; a send timeout bounds even
// the unlocked writes so a stalled peer costs one session, not the daemon.
//
// Drain (SIGTERM): stop accepting, stop dispatching, let running attempts
// finish or checkpoint (CampaignExecutor::stop), answer every waiting
// client (finished jobs with their result, unstarted ones with a typed
// rejection), and persist the still-pending jobs — scheduler backlog plus
// checkpoint-sliced leases — as queued_job NDJSON that the next start()
// reloads. An accepted job is therefore never lost: it either completes,
// or survives the restart with its resume checkpoint.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/results.hpp"
#include "campaign/spec.hpp"
#include "service/net.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "util/timer.hpp"

namespace minivpic::service {

struct ServerConfig {
  int port = 0;                        ///< 0 = ephemeral; see port()
  int max_queued = 64;                 ///< admission bound (scheduler depth)
  double read_deadline_seconds = 30;   ///< per-line slow-loris deadline
  double send_timeout_seconds = 30;    ///< SO_SNDTIMEO on session sockets
  std::size_t max_line_bytes = 1 << 20;
  double drr_quantum = 256;            ///< FairScheduler quantum (steps)
  /// Drain persistence: queued_job NDJSON written at drain(). start() moves
  /// the file aside to `<path>.consumed` before re-queuing it (so a crash
  /// after restart still has the backlog on disk) and drain() removes the
  /// marker once the backlog is re-persisted. Empty = no persistence.
  std::string queue_state_path;
  /// Optional service flight recorder (accept/dispatch/complete events).
  telemetry::Recorder* recorder = nullptr;
};

class ServiceServer {
 public:
  /// `spec` contributes the base deck, default step count and probe config;
  /// `results` is the shared ledger (cache source of truth); `exec` is the
  /// worker-pool shape — its metrics registry (if any) gains the service.*
  /// instruments alongside the executor's campaign.* set. The socket
  /// binds in the constructor so port() is valid immediately; no thread
  /// runs until start().
  ServiceServer(const campaign::CampaignSpec& spec,
                campaign::ResultStore& results,
                campaign::ExecutorConfig exec, ServerConfig config);
  ~ServiceServer();

  int port() const { return listener_->port(); }

  /// Reloads persisted queue state, starts the executor pool, the
  /// dispatcher, and the accept loop.
  void start();

  /// Graceful drain (idempotent): see the file comment. Blocks until every
  /// session thread has exited and pending work is persisted.
  void drain();

  /// Jobs persisted by the last drain() (for the daemon's exit report).
  int persisted_jobs() const { return persisted_jobs_; }

 private:
  struct Inflight {
    bool terminal = false;
    campaign::JobResult result;   ///< valid when terminal
    double accept_seconds = 0;    ///< server-epoch accept timestamp
    std::string client = "anon";  ///< for drain persistence
    double priority = 1.0;
    /// Sessions blocked in handle_submit on this id. A terminal entry is
    /// erased by whoever brings the count to zero (handle_result when
    /// nobody waits, else the last waiter) — the ledger answers later
    /// duplicates, so inflight_ stays bounded by actual in-flight work.
    int waiters = 0;
  };

  /// One session thread plus its self-reported completion flag, so
  /// accept_loop can reap finished sessions instead of accumulating
  /// terminated-but-joinable handles for the daemon's lifetime.
  struct SessionSlot {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  void accept_loop();
  void reap_sessions();
  void session(int fd);
  void dispatch_loop();
  void handle_request(TcpConn& conn, const std::string& line);
  void handle_submit(TcpConn& conn, const SubmitRequest& req);
  void handle_result(const campaign::JobResult& r);
  telemetry::Json status_json();
  telemetry::Json metrics_json();
  void persist_queue_state(const std::vector<QueuedJob>& queued);
  void load_queue_state();
  void fdr(telemetry::FdrKind kind, std::uint16_t code = 0,
           std::uint64_t arg = 0);

  const campaign::CampaignSpec* spec_;
  campaign::ResultStore* results_;
  ServerConfig config_;
  telemetry::MetricsRegistry* metrics_ = nullptr;

  /// The service.* instruments, resolved once at construction (all null
  /// without a registry); each is safe to update from any thread.
  struct Instruments {
    telemetry::Counter *submissions, *cache_hits, *coalesced, *rejections,
        *invalid, *completed, *failed, *disconnects;
    telemetry::Gauge *queue_depth, *inflight;
    telemetry::SharedHistogram *latency_cache, *latency_job;
  };
  Instruments m_{};

  std::unique_ptr<campaign::CampaignExecutor> executor_;
  std::unique_ptr<TcpListener> listener_;
  Timer epoch_;  ///< server-relative timestamps (latency accounting)

  std::mutex mu_;  ///< scheduler_, inflight_, drain flags, ewma
  std::condition_variable cv_;
  FairScheduler scheduler_;
  std::map<std::string, Inflight> inflight_;
  bool draining_ = false;        ///< dispatcher must stop handing out work
  bool drain_complete_ = false;  ///< executor stopped; waiters may give up
  double ewma_job_seconds_ = 1.0;

  std::atomic<bool> stopping_{false};  ///< accept/read loops observe this
  std::thread accept_thread_;
  std::thread dispatch_thread_;
  std::mutex sessions_mu_;
  std::vector<SessionSlot> sessions_;
  bool started_ = false;
  bool drained_ = false;
  int persisted_jobs_ = 0;
};

}  // namespace minivpic::service
