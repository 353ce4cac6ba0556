#include "telemetry/recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "util/error.hpp"

namespace minivpic::telemetry {

namespace {

// One steady-clock epoch shared by every recorder in the process. Under
// vmpi ranks are threads of this process, so a single epoch makes per-rank
// timestamps directly comparable in the merged postmortem timeline.
std::chrono::steady_clock::time_point process_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - process_epoch())
          .count());
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

constexpr char kMagic[8] = {'M', 'V', 'F', 'D', 'R', '1', '\0', '\0'};

// Global registry of live recorders, walked from signal context. Fixed
// size, lock-free: registration CASes a null slot, deregistration stores
// null back. Large enough for every rank of every concurrent campaign job.
constexpr int kMaxRegistered = 1024;
std::atomic<Recorder*> g_registered[kMaxRegistered];

// write() the whole buffer, retrying on short writes/EINTR. Signal-safe.
bool write_all(int fd, const void* data, std::size_t size) noexcept {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

void crash_handler(int sig) {
  dump_registered(FdrDumpReason::kSignal);
  // Restore the default disposition and re-raise so the exit status (and
  // core, if enabled) looks exactly as it would without the recorder.
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

const char* fdr_kind_name(FdrKind kind) {
  switch (kind) {
    case FdrKind::kNone: return "none";
    case FdrKind::kPhaseBegin: return "phase_begin";
    case FdrKind::kPhaseEnd: return "phase_end";
    case FdrKind::kStep: return "step";
    case FdrKind::kCommSend: return "comm_send";
    case FdrKind::kCommRecv: return "comm_recv";
    case FdrKind::kCommFault: return "comm_fault";
    case FdrKind::kCheckpoint: return "checkpoint";
    case FdrKind::kRestore: return "restore";
    case FdrKind::kHealth: return "health";
    case FdrKind::kFault: return "fault";
    case FdrKind::kRecovery: return "recovery";
    case FdrKind::kAnomaly: return "anomaly";
    case FdrKind::kDump: return "dump";
    case FdrKind::kExit: return "exit";
    case FdrKind::kServiceAccept: return "service_accept";
    case FdrKind::kServiceDispatch: return "service_dispatch";
    case FdrKind::kServiceComplete: return "service_complete";
  }
  return "kind?";
}

const char* fdr_dump_reason_name(FdrDumpReason reason) {
  switch (reason) {
    case FdrDumpReason::kManual: return "manual";
    case FdrDumpReason::kSignal: return "signal";
    case FdrDumpReason::kCommFault: return "comm_fault";
    case FdrDumpReason::kHealthAbort: return "health_abort";
    case FdrDumpReason::kInterrupted: return "interrupted";
    case FdrDumpReason::kExit: return "exit";
  }
  return "reason?";
}

Recorder::Recorder(std::string path, int rank, std::size_t capacity)
    : path_(std::move(path)),
      rank_(rank),
      capacity_(round_up_pow2(capacity < 2 ? 2 : capacity)),
      mask_(capacity_ - 1),
      events_(new FdrEvent[capacity_]) {
  process_epoch();  // pin the shared epoch before the first record()
  for (int i = 0; i < kMaxRegistered; ++i) {
    Recorder* expected = nullptr;
    if (g_registered[i].compare_exchange_strong(expected, this,
                                                std::memory_order_acq_rel)) {
      crash_slot_ = i;
      break;
    }
  }
}

Recorder::~Recorder() {
  if (crash_slot_ >= 0)
    g_registered[crash_slot_].store(nullptr, std::memory_order_release);
}

void Recorder::record(FdrKind kind, std::uint16_t code, int peer,
                      std::uint64_t arg) noexcept {
  const std::uint64_t slot = head_.fetch_add(1, std::memory_order_relaxed);
  FdrEvent& e = events_[slot & mask_];
  e.ts_ns = now_ns();
  e.step = step_.load(std::memory_order_relaxed);
  e.kind = static_cast<std::uint16_t>(kind);
  e.code = code;
  e.peer = peer;
  e.arg = arg;
}

bool Recorder::dump(FdrDumpReason reason) const noexcept {
  // The marker makes the dump self-describing even if the header is the
  // only context that survives truncation.
  const_cast<Recorder*>(this)->record(FdrKind::kDump,
                                      static_cast<std::uint16_t>(reason));

  const std::uint64_t total = head_.load(std::memory_order_relaxed);
  const std::uint64_t stored = total < capacity_ ? total : capacity_;

  FdrHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = 1;
  header.rank = rank_;
  header.capacity = capacity_;
  header.total = total;
  header.stored = stored;
  header.event_size = sizeof(FdrEvent);
  header.reason = static_cast<std::uint32_t>(reason);

  int fd = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  bool ok = write_all(fd, &header, sizeof(header));
  // Oldest event first: when wrapped the oldest lives at head & mask.
  const std::uint64_t first = total - stored;
  for (std::uint64_t i = 0; ok && i < stored; ++i)
    ok = write_all(fd, &events_[(first + i) & mask_], sizeof(FdrEvent));
  if (::close(fd) != 0) ok = false;
  return ok;
}

Recorder::Dump Recorder::read(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  MV_REQUIRE(f != nullptr, "cannot open flight record: " + path);
  Dump dump;
  bool header_ok =
      std::fread(&dump.header, sizeof(dump.header), 1, f) == 1 &&
      std::memcmp(dump.header.magic, kMagic, sizeof(kMagic)) == 0 &&
      dump.header.version == 1 && dump.header.event_size == sizeof(FdrEvent);
  if (!header_ok) {
    std::fclose(f);
    MV_REQUIRE(false, "not a v1 .fdr file: " + path);
  }
  dump.events.resize(dump.header.stored);
  const std::size_t got =
      dump.events.empty()
          ? 0
          : std::fread(dump.events.data(), sizeof(FdrEvent),
                       dump.events.size(), f);
  std::fclose(f);
  // A dump from a dying process may be truncated; keep what we got.
  dump.events.resize(got);
  return dump;
}

int dump_registered(FdrDumpReason reason) noexcept {
  int dumped = 0;
  for (int i = 0; i < kMaxRegistered; ++i) {
    Recorder* r = g_registered[i].load(std::memory_order_acquire);
    if (r != nullptr && r->dump(reason)) ++dumped;
  }
  return dumped;
}

void install_crash_handlers() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  struct sigaction sa{};
  sa.sa_handler = crash_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

void vmpi_comm_hook(void* ctx, int rank, int event, int peer, int detail,
                    unsigned long long bytes) noexcept {
  const auto* set = static_cast<const RecorderSet*>(ctx);
  if (set == nullptr || rank < 0 || rank >= set->count) return;
  Recorder* r = set->recorders[rank];
  if (r == nullptr) return;
  // Event codes match vmpi::kCommHook{Send,Recv,Fault} in vmpi/config.hpp.
  switch (event) {
    case 0:
      r->record(FdrKind::kCommSend, 0, peer, bytes);
      break;
    case 1:
      r->record(FdrKind::kCommRecv, 0, peer, bytes);
      break;
    case 2:
      r->record(FdrKind::kCommFault, static_cast<std::uint16_t>(detail), peer,
                bytes);
      break;
    default:
      break;
  }
}

}  // namespace minivpic::telemetry
