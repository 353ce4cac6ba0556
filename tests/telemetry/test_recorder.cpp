// Flight-recorder contract (telemetry/recorder.hpp): the ring keeps the
// *last* moments, the on-disk dump round-trips exactly, and the dump path
// really is async-signal-safe — proven by crashing a forked child inside a
// signal handler and reading the file it left behind.
#include "telemetry/recorder.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>

#include "telemetry/phase.hpp"
#include "util/error.hpp"
#include "vmpi/config.hpp"

using namespace minivpic;
using namespace minivpic::telemetry;

namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "fdr_" + name + ".fdr";
}

TEST(Recorder, RoundTripPreservesEveryField) {
  const std::string path = tmp_path("roundtrip");
  Recorder rec(path, /*rank=*/3, /*capacity=*/16);
  rec.set_step(42);
  rec.record(FdrKind::kStep, 0, -1, 42);
  rec.record(FdrKind::kCommSend, 0, /*peer=*/1, /*arg=*/4096);
  rec.record(FdrKind::kCommFault, /*code=*/2, /*peer=*/5);
  rec.record(FdrKind::kCheckpoint, 0, -1, 40);
  ASSERT_TRUE(rec.dump(FdrDumpReason::kManual));

  const Recorder::Dump d = Recorder::read(path);
  EXPECT_EQ(d.header.version, 1u);
  EXPECT_EQ(d.header.rank, 3);
  EXPECT_EQ(d.header.capacity, 16u);
  EXPECT_EQ(d.header.event_size, sizeof(FdrEvent));
  EXPECT_EQ(FdrDumpReason(d.header.reason), FdrDumpReason::kManual);
  // dump() records its own kDump marker, so 4 + 1 events round-trip.
  ASSERT_EQ(d.events.size(), 5u);
  EXPECT_EQ(d.header.total, 5u);
  EXPECT_EQ(d.header.stored, 5u);

  EXPECT_EQ(FdrKind(d.events[0].kind), FdrKind::kStep);
  EXPECT_EQ(d.events[0].step, 42);
  EXPECT_EQ(d.events[0].arg, 42u);
  EXPECT_EQ(FdrKind(d.events[1].kind), FdrKind::kCommSend);
  EXPECT_EQ(d.events[1].peer, 1);
  EXPECT_EQ(d.events[1].arg, 4096u);
  EXPECT_EQ(FdrKind(d.events[2].kind), FdrKind::kCommFault);
  EXPECT_EQ(d.events[2].code, 2);
  EXPECT_EQ(d.events[2].peer, 5);
  EXPECT_EQ(FdrKind(d.events[3].kind), FdrKind::kCheckpoint);
  EXPECT_EQ(FdrKind(d.events[4].kind), FdrKind::kDump);
  std::remove(path.c_str());
}

TEST(Recorder, WrapAroundKeepsTheNewestEvents) {
  const std::string path = tmp_path("wrap");
  Recorder rec(path, 0, /*capacity=*/8);
  for (int i = 0; i < 20; ++i)
    rec.record(FdrKind::kStep, 0, -1, std::uint64_t(i));
  ASSERT_TRUE(rec.dump());

  const Recorder::Dump d = Recorder::read(path);
  // 20 steps + the dump marker; the ring keeps the last 8.
  EXPECT_EQ(d.header.total, 21u);
  ASSERT_EQ(d.events.size(), 8u);
  EXPECT_EQ(d.header.stored, 8u);
  // Oldest first: steps 13..19, then the dump marker.
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(FdrKind(d.events[std::size_t(i)].kind), FdrKind::kStep);
    EXPECT_EQ(d.events[std::size_t(i)].arg, std::uint64_t(13 + i));
  }
  EXPECT_EQ(FdrKind(d.events[7].kind), FdrKind::kDump);
  // Timestamps never run backwards within one recorder.
  for (std::size_t i = 1; i < d.events.size(); ++i)
    EXPECT_GE(d.events[i].ts_ns, d.events[i - 1].ts_ns);
  std::remove(path.c_str());
}

TEST(Recorder, CapacityRoundsUpToAPowerOfTwo) {
  const std::string path = tmp_path("pow2");
  Recorder rec(path, 0, 5);
  EXPECT_EQ(rec.capacity(), 8u);
}

TEST(Recorder, ReadRejectsNonFdrFiles) {
  const std::string path = testing::TempDir() + "not_a_dump.fdr";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a flight record", f);
    std::fclose(f);
  }
  EXPECT_THROW(Recorder::read(path), Error);
  std::remove(path.c_str());
}

TEST(PhaseProbe, NullSinksAreANoOp) {
  StepTimings timings;
  {
    PhaseProbe probe(Phase::kPush, timings, nullptr, nullptr);
    EXPECT_GE(probe.seconds(), 0.0);
  }
  EXPECT_EQ(timings[Phase::kPush].laps(), 1u);  // timing needs no sink
}

TEST(PhaseProbe, RecordsBalancedBeginEnd) {
  const std::string path = tmp_path("phase");
  Recorder rec(path, 0, 16);
  StepTimings timings;
  {
    PhaseProbe step(Phase::kStep, timings, nullptr, &rec);
    PhaseProbe push(Phase::kPush, timings, nullptr, &rec);
  }
  ASSERT_TRUE(rec.dump());
  const Recorder::Dump d = Recorder::read(path);
  ASSERT_EQ(d.events.size(), 5u);  // 2 begins + 2 ends + dump marker
  const auto code = [](Phase p) { return std::uint16_t(p); };
  EXPECT_EQ(FdrKind(d.events[0].kind), FdrKind::kPhaseBegin);
  EXPECT_EQ(d.events[0].code, code(Phase::kStep));
  EXPECT_EQ(FdrKind(d.events[1].kind), FdrKind::kPhaseBegin);
  EXPECT_EQ(d.events[1].code, code(Phase::kPush));
  EXPECT_EQ(FdrKind(d.events[2].kind), FdrKind::kPhaseEnd);
  EXPECT_EQ(d.events[2].code, code(Phase::kPush));
  EXPECT_EQ(FdrKind(d.events[3].kind), FdrKind::kPhaseEnd);
  EXPECT_EQ(d.events[3].code, code(Phase::kStep));
  EXPECT_STREQ(fdr_phase_name(d.events[1].code), "push");
  // Only timed phases own a StepTimings slot.
  EXPECT_EQ(timings[Phase::kPush].laps(), 1u);
  EXPECT_EQ(timings[Phase::kStep].laps(), 0u);
  std::remove(path.c_str());
}

TEST(Recorder, CommHookRoutesEventsToTheRanksRecorder) {
  const std::string p0 = tmp_path("hook0"), p1 = tmp_path("hook1");
  Recorder r0(p0, 0, 16), r1(p1, 1, 16);
  Recorder* recorders[] = {&r0, &r1};
  RecorderSet set{recorders, 2};
  vmpi_comm_hook(&set, /*rank=*/1, vmpi::kCommHookSend, /*peer=*/0, 0, 128);
  vmpi_comm_hook(&set, /*rank=*/1, vmpi::kCommHookRecv, /*peer=*/0, 0, 64);
  vmpi_comm_hook(&set, /*rank=*/0, vmpi::kCommHookFault, /*peer=*/1,
                 /*detail=*/3, 0);
  vmpi_comm_hook(&set, /*rank=*/7, vmpi::kCommHookSend, 0, 0, 1);  // ignored

  EXPECT_EQ(r1.total_recorded(), 2u);
  EXPECT_EQ(r0.total_recorded(), 1u);
  ASSERT_TRUE(r1.dump());
  ASSERT_TRUE(r0.dump());
  const Recorder::Dump d1 = Recorder::read(p1);
  EXPECT_EQ(FdrKind(d1.events[0].kind), FdrKind::kCommSend);
  EXPECT_EQ(d1.events[0].peer, 0);
  EXPECT_EQ(d1.events[0].arg, 128u);
  EXPECT_EQ(FdrKind(d1.events[1].kind), FdrKind::kCommRecv);
  const Recorder::Dump d0 = Recorder::read(p0);
  EXPECT_EQ(FdrKind(d0.events[0].kind), FdrKind::kCommFault);
  EXPECT_EQ(d0.events[0].code, 3);
  EXPECT_EQ(d0.events[0].peer, 1);
  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

TEST(Recorder, DumpRegisteredCoversLiveRecorders) {
  const std::string p0 = tmp_path("reg0"), p1 = tmp_path("reg1");
  Recorder r0(p0, 0, 16), r1(p1, 1, 16);
  r0.record(FdrKind::kStep);
  r1.record(FdrKind::kStep);
  EXPECT_GE(dump_registered(FdrDumpReason::kManual), 2);
  EXPECT_EQ(FdrDumpReason(Recorder::read(p0).header.reason),
            FdrDumpReason::kManual);
  EXPECT_EQ(FdrDumpReason(Recorder::read(p1).header.reason),
            FdrDumpReason::kManual);
  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

// The acceptance criterion behind "always-on at <= 1% overhead": one
// record() is a relaxed fetch_add plus a 32-byte store. The bound here is
// deliberately loose (1 us/event vs the ~10 ns measured) so CI noise can
// never flake it, while still catching an accidental lock, allocation, or
// I/O sneaking onto the hot path.
TEST(Recorder, RecordStaysAllocationFreeFast) {
  const std::string path = tmp_path("overhead");
  Recorder rec(path, 0, 4096);
  constexpr int kEvents = 1'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvents; ++i)
    rec.record(FdrKind::kStep, 0, -1, std::uint64_t(i));
  const auto t1 = std::chrono::steady_clock::now();
  const double ns_per_event =
      double(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                 .count()) /
      kEvents;
  EXPECT_EQ(rec.total_recorded(), std::uint64_t(kEvents));
  EXPECT_LT(ns_per_event, 1000.0) << "record() is no longer cheap enough "
                                     "to stay always-on";
}

// The black box must survive the crash it exists for: a forked child
// installs the crash handlers, records, and dies on SIGSEGV; the parent
// then reads the dump the handler wrote. The child's exit status proves
// the handler re-raised the default disposition after dumping.
TEST(Recorder, SignalHandlerDumpsFromACrashingProcess) {
  const std::string path = tmp_path("crash");
  std::remove(path.c_str());
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: everything from here on must not touch gtest state.
    Recorder rec(path, 0, 64);
    install_crash_handlers();
    rec.set_step(7);
    rec.record(FdrKind::kStep, 0, -1, 7);
    rec.record(FdrKind::kHealth, 1, -1, 7);
    std::raise(SIGSEGV);
    _exit(99);  // unreachable: the handler re-raises with SIG_DFL
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of crashing";
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  const Recorder::Dump d = Recorder::read(path);
  EXPECT_EQ(FdrDumpReason(d.header.reason), FdrDumpReason::kSignal);
  ASSERT_EQ(d.events.size(), 3u);  // step + health + dump marker
  EXPECT_EQ(FdrKind(d.events[0].kind), FdrKind::kStep);
  EXPECT_EQ(d.events[0].step, 7);
  EXPECT_EQ(FdrKind(d.events[1].kind), FdrKind::kHealth);
  EXPECT_EQ(d.events[1].code, 1);
  EXPECT_EQ(FdrKind(d.events[2].kind), FdrKind::kDump);
  EXPECT_EQ(d.events[2].code, std::uint16_t(FdrDumpReason::kSignal));
  std::remove(path.c_str());
}

}  // namespace
