// Fault-tolerance proof for the vmpi comm layer (docs/FAULTS.md): injected
// faults are detected by the configured machinery (deadlines, CRC framing,
// sequence numbers, liveness epochs), every detection throws the right typed
// CommError within its bound, and the agreement plane survives revocation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "util/error.hpp"
#include "vmpi/error.hpp"
#include "vmpi/fault.hpp"
#include "vmpi/runtime.hpp"

namespace minivpic::vmpi {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// -- bounded-time failure detection ------------------------------------------

TEST(VmpiFault, RecvDeadlineFiresWithinBound) {
  WorldConfig cfg;
  cfg.timeout_seconds = 0.2;
  CommStats stats;
  cfg.stats = &stats;
  run(2, [](Comm& comm) {
    if (comm.rank() != 0) return;  // rank 1 sends nothing and leaves
    const auto t0 = std::chrono::steady_clock::now();
    int v = 0;
    try {
      comm.recv_bytes(1, 5, &v, sizeof v);
      ADD_FAILURE() << "recv of a never-sent message returned";
    } catch (const CommError& e) {
      EXPECT_EQ(e.fault(), Fault::kTimeout);
    }
    const double waited = seconds_since(t0);
    EXPECT_GE(waited, 0.19);
    EXPECT_LT(waited, 30.0) << "deadline did not bound the wait";
  }, cfg);
  EXPECT_EQ(stats.timeouts.load(), 1);
}

TEST(VmpiFault, BarrierAndCollectiveHonorDeadline) {
  WorldConfig cfg;
  cfg.timeout_seconds = 0.2;
  CommStats stats;
  cfg.stats = &stats;
  run(3, [](Comm& comm) {
    // Rank 2 never joins either call; the others must not wait forever.
    if (comm.rank() == 2) return;
    try {
      comm.barrier();
      ADD_FAILURE() << "barrier without rank 2 returned";
    } catch (const CommError& e) {
      EXPECT_EQ(e.fault(), Fault::kTimeout);
    }
    if (comm.rank() == 0) {
      long long v = 1;
      try {
        comm.allreduce(std::span<long long>(&v, 1), Op::kSum);
        ADD_FAILURE() << "allreduce without rank 2 returned";
      } catch (const CommError& e) {
        EXPECT_EQ(e.fault(), Fault::kTimeout);
      }
    }
  }, cfg);
  EXPECT_GE(stats.timeouts.load(), 2);
}

TEST(VmpiFault, SetTimeoutOverridesWorldDefault) {
  WorldConfig cfg;
  cfg.timeout_seconds = 60.0;  // world default would stall the test
  run(2, [](Comm& comm) {
    if (comm.rank() != 0) return;
    comm.set_timeout(0.1);
    EXPECT_EQ(comm.timeout(), 0.1);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW((void)comm.recv_value<int>(1, 5), CommError);
    EXPECT_LT(seconds_since(t0), 30.0);
  }, cfg);
}

// -- integrity framing -------------------------------------------------------

TEST(VmpiFault, CrcDetectsInjectedBitFlip) {
  FaultPlane plane;
  plane.corrupt_message(/*rank=*/0, /*step=*/0, /*bit=*/3);
  WorldConfig cfg;
  cfg.integrity = true;
  cfg.fault_plane = &plane;
  CommStats stats;
  cfg.stats = &stats;
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      plane.on_step(0, 0);  // arms the corruption for the next send
      comm.send_value(1, 7, 12345);
    } else {
      int v = 0;
      try {
        comm.recv_bytes(0, 7, &v, sizeof v);
        ADD_FAILURE() << "corrupted payload passed the CRC";
      } catch (const CommError& e) {
        EXPECT_EQ(e.fault(), Fault::kCorrupt);
      }
    }
  }, cfg);
  EXPECT_EQ(stats.crc_failures.load(), 1);
  EXPECT_EQ(stats.faults_injected.load(), 1);
  EXPECT_EQ(stats.faults_detected(), 1);
  EXPECT_EQ(plane.injected().corrupted, 1);
}

TEST(VmpiFault, DuplicateIsDroppedSilently) {
  FaultPlane plane;
  plane.duplicate_message(0, 0);
  WorldConfig cfg;
  cfg.integrity = true;
  cfg.fault_plane = &plane;
  CommStats stats;
  cfg.stats = &stats;
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      plane.on_step(0, 0);
      comm.send_value(1, 7, 111);  // delivered twice by the fault plane
      comm.send_value(1, 7, 222);
    } else {
      // The receiver sees each payload exactly once, in order.
      EXPECT_EQ(comm.recv_value<int>(0, 7), 111);
      EXPECT_EQ(comm.recv_value<int>(0, 7), 222);
    }
  }, cfg);
  EXPECT_EQ(stats.duplicates_dropped.load(), 1);
  EXPECT_EQ(plane.injected().duplicated, 1);
}

TEST(VmpiFault, DroppedMessageSurfacesAsLostViaSequenceGap) {
  FaultPlane plane;
  plane.drop_message(0, 0);
  WorldConfig cfg;
  cfg.integrity = true;
  cfg.fault_plane = &plane;
  CommStats stats;
  cfg.stats = &stats;
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      plane.on_step(0, 0);
      comm.send_value(1, 7, 111);  // eaten by the fault plane
      comm.send_value(1, 7, 222);  // arrives with a sequence gap
    } else {
      try {
        (void)comm.recv_value<int>(0, 7);
        ADD_FAILURE() << "loss went undetected";
      } catch (const CommError& e) {
        EXPECT_EQ(e.fault(), Fault::kLost);
      }
    }
  }, cfg);
  EXPECT_EQ(stats.sequence_gaps.load(), 1);
  EXPECT_EQ(plane.injected().dropped, 1);
}

TEST(VmpiFault, DelayedMessageArrivesLateAndInOrder) {
  FaultPlane plane;
  const double kDelay = 0.15;
  plane.delay_message(0, 0, kDelay);
  WorldConfig cfg;
  cfg.fault_plane = &plane;
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      plane.on_step(0, 0);
      comm.send_value(1, 7, 111);  // held back kDelay seconds
      comm.send_value(1, 7, 222);  // queued behind it immediately
    } else {
      // FIFO must not let the prompt message overtake the delayed one.
      const auto t0 = std::chrono::steady_clock::now();
      EXPECT_EQ(comm.recv_value<int>(0, 7), 111);
      EXPECT_GE(seconds_since(t0), kDelay * 0.6);
      EXPECT_EQ(comm.recv_value<int>(0, 7), 222);
    }
  }, cfg);
  EXPECT_EQ(plane.injected().delayed, 1);
}

// -- liveness ----------------------------------------------------------------

TEST(VmpiFault, PeerDeathWakesBlockedReceiverWithoutDeadline) {
  // No timeout configured: the wake must come from the liveness epoch, not
  // a deadline expiry.
  CommStats stats;
  WorldConfig cfg;
  cfg.stats = &stats;
  const auto t0 = std::chrono::steady_clock::now();
  run(2, [](Comm& comm) {
    if (comm.rank() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      comm.mark_self_dead("simulated node failure");
      return;
    }
    int v = 0;
    try {
      comm.recv_bytes(1, 5, &v, sizeof v);
      ADD_FAILURE() << "recv from a dead rank returned";
    } catch (const CommError& e) {
      EXPECT_EQ(e.fault(), Fault::kPeerDead);
      EXPECT_NE(std::string(e.what()).find("simulated node failure"),
                std::string::npos) << e.what();
    }
    EXPECT_FALSE(comm.is_alive(1));
  }, cfg);
  EXPECT_LT(seconds_since(t0), 20.0);
  EXPECT_GE(stats.peer_deaths.load(), 1);
}

// -- posted receives under fault injection -----------------------------------
//
// The overlap scheduler (docs/OVERLAP.md) drives particle migration through
// posted receives on a comm worker thread, so every detection path proven
// above for blocking recv must also fire when test()/wait() completes an
// ipost request.

TEST(VmpiFault, PostedRecvSurfacesCrcCorruptionAtWait) {
  FaultPlane plane;
  plane.corrupt_message(/*rank=*/0, /*step=*/0, /*bit=*/5);
  WorldConfig cfg;
  cfg.integrity = true;
  cfg.fault_plane = &plane;
  CommStats stats;
  cfg.stats = &stats;
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      plane.on_step(0, 0);
      comm.send_value(1, 7, 12345);
    } else {
      Request req = comm.ipost(0, 7);
      try {
        comm.wait(req);
        ADD_FAILURE() << "corrupted payload passed the CRC on the posted path";
      } catch (const CommError& e) {
        EXPECT_EQ(e.fault(), Fault::kCorrupt);
      }
    }
  }, cfg);
  EXPECT_EQ(stats.crc_failures.load(), 1);
  EXPECT_EQ(stats.faults_injected.load(), 1);
  EXPECT_EQ(plane.injected().corrupted, 1);
}

TEST(VmpiFault, PostedRecvDoesNotOvertakeDelayedPredecessor) {
  FaultPlane plane;
  const double kDelay = 0.15;
  plane.delay_message(0, 0, kDelay);
  WorldConfig cfg;
  cfg.fault_plane = &plane;
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      plane.on_step(0, 0);
      comm.send_value(1, 7, 111);  // held back kDelay seconds
      comm.send_value(1, 7, 222);  // queued behind it immediately
    } else {
      // The prompt message must not fulfill the posted entry while the
      // delayed one is still in flight: FIFO holds on the async path too.
      Request req = comm.ipost(0, 7);
      const Status st = comm.wait(req);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(req.take<int>().at(0), 111)
          << "prompt message overtook the delayed one via the posted entry";
      EXPECT_EQ(comm.recv_value<int>(0, 7), 222);
    }
  }, cfg);
  EXPECT_EQ(plane.injected().delayed, 1);
}

TEST(VmpiFault, PostedRecvSurfacesSequenceGapAsLost) {
  FaultPlane plane;
  plane.drop_message(0, 0);
  WorldConfig cfg;
  cfg.integrity = true;
  cfg.fault_plane = &plane;
  CommStats stats;
  cfg.stats = &stats;
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      plane.on_step(0, 0);
      comm.send_value(1, 7, 111);  // eaten by the fault plane
      comm.send_value(1, 7, 222);  // arrives with a sequence gap
    } else {
      Request req = comm.ipost(0, 7);
      try {
        comm.wait(req);
        ADD_FAILURE() << "loss went undetected on the posted path";
      } catch (const CommError& e) {
        EXPECT_EQ(e.fault(), Fault::kLost);
      }
    }
  }, cfg);
  EXPECT_EQ(stats.sequence_gaps.load(), 1);
  EXPECT_EQ(plane.injected().dropped, 1);
}

TEST(VmpiFault, PeerDeathWakesBlockedPostedRecv) {
  // No timeout configured: like the blocking-recv twin above, the wake must
  // come from the liveness epoch while wait() blocks on the posted entry.
  CommStats stats;
  WorldConfig cfg;
  cfg.stats = &stats;
  const auto t0 = std::chrono::steady_clock::now();
  run(2, [](Comm& comm) {
    if (comm.rank() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      comm.mark_self_dead("simulated node failure");
      return;
    }
    Request req = comm.ipost(1, 5);
    try {
      comm.wait(req);
      ADD_FAILURE() << "posted wait on a dead rank returned";
    } catch (const CommError& e) {
      EXPECT_EQ(e.fault(), Fault::kPeerDead);
    }
    EXPECT_FALSE(comm.is_alive(1));
  }, cfg);
  EXPECT_LT(seconds_since(t0), 20.0);
  EXPECT_GE(stats.peer_deaths.load(), 1);
}

// -- kill schedule ------------------------------------------------------------

TEST(VmpiFault, ScheduledKillFiresExactlyOnce) {
  FaultPlane plane;
  plane.kill_rank(1, 10);
  plane.on_step(1, 9);  // not yet due
  try {
    plane.on_step(1, 10);
    FAIL() << "scheduled kill did not fire";
  } catch (const CommError& e) {
    EXPECT_EQ(e.fault(), Fault::kKilled);
  }
  // The replay after a rollback reaches the same step again; the fault has
  // fired and the swapped-in rank must survive.
  plane.on_step(1, 10);
  plane.on_step(1, 11);
  EXPECT_EQ(plane.injected().killed, 1);
}

TEST(VmpiFault, SpecParserRoundTripsAndRejectsGarbage) {
  FaultPlane plane;
  plane.schedule_from_spec("kill:2@15");
  plane.schedule_from_spec("flip:1:3@8");
  plane.schedule_from_spec("drop@4");       // rank defaults to 1
  plane.schedule_from_spec("dup:0@2");
  plane.schedule_from_spec("delay:1:0.05@6");
  EXPECT_THROW(plane.schedule_from_spec("explode:1@3"), Error);
  EXPECT_THROW(plane.schedule_from_spec("kill:2"), Error);      // no step
  EXPECT_THROW(plane.schedule_from_spec("kill:2@abc"), Error);
  EXPECT_THROW(plane.schedule_from_spec(""), Error);
  EXPECT_THROW(plane.set_noise(FaultKind::kKill, 0.5), Error);
}

// -- revocation and agreement -------------------------------------------------

TEST(VmpiFault, RevokeReleasesBlockedRanksButSparesAgreementPlane) {
  CommStats stats;
  WorldConfig cfg;
  cfg.stats = &stats;
  std::atomic<int> revoked_seen{0};
  run(3, [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      comm.revoke("drill: world revoked");
    } else {
      try {
        if (comm.rank() == 1) {
          int v = 0;
          comm.recv_bytes(0, 5, &v, sizeof v);  // never sent
        } else {
          comm.barrier();  // rank 0 never arrives
        }
        ADD_FAILURE() << "blocked call survived revocation on rank "
                      << comm.rank();
      } catch (const CommError& e) {
        EXPECT_EQ(e.fault(), Fault::kRevoked);
        revoked_seen.fetch_add(1);
      }
    }
    EXPECT_TRUE(comm.revoked());
    // The agreement plane still works after revocation — that is the whole
    // point of exempting it.
    EXPECT_EQ(comm.agree_min(10 + comm.rank(), 5.0), 10);
  }, cfg);
  EXPECT_EQ(revoked_seen.load(), 2);
  EXPECT_GE(stats.revokes.load(), 1);
}

TEST(VmpiFault, AgreeMinExcludesSilentRanks) {
  run(3, [](Comm& comm) {
    if (comm.rank() == 2) return;  // completed early; never joins the round
    const auto t0 = std::chrono::steady_clock::now();
    const std::int64_t got = comm.agree_min(10 + comm.rank(), 0.5);
    EXPECT_EQ(got, 10);
    EXPECT_LT(seconds_since(t0), 20.0) << "agreement did not converge";
  });
}

TEST(VmpiFault, AgreeMinRunsOverLiveRanksOnly) {
  run(3, [](Comm& comm) {
    if (comm.rank() == 0) {
      // The would-be collector dies; the next-lowest live rank takes over.
      comm.mark_self_dead("collector killed");
      return;
    }
    while (comm.is_alive(0)) std::this_thread::yield();
    EXPECT_EQ(comm.agree_min(20 + comm.rank(), 2.0), 21);
  });
}

}  // namespace
}  // namespace minivpic::vmpi
