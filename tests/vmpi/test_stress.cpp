// Randomized traffic stress: many ranks exchanging unpredictable message
// patterns must neither deadlock, drop, nor cross-deliver. Every payload is
// self-describing so corruption is detectable. Also the concurrency audit
// behind the campaign executor: several vmpi worlds driven from separate
// host threads at once must stay fully isolated (runtime.cpp keeps all
// world state — mailboxes, barrier, error flag — inside each run() call;
// there are no mutable globals in vmpi).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "vmpi/error.hpp"
#include "vmpi/runtime.hpp"

namespace minivpic::vmpi {
namespace {

constexpr int kRanks = 5;
constexpr int kRounds = 30;

TEST(VmpiStress, RandomizedAllToAllTraffic) {
  run(kRanks, [](Comm& comm) {
    Rng rng(99, std::uint64_t(comm.rank()));
    for (int round = 0; round < kRounds; ++round) {
      // Everyone sends a random-length message to every rank (self incl.);
      // payload encodes (sender, round, index).
      std::vector<std::vector<std::int64_t>> outbox(kRanks);
      for (int dst = 0; dst < kRanks; ++dst) {
        const auto len = std::size_t(rng.uniform_u64(64));
        auto& msg = outbox[std::size_t(dst)];
        msg.resize(len + 1);
        msg[0] = comm.rank() * 1000000 + round;
        for (std::size_t i = 1; i <= len; ++i)
          msg[i] = msg[0] + std::int64_t(i);
        comm.send(dst, 100 + round, std::span<const std::int64_t>(msg));
      }
      for (int src = 0; src < kRanks; ++src) {
        Request req = comm.ipost(src, 100 + round);
        comm.wait(req);
        const auto got = req.take<std::int64_t>();
        ASSERT_GE(got.size(), 1u);
        ASSERT_EQ(got[0], src * 1000000 + round)
            << "round " << round << " from " << src;
        for (std::size_t i = 1; i < got.size(); ++i)
          ASSERT_EQ(got[i], got[0] + std::int64_t(i));
      }
      // Interleave collectives to shake tag separation.
      const long long sum = comm.allreduce_value<long long>(1, Op::kSum);
      ASSERT_EQ(sum, kRanks);
    }
  });
}

TEST(VmpiStress, ManyShortLivedWorlds) {
  // Runtime setup/teardown churn must stay leak- and deadlock-free.
  for (int i = 0; i < 25; ++i) {
    run(3, [&](Comm& comm) {
      const int v = comm.allreduce_value(comm.rank() + i, Op::kMax);
      ASSERT_EQ(v, 2 + i);
    });
  }
}

TEST(VmpiStress, ConcurrentWorlds) {
  // Four host threads each drive their own 3-rank world through p2p +
  // collective traffic, concurrently — the shape of a 4-worker campaign.
  // Payloads are world-tagged so any cross-world delivery is detected.
  constexpr int kWorlds = 4;
  constexpr int kWorldRanks = 3;
  std::atomic<int> worlds_ok{0};
  std::vector<std::thread> hosts;
  hosts.reserve(kWorlds);
  for (int w = 0; w < kWorlds; ++w) {
    hosts.emplace_back([w, &worlds_ok] {
      run(kWorldRanks, [w](Comm& comm) {
        for (int round = 0; round < 20; ++round) {
          const int dst = (comm.rank() + 1) % kWorldRanks;
          const int src = (comm.rank() + kWorldRanks - 1) % kWorldRanks;
          const std::int64_t payload =
              w * 1000000 + comm.rank() * 1000 + round;
          comm.send(dst, 40 + round, std::span<const std::int64_t>(&payload, 1));
          Request req = comm.ipost(src, 40 + round);
          comm.wait(req);
          const auto got = req.take<std::int64_t>();
          ASSERT_EQ(got.size(), 1u);
          ASSERT_EQ(got[0], w * 1000000 + src * 1000 + round)
              << "world " << w << " round " << round;
          const long long sum =
              comm.allreduce_value<long long>(comm.rank(), Op::kSum);
          ASSERT_EQ(sum, kWorldRanks * (kWorldRanks - 1) / 2);
        }
      });
      worlds_ok.fetch_add(1);
    });
  }
  for (std::thread& t : hosts) t.join();
  EXPECT_EQ(worlds_ok.load(), kWorlds);
}

TEST(VmpiStress, ConcurrentWorldsSurviveAThrowingNeighbor) {
  // A rank throwing in one world must poison only its own world; sibling
  // worlds running concurrently finish untouched.
  std::atomic<int> clean_ok{0};
  std::atomic<int> poisoned_ok{0};
  std::vector<std::thread> hosts;
  for (int w = 0; w < 3; ++w) {
    hosts.emplace_back([w, &clean_ok, &poisoned_ok] {
      if (w == 1) {
        EXPECT_THROW(run(3,
                         [](Comm& comm) {
                           if (comm.rank() == 2) throw std::runtime_error("boom");
                           // Blocked peers must be released, not hung.
                           comm.barrier();
                         }),
                     std::exception);
        poisoned_ok.fetch_add(1);
        return;
      }
      run(3, [](Comm& comm) {
        for (int round = 0; round < 50; ++round) {
          const long long sum = comm.allreduce_value<long long>(1, Op::kSum);
          ASSERT_EQ(sum, 3);
        }
      });
      clean_ok.fetch_add(1);
    });
  }
  for (std::thread& t : hosts) t.join();
  EXPECT_EQ(clean_ok.load(), 2);
  EXPECT_EQ(poisoned_ok.load(), 1);
}

TEST(VmpiStress, PoisonReleasesEveryBlockedCallPromptly) {
  // One rank throws while its peers sit in the three blocking shapes the
  // runtime must release: a source-specific recv, a wildcard recv, and a
  // collective (barrier). Each must surface CommError(kPoisoned) — carrying
  // the thrower's root cause — rather than hang; no deadline is configured,
  // so a timeout can't be what released them.
  std::atomic<int> poisoned{0};
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(
      run(4,
          [&](Comm& comm) {
            if (comm.rank() == 3) {
              std::this_thread::sleep_for(std::chrono::milliseconds(50));
              throw std::runtime_error("stress root cause");
            }
            try {
              int v = 0;
              if (comm.rank() == 0) {
                comm.recv_bytes(1, 9, &v, sizeof v);  // never sent
              } else if (comm.rank() == 1) {
                comm.recv_bytes(kAnySource, kAnyTag, &v, sizeof v);
              } else {
                comm.barrier();  // rank 3 never arrives
              }
              ADD_FAILURE() << "blocked call returned on rank "
                            << comm.rank();
            } catch (const CommError& e) {
              EXPECT_EQ(e.fault(), Fault::kPoisoned);
              EXPECT_NE(std::string(e.what()).find("stress root cause"),
                        std::string::npos)
                  << e.what();
              poisoned.fetch_add(1);
            }
          }),
      std::runtime_error);
  EXPECT_EQ(poisoned.load(), 3);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), 20.0) << "poison release was not prompt";
}

TEST(VmpiStress, PoisonReasonCarriesFailingRankContext) {
  // The poison reason names the failing rank and its exception message, so
  // ledgers (campaign) and logs see the root cause, not a generic failure.
  std::atomic<int> checked{0};
  EXPECT_THROW(run(2,
                   [&](Comm& comm) {
                     if (comm.rank() == 1)
                       throw std::runtime_error("disk on fire");
                     try {
                       comm.barrier();
                     } catch (const CommError& e) {
                       const std::string what = e.what();
                       EXPECT_NE(what.find("rank 1 failed"),
                                 std::string::npos) << what;
                       EXPECT_NE(what.find("disk on fire"),
                                 std::string::npos) << what;
                       checked.fetch_add(1);
                     }
                   }),
               std::runtime_error);
  EXPECT_EQ(checked.load(), 1);
}

TEST(VmpiStress, LargeMessages) {
  run(2, [](Comm& comm) {
    const std::size_t n = 1 << 20;  // 8 MB of doubles
    if (comm.rank() == 0) {
      std::vector<double> big(n);
      for (std::size_t i = 0; i < n; ++i) big[i] = double(i);
      comm.send(1, 7, std::span<const double>(big));
    } else {
      Request req = comm.ipost(0, 7);
      comm.wait(req);
      const auto got = req.take<double>();
      ASSERT_EQ(got.size(), n);
      EXPECT_EQ(got[n - 1], double(n - 1));
      EXPECT_EQ(got[n / 2], double(n / 2));
    }
  });
}

}  // namespace
}  // namespace minivpic::vmpi
