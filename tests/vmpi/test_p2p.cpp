#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "vmpi/runtime.hpp"

namespace minivpic::vmpi {
namespace {

TEST(P2P, SendRecvValue) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 5, 42);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 5), 42);
    }
  });
}

TEST(P2P, SendRecvSpan) {
  run(2, [](Comm& comm) {
    std::vector<double> data(100);
    if (comm.rank() == 0) {
      std::iota(data.begin(), data.end(), 0.0);
      comm.send(1, 0, std::span<const double>(data));
    } else {
      comm.recv(0, 0, std::span<double>(data));
      for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_DOUBLE_EQ(data[i], static_cast<double>(i));
    }
  });
}

TEST(P2P, EmptyMessage) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_bytes(1, 1, nullptr, 0);
    } else {
      const Status st = comm.recv_bytes(0, 1, nullptr, 0);
      EXPECT_EQ(st.bytes, 0u);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 1);
    }
  });
}

TEST(P2P, TagsMatchedIndependently) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 10, 100);
      comm.send_value(1, 20, 200);
    } else {
      // Receive in reverse tag order — matching is per (src, tag).
      EXPECT_EQ(comm.recv_value<int>(0, 20), 200);
      EXPECT_EQ(comm.recv_value<int>(0, 10), 100);
    }
  });
}

TEST(P2P, FifoPerSourceAndTag) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) comm.send_value(1, 3, i);
    } else {
      for (int i = 0; i < 50; ++i) EXPECT_EQ(comm.recv_value<int>(0, 3), i);
    }
  });
}

TEST(P2P, AnySource) {
  run(3, [](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send_value(0, 7, comm.rank());
    } else {
      int mask = 0;
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        Status st = comm.recv(kAnySource, 7, std::span<int>(&v, 1));
        EXPECT_EQ(st.source, v);
        mask |= 1 << v;
      }
      EXPECT_EQ(mask, 0b110);
    }
  });
}

TEST(P2P, AnyTag) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 99, 1.5);
    } else {
      double v = 0;
      const Status st = comm.recv_bytes(0, kAnyTag, &v, sizeof v);
      EXPECT_EQ(st.tag, 99);
      EXPECT_DOUBLE_EQ(v, 1.5);
    }
  });
}

TEST(P2P, SelfSend) {
  run(1, [](Comm& comm) {
    comm.send_value(0, 0, 3.25);
    EXPECT_DOUBLE_EQ(comm.recv_value<double>(0, 0), 3.25);
  });
}

TEST(P2P, OversizeMessageRejected) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> big(10, 1);
      comm.send(1, 0, std::span<const int>(big));
    } else {
      int small[2];
      EXPECT_THROW(comm.recv_bytes(0, 0, small, sizeof small), Error);
    }
  });
}

TEST(P2P, InvalidDestinationRejected) {
  EXPECT_THROW(run(1,
                   [](Comm& comm) {
                     int v = 0;
                     comm.send_bytes(5, 0, &v, sizeof v);
                   }),
               Error);
}

TEST(P2P, NegativeUserTagRejected) {
  EXPECT_THROW(run(1,
                   [](Comm& comm) {
                     int v = 0;
                     comm.send_bytes(0, -3, &v, sizeof v);
                   }),
               Error);
}

TEST(P2P, IrecvWait) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 2, 77);
    } else {
      Request req = comm.ipost(0, 2);
      const Status st = comm.wait(req);
      EXPECT_EQ(st.bytes, sizeof(int));
      EXPECT_EQ(req.take<int>(), std::vector<int>{77});
      // wait() is idempotent.
      EXPECT_EQ(comm.wait(req).bytes, sizeof(int));
    }
  });
}

TEST(P2P, RequestTestCompletesWithoutBlocking) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      // The peer signals that its receive is posted *before* we send, so
      // the pre-send test() below genuinely races nothing.
      (void)comm.recv_value<int>(1, 1);
      comm.send_value(1, 2, 77);
    } else {
      Request req = comm.ipost(0, 2);
      EXPECT_FALSE(req.test());  // nothing sent yet — must not block
      comm.send_value(0, 1, 0);  // release the sender
      Status st;
      while (!req.test(&st)) std::this_thread::yield();
      EXPECT_EQ(st.bytes, sizeof(int));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(req.take<int>(), std::vector<int>{77});
      // test() is idempotent once complete, like wait().
      EXPECT_TRUE(req.test());
      EXPECT_EQ(comm.wait(req).bytes, sizeof(int));
    }
  });
}

TEST(P2P, WaitallCompletesEveryRequestInOrder) {
  run(2, [](Comm& comm) {
    constexpr int kMsgs = 3;
    if (comm.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) comm.send_value(1, 10 + i, 100 + i);
    } else {
      std::vector<Request> reqs;
      for (int i = 0; i < kMsgs; ++i) reqs.push_back(comm.ipost(0, 10 + i));
      const std::vector<Status> statuses =
          comm.waitall(std::span<Request>(reqs));
      ASSERT_EQ(statuses.size(), std::size_t(kMsgs));
      for (int i = 0; i < kMsgs; ++i) {
        EXPECT_EQ(statuses[std::size_t(i)].tag, 10 + i);
        EXPECT_EQ(statuses[std::size_t(i)].bytes, sizeof(int));
        EXPECT_EQ(reqs[std::size_t(i)].take<int>(), std::vector<int>{100 + i});
      }
    }
  });
}

TEST(P2P, WaitOnEmptyRequestThrows) {
  run(1, [](Comm& comm) {
    Request req;
    EXPECT_FALSE(req.valid());
    EXPECT_THROW(comm.wait(req), Error);
  });
}

TEST(P2P, ManyToOneStress) {
  constexpr int kRanks = 6;
  constexpr int kMsgs = 200;
  run(kRanks, [](Comm& comm) {
    if (comm.rank() == 0) {
      long long total = 0;
      for (int i = 0; i < (kRanks - 1) * kMsgs; ++i)
        total += comm.recv_value<int>(kAnySource, 1);
      // Each rank r sends kMsgs values of r.
      long long expect = 0;
      for (int r = 1; r < kRanks; ++r) expect += (long long)r * kMsgs;
      EXPECT_EQ(total, expect);
    } else {
      for (int i = 0; i < kMsgs; ++i) comm.send_value(0, 1, comm.rank());
    }
  });
}

// -- posted receives (ipost): the async path the overlapped step loop's
// migration exchange rides (docs/OVERLAP.md "Asynchronous p2p: deferred
// pops"). A request records (src, tag); test() pops a matching message
// from the mailbox queue without blocking and wait() blocks for it.

TEST(PostedRecv, CompletesOnDelivery) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      (void)comm.recv_value<int>(1, 1);  // wait until the post exists
      comm.send_value(1, 2, 55);
    } else {
      Request req = comm.ipost(0, 2);
      EXPECT_FALSE(req.test());  // nothing sent yet — must not block
      comm.send_value(0, 1, 0);  // release the sender
      Status st;
      while (!req.test(&st)) std::this_thread::yield();
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 2);
      EXPECT_EQ(st.bytes, sizeof(int));
      ASSERT_TRUE(req.done());
      const std::vector<int> got = req.take<int>();
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], 55);
    }
  });
}

TEST(PostedRecv, ClaimsAlreadyQueuedMessage) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 4, 7);
      comm.send_value(1, 1, 0);  // handshake: payload is en route/queued
    } else {
      (void)comm.recv_value<int>(0, 1);  // tag-4 message is now queued
      Request req = comm.ipost(0, 4);
      EXPECT_EQ(comm.wait(req).bytes, sizeof(int));
      EXPECT_EQ(req.take<int>().at(0), 7);
    }
  });
}

TEST(PostedRecv, FifoWithQueuedPredecessor) {
  // Two same-(src, tag) messages, the first already queued when the post
  // goes up: the post must receive the FIRST (queue wins — a posted entry
  // may never overtake the FIFO order a blocking recv would see).
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 9, 111);
      comm.send_value(1, 1, 0);  // handshake
      (void)comm.recv_value<int>(1, 1);
      comm.send_value(1, 9, 222);
    } else {
      (void)comm.recv_value<int>(0, 1);  // first tag-9 message is queued
      Request req = comm.ipost(0, 9);
      comm.send_value(0, 1, 0);  // release the second send
      EXPECT_EQ(comm.wait(req).bytes, sizeof(int));
      EXPECT_EQ(req.take<int>().at(0), 111);
      // The later message is still there for a plain recv.
      EXPECT_EQ(comm.recv_value<int>(0, 9), 222);
    }
  });
}

TEST(PostedRecv, TakeValidatesElementSize) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::array<std::byte, 3> odd{};  // not a whole number of ints
      comm.send_bytes(1, 2, odd.data(), odd.size());
    } else {
      Request req = comm.ipost(0, 2);
      EXPECT_EQ(comm.wait(req).bytes, 3u);
      EXPECT_THROW((void)req.take<int>(), Error);
    }
  });
}

TEST(PostedRecv, WildcardSourceAndTag) {
  run(3, [](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send_value(0, 40 + comm.rank(), comm.rank());
    } else {
      int mask = 0;
      for (int i = 0; i < 2; ++i) {
        Request req = comm.ipost(kAnySource, kAnyTag);
        const Status st = comm.wait(req);
        EXPECT_EQ(st.tag, 40 + st.source);
        mask |= 1 << req.take<int>().at(0);
      }
      EXPECT_EQ(mask, 0b110);
    }
  });
}

TEST(PostedRecv, AbandonedRequestDoesNotSwallowALaterMessage) {
  // A request dropped without test() or wait() leaves nothing behind in the
  // mailbox: the message it would have matched stays queued, and a plain
  // recv still sees it.
  run(2, [](Comm& comm) {
    if (comm.rank() == 1) {
      { Request abandoned = comm.ipost(0, 3); }
      comm.set_timeout(2.0);
      comm.send_value(0, 1, 0);  // handshake: the request is already gone
      EXPECT_EQ(comm.recv_value<int>(0, 3), 13);
    } else {
      (void)comm.recv_value<int>(1, 1);
      comm.send_value(1, 3, 13);
    }
  });
}

TEST(PostedRecv, BytesBeforeCompletionThrows) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 1) {
      Request req = comm.ipost(0, 8);
      EXPECT_THROW((void)req.take<int>(), Error);  // not complete yet
      comm.send_value(0, 1, 0);
      (void)comm.wait(req);
      EXPECT_EQ(req.take<int>().at(0), 5);
    } else {
      (void)comm.recv_value<int>(1, 1);
      comm.send_value(1, 8, 5);
    }
  });
}

TEST(PostedRecv, InvalidSourceRejected) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW((void)comm.ipost(7, 0), Error);
      EXPECT_THROW((void)comm.ipost(-3, 0), Error);
    }
  });
}

}  // namespace
}  // namespace minivpic::vmpi
