// Tests for the xmp in-process message-passing runtime: p2p semantics,
// collectives, hierarchical splits (the substrate MCI builds on), tracing,
// and abort propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <set>
#include <thread>

#include "xmp/comm.hpp"

namespace {

TEST(Xmp, WorldRankAndSize) {
  xmp::run(4, [](xmp::Comm& world) {
    EXPECT_EQ(world.size(), 4);
    EXPECT_GE(world.rank(), 0);
    EXPECT_LT(world.rank(), 4);
    EXPECT_EQ(world.world_rank(), world.rank());
  });
}

TEST(Xmp, PingPong) {
  xmp::run(2, [](xmp::Comm& world) {
    if (world.rank() == 0) {
      std::vector<double> msg = {1.0, 2.0, 3.0};
      world.send(1, 7, msg);
      auto back = world.recv<double>(1, 8);
      ASSERT_EQ(back.size(), 3u);
      EXPECT_DOUBLE_EQ(back[2], 6.0);
    } else {
      auto m = world.recv<double>(0, 7);
      for (auto& v : m) v *= 2.0;
      world.send(0, 8, m);
    }
  });
}

TEST(Xmp, EmptyVectorRoundTrip) {
  // An empty payload has no storage to copy from; recv<T> must hand back an
  // empty vector without touching it (UBSan flags a memcpy from null).
  xmp::run(2, [](xmp::Comm& world) {
    if (world.rank() == 0) {
      world.send(1, 4, std::vector<double>{});
      world.send(1, 5, std::vector<double>{1.5});
    } else {
      EXPECT_TRUE(world.recv<double>(0, 4).empty());
      const auto one = world.recv<double>(0, 5);
      ASSERT_EQ(one.size(), 1u);
      EXPECT_EQ(one[0], 1.5);
    }
  });
}

TEST(Xmp, TagMatchingOutOfOrder) {
  // A message with a later tag must not be consumed by an earlier recv.
  xmp::run(2, [](xmp::Comm& world) {
    if (world.rank() == 0) {
      world.send(1, 20, std::vector<int>{20});
      world.send(1, 10, std::vector<int>{10});
    } else {
      auto a = world.recv<int>(0, 10);
      auto b = world.recv<int>(0, 20);
      EXPECT_EQ(a[0], 10);
      EXPECT_EQ(b[0], 20);
    }
  });
}

// ------------------------------------------------------- nonblocking p2p

TEST(XmpPending, IsendIrecvRoundTrip) {
  xmp::run(2, [](xmp::Comm& world) {
    if (world.rank() == 0) {
      const std::vector<double> msg = {1.0, 2.0, 3.0};
      xmp::Pending s = world.isend_bytes(1, 7, msg.data(), msg.size() * sizeof(double));
      s.wait();  // eager transport: born complete, wait() only retires
    } else {
      xmp::Pending p = world.irecv_bytes(0, 7);
      int src = -1, tag = -1;
      const auto raw = p.wait(&src, &tag);
      EXPECT_EQ(src, 0);
      EXPECT_EQ(tag, 7);
      ASSERT_EQ(raw.size(), 3 * sizeof(double));
      double back[3];
      std::memcpy(back, raw.data(), sizeof back);
      EXPECT_DOUBLE_EQ(back[2], 3.0);
    }
  });
}

TEST(XmpPending, TestPollsWithoutBlockingAndReservesPayload) {
  xmp::run(2, [](xmp::Comm& world) {
    if (world.rank() == 0) {
      xmp::Pending p = world.irecv_bytes(1, 5);
      // rank 1 only sends after our go message, so this poll is
      // deterministically premature
      EXPECT_FALSE(p.test());
      world.send(1, 1, std::vector<int>{1});
      while (!p.test()) std::this_thread::yield();
      EXPECT_TRUE(p.test());  // a true result is stable
      const auto raw = p.wait();  // payload was reserved by the claiming test()
      ASSERT_EQ(raw.size(), sizeof(int));
      int v = 0;
      std::memcpy(&v, raw.data(), sizeof v);
      EXPECT_EQ(v, 42);
    } else {
      (void)world.recv<int>(0, 1);
      const int v = 42;
      world.isend_bytes(0, 5, &v, sizeof v).wait();
    }
  });
}

TEST(XmpPending, CompletesOutOfPostingOrder) {
  xmp::run(2, [](xmp::Comm& world) {
    if (world.rank() == 0) {
      xmp::Pending a = world.irecv_bytes(1, 10);
      xmp::Pending b = world.irecv_bytes(1, 20);
      const auto rb = b.wait();  // posted second, completed first: tags match
      const auto ra = a.wait();
      ASSERT_EQ(rb.size(), 1u);
      ASSERT_EQ(ra.size(), 1u);
      EXPECT_EQ(rb[0], 20);
      EXPECT_EQ(ra[0], 10);
    } else {
      world.send(0, 20, std::vector<std::uint8_t>{20});
      world.send(0, 10, std::vector<std::uint8_t>{10});
    }
  });
}

TEST(XmpErrors, PendingReuseAfterWaitThrows) {
  xmp::run(2, [](xmp::Comm& world) {
    if (world.rank() == 0) {
      const int v = 1;
      xmp::Pending p = world.isend_bytes(1, 2, &v, sizeof v);
      p.wait();
      EXPECT_THROW(p.wait(), std::logic_error);
      EXPECT_THROW(p.test(), std::logic_error);
      EXPECT_THROW(xmp::Pending{}.wait(), std::logic_error);
    } else {
      (void)world.recv<int>(0, 2);
    }
  });
}

TEST(XmpErrors, IrecvSrcOutOfRangeNamesCommSizeAndTag) {
  xmp::run(1, [](xmp::Comm& world) {
    try {
      (void)world.irecv_bytes(3, 9);
      ADD_FAILURE() << "expected std::out_of_range";
    } catch (const std::out_of_range& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("irecv src 3"), std::string::npos) << msg;
      EXPECT_NE(msg.find("tag 9"), std::string::npos) << msg;
    }
  });
}

TEST(Xmp, AnySourceReceivesFromAll) {
  xmp::run(5, [](xmp::Comm& world) {
    if (world.rank() == 0) {
      std::set<int> seen;
      for (int i = 0; i < 4; ++i) {
        int src = -1;
        auto v = world.recv<int>(xmp::kAnySource, 3, &src);
        EXPECT_EQ(v[0], src);
        seen.insert(src);
      }
      EXPECT_EQ(seen.size(), 4u);
    } else {
      world.send(0, 3, std::vector<int>{world.rank()});
    }
  });
}

TEST(Xmp, FifoPerSenderAndTag) {
  xmp::run(2, [](xmp::Comm& world) {
    if (world.rank() == 0) {
      for (int i = 0; i < 50; ++i) world.send(1, 1, std::vector<int>{i});
    } else {
      for (int i = 0; i < 50; ++i) {
        auto v = world.recv<int>(0, 1);
        EXPECT_EQ(v[0], i);
      }
    }
  });
}

TEST(Xmp, Barrier) {
  std::atomic<int> phase{0};
  xmp::run(4, [&](xmp::Comm& world) {
    phase.fetch_add(1);
    world.barrier();
    EXPECT_EQ(phase.load(), 4);  // nobody passes until all arrived
    world.barrier();
  });
}

TEST(Xmp, Bcast) {
  xmp::run(4, [](xmp::Comm& world) {
    std::vector<double> data;
    if (world.rank() == 2) data = {3.14, 2.71};
    world.bcast(data, 2);
    ASSERT_EQ(data.size(), 2u);
    EXPECT_DOUBLE_EQ(data[0], 3.14);
  });
}

TEST(Xmp, GathervConcatenatesInRankOrder) {
  xmp::run(4, [](xmp::Comm& world) {
    std::vector<int> mine(static_cast<std::size_t>(world.rank()) + 1, world.rank());
    std::vector<std::size_t> counts;
    auto all = world.gatherv(std::span<const int>(mine), 0, &counts);
    if (world.rank() == 0) {
      ASSERT_EQ(counts.size(), 4u);
      EXPECT_EQ(all.size(), 1u + 2u + 3u + 4u);
      EXPECT_EQ(all[0], 0);
      EXPECT_EQ(all[1], 1);
      EXPECT_EQ(all.back(), 3);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Xmp, AllgathervSameEverywhere) {
  xmp::run(3, [](xmp::Comm& world) {
    std::vector<int> mine = {world.rank() * 10};
    auto all = world.allgatherv(std::span<const int>(mine));
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0], 0);
    EXPECT_EQ(all[1], 10);
    EXPECT_EQ(all[2], 20);
  });
}

TEST(Xmp, Scatterv) {
  xmp::run(3, [](xmp::Comm& world) {
    std::vector<std::vector<int>> parts;
    if (world.rank() == 1) parts = {{1}, {2, 2}, {3, 3, 3}};
    auto mine = world.scatterv(parts, 1);
    EXPECT_EQ(mine.size(), static_cast<std::size_t>(world.rank()) + 1);
    for (int v : mine) EXPECT_EQ(v, world.rank() + 1);
  });
}

TEST(Xmp, AllreduceScalarOps) {
  xmp::run(4, [](xmp::Comm& world) {
    const double r = world.rank();
    EXPECT_DOUBLE_EQ(world.allreduce(r, xmp::Op::Sum), 6.0);
    EXPECT_DOUBLE_EQ(world.allreduce(r, xmp::Op::Min), 0.0);
    EXPECT_DOUBLE_EQ(world.allreduce(r, xmp::Op::Max), 3.0);
    EXPECT_EQ(world.allreduce(static_cast<std::int64_t>(world.rank() + 1), xmp::Op::Sum), 10);
  });
}

TEST(Xmp, AllreduceVector) {
  xmp::run(3, [](xmp::Comm& world) {
    std::vector<double> v = {1.0 * world.rank(), 1.0};
    auto s = world.allreduce(std::span<const double>(v), xmp::Op::Sum);
    EXPECT_DOUBLE_EQ(s[0], 3.0);
    EXPECT_DOUBLE_EQ(s[1], 3.0);
  });
}

TEST(Xmp, SplitByParity) {
  xmp::run(6, [](xmp::Comm& world) {
    xmp::Comm sub = world.split(world.rank() % 2, world.rank());
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), world.rank() / 2);
    // Collectives inside the subcommunicator stay inside it.
    const double sum = sub.allreduce(static_cast<double>(world.rank()), xmp::Op::Sum);
    EXPECT_DOUBLE_EQ(sum, world.rank() % 2 == 0 ? 0.0 + 2.0 + 4.0 : 1.0 + 3.0 + 5.0);
  });
}

TEST(Xmp, SplitUndefinedYieldsInvalid) {
  xmp::run(4, [](xmp::Comm& world) {
    xmp::Comm sub = world.split(world.rank() == 0 ? xmp::kUndefined : 0, 0);
    if (world.rank() == 0) {
      EXPECT_FALSE(sub.valid());
    } else {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 3);
    }
  });
}

TEST(Xmp, SplitKeyOrdersRanks) {
  xmp::run(4, [](xmp::Comm& world) {
    // reverse ordering by key
    xmp::Comm sub = world.split(0, -world.rank());
    EXPECT_EQ(sub.rank(), 3 - world.rank());
  });
}

TEST(Xmp, HierarchicalSplitL2L3L4) {
  // The MCI pattern: world -> 2 "racks" (L2) -> 2 task groups each (L3) ->
  // root-only interface group (L4-ish). 8 ranks.
  xmp::run(8, [](xmp::Comm& world) {
    const int rack = world.rank() / 4;
    xmp::Comm l2 = world.split(rack, world.rank());
    EXPECT_EQ(l2.size(), 4);
    const int task = l2.rank() / 2;
    xmp::Comm l3 = l2.split(task, l2.rank());
    EXPECT_EQ(l3.size(), 2);
    // L4: only rank 0 of each L3
    xmp::Comm l4 = l3.split(l3.rank() == 0 ? 0 : xmp::kUndefined, 0);
    if (l3.rank() == 0) {
      ASSERT_TRUE(l4.valid());
      EXPECT_EQ(l4.size(), 1);
    } else {
      EXPECT_FALSE(l4.valid());
    }
    // world ranks survive the nesting
    EXPECT_EQ(world.world_rank(), world.rank());
  });
}

TEST(Xmp, SubCommP2pIsolatedFromWorldTags) {
  xmp::run(4, [](xmp::Comm& world) {
    xmp::Comm sub = world.split(world.rank() % 2, world.rank());
    // Same (peer, tag) in different communicators must not cross.
    if (sub.rank() == 0) {
      sub.send(1, 5, std::vector<int>{100 + world.rank()});
    } else {
      auto v = sub.recv<int>(0, 5);
      EXPECT_EQ(v[0], 100 + (world.rank() % 2));
    }
  });
}

TEST(Xmp, TraceObservesMessages) {
  // set_trace is collective over world: every rank calls it, and the
  // installation happens while all ranks are parked inside the call.
  std::mutex mu;
  std::vector<xmp::TraceEvent> events;
  xmp::run(3, [&](xmp::Comm& world) {
    world.set_trace([&](const xmp::TraceEvent& e) {
      std::lock_guard lk(mu);
      events.push_back(e);
    });
    if (world.rank() == 1) world.send(2, 9, std::vector<double>(8, 1.0));
    if (world.rank() == 2) world.recv<double>(1, 9);
    world.barrier();
    world.set_trace(nullptr);
  });
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].src_world, 1);
  EXPECT_EQ(events[0].dst_world, 2);
  EXPECT_EQ(events[0].bytes, 64u);
  EXPECT_EQ(events[0].tag, 9);
  EXPECT_EQ(events[0].kind, xmp::TraceKind::P2P);
}

TEST(Xmp, TraceSinkViaRunSeesCollectivePattern) {
  // The run()-parameter install path observes traffic from the very first
  // message, including the logical fan-in a gatherv models.
  std::mutex mu;
  std::vector<xmp::TraceEvent> events;
  xmp::run(
      3,
      [](xmp::Comm& world) {
        std::vector<int> mine = {world.rank()};
        world.gatherv<int>(mine, 0);
      },
      [&](const xmp::TraceEvent& e) {
        std::lock_guard lk(mu);
        events.push_back(e);
      });
  // gatherv models one message per non-root rank into the root
  std::size_t fan_in = 0;
  for (const auto& e : events)
    if (e.kind == xmp::TraceKind::Gather && e.dst_world == 0) ++fan_in;
  EXPECT_EQ(fan_in, 2u);
  for (const auto& e : events) EXPECT_EQ(e.tag, xmp::kCollectiveTag);
}

TEST(Xmp, SetTraceOnSubCommThrows) {
  xmp::run(4, [](xmp::Comm& world) {
    xmp::Comm sub = world.split(world.rank() % 2, world.rank());
    EXPECT_THROW(sub.set_trace(nullptr), std::logic_error);
    world.barrier();
  });
}

TEST(Xmp, AbortPropagatesFailure) {
  EXPECT_THROW(
      xmp::run(3,
               [](xmp::Comm& world) {
                 if (world.rank() == 1) throw std::runtime_error("rank 1 died");
                 // Others block forever; abort must wake them.
                 world.recv<double>(1, 0);
               }),
      std::runtime_error);
}

TEST(Xmp, RunRejectsNonPositiveRanks) {
  EXPECT_THROW(xmp::run(0, [](xmp::Comm&) {}), std::invalid_argument);
}

TEST(Xmp, LargePayloadIntegrity) {
  xmp::run(2, [](xmp::Comm& world) {
    const std::size_t n = 1 << 18;
    if (world.rank() == 0) {
      std::vector<double> big(n);
      std::iota(big.begin(), big.end(), 0.0);
      world.send(1, 0, big);
    } else {
      auto big = world.recv<double>(0, 0);
      ASSERT_EQ(big.size(), n);
      EXPECT_DOUBLE_EQ(big[n - 1], static_cast<double>(n - 1));
    }
  });
}

// ---- failure paths ----------------------------------------------------------
//
// When one rank throws, every rank parked inside a collective must wake with
// AbortedError (not hang, not return garbage) and xmp::run must rethrow the
// original failure. Exercise that for every collective entry point.

void expect_abort_wakes_collective(const std::function<void(xmp::Comm&)>& blocked_op) {
  constexpr int n = 4;
  std::atomic<int> aborted_count{0};
  EXPECT_THROW(
      xmp::run(n,
               [&](xmp::Comm& world) {
                 if (world.rank() == n - 1) throw std::runtime_error("boom");
                 try {
                   blocked_op(world);
                 } catch (const xmp::AbortedError&) {
                   aborted_count.fetch_add(1);
                   throw;
                 }
               }),
      std::runtime_error);
  EXPECT_EQ(aborted_count.load(), n - 1);
}

TEST(XmpAbort, WakesBarrier) {
  expect_abort_wakes_collective([](xmp::Comm& w) { w.barrier(); });
}

TEST(XmpAbort, WakesBcast) {
  expect_abort_wakes_collective([](xmp::Comm& w) {
    std::vector<double> d(3, 1.0);
    w.bcast(d, 0);
  });
}

TEST(XmpAbort, WakesGatherv) {
  expect_abort_wakes_collective([](xmp::Comm& w) {
    std::vector<int> mine{w.rank()};
    (void)w.gatherv(std::span<const int>(mine), 0);
  });
}

TEST(XmpAbort, WakesAllgatherv) {
  expect_abort_wakes_collective([](xmp::Comm& w) {
    std::vector<int> mine{w.rank()};
    (void)w.allgatherv(std::span<const int>(mine));
  });
}

TEST(XmpAbort, WakesScatterv) {
  expect_abort_wakes_collective([](xmp::Comm& w) {
    std::vector<std::vector<int>> parts;
    if (w.rank() == 0) parts.assign(static_cast<std::size_t>(w.size()), {1, 2});
    (void)w.scatterv(parts, 0);
  });
}

TEST(XmpAbort, WakesAllreduceScalar) {
  expect_abort_wakes_collective([](xmp::Comm& w) { (void)w.allreduce(1.0, xmp::Op::Sum); });
}

TEST(XmpAbort, WakesAllreduceVector) {
  expect_abort_wakes_collective([](xmp::Comm& w) {
    std::vector<double> v(2, 1.0);
    (void)w.allreduce(std::span<const double>(v), xmp::Op::Max);
  });
}

TEST(XmpAbort, WakesSplit) {
  expect_abort_wakes_collective([](xmp::Comm& w) { (void)w.split(0, w.rank()); });
}

TEST(XmpAbort, WakesRecv) {
  expect_abort_wakes_collective([](xmp::Comm& w) { (void)w.recv<double>(w.rank(), 0); });
}

// ---- error diagnostics ------------------------------------------------------

TEST(XmpErrors, RecvSizeMismatchNamesSrcTagAndBytes) {
  xmp::run(2, [](xmp::Comm& world) {
    if (world.rank() == 0) {
      world.send(1, 5, std::vector<std::uint8_t>(10, 0));  // 10 bytes, not /8
    } else {
      try {
        (void)world.recv<double>(0, 5);
        ADD_FAILURE() << "expected size-mismatch throw";
      } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("src 0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("tag 5"), std::string::npos) << msg;
        EXPECT_NE(msg.find("10 bytes"), std::string::npos) << msg;
        EXPECT_NE(msg.find("element size 8"), std::string::npos) << msg;
      }
    }
  });
}

TEST(XmpErrors, SendDstOutOfRangeNamesCommSize) {
  xmp::run(2, [](xmp::Comm& world) {
    try {
      world.send(5, 0, std::vector<int>{1});
      ADD_FAILURE() << "expected out_of_range";
    } catch (const std::out_of_range& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("dst 5"), std::string::npos) << msg;
      EXPECT_NE(msg.find("comm of size 2"), std::string::npos) << msg;
    }
    world.barrier();
  });
}

TEST(XmpErrors, RecvSrcOutOfRangeNamesCommSizeAndTag) {
  xmp::run(2, [](xmp::Comm& world) {
    try {
      (void)world.recv<int>(7, 3);
      ADD_FAILURE() << "expected out_of_range";
    } catch (const std::out_of_range& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("src 7"), std::string::npos) << msg;
      EXPECT_NE(msg.find("comm of size 2"), std::string::npos) << msg;
      EXPECT_NE(msg.find("tag 3"), std::string::npos) << msg;
    }
    world.barrier();
  });
}

TEST(XmpErrors, BcastRootOutOfRangeThrows) {
  xmp::run(2, [](xmp::Comm& world) {
    std::vector<double> d{1.0};
    EXPECT_THROW(world.bcast(d, 2), std::invalid_argument);
    EXPECT_THROW(world.bcast(d, -1), std::invalid_argument);
    world.barrier();
  });
}

TEST(XmpErrors, GathervRootOutOfRangeThrows) {
  xmp::run(2, [](xmp::Comm& world) {
    std::vector<int> mine{1};
    EXPECT_THROW((void)world.gatherv(std::span<const int>(mine), 9), std::invalid_argument);
    world.barrier();
  });
}

TEST(XmpErrors, ScattervRootOutOfRangeThrows) {
  xmp::run(2, [](xmp::Comm& world) {
    std::vector<std::vector<int>> parts(2);
    EXPECT_THROW((void)world.scatterv(parts, 2), std::invalid_argument);
    world.barrier();
  });
}

TEST(XmpErrors, ScattervPartsCountMismatchThrows) {
  xmp::run(2, [](xmp::Comm& world) {
    if (world.rank() == 0) {
      std::vector<std::vector<int>> parts(3);  // comm has 2 ranks
      EXPECT_THROW((void)world.scatterv(parts, 0), std::invalid_argument);
    }
    world.barrier();
  });
}

TEST(XmpErrors, GathervNonMultipleContributionThrows) {
  // A 4-byte int contribution cannot be reinterpreted as doubles on the
  // root: gatherv must throw (not silently truncate) and name the rank.
  EXPECT_THROW(
      xmp::run(2,
               [](xmp::Comm& world) {
                 if (world.rank() == 0) {
                   std::vector<double> mine{1.0};
                   (void)world.gatherv(std::span<const double>(mine), 0);
                 } else {
                   // Same collective slot, different element type: rank 1's
                   // 4-byte blob is not divisible by sizeof(double).
                   std::vector<float> mine{1.0f};
                   (void)world.gatherv(std::span<const float>(mine), 0);
                 }
               }),
      std::runtime_error);
}

TEST(XmpErrors, AllgathervNonMultipleContributionThrows) {
  EXPECT_THROW(
      xmp::run(2,
               [](xmp::Comm& world) {
                 if (world.rank() == 0) {
                   std::vector<double> mine{1.0};
                   (void)world.allgatherv(std::span<const double>(mine));
                 } else {
                   std::vector<float> mine{1.0f, 2.0f, 3.0f};
                   (void)world.allgatherv(std::span<const float>(mine));
                 }
               }),
      std::runtime_error);
}

TEST(XmpErrors, ScattervCorruptHeaderCaughtByBoundsCheck) {
  // Root scatters float parts while a peer decodes doubles: the peer's
  // payload-size validation must fire instead of reading out of bounds.
  EXPECT_THROW(
      xmp::run(2,
               [](xmp::Comm& world) {
                 if (world.rank() == 0) {
                   std::vector<std::vector<float>> parts{{1.0f}, {2.0f}};
                   (void)world.scatterv(parts, 0);
                 } else {
                   std::vector<std::vector<double>> parts;
                   (void)world.scatterv(parts, 0);
                 }
               }),
      std::runtime_error);
}

}  // namespace
