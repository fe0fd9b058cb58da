// Tests for the fiber scheduler (src/xmp/sched/) that every xmp::run uses.
// The xmp surface itself — p2p, collectives, splits, abort propagation and
// checked mode — is covered by xmp_test and xmp_checked_test on the same
// executor; this file pins what is specific to fibers: the rank context
// across yields, many ranks on few workers, the 4096-rank smoke, bitwise
// determinism on one worker, fiber migration under the affinity check,
// and non-rank threads that would block.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "telemetry/registry.hpp"
#include "xmp/comm.hpp"

namespace {

xmp::SchedOptions fibers(int workers = 2, int stack_kb = 256) {
  xmp::SchedOptions o;
  o.workers = workers;
  o.stack_kb = stack_kb;
  return o;
}

void run_fibers(int nranks, const std::function<void(xmp::Comm&)>& fn,
                const xmp::SchedOptions& opts = fibers()) {
  xmp::run(nranks, fn, nullptr, xmp::CheckOptions{}, opts);
}

xmp::CheckOptions checked(int stall_ms = 120000) {
  xmp::CheckOptions o;
  o.enabled = true;
  o.poll_interval = std::chrono::milliseconds(5);
  o.stall_timeout = std::chrono::milliseconds(stall_ms);
  return o;
}

TEST(XmpSched, RankContextMatchesCommRank) {
  EXPECT_EQ(xmp::sched::current_rank(), -1);  // test main thread is no rank
  run_fibers(8, [](xmp::Comm& world) {
    EXPECT_EQ(xmp::sched::current_rank(), world.rank());
    world.barrier();
    EXPECT_EQ(xmp::sched::current_rank(), world.rank());  // survives a yield
  });
  EXPECT_EQ(xmp::sched::current_rank(), -1);
}

TEST(XmpSched, DefaultRunExecutesRanksAsFibers) {
  // No SchedOptions: ranks still run as fibers, so each has a rank-local
  // slot and its own telemetry registry.
  const telemetry::Registry* regs[2] = {nullptr, nullptr};
  bool has_slot[2] = {false, false};
  xmp::run(2, [&](xmp::Comm& world) {
    has_slot[world.rank()] = xmp::sched::rank_local_slot() != nullptr;
    regs[world.rank()] = &telemetry::Registry::local();
    world.barrier();
  });
  EXPECT_TRUE(has_slot[0]);
  EXPECT_TRUE(has_slot[1]);
  EXPECT_NE(regs[0], regs[1]);
}

TEST(XmpSched, NonRankThreadThatWouldBlockThrows) {
  // Unchecked run: a helper thread has no fiber to park, so a recv that
  // would block, or any collective, is refused with std::logic_error instead
  // of sleeping on the mailbox.
  std::atomic<int> refused{0};
  xmp::run(
      2,
      [&](xmp::Comm& world) {
        if (world.rank() == 0) {
          std::thread helper([&] {
            auto expect_refused = [&](const std::function<void()>& op) {
              try {
                op();
              } catch (const std::logic_error& e) {
                if (std::string(e.what()).find("rank-affine") != std::string::npos)
                  refused.fetch_add(1);
              }
            };
            expect_refused([&] { (void)world.recv<int>(1, 5); });
            expect_refused([&] { world.barrier(); });
          });
          helper.join();
        }
        world.barrier();  // the refused barrier left no trace in the slot
      },
      nullptr, xmp::CheckOptions{}, fibers());
  EXPECT_EQ(refused.load(), 2);
}

TEST(XmpSched, ManyRanksFewWorkersBlockAndResume) {
  // 64 ranks on one worker: every blocking point must yield, or this hangs.
  run_fibers(
      64,
      [](xmp::Comm& world) {
        for (int i = 0; i < 5; ++i) {
          const int next = (world.rank() + 1) % world.size();
          const int prev = (world.rank() + world.size() - 1) % world.size();
          world.send(next, i, std::vector<int>{world.rank()});
          auto v = world.recv<int>(prev, i);
          EXPECT_EQ(v[0], prev);
          world.barrier();
        }
      },
      fibers(/*workers=*/1, /*stack_kb=*/128));
}

TEST(XmpSched, FourThousandRankAllreduceAndSplitSmoke) {
  const int n = 4096;
  std::atomic<int> ran{0};
  run_fibers(
      n,
      [&](xmp::Comm& world) {
        const double sum = world.allreduce(1.0, xmp::Op::Sum);
        EXPECT_DOUBLE_EQ(sum, double(n));
        xmp::Comm sub = world.split(world.rank() % 8, world.rank());
        EXPECT_EQ(sub.size(), n / 8);
        const std::int64_t c = sub.allreduce(std::int64_t{1}, xmp::Op::Sum);
        EXPECT_EQ(c, n / 8);
        world.barrier();
        ran.fetch_add(1, std::memory_order_relaxed);
      },
      fibers(/*workers=*/2, /*stack_kb=*/128));
  EXPECT_EQ(ran.load(), n);
}

// One worker => a single FIFO dispatch order => two identical runs must
// produce identical traffic, event for event (the property docs/SCHED.md
// promises for debugging runs).
TEST(XmpSched, SingleWorkerSchedulingIsDeterministic) {
  using Event = std::tuple<int, int, std::size_t, int, int>;
  auto collect = [] {
    std::vector<Event> events;
    std::mutex mu;
    xmp::TraceSink sink = [&](const xmp::TraceEvent& e) {
      std::lock_guard<std::mutex> g(mu);
      events.emplace_back(e.src_world, e.dst_world, e.bytes, e.tag, int(e.kind));
    };
    xmp::run(
        16,
        [](xmp::Comm& world) {
          // any-source recv makes nondeterministic schedules visible
          if (world.rank() == 0) {
            for (int i = 0; i < 15; ++i) (void)world.recv<int>(xmp::kAnySource, 1);
          } else {
            world.send(0, 1, std::vector<int>{world.rank()});
          }
          world.allreduce(1.0, xmp::Op::Sum);
          xmp::Comm sub = world.split(world.rank() % 2, world.rank());
          sub.allreduce(std::int64_t{1}, xmp::Op::Sum);
        },
        sink, xmp::CheckOptions{}, fibers(/*workers=*/1));
    return events;
  };
  const auto a = collect();
  const auto b = collect();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(XmpSched, CheckedFiberMigrationDoesNotTripAffinity) {
  // Many barriers over two workers: fibers park and resume on whichever
  // worker is free, so a rank's OS thread changes constantly. The affinity
  // checker must key on the scheduler's rank context, not the thread.
  xmp::run(
      8,
      [](xmp::Comm& world) {
        xmp::Comm sub = world.split(world.rank() % 2, world.rank());
        for (int i = 0; i < 50; ++i) {
          world.barrier();
          sub.allreduce(1.0, xmp::Op::Sum);
        }
      },
      nullptr, checked(), fibers(/*workers=*/2));
}

}  // namespace
