// Negative tests for xmp checked mode (src/xmp/check.hpp): every class of
// misuse the verifier exists to catch must produce a CheckError naming the
// offending ranks and operation — mismatched collective sequences, root and
// element-size disagreement, cross-thread Comm use, p2p deadlock cycles,
// stalls and unreceived mailbox messages — while a correct MCI-style
// hierarchical exchange runs checked without complaint.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "scoped_env.hpp"
#include "xmp/comm.hpp"

namespace {

// The default stall budget is deliberately huge: on an oversubscribed CI
// machine a rank can be starved for many seconds mid-collective, and
// the positive-control tests must not mistake that for a hang. Stall
// reporting itself is exercised by StallTimeoutDumpsBlockedOperations, which
// passes its own 200 ms budget.
xmp::CheckOptions checked(int stall_ms = 120000) {
  xmp::CheckOptions o;
  o.enabled = true;
  o.poll_interval = std::chrono::milliseconds(5);
  o.stall_timeout = std::chrono::milliseconds(stall_ms);
  return o;
}

/// Runs fn checked and returns the CheckError message (fails if none is
/// thrown or a different exception type escapes).
std::string run_expect_check(int nranks, const std::function<void(xmp::Comm&)>& fn,
                             const xmp::CheckOptions& opts) {
  try {
    xmp::run(nranks, fn, nullptr, opts);
  } catch (const xmp::CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected xmp::CheckError";
  return {};
}

void expect_contains(const std::string& msg, std::initializer_list<const char*> needles) {
  for (const char* needle : needles)
    EXPECT_NE(msg.find(needle), std::string::npos) << "missing \"" << needle << "\" in:\n" << msg;
}

#define SKIP_UNLESS_CHECKED() \
  if (!xmp::checked_available()) GTEST_SKIP() << "built without XMP_CHECKED"

TEST(XmpChecked, MismatchedCollectiveOpNamesOffender) {
  SKIP_UNLESS_CHECKED();
  const auto msg = run_expect_check(
      2,
      [](xmp::Comm& world) {
        if (world.rank() == 0) {
          world.barrier();
        } else {
          world.allreduce(1.0, xmp::Op::Sum);
        }
      },
      checked());
  expect_contains(msg, {"collective mismatch", "barrier", "allreduce", "offender", "world rank"});
}

TEST(XmpChecked, RootDisagreementCaught) {
  SKIP_UNLESS_CHECKED();
  const auto msg = run_expect_check(
      3,
      [](xmp::Comm& world) {
        std::vector<double> data{1.0};
        world.bcast(data, world.rank() == 1 ? 1 : 0);  // rank 1 dissents
      },
      checked());
  expect_contains(msg, {"collective mismatch", "bcast", "root=0", "root=1", "offender"});
}

TEST(XmpChecked, ElementSizeDisagreementCaught) {
  SKIP_UNLESS_CHECKED();
  const auto msg = run_expect_check(
      2,
      [](xmp::Comm& world) {
        if (world.rank() == 0) {
          std::vector<double> d{1.0};
          world.bcast(d, 0);
        } else {
          std::vector<float> f;
          world.bcast(f, 0);
        }
      },
      checked());
  expect_contains(msg, {"collective mismatch", "elem=8", "elem=4"});
}

TEST(XmpChecked, ReduceOpDisagreementCaught) {
  SKIP_UNLESS_CHECKED();
  const auto msg = run_expect_check(
      2,
      [](xmp::Comm& world) {
        world.allreduce(1.0, world.rank() == 0 ? xmp::Op::Sum : xmp::Op::Max);
      },
      checked());
  expect_contains(msg, {"collective mismatch", "allreduce", "op=0", "op=2"});
}

TEST(XmpChecked, VectorAllreduceShapeMismatchCaught) {
  SKIP_UNLESS_CHECKED();
  const auto msg = run_expect_check(
      2,
      [](xmp::Comm& world) {
        std::vector<double> v(world.rank() == 0 ? 2 : 3, 1.0);
        world.allreduce(std::span<const double>(v), xmp::Op::Sum);
      },
      checked());
  expect_contains(msg, {"collective mismatch", "shape=2", "shape=3"});
}

TEST(XmpChecked, MismatchOnSubCommunicatorNamesIt) {
  SKIP_UNLESS_CHECKED();
  const auto msg = run_expect_check(
      4,
      [](xmp::Comm& world) {
        xmp::Comm sub = world.split(world.rank() % 2, world.rank());
        if (world.rank() % 2 == 0) {
          sub.barrier();
        } else if (world.rank() == 1) {
          sub.barrier();
        } else {
          sub.allreduce(std::int64_t{1}, xmp::Op::Sum);  // rank 3 dissents in odd comm
        }
        world.barrier();
      },
      checked());
  expect_contains(msg, {"collective mismatch", "comm#", "world rank 3", "offender"});
}

TEST(XmpChecked, CrossThreadCommUseCaught) {
  SKIP_UNLESS_CHECKED();
  std::atomic<int> violations{0};
  xmp::run(
      2,
      [&](xmp::Comm& world) {
        if (world.rank() == 0) {
          // The documented affinity contract: only the owning rank may
          // drive a Comm. A helper thread must be rejected.
          std::thread helper([&] {
            try {
              world.send(1, 1, std::vector<int>{7});
            } catch (const xmp::CheckError& e) {
              if (std::string(e.what()).find("thread-affinity violation") != std::string::npos)
                violations.fetch_add(1);
            }
          });
          helper.join();
          world.send(1, 1, std::vector<int>{42});  // owner rank: fine
        } else {
          auto v = world.recv<int>(0, 1);
          EXPECT_EQ(v[0], 42);
        }
      },
      nullptr, checked());
  EXPECT_EQ(violations.load(), 1);
}

TEST(XmpChecked, CrossThreadCollectiveCaught) {
  SKIP_UNLESS_CHECKED();
  std::atomic<int> violations{0};
  xmp::run(
      1,
      [&](xmp::Comm& world) {
        std::thread helper([&] {
          try {
            world.allreduce(1.0, xmp::Op::Sum);
          } catch (const xmp::CheckError&) {
            violations.fetch_add(1);
          }
        });
        helper.join();
      },
      nullptr, checked());
  EXPECT_EQ(violations.load(), 1);
}

TEST(XmpChecked, TwoRankP2pDeadlockDetected) {
  SKIP_UNLESS_CHECKED();
  const auto msg = run_expect_check(
      2,
      [](xmp::Comm& world) {
        // Classic head-to-head: both sides recv before either sends.
        const int peer = 1 - world.rank();
        auto v = world.recv<double>(peer, 7 + world.rank());
        world.send(peer, 7 + peer, v);
      },
      checked());
  expect_contains(msg,
                  {"deadlock detected", "wait-for cycle", "recv(src=1, tag=7)",
                   "recv(src=0, tag=8)", "comm world"});
}

TEST(XmpChecked, ThreeRankCycleDetected) {
  SKIP_UNLESS_CHECKED();
  const auto msg = run_expect_check(
      3,
      [](xmp::Comm& world) {
        // 0 waits on 1, 1 waits on 2, 2 waits on 0.
        const int src = (world.rank() + 1) % 3;
        (void)world.recv<int>(src, 5);
      },
      checked());
  expect_contains(msg, {"deadlock detected", "wait-for cycle"});
}

TEST(XmpChecked, CollectiveVsRecvDeadlockDetected) {
  SKIP_UNLESS_CHECKED();
  // Rank 0 enters a barrier (waits on rank 1); rank 1 waits for a message
  // from rank 0 that can never come: a mixed collective/p2p cycle.
  const auto msg = run_expect_check(
      2,
      [](xmp::Comm& world) {
        if (world.rank() == 0) {
          world.barrier();
        } else {
          (void)world.recv<int>(0, 3);
        }
      },
      checked());
  expect_contains(msg, {"deadlock detected", "barrier", "recv(src=0, tag=3)"});
}

TEST(XmpChecked, NoFalsePositiveWhenMessageAlreadyQueued) {
  SKIP_UNLESS_CHECKED();
  // Send-before-recv head-to-head is legal (mailboxes are buffered): the
  // wait-for graph momentarily looks cyclic only if sampled carelessly.
  for (int repeat = 0; repeat < 20; ++repeat) {
    xmp::run(
        2,
        [](xmp::Comm& world) {
          const int peer = 1 - world.rank();
          world.send(peer, 1, std::vector<int>{world.rank()});
          auto v = world.recv<int>(peer, 1);
          EXPECT_EQ(v[0], peer);
        },
        nullptr, checked());
  }
}

TEST(XmpChecked, StallTimeoutDumpsBlockedOperations) {
  SKIP_UNLESS_CHECKED();
  // Any-source receives contribute no wait-for edge, so this hang is only
  // catchable by the stall timeout — which must dump the blocked recv with
  // comm, peer and tag.
  const auto msg = run_expect_check(
      2,
      [](xmp::Comm& world) {
        if (world.rank() == 0) (void)world.recv<int>(xmp::kAnySource, 7);
        // rank 1 exits without sending
      },
      checked(/*stall_ms=*/200));
  expect_contains(msg, {"stall", "world rank 0", "recv(src=any, tag=7)", "comm world"});
}

TEST(XmpChecked, UnreceivedMessagesReportedAtRunEnd) {
  SKIP_UNLESS_CHECKED();
  const auto msg = run_expect_check(
      2,
      [](xmp::Comm& world) {
        if (world.rank() == 0) {
          world.send(1, 9, std::vector<double>(3, 1.0));
          world.send(1, 10, std::vector<double>(1, 2.0));
        }
        world.barrier();  // both messages are queued before the run ends
      },
      checked());
  expect_contains(msg, {"unreceived message", "tag 9", "tag 10", "24 bytes", "src 0 -> dst 1"});
}

// --------------------------------------- nonblocking-p2p handle hygiene

TEST(XmpChecked, LeakedIrecvHandleReportedAtRunEnd) {
  SKIP_UNLESS_CHECKED();
  const auto msg = run_expect_check(
      2,
      [](xmp::Comm& world) {
        if (world.rank() == 0) {
          xmp::Pending p = world.irecv_bytes(1, 9);
          (void)p;  // dropped without wait()/test(): the recv never happens
        }
        world.barrier();
      },
      checked());
  expect_contains(msg,
                  {"leaked pending handle", "irecv(src=1, tag=9)", "world rank 0", "comm world"});
}

TEST(XmpChecked, LeakedIsendHandleReportedAtRunEnd) {
  SKIP_UNLESS_CHECKED();
  // The message itself is delivered (eager transport) and received, so the
  // only diagnostic left is the dropped send handle.
  const auto msg = run_expect_check(
      2,
      [](xmp::Comm& world) {
        if (world.rank() == 0) {
          const double v = 1.0;
          xmp::Pending p = world.isend_bytes(1, 5, &v, sizeof v);
          (void)p;
        } else {
          (void)world.recv<double>(0, 5);
        }
        world.barrier();
      },
      checked());
  expect_contains(msg, {"leaked pending handle", "isend(dst=1, tag=5)", "world rank 0"});
}

TEST(XmpChecked, CompletedHandlesLeaveNoLeakReport) {
  SKIP_UNLESS_CHECKED();
  // wait() and a successful (claiming) test() both retire the handle.
  xmp::run(
      2,
      [](xmp::Comm& world) {
        const int peer = 1 - world.rank();
        const int v = world.rank();
        xmp::Pending s = world.isend_bytes(peer, 3, &v, sizeof v);
        xmp::Pending r = world.irecv_bytes(peer, 3);
        s.wait();
        while (!r.test()) std::this_thread::yield();
      },
      nullptr, checked());
}

TEST(XmpChecked, PendingWaitDeadlockCycleDetected) {
  SKIP_UNLESS_CHECKED();
  // Pending::wait parks exactly like a blocking recv, so a wait-for cycle
  // through nonblocking handles must be diagnosed the same way.
  const auto msg = run_expect_check(
      2,
      [](xmp::Comm& world) {
        xmp::Pending p = world.irecv_bytes(1 - world.rank(), 7 + world.rank());
        (void)p.wait();
      },
      checked());
  expect_contains(msg, {"deadlock detected", "wait-for cycle", "recv(src=1, tag=7)",
                        "recv(src=0, tag=8)", "comm world"});
}

TEST(XmpChecked, CleanHierarchicalExchangePassesChecked) {
  SKIP_UNLESS_CHECKED();
  // Positive control: the MCI communicator pattern — split into task groups,
  // root-to-root p2p, collectives at every level — runs checked without a
  // diagnostic.
  xmp::run(
      8,
      [](xmp::Comm& world) {
        const int task = world.rank() / 4;
        xmp::Comm l3 = world.split(task, world.rank());
        std::vector<double> mine{static_cast<double>(world.rank())};
        auto all = l3.gatherv(std::span<const double>(mine), 0);
        if (l3.rank() == 0) {
          const int peer_root = task == 0 ? 4 : 0;
          world.send(peer_root, 42, all);
          auto theirs = world.recv<double>(peer_root, 42);
          EXPECT_EQ(theirs.size(), 4u);
        }
        std::vector<double> back;
        if (l3.rank() == 0) back.assign(4, 1.0);
        l3.bcast(back, 0);
        EXPECT_EQ(back.size(), 4u);
        const double s = world.allreduce(1.0, xmp::Op::Sum);
        EXPECT_DOUBLE_EQ(s, 8.0);
        world.barrier();
      },
      nullptr, checked());
}

TEST(XmpChecked, DisabledOptionsAreNoop) {
  // With enabled == false the run must behave exactly like an unchecked one
  // (this is the runtime switch the bench smoke measures against).
  xmp::CheckOptions off;
  ASSERT_FALSE(off.enabled);
  xmp::run(
      2,
      [](xmp::Comm& world) {
        if (world.rank() == 0) world.send(1, 1, std::vector<int>{1});
        if (world.rank() == 1) (void)world.recv<int>(0, 1);
      },
      nullptr, off);
}

TEST(XmpChecked, RequestingCheckedWithoutBuildThrows) {
  if (xmp::checked_available()) GTEST_SKIP() << "built with XMP_CHECKED";
  EXPECT_THROW(xmp::run(1, [](xmp::Comm&) {}, nullptr, checked()), std::logic_error);
}

TEST(XmpChecked, FromEnvDefaultsDisabled) {
  // Unless the surrounding environment opts in, from_env must not enable
  // checking (the suite also runs with XMP_CHECK=1 in CI, where it must).
  const char* v = std::getenv("XMP_CHECK");
  const bool want = v != nullptr && std::string(v) == "1";
  EXPECT_EQ(xmp::CheckOptions::from_env().enabled, want);
}

TEST(XmpChecked, FromEnvRejectsMalformedValues) {
  // Only 0/1 switch checking, so a word like "false" must not turn it on.
  // Every malformed value throws and names its variable instead of meaning
  // 0 or "on".
  const std::pair<const char*, const char*> cases[] = {
      {"XMP_CHECK", "false"},       {"XMP_CHECK", "true"}, {"XMP_CHECK", "2"},
      {"XMP_CHECK_STALL_MS", "5s"}, {"XMP_CHECK_STALL_MS", "-1"},
  };
  for (const auto& [name, value] : cases) {
    ScopedEnv e(name, value);
    try {
      (void)xmp::CheckOptions::from_env();
      ADD_FAILURE() << name << "=" << value << " was accepted";
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find(name), std::string::npos) << err.what();
    }
  }
  // Well-formed values still parse.
  ScopedEnv check("XMP_CHECK", "0"), stall("XMP_CHECK_STALL_MS", "500");
  const auto o = xmp::CheckOptions::from_env();
  EXPECT_FALSE(o.enabled);
  EXPECT_EQ(o.stall_timeout, std::chrono::milliseconds(500));
}

}  // namespace
