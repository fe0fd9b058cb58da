// End-to-end distributed coupling over the MCI machinery: two solver tasks,
// each running a *real* distributed computation on its own L3 communicator
// (a 1D diffusion solver with intra-task halo exchange), coupled through
// derive_l4 + InterfaceChannel exactly as NektarG couples patches. This is
// the paper's architecture in miniature, executed for real on the xmp
// runtime.
//
// Problem: steady heat conduction on [0, 2] with u(0) = 0, u(2) = 2.
// Task 0 owns [0, 1+h], task 1 owns [1-h, 2] (overlapping patches). Every
// step, each task sends the temperature at its interior sample point to the
// peer, which imposes it as a Dirichlet condition on its artificial
// boundary (overlapping Schwarz, like the multi-patch solver). The coupled
// steady state must be the single-domain solution u = x.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "coupling/mci.hpp"
#include "replica/replica.hpp"
#include "xmp/comm.hpp"

namespace {

/// Distributed explicit 1D diffusion on an L3 communicator: `n_local` cells
/// per rank, halo exchange with L3 neighbours each step, Dirichlet values at
/// the two task-domain ends.
class DistributedDiffusion {
public:
  DistributedDiffusion(const xmp::Comm& l3, std::size_t n_local, double x0, double dx)
      : l3_(l3), n_(n_local), dx_(dx) {
    u_.assign(n_, 0.0);
    x0_rank_ = x0 + static_cast<double>(l3.rank()) * static_cast<double>(n_) * dx;
  }

  double x_of(std::size_t i) const { return x0_rank_ + (static_cast<double>(i) + 0.5) * dx_; }
  double& left_bc() { return left_bc_; }
  double& right_bc() { return right_bc_; }

  void step(double alpha_dt_over_dx2) {
    // halo exchange with neighbouring ranks in the task
    double left_halo = left_bc_, right_halo = right_bc_;
    const int r = l3_.rank(), sz = l3_.size();
    if (r > 0) l3_.send(r - 1, 1, std::vector<double>{u_.front()});
    if (r + 1 < sz) l3_.send(r + 1, 2, std::vector<double>{u_.back()});
    if (r + 1 < sz) right_halo = l3_.recv<double>(r + 1, 1)[0];
    if (r > 0) left_halo = l3_.recv<double>(r - 1, 2)[0];

    std::vector<double> nu(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      const double ul = i == 0 ? left_halo : u_[i - 1];
      const double ur = i + 1 == n_ ? right_halo : u_[i + 1];
      nu[i] = u_[i] + alpha_dt_over_dx2 * (ul - 2.0 * u_[i] + ur);
    }
    u_ = std::move(nu);
  }

  /// Value at global coordinate x if owned by this rank, else 0 (combine
  /// with an allreduce-max or ownership logic).
  double sample(double x) const {
    const double rel = (x - x0_rank_) / dx_ - 0.5;
    const long i = std::lround(rel);
    if (i < 0 || i >= static_cast<long>(n_)) return 0.0;
    return u_[static_cast<std::size_t>(i)];
  }
  bool owns(double x) const {
    const double rel = (x - x0_rank_) / dx_ - 0.5;
    const long i = std::lround(rel);
    return i >= 0 && i < static_cast<long>(n_);
  }

  const std::vector<double>& values() const { return u_; }

private:
  xmp::Comm l3_;
  std::size_t n_;
  double dx_, x0_rank_;
  std::vector<double> u_;
  double left_bc_ = 0.0, right_bc_ = 0.0;
};

TEST(MciIntegration, TwoDistributedSolversReachCoupledSteadyState) {
  constexpr int kRanksPerTask = 3;
  constexpr std::size_t kCellsPerRank = 10;
  constexpr double kDx = (1.0 + 2.0 / 30.0) / 30.0;  // each task spans 1 + overlap

  xmp::run(2 * kRanksPerTask, [&](xmp::Comm& world) {
    coupling::MciConfig cfg;
    cfg.rack_of.assign(6, 0);
    cfg.task_of = {0, 0, 0, 1, 1, 1};
    auto mci = coupling::build_mci(world, cfg);

    // task 0: [0, 1+2h]; task 1: [1-2h, 2] (overlap of 4h)
    const double span = 3.0 * kCellsPerRank * kDx;
    const double x0 = mci.task == 0 ? 0.0 : 2.0 - span;
    DistributedDiffusion solver(mci.l3, kCellsPerRank, x0, kDx);

    // interface sample points: each task reads the peer's value at its own
    // artificial boundary
    const double my_iface = mci.task == 0 ? x0 + span : x0;         // my artificial end
    const double peer_iface = mci.task == 0 ? 2.0 - span : span;    // peer's artificial end

    // L4: the single rank owning the peer's requested sample
    const bool in_l4 = solver.owns(peer_iface) &&
                       (mci.task == 0 ? mci.l3.rank() == kRanksPerTask - 1
                                      : mci.l3.rank() == 0);
    // the rank adjacent to my artificial boundary needs the received value
    const bool is_boundary_rank =
        mci.task == 0 ? mci.l3.rank() == kRanksPerTask - 1 : mci.l3.rank() == 0;

    xmp::Comm l4 = coupling::derive_l4(mci.l3, in_l4 || is_boundary_rank);
    // both sides: L4 root is world rank 2 (task 0) / 3 (task 1)
    const int peer_root = mci.task == 0 ? 3 : 2;
    std::vector<std::size_t> my_samples = l4.valid() ? std::vector<std::size_t>{0}
                                                     : std::vector<std::size_t>{};
    std::unique_ptr<coupling::InterfaceChannel> chan;
    if (l4.valid())
      chan = std::make_unique<coupling::InterfaceChannel>(world, l4, peer_root, 1,
                                                          my_samples, 77);

    // true ends of the composite domain (ghost-cell-center values of u = x)
    if (mci.task == 0 && mci.l3.rank() == 0) solver.left_bc() = -0.5 * kDx;
    if (mci.task == 1 && mci.l3.rank() == kRanksPerTask - 1)
      solver.right_bc() = 2.0 + 0.5 * kDx;

    for (int step = 0; step < 20000; ++step) {
      // 3-step interface exchange once per step (paper Sec. 3.2)
      if (chan) {
        chan->send({solver.sample(peer_iface)});
        const auto got = chan->recv();
        if (mci.task == 0)
          solver.right_bc() = got[0];
        else
          solver.left_bc() = got[0];
      }
      solver.step(0.25);
      (void)my_iface;
    }

    // steady state: u = x everywhere (tolerance covers the half-cell offsets
    // of the sampled interface values)
    for (std::size_t i = 0; i < kCellsPerRank; ++i)
      EXPECT_NEAR(solver.values()[i], solver.x_of(i), 0.05)
          << "task " << mci.task << " rank " << mci.l3.rank() << " cell " << i;
  });
}

TEST(MciIntegration, ReplicatedAtomisticTaskFeedsContinuumRoot) {
  // The Fig. 6 arrangement end-to-end: the atomistic task's L3 is split into
  // 2 replicas; each replica produces a noisy "measurement" (here a
  // deterministic pseudo-noise per replica), the ensemble root averages and
  // ships ONE message to the continuum task root.
  xmp::run(6, [](xmp::Comm& world) {
    coupling::MciConfig cfg;
    cfg.rack_of.assign(6, 0);
    cfg.task_of = {0, 0, 1, 1, 1, 1};  // task 0 = continuum, task 1 = atomistic
    auto mci = coupling::build_mci(world, cfg);

    if (mci.task == 1) {
      coupling::ReplicaEnsemble ens(mci.l3, 2);
      // each replica's root contributes 10 + replica-dependent offset
      std::vector<double> mine = {10.0 + (ens.replica_id() == 0 ? 1.0 : -1.0)};
      auto avg = ens.gather_average(mine);
      ASSERT_EQ(avg.size(), 1u);
      EXPECT_DOUBLE_EQ(avg[0], 10.0);  // offsets cancel in the ensemble mean
      if (ens.is_ensemble_root()) world.send(0, 5, avg);
    } else if (mci.l3.rank() == 0) {
      auto got = world.recv<double>(xmp::kAnySource, 5);
      EXPECT_DOUBLE_EQ(got[0], 10.0);
    }
  });
}

TEST(MciIntegration, BothSidesRecvIsCaughtAsDeadlockInCheckedMode) {
  xmp::CheckOptions opts;
  opts.enabled = true;
  opts.poll_interval = std::chrono::milliseconds(5);
  try {
    xmp::run(
        2,
        [](xmp::Comm& world) {
          coupling::MciConfig cfg;
          cfg.rack_of = {0, 0};
          cfg.task_of = {0, 1};
          auto mci = coupling::build_mci(world, cfg);
          xmp::Comm l4 = coupling::derive_l4(mci.l3, true);
          const int peer_root = mci.task == 0 ? 1 : 0;
          coupling::InterfaceChannel chan(world, l4, peer_root, 1, {0}, 9);
          // Protocol error: BOTH sides enter the receive half of the 3-step
          // exchange first, so each L4 root blocks on the other's message.
          (void)chan.recv();
        },
        nullptr, opts);
    FAIL() << "expected xmp::CheckError";
  } catch (const xmp::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock detected"), std::string::npos) << msg;
    EXPECT_NE(msg.find("recv"), std::string::npos) << msg;
  }
}

TEST(MciIntegration, ThreeStepExchangeRunsCleanUnderCheckedMode) {
  // Positive control: the correct 3-step protocol (one side sends first, the
  // other receives first) must produce no checked-mode diagnostic.
  xmp::CheckOptions opts;
  opts.enabled = true;
  opts.poll_interval = std::chrono::milliseconds(5);
  xmp::run(
      6,
      [](xmp::Comm& world) {
        coupling::MciConfig cfg;
        cfg.rack_of.assign(6, 0);
        cfg.task_of = {0, 0, 0, 1, 1, 1};
        auto mci = coupling::build_mci(world, cfg);
        xmp::Comm l4 = coupling::derive_l4(mci.l3, true);
        const int peer_root = mci.task == 0 ? 3 : 0;
        std::vector<std::size_t> mine = {static_cast<std::size_t>(l4.rank())};
        coupling::InterfaceChannel ch(world, l4, peer_root, 3, mine, 11);
        for (int i = 0; i < 5; ++i) {
          if (mci.task == 0) {
            ch.send({1.0 + i});
            const auto got = ch.recv();
            ASSERT_EQ(got.size(), 1u);
            EXPECT_DOUBLE_EQ(got[0], 2.0 + i);
          } else {
            const auto got = ch.recv();
            ch.send({got[0] + 1.0});
          }
        }
      },
      nullptr, opts);
}

}  // namespace

#include "model/cost.hpp"
#include "model/torus.hpp"

namespace {

TEST(MciIntegration, TracedExchangeReplaysOnModeledMachine) {
  // Close the loop the scaling benches rely on: record the *actual* message
  // pattern of a 3-step interface exchange with the xmp trace hook, then
  // replay exactly those messages through the machine cost model.
  std::mutex mu;
  std::vector<xmp::TraceEvent> events;
  xmp::run(
      6,
      [](xmp::Comm& world) {
        coupling::MciConfig cfg;
        cfg.rack_of.assign(6, 0);
        cfg.task_of = {0, 0, 0, 1, 1, 1};
        auto mci = coupling::build_mci(world, cfg);
        xmp::Comm l4 = coupling::derive_l4(mci.l3, true);
        const int peer_root = mci.task == 0 ? 3 : 0;
        std::vector<std::size_t> mine = {static_cast<std::size_t>(l4.rank()),
                                         static_cast<std::size_t>(l4.rank() + 3)};
        coupling::InterfaceChannel ch(world, l4, peer_root, 6, mine, 42);
        std::vector<double> vals(2, 1.5);
        ch.send(vals);
        ch.recv();
      },
      // The tag filter keeps only the interface payload, not the logical
      // collective traffic.
      [&](const xmp::TraceEvent& e) {
        if (e.tag == 42) {
          std::lock_guard lk(mu);
          events.push_back(e);
        }
      });

  ASSERT_EQ(events.size(), 2u);  // root-to-root, one per direction
  machine::TorusSpec spec;
  spec.nx = 4;
  spec.ny = 2;
  spec.nz = 1;
  spec.cores_per_node = 1;  // map each world rank to its own node
  machine::Torus torus(spec);
  std::vector<machine::Message> phase;
  for (const auto& e : events)
    phase.push_back({e.src_world, e.dst_world, static_cast<double>(e.bytes)});
  const auto cost = machine::phase_cost(torus, phase);
  EXPECT_GT(cost.total(), 0.0);
  EXPECT_GT(cost.latency_time, 0.0);
  // payload 48 B each way over one 425 MB/s link
  EXPECT_NEAR(cost.link_time, 48.0 / torus.spec().link_bandwidth, 1e-12);
}

}  // namespace
