// dpd_dist2: a body-force-driven channel of fixed population (periodic in x
// and y, walls in z) stepped by DistributedDpd over two xmp ranks with the
// overlapped halo exchange. The fiber scheduler, its worker count and the
// disabled checked mode are passed to xmp::run explicitly, never read from
// the environment.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "dpd/exchange/distributed.hpp"
#include "dpd/geometry.hpp"
#include "dpd/system.hpp"
#include "resilience/checkpoint.hpp"
#include "telemetry/registry.hpp"
#include "xmp/comm.hpp"

namespace e2e {

namespace {

constexpr int kRanks = 2;
constexpr double kDensity = 3.0;
constexpr double kBodyForce = 0.05;

struct Size {
  dpd::Vec3 box;
  int steps;        ///< timed steps
  int check_steps;  ///< steps of the rank-equivalence check
};

Size size_of(const Options& o) {
  return o.smoke ? Size{{12.0, 8.0, 8.0}, 200, 20} : Size{{24.0, 12.0, 12.0}, 2000, 200};
}

std::unique_ptr<dpd::DpdSystem> make_system(const Size& z, std::uint32_t seed, bool fill) {
  dpd::DpdParams prm;
  prm.box = z.box;
  prm.periodic = {true, true, false};
  auto sys = std::make_unique<dpd::DpdSystem>(prm, std::make_shared<dpd::ChannelZ>(prm.box.z));
  if (fill) sys->fill(kDensity, dpd::kSolvent, seed);
  sys->set_body_force(
      [](const dpd::Vec3&, dpd::Species) { return dpd::Vec3{kBodyForce, 0.0, 0.0}; });
  return sys;
}

dpd::exchange::DistOptions dist_options() {
  dpd::exchange::DistOptions opt;
  opt.dims = {kRanks, 1, 1};
  opt.overlap = true;
  return opt;
}

void run_ranks(const std::function<void(xmp::Comm&)>& fn, xmp::TraceSink sink = nullptr) {
  xmp::SchedOptions sched;
  sched.mode = xmp::SchedMode::Fibers;
  sched.workers = kRanks;
  sched.stack_kb = 1024;
  xmp::run(kRanks, fn, std::move(sink), xmp::CheckOptions{}, sched);
}

std::string checkpoint_dir(const Size& z) {
  return "dpd_dist2-ckpt/step-" + std::to_string(z.steps);
}

/// Temperature and finiteness of the gathered population (rank 0).
void check_physics(const std::vector<dpd::ParticleRecord>& recs, const Size& z, Tally& t) {
  std::vector<dpd::Vec3> pos, vel;
  for (const auto& r : recs) {
    pos.push_back(r.pos);
    vel.push_back(r.vel);
  }
  const double temp = peculiar_temperature(pos, vel, z.box);
  char buf[120];
  std::snprintf(buf, sizeof buf, "dpd temperature %.4f within 10%% of kBT 1", temp);
  t.expect(std::fabs(temp - 1.0) <= 0.1, buf);
  t.expect(!recs.empty() && all_finite(pos) && all_finite(vel), "final DPD state is finite");
}

/// One timed run: build, distribute and step on two ranks; then, untimed,
/// the digest, the physics checks and a checkpoint for the restart legs.
double timed_run(const Options& o, const Size& z, Tally& t, std::uint64_t& digest) {
  const Seeds seeds = derive_seeds(o.seed);
  double run_s = 0.0;
  std::vector<dpd::ParticleRecord> recs;
  const auto t0 = Clock::now();
  run_ranks([&](xmp::Comm& world) {
    auto sys = make_system(z, seeds.dpd, true);
    dpd::exchange::DistributedDpd drv(world, *sys, dist_options());
    drv.distribute();
    for (int s = 0; s < z.steps; ++s) sys->step();
    world.barrier();
    if (world.rank() == 0) run_s = seconds_since(t0);
    const std::uint64_t d = drv.global_digest();
    auto gathered = drv.gather(0);
    resilience::CheckpointCoordinator coord(world);
    coord.add("dpd", *sys);
    coord.add("dist", drv);
    coord.save(checkpoint_dir(z), static_cast<std::uint64_t>(z.steps), sys->time());
    if (world.rank() == 0) {
      digest = d;
      recs = std::move(gathered);
    }
  });
  check_physics(recs, z, t);
  return run_s;
}

void trace_dist(const Options& o, const Size& z, Metrics& m, Tally& t) {
  double run_s = 0.0;
  t.attempt("run", [&] {
    telemetry::Registry::reset_all();
    std::uint64_t digest = 0;
    run_s = timed_run(o, z, t, digest);
    print_digest(digest);
  });

  telemetry::Registry::reset_all();
  const Seeds seeds = derive_seeds(o.seed);
  std::vector<SpanLog> logs;
  for (int r = 0; r < kRanks; ++r) logs.emplace_back(r);
  std::vector<double> particle_steps(kRanks, 0.0), listed(kRanks, 0.0);
  std::atomic<std::uint64_t> msgs{0}, bytes{0};
  double run_msgs = 0.0, run_bytes = 0.0;  // traffic of the stepping run alone
  auto sink = [&](const xmp::TraceEvent& ev) {
    msgs.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(ev.bytes, std::memory_order_relaxed);
  };
  t.attempt("traced run", [&] {
    run_ranks(
        [&](xmp::Comm& world) {
          const auto r = static_cast<std::size_t>(world.rank());
          SpanLog& log = logs[r];
          const int run = log.open("run");
          std::unique_ptr<dpd::DpdSystem> sys;
          {
            ScopedSpan span(log, "dpd.setup");
            sys = make_system(z, seeds.dpd, true);
          }
          dpd::exchange::DistributedDpd drv(world, *sys, dist_options());
          {
            ScopedSpan span(log, "exchange.distribute");
            drv.distribute();
          }
          for (int s = 0; s < z.steps; ++s) {
            particle_steps[r] += static_cast<double>(sys->owned_count());
            {
              ScopedSpan span(log, "dpd.step");
              sys->step();
            }
            listed[r] += static_cast<double>(sys->neighbor_list().pair_count());
          }
          {
            ScopedSpan span(log, "xmp.barrier");
            world.barrier();
          }
          log.close(run);
          if (world.rank() == 0) {
            run_msgs = static_cast<double>(msgs.load());
            run_bytes = static_cast<double>(bytes.load());
          }
          world.barrier();
          // the checkpoint the restart leg loads (run 1, with the restart)
          log.set_run(1);
          ScopedSpan save(log, "checkpoint");
          resilience::CheckpointCoordinator coord(world);
          coord.add("dpd", *sys);
          coord.add("dist", drv);
          ScopedSpan span(log, "ckpt.save");
          coord.save(checkpoint_dir(z), static_cast<std::uint64_t>(z.steps), sys->time());
        },
        sink);
  });

  t.attempt("traced restart", [&] {
    run_ranks([&](xmp::Comm& world) {
      SpanLog& log = logs[static_cast<std::size_t>(world.rank())];
      ScopedSpan run(log, "restart");
      std::unique_ptr<dpd::DpdSystem> sys;
      {
        ScopedSpan span(log, "dpd.setup");
        sys = make_system(z, seeds.dpd, false);
      }
      dpd::exchange::DistributedDpd drv(world, *sys, dist_options());
      resilience::CheckpointCoordinator coord(world);
      coord.add("dpd", *sys);
      coord.add("dist", drv);
      ScopedSpan span(log, "ckpt.load");
      coord.load(checkpoint_dir(z));
    });
  });

  const auto spans = merge(logs);
  LayerReport lr;
  lr.dpd_step_s = durations(spans, "dpd.step");
  lr.dpd_steps = z.steps;
  lr.particle_steps = sum(particle_steps);
  lr.listed_pairs = sum(listed);
  double max_rank = 0.0, total = 0.0;
  for (const auto& log : logs) {
    const double s = sum(durations(log.spans(), "dpd.step"));
    max_rank = std::max(max_rank, s);
    total += s;
  }
  lr.rank_imbalance = total > 0 ? max_rank / (total / kRanks) : 0.0;
  lr.xmp_msgs = run_msgs;
  lr.xmp_bytes = run_bytes;
  // spans of the two ranks overlap in time: the traced wall is one rank's
  // root, shares are of the summed rank time
  const SpanSplit run0 = split(spans, 0);
  const SpanSplit all = split(spans);
  const double wall = run0.root_s / kRanks;
  lr.variant_s = {wall};
  lr.unattributed_share = all.root_s > 0 ? all.unattributed_s / all.root_s : 0.0;
  lr.overhead_ratio = run_s > 0 ? (wall - run_s) / run_s : 0.0;
  lr.dpd_share = run0.root_s > 0 ? run0.layer_s("dpd") / run0.root_s : 0.0;
  emit_layers(lr, m);
  write_trace(o, spans, m);
}

}  // namespace

void run_dpd_dist(const Options& o, Metrics& m, Tally& t) {
  const Size z = size_of(o);
  if (o.trace) {
    trace_dist(o, z, m, t);
    return;
  }

  const Seeds seeds = derive_seeds(o.seed);
  std::uint64_t digest = 0;
  time_legs(
      o, m, t, [&] { return timed_run(o, z, t, digest); },
      [&] {
        const auto t0 = Clock::now();
        run_ranks([&](xmp::Comm& world) {
          auto sys = make_system(z, seeds.dpd, true);
          dpd::exchange::DistributedDpd drv(world, *sys, dist_options());
          drv.distribute();
        });
        return seconds_since(t0);
      },
      [&] {
        std::uint64_t step = 0;
        const auto t0 = Clock::now();
        run_ranks([&](xmp::Comm& world) {
          auto sys = make_system(z, seeds.dpd, false);
          dpd::exchange::DistributedDpd drv(world, *sys, dist_options());
          resilience::CheckpointCoordinator coord(world);
          coord.add("dpd", *sys);
          coord.add("dist", drv);
          const auto info = coord.load(checkpoint_dir(z));
          if (world.rank() == 0) step = info.step;
        });
        const double s = seconds_since(t0);
        if (step != static_cast<std::uint64_t>(z.steps))
          t.expect(false, "restart loaded the wrong step");
        return s;
      });
  print_digest(digest);

  // N ranks equal one rank, bitwise (not timed)
  t.attempt("rank equivalence check", [&] {
    auto single = make_system(z, seeds.dpd, true);
    for (int s = 0; s < z.check_steps; ++s) single->step();
    const std::uint64_t ref = dpd::exchange::trajectory_digest(*single);
    std::uint64_t dist = 0;
    run_ranks([&](xmp::Comm& world) {
      auto sys = make_system(z, seeds.dpd, true);
      dpd::exchange::DistributedDpd drv(world, *sys, dist_options());
      drv.distribute();
      for (int s = 0; s < z.check_steps; ++s) sys->step();
      const std::uint64_t d = drv.global_digest();
      if (world.rank() == 0) dist = d;
    });
    t.expect(dist == ref, std::to_string(kRanks) + "-rank digest after " +
                              std::to_string(z.check_steps) +
                              " steps equals the single-rank digest");
  });
}

}  // namespace e2e
