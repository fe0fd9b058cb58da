// Scenario workloads: cdc2d_ckpt and cdc3d_sem drive one coupled scenario
// through scenario::Runner::run(); sweep_warm drives a warm-started serial
// sweep through scenario::EnsembleEngine::run(). Traced runs of the coupled
// workloads rebuild Runner's solver stack from its public constructors and
// put a span around every call Runner::run_coupled makes, so the split is
// taken at layer boundaries without touching src/.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "coupling/cdc.hpp"
#include "coupling/cdc3d.hpp"
#include "dpd/geometry.hpp"
#include "mesh/quadmesh.hpp"
#include "resilience/blob.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/snapshot.hpp"
#include "scenario/ensemble.hpp"
#include "scenario/runner.hpp"
#include "telemetry/registry.hpp"

namespace e2e {

namespace {

/// Interval of the last checkpoint Runner writes (it skips the final
/// interval), or 0 when the scenario writes none.
std::int64_t last_checkpoint(const scenario::Scenario& sc) {
  const std::int64_t every = sc.checkpoint.every, n = sc.time.intervals;
  return every > 0 && n > every ? (n - 1) / every * every : 0;
}

std::string step_dir(const std::string& dir, std::int64_t step) {
  return dir + "/step-" + std::to_string(step);
}

/// The same scenario with nothing to step: what the set-up legs build.
scenario::Scenario nothing_to_step(scenario::Scenario sc) {
  sc.time.develop_steps = 0;
  sc.time.intervals = 0;
  sc.checkpoint.every = 0;
  return sc;
}

/// Time one Runner::run() that resumes a checkpoint with nothing left to run.
double timed_resume(scenario::Runner& runner, Tally& t) {
  const auto t0 = Clock::now();
  const auto res = runner.run();
  const double s = seconds_since(t0);
  if (!res.restarted || res.intervals_run != 0) t.expect(false, "restart resumed nothing");
  return s;
}

/// Mean |u_DPD - u_NS| over the sampler bins away from the walls, in DPD
/// units: the interface-continuity diagnostic of the couplers, computed
/// from Runner's public accessors. Consumes the sampler window.
double interface_mismatch(scenario::Runner& r, const scenario::Scenario& sc) {
  dpd::FieldSampler& smp = r.sampler();
  const auto snap = smp.snapshot();
  const dpd::Vec3 box = r.dpd().params().box;
  const auto& rg = sc.coupling.region;
  const double eps = 1e-9;
  double acc = 0.0;
  std::size_t cnt = 0;
  for (std::size_t b = 0; b < snap.size(); ++b) {
    const dpd::Vec3 c = smp.bin_center(b);
    if (r.dpd().geometry().sdf(c) < 1.0) continue;
    double u_ns = 0.0;
    if (sc.kind == "cdc3d") {
      const double x = rg[0] + c.x / box.x * (rg[1] - rg[0]);
      const double y = rg[2] + c.y / box.y * (rg[3] - rg[2]);
      const double z = rg[4] + c.z / box.z * (rg[5] - rg[4]);
      u_ns = r.eval_u(std::clamp(x, eps, sc.mesh3d.lx - eps),
                      std::clamp(y, eps, sc.mesh3d.ly - eps),
                      std::clamp(z, eps, sc.mesh3d.lz - eps));
    } else {
      const double x = rg[0] + c.x / box.x * (rg[1] - rg[0]);
      const double y = rg[2] + c.z / box.z * (rg[3] - rg[2]);
      u_ns = r.eval_u(std::clamp(x, eps, sc.mesh.length - eps),
                      std::clamp(y, eps, sc.mesh.height - eps));
    }
    acc += std::fabs(snap[b] - r.scales().velocity_ns_to_dpd(u_ns));
    ++cnt;
  }
  return cnt ? acc / static_cast<double>(cnt) : std::nan("");
}

/// Physics checks on a finished coupled run. The mismatch bound, half the
/// peak inlet velocity, is loose on purpose: it flags a blown-up run or a
/// DPD box left at rest (mismatch near 2/3 of the peak), not a reordering
/// of floating-point work.
void check_physics(scenario::Runner& r, const scenario::Scenario& sc, Tally& t) {
  const dpd::DpdSystem& d = r.dpd();
  std::vector<dpd::Vec3> pos, vel;
  for (std::size_t i = 0; i < d.size(); ++i)
    if (!d.is_ghost(i) && !d.frozen()[i]) {
      pos.push_back(d.positions()[i]);
      vel.push_back(d.velocities()[i]);
    }
  const double kbt = sc.dpd.kBT;
  const double temp = peculiar_temperature(pos, vel, d.params().box);
  char buf[160];
  std::snprintf(buf, sizeof buf, "dpd temperature %.4f within 10%% of kBT %.4g", temp, kbt);
  t.expect(std::fabs(temp - kbt) <= 0.1 * kbt, buf);
  t.expect(all_finite(pos) && all_finite(vel), "final DPD state is finite");
  const double u_ref = r.scales().velocity_ns_to_dpd(sc.sem.inlet_umax);
  const double mismatch = interface_mismatch(r, sc);
  std::snprintf(buf, sizeof buf, "interface mismatch %.4f below %.4f (DPD units)", mismatch,
                0.5 * u_ref);
  t.expect(std::isfinite(mismatch) && mismatch < 0.5 * u_ref, buf);
}

/// Bytes the state comparison covers: continuum field, DPD, FlowBc and
/// sampler blobs.
std::vector<std::uint8_t> runner_state(scenario::Runner& r) {
  const auto warm = r.warm_state();  // {signature, continuum state, projector}
  resilience::BlobReader br(warm);
  br.str();
  const auto continuum = br.vec<std::uint8_t>();
  resilience::BlobWriter w;
  w.bytes(continuum.data(), continuum.size());
  r.dpd().save_state(w);
  r.flow_bc().save_state(w);
  r.sampler().save_state(w);
  return w.take();
}

/// The solver stack of Runner::run_coupled, assembled from the same public
/// constructors with the same parameters in the same order, so its
/// trajectory is bitwise the Runner's (checked on every traced run).
struct Replica {
  std::shared_ptr<const sem::Discretization> disc;
  std::shared_ptr<const sem::Discretization3D> disc3;
  std::unique_ptr<sem::NavierStokes2D> ns2;
  std::unique_ptr<sem::NavierStokes3D> ns3;
  std::unique_ptr<dpd::DpdSystem> dpd;
  std::unique_ptr<dpd::FlowBc> bc;
  std::unique_ptr<coupling::ContinuumDpdCoupler> cdc;
  std::unique_ptr<coupling::ContinuumDpdCoupler3D> cdc3;
  std::unique_ptr<dpd::FieldSampler> sampler;
  std::unique_ptr<resilience::CheckpointCoordinator> coord;

  std::size_t ns_step() { return ns2 ? ns2->step() : ns3->step(); }
  double ns_time() const { return ns2 ? ns2->time() : ns3->time(); }
  std::size_t sem_nodes() const { return disc ? disc->num_nodes() : disc3->num_nodes(); }
  dpd::Vec3 velocity_at(const dpd::Vec3& p) const {
    return cdc ? cdc->continuum_velocity_at(p) : cdc3->continuum_velocity_at(p);
  }
  std::vector<std::uint8_t> state() const {
    resilience::BlobWriter w;
    if (ns2)
      ns2->save_state(w);
    else
      ns3->save_state(w);
    dpd->save_state(w);
    bc->save_state(w);
    sampler->save_state(w);
    return w.take();
  }
};

void build_continuum(Replica& rp, const scenario::Scenario& sc, SpanLog& log) {
  ScopedSpan span(log, "sem.setup");
  if (sc.kind == "cdc3d") {
    const auto& m = sc.mesh3d;
    rp.disc3 = std::make_shared<const sem::Discretization3D>(
        m.lx, m.ly, m.lz, static_cast<int>(m.nx), static_cast<int>(m.ny),
        static_cast<int>(m.nz), static_cast<int>(m.order));
    sem::NavierStokes3D::Params prm;
    prm.nu = sc.sem.nu;
    prm.dt = sc.sem.dt;
    prm.time_order = static_cast<int>(sc.sem.time_order);
    prm.pressure_dirichlet_faces = {sem::HexFace::X1};
    rp.ns3 = std::make_unique<sem::NavierStokes3D>(*rp.disc3, prm);
    const double H = m.lz;
    const double Umax = sc.sem.inlet_umax;
    auto prof = [H, Umax](double, double, double z, double) {
      return 4.0 * Umax * z * (H - z) / (H * H);
    };
    auto zero = [](double, double, double, double) { return 0.0; };
    rp.ns3->set_velocity_bc(sem::HexFace::X0, prof, zero, zero);
    rp.ns3->set_velocity_bc(sem::HexFace::Y0, prof, zero, zero);
    rp.ns3->set_velocity_bc(sem::HexFace::Y1, prof, zero, zero);
    rp.ns3->set_natural_bc(sem::HexFace::X1);
  } else {
    const auto& m = sc.mesh;
    auto mesh = mesh::QuadMesh::channel(m.length, m.height, static_cast<int>(m.nx),
                                        static_cast<int>(m.ny));
    rp.disc = std::make_shared<const sem::Discretization>(mesh, static_cast<int>(m.order));
    sem::NavierStokes2D::Params prm;
    prm.nu = sc.sem.nu;
    prm.dt = sc.sem.dt;
    prm.time_order = static_cast<int>(sc.sem.time_order);
    rp.ns2 = std::make_unique<sem::NavierStokes2D>(*rp.disc, prm);
    const double H = m.height;
    const double Umax = sc.sem.inlet_umax;
    rp.ns2->set_velocity_bc(
        mesh::kInlet,
        [H, Umax](double, double y, double) { return 4.0 * Umax * y * (H - y) / (H * H); },
        [](double, double, double) { return 0.0; });
    rp.ns2->set_natural_bc(mesh::kOutlet);
  }
}

void build_atomistic(Replica& rp, const scenario::Scenario& sc, SpanLog& log, bool fill) {
  {
    ScopedSpan span(log, "dpd.setup");
    dpd::DpdParams dp;
    dp.box = {sc.dpd.box[0], sc.dpd.box[1], sc.dpd.box[2]};
    dp.periodic = sc.dpd.periodic;
    dp.rc = sc.dpd.rc;
    dp.kBT = sc.dpd.kBT;
    dp.dt = sc.dpd.dt;
    std::shared_ptr<dpd::Geometry> geom;
    if (sc.dpd.geometry.kind == "channel_z")
      geom = std::make_shared<dpd::ChannelZ>(sc.dpd.geometry.height);
    else
      geom = std::make_shared<dpd::NoWalls>();
    rp.dpd = std::make_unique<dpd::DpdSystem>(dp, geom);
    if (fill)
      rp.dpd->fill(sc.dpd.density, dpd::kSolvent, static_cast<unsigned>(sc.dpd.seed),
                   sc.dpd.fill_margin);
  }
  {
    ScopedSpan span(log, "flowbc.setup");
    dpd::FlowBcParams fp;
    fp.axis = static_cast<int>(sc.flow_bc.axis);
    fp.buffer_len = sc.flow_bc.buffer_len;
    fp.density = sc.flow_bc.density;
    fp.relax = sc.flow_bc.relax;
    fp.seed = static_cast<unsigned>(sc.flow_bc.seed);
    rp.bc = std::make_unique<dpd::FlowBc>(fp);
  }
  {
    ScopedSpan span(log, "coupling.setup");
    coupling::ScaleMap scales;
    scales.L_ns = sc.coupling.scales.L_ns;
    scales.L_dpd = sc.coupling.scales.L_dpd;
    scales.nu_ns = sc.coupling.scales.nu_ns;
    scales.nu_dpd = sc.coupling.scales.nu_dpd;
    coupling::TimeProgression tp;
    tp.dt_ns = sc.sem.dt;
    tp.exchange_every_ns = static_cast<int>(sc.coupling.exchange_every_ns);
    tp.dpd_per_ns = static_cast<int>(sc.coupling.dpd_per_ns);
    const auto& rg = sc.coupling.region;
    if (rp.ns3) {
      const coupling::EmbeddedBox box{rg[0], rg[1], rg[2], rg[3], rg[4], rg[5]};
      rp.cdc3 = std::make_unique<coupling::ContinuumDpdCoupler3D>(*rp.ns3, *rp.dpd, *rp.bc, box,
                                                                 scales, tp);
    } else {
      const coupling::EmbeddedRegion region{rg[0], rg[1], rg[2], rg[3]};
      rp.cdc = std::make_unique<coupling::ContinuumDpdCoupler>(*rp.ns2, *rp.dpd, *rp.bc, region,
                                                               scales, tp);
    }
  }
  {
    ScopedSpan span(log, "sampler.setup");
    dpd::SamplerParams sp;
    sp.nx = static_cast<int>(sc.sampler.nx);
    sp.ny = static_cast<int>(sc.sampler.ny);
    sp.nz = static_cast<int>(sc.sampler.nz);
    rp.sampler = std::make_unique<dpd::FieldSampler>(*rp.dpd, sp);
  }
  {
    ScopedSpan span(log, "ckpt.setup");
    rp.coord = std::make_unique<resilience::CheckpointCoordinator>();
    if (rp.ns3)
      rp.coord->add("ns3d", *rp.ns3);
    else
      rp.coord->add("ns2d", *rp.ns2);
    rp.coord->add("dpd", *rp.dpd);
    rp.coord->add("flowbc", *rp.bc);
    if (rp.cdc3)
      rp.coord->add("cdc3d", *rp.cdc3);
    else
      rp.coord->add("cdc", *rp.cdc);
    rp.coord->add("sampler", *rp.sampler);
  }
}

/// Runner::run_coupled's schedule with a span around every call (the Fig. 5
/// interval is ContinuumDpdCoupler::advance_interval, unrolled here).
/// Returns the final continuum+DPD state and fills the DPD counts.
std::vector<std::uint8_t> drive_replica(const scenario::Scenario& sc, SpanLog& log,
                                        const std::string& ckpt_dir, LayerReport& lr,
                                        Replica& rp) {
  ScopedSpan run(log, "run");
  build_continuum(rp, sc, log);
  {
    ScopedSpan develop(log, "develop");
    for (std::int64_t s = 0; s < sc.time.develop_steps; ++s) {
      ScopedSpan span(log, "sem.step");
      rp.ns_step();
    }
    lr.develop_steps = static_cast<double>(sc.time.develop_steps);
  }
  build_atomistic(rp, sc, log, /*fill=*/true);
  auto field = [&rp](const dpd::Vec3& p) { return rp.velocity_at(p); };
  const std::int64_t n = sc.time.intervals;
  for (std::int64_t interval = 0; interval < n; ++interval) {
    ScopedSpan iv(log, "interval");
    {
      ScopedSpan span(log, "flowbc.set_target");
      rp.bc->set_target_velocity(field);
    }
    for (std::int64_t s = 0; s < sc.coupling.exchange_every_ns; ++s) {
      {
        ScopedSpan span(log, "sem.step");
        rp.ns_step();
      }
      for (std::int64_t q = 0; q < sc.coupling.dpd_per_ns; ++q) {
        lr.particle_steps += static_cast<double>(rp.dpd->size());
        {
          ScopedSpan span(log, "dpd.step");
          rp.dpd->step();
        }
        lr.listed_pairs += static_cast<double>(rp.dpd->neighbor_list().pair_count());
        {
          ScopedSpan span(log, "flowbc.apply");
          rp.bc->apply(*rp.dpd);
        }
        if (interval >= sc.time.sample_from) {
          ScopedSpan span(log, "sampler.accumulate");
          rp.sampler->accumulate(*rp.dpd);
        }
      }
    }
    const std::int64_t every = sc.checkpoint.every;
    if (every > 0 && (interval + 1) % every == 0 && interval + 1 < n) {
      ScopedSpan span(log, "ckpt.save");
      rp.coord->save(step_dir(ckpt_dir, interval + 1), static_cast<std::uint64_t>(interval + 1),
                     rp.ns_time());
    }
  }
  return rp.state();
}

void trace_coupled(const Options& o, const scenario::Scenario& sc, Metrics& m, Tally& t) {
  if (sc.time.develop_tol > 0.0)
    throw scenario::JsonError(
        "$.time.develop_tol: the traced replica mirrors a fixed-length develop phase (use 0)");
  const std::string ckpt_dir = "trace-" + sc.checkpoint.dir;

  // the untraced Runner run: the reference state, and the time the tracing
  // overhead is measured against
  double run_s = 0.0;
  std::vector<std::uint8_t> reference;
  t.attempt("run", [&] {
    telemetry::Registry::reset_all();
    scenario::Runner runner(sc);
    const auto t0 = Clock::now();
    const auto res = runner.run();
    run_s = seconds_since(t0);
    print_digest(res.digest);
    reference = runner_state(runner);
    check_physics(runner, sc, t);
  });

  telemetry::Registry::reset_all();
  SpanLog log;
  LayerReport lr;
  t.attempt("traced replica", [&] {
    Replica rp;
    const auto state = drive_replica(sc, log, ckpt_dir, lr, rp);
    t.expect(!reference.empty() && state == reference,
             "traced replica state is bitwise equal to the Runner state");
    lr.sem_nodes = static_cast<double>(rp.sem_nodes());
    lr.flowbc_inserted = static_cast<double>(rp.bc->inserted_total());
    lr.flowbc_deleted = static_cast<double>(rp.bc->deleted_total());
  });

  // restart leg: the same stack built for a restart, then the load
  const std::int64_t last = last_checkpoint(sc);
  log.set_run(1);
  t.attempt("traced restart", [&] {
    ScopedSpan run(log, "restart");
    Replica rp;
    build_continuum(rp, sc, log);
    build_atomistic(rp, sc, log, /*fill=*/false);
    ScopedSpan span(log, "ckpt.load");
    const auto info = rp.coord->load(step_dir(ckpt_dir, last));
    t.expect(static_cast<std::int64_t>(info.step) == last, "restart loads the last checkpoint");
  });

  const auto& spans = log.spans();
  const SpanSplit run0 = split(spans, 0);
  const SpanSplit all = split(spans);
  lr.interval_s = durations(spans, "interval");
  lr.sem_step_s = durations(spans, "sem.step");
  lr.dpd_step_s = durations(spans, "dpd.step");
  lr.dpd_steps = static_cast<double>(lr.dpd_step_s.size());
  lr.flowbc_apply_s = sum(durations(spans, "flowbc.apply"));
  lr.sampler_s = sum(durations(spans, "sampler.accumulate"));
  lr.variant_s = {run0.root_s};
  lr.unattributed_share = all.root_s > 0 ? all.unattributed_s / all.root_s : 0.0;
  lr.overhead_ratio = run_s > 0 ? (run0.root_s - run_s) / run_s : 0.0;
  lr.sem_share = run0.root_s > 0 ? run0.layer_s("sem") / run0.root_s : 0.0;
  lr.dpd_share = run0.root_s > 0 ? run0.layer_s("dpd") / run0.root_s : 0.0;
  emit_layers(lr, m);
  write_trace(o, spans, m);
}

}  // namespace

void run_coupled(const Options& o, Metrics& m, Tally& t) {
  const scenario::Scenario sc = load_workload_scenario(o, o.workload);
  if (o.trace) {
    trace_coupled(o, sc, m, t);
    return;
  }

  const std::int64_t last = last_checkpoint(sc);
  const std::string last_dir = step_dir(sc.checkpoint.dir, last);
  const scenario::Scenario bare = nothing_to_step(sc);
  std::uint32_t digest = 0;
  time_legs(
      o, m, t,
      [&] {
        scenario::Runner runner(sc);
        const auto t0 = Clock::now();
        const auto res = runner.run();
        const double s = seconds_since(t0);
        digest = res.digest;
        check_physics(runner, sc, t);
        return s;
      },
      [&] {
        scenario::Runner runner(bare);
        const auto t0 = Clock::now();
        runner.run();
        return seconds_since(t0);
      },
      [&] {
        scenario::RunnerOptions ro;
        ro.restart_dir = last_dir;
        ro.intervals = last;
        scenario::Runner runner(sc, ro);
        return timed_resume(runner, t);
      });
  print_digest(digest);

  // Restart equivalence (the 2D run only: in 3D the resumed tail would cost
  // half the run again). Not timed.
  if (o.workload == "cdc2d_ckpt")
    t.attempt("restart check", [&] {
      scenario::RunnerOptions ro;
      ro.restart_dir = last_dir;
      const auto res = scenario::Runner(sc, ro).run();
      t.expect(res.digest == digest, "resumed from step-" + std::to_string(last) +
                                         ": digest equals the uninterrupted run");
    });
}

void run_sweep(const Options& o, Metrics& m, Tally& t) {
  const scenario::Scenario sc = load_workload_scenario(o, o.workload);
  scenario::SweepSpec sweep =
      scenario::load_sweep_file(o.templates + "/" + o.workload + ".sweep.json");
  if (o.smoke)
    for (auto& ax : sweep.axes)
      if (ax.values.size() > 2) ax.values.resize(2);
  scenario::EnsembleOptions eo;
  eo.pool = 0;  // serial: donor order, and hence every CG count, is fixed
  eo.warm = scenario::WarmMode::State;
  const scenario::Json base = scenario::serialize_scenario(sc);
  const auto variants = scenario::EnsembleEngine::expand(base, sweep);

  auto check = [&](const scenario::EnsembleReport& rep) {
    t.expect(rep.completed == variants.size() && rep.failed == 0,
             std::to_string(rep.completed) + "/" + std::to_string(variants.size()) +
                 " variants ok");
    const auto cap = static_cast<std::uint64_t>(sc.time.develop_steps);
    bool on_tol = true;
    for (const auto& v : rep.variants) on_tol = on_tol && v.ok && v.develop_steps < cap;
    t.expect(on_tol, "every develop phase stopped on its tolerance, not the step cap");
  };
  auto sweep_digest = [](const scenario::EnsembleReport& rep) {
    resilience::BlobWriter w;
    for (const auto& v : rep.variants) w.pod(v.digest);
    return resilience::crc32(w.data());
  };

  // Every variant checkpoints into the same directory; the last variant's
  // files are the ones left to resume from.
  const scenario::Scenario last_variant = scenario::parse_scenario(variants.back().doc);
  scenario::RunnerOptions resume;
  resume.restart_dir = step_dir(sc.checkpoint.dir, last_checkpoint(sc));
  resume.intervals = last_checkpoint(sc);

  if (o.trace) {
    double run_s = 0.0;
    t.attempt("run", [&] {
      telemetry::Registry::reset_all();
      const auto t0 = Clock::now();
      const auto rep = scenario::EnsembleEngine(base, sweep, eo).run();
      run_s = seconds_since(t0);
      check(rep);
    });
    telemetry::Registry::reset_all();
    telemetry::Registry::local().set_timeline_enabled(true);
    SpanLog log;
    LayerReport lr;
    t.attempt("traced run", [&] {
      scenario::EnsembleReport rep;
      {
        ScopedSpan run(log, "run");
        ScopedSpan span(log, "scenario.ensemble");
        rep = scenario::EnsembleEngine(base, sweep, eo).run();
      }
      check(rep);
      print_digest(sweep_digest(rep));
      // the first variant always misses, so the sum is never 0
      lr.table_hit_ratio = static_cast<double>(rep.shared_hits) /
                           static_cast<double>(rep.shared_hits + rep.shared_misses);
      lr.develop_steps = static_cast<double>(rep.develop_total);
      for (const auto& v : rep.variants) lr.variant_s.push_back(v.seconds);
    });
    log.set_run(1);
    t.attempt("traced restart", [&] {
      ScopedSpan run(log, "restart");
      ScopedSpan span(log, "scenario.resume");
      scenario::Runner runner(last_variant, resume);
      runner.run();
      lr.sem_nodes = static_cast<double>(runner.sem_nodes());
    });
    telemetry::Registry::local().set_timeline_enabled(false);
    // no spans inside the engine: SEM and DPD steps come from the
    // program's own phases (per-instance durations from the timeline)
    lr.sem_step_s = timeline_durations("ns2d.step");
    lr.dpd_step_s = timeline_durations("dpd.step");
    lr.dpd_steps = static_cast<double>(lr.dpd_step_s.size());
    const SpanSplit run0 = split(log.spans(), 0);
    const SpanSplit all = split(log.spans());
    lr.unattributed_share = all.root_s > 0 ? all.unattributed_s / all.root_s : 0.0;
    lr.overhead_ratio = run_s > 0 ? (run0.root_s - run_s) / run_s : 0.0;
    lr.sem_share = run0.root_s > 0 ? sum(lr.sem_step_s) / run0.root_s : 0.0;
    lr.dpd_share = run0.root_s > 0 ? sum(lr.dpd_step_s) / run0.root_s : 0.0;
    emit_layers(lr, m);
    write_trace(o, log.spans(), m);
    return;
  }

  // set-up: every variant's stack (shared tables, warm-start transfer) with
  // nothing to step
  const scenario::Json bare = scenario::serialize_scenario(nothing_to_step(sc));
  std::uint32_t digest = 0;
  time_legs(
      o, m, t,
      [&] {
        const auto t0 = Clock::now();
        const auto rep = scenario::EnsembleEngine(base, sweep, eo).run();
        const double s = seconds_since(t0);
        check(rep);
        digest = sweep_digest(rep);
        return s;
      },
      [&] {
        const auto t0 = Clock::now();
        const auto rep = scenario::EnsembleEngine(bare, sweep, eo).run();
        const double s = seconds_since(t0);
        if (rep.failed != 0) t.expect(false, "set-up sweep had failed variants");
        return s;
      },
      [&] {
        scenario::Runner runner(last_variant, resume);
        return timed_resume(runner, t);
      });
  print_digest(digest);
}

}  // namespace e2e
