#include "scenario/runner.hpp"

#include <cmath>
#include <cstdio>

#include "dpd/geometry.hpp"
#include "mesh/quadmesh.hpp"
#include "resilience/blob.hpp"
#include "resilience/snapshot.hpp"

namespace scenario {

namespace {

std::string mesh_signature(const MeshSpec& m) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "quad|L=%.17g|H=%.17g|nx=%lld|ny=%lld|P=%lld", m.length,
                m.height, static_cast<long long>(m.nx), static_cast<long long>(m.ny),
                static_cast<long long>(m.order));
  return buf;
}

std::string mesh_signature(const Mesh3dSpec& m) {
  char buf[200];
  std::snprintf(buf, sizeof buf, "hex|Lx=%.17g|Ly=%.17g|Lz=%.17g|nx=%lld|ny=%lld|nz=%lld|P=%lld",
                m.lx, m.ly, m.lz, static_cast<long long>(m.nx), static_cast<long long>(m.ny),
                static_cast<long long>(m.nz), static_cast<long long>(m.order));
  return buf;
}

std::shared_ptr<const sem::Discretization> make_disc(const MeshSpec& m) {
  auto mesh = mesh::QuadMesh::channel(m.length, m.height, static_cast<int>(m.nx),
                                      static_cast<int>(m.ny));
  return std::make_shared<const sem::Discretization>(mesh, static_cast<int>(m.order));
}

std::shared_ptr<const sem::Discretization3D> make_disc(const Mesh3dSpec& m) {
  return std::make_shared<const sem::Discretization3D>(
      m.lx, m.ly, m.lz, static_cast<int>(m.nx), static_cast<int>(m.ny), static_cast<int>(m.nz),
      static_cast<int>(m.order));
}

// What a coupled run builds differently per dimension: the discretization,
// the inlet BCs (same expression trees as the hand-written examples, for
// digest equality) and the region the DPD box covers.
template <class NS>
struct Dim;

template <>
struct Dim<sem::NavierStokes<sem::Discretization>> {
  static constexpr const char* kDevelopLine =
      "continuum: %zu SEM nodes, developing the flow...\n";
  static auto disc(const Scenario& sc, SharedTables* tables) {
    return tables ? tables->quad(sc.mesh) : make_disc(sc.mesh);
  }
  static void set_inlet(sem::NavierStokes<sem::Discretization>& ns, const Scenario& sc) {
    const double H = sc.mesh.height;
    const double Umax = sc.sem.inlet_umax;
    ns.set_velocity_bc(
        mesh::kInlet,
        [H, Umax](double, double y, double) { return 4.0 * Umax * y * (H - y) / (H * H); },
        [](double, double, double) { return 0.0; });
    ns.set_natural_bc(mesh::kOutlet);
  }
  static coupling::EmbeddedRegion region(const std::vector<double>& rg) {
    return {rg[0], rg[1], rg[2], rg[3]};
  }
};

template <>
struct Dim<sem::NavierStokes<sem::Discretization3D>> {
  static constexpr const char* kDevelopLine =
      "continuum: %zu hexahedral SEM nodes, developing...\n";
  static auto disc(const Scenario& sc, SharedTables* tables) {
    return tables ? tables->hex(sc.mesh3d) : make_disc(sc.mesh3d);
  }
  static void set_inlet(sem::NavierStokes<sem::Discretization3D>& ns, const Scenario& sc) {
    const double H = sc.mesh3d.lz;
    const double Umax = sc.sem.inlet_umax;
    auto prof = [H, Umax](double, double, double z, double) {
      return 4.0 * Umax * z * (H - z) / (H * H);
    };
    auto zero = [](double, double, double, double) { return 0.0; };
    ns.set_velocity_bc(sem::HexFace::X0, prof, zero, zero);
    ns.set_velocity_bc(sem::HexFace::Y0, prof, zero, zero);
    ns.set_velocity_bc(sem::HexFace::Y1, prof, zero, zero);
    ns.set_natural_bc(sem::HexFace::X1);
  }
  static coupling::EmbeddedBox region(const std::vector<double>& rg) {
    return {rg[0], rg[1], rg[2], rg[3], rg[4], rg[5]};
  }
};

}  // namespace

std::shared_ptr<const sem::Discretization> SharedTables::quad(const MeshSpec& m) {
  const std::string key = mesh_signature(m);
  for (const auto& [k, d] : quad_)
    if (k == key) {
      ++hits_;
      return d;
    }
  ++misses_;
  auto d = make_disc(m);
  quad_.emplace_back(key, d);
  return d;
}

std::shared_ptr<const sem::Discretization3D> SharedTables::hex(const Mesh3dSpec& m) {
  const std::string key = mesh_signature(m);
  for (const auto& [k, d] : hex_)
    if (k == key) {
      ++hits_;
      return d;
    }
  ++misses_;
  auto d = make_disc(m);
  hex_.emplace_back(key, d);
  return d;
}

Runner::Runner(Scenario sc, RunnerOptions opts, SharedTables* tables)
    : sc_(std::move(sc)), opts_(std::move(opts)), tables_(tables) {
  validate_scenario(sc_);
}

Runner::~Runner() = default;

std::int64_t Runner::intervals() const {
  return opts_.intervals >= 0 ? opts_.intervals : sc_.time.intervals;
}

std::int64_t Runner::checkpoint_every() const {
  return opts_.checkpoint_every >= 0 ? opts_.checkpoint_every : sc_.checkpoint.every;
}

std::string Runner::checkpoint_dir() const {
  return opts_.checkpoint_dir.empty() ? sc_.checkpoint.dir : opts_.checkpoint_dir;
}

std::string Runner::warm_signature() const {
  if (sc_.kind == "net1d") return "net1d";
  char buf[120];
  std::snprintf(buf, sizeof buf, "|nu=%.17g|dt=%.17g|to=%lld", sc_.sem.nu, sc_.sem.dt,
                static_cast<long long>(sc_.sem.time_order));
  return (sc_.kind == "cdc" ? mesh_signature(sc_.mesh) : mesh_signature(sc_.mesh3d)) + buf;
}

void Runner::set_warm_start(WarmMode mode, std::vector<std::uint8_t> blob) {
  warm_mode_ = mode;
  warm_blob_ = std::move(blob);
}

template <class NS>
void Runner::apply_warm_start(NS& ns) {
  warm_applied_ = false;
  if (warm_mode_ == WarmMode::Off || warm_blob_.empty()) return;
  resilience::BlobReader r(warm_blob_);
  if (r.str() != warm_signature()) return;  // incompatible donor: ignore
  const auto state = r.vec<std::uint8_t>();
  r.expect_end();
  resilience::BlobReader br(state);
  ns.load_state(br);
  br.expect_end();
  warm_applied_ = true;
}

std::vector<std::uint8_t> Runner::warm_state() const {
  return std::visit(
      [this](const auto& c) -> std::vector<std::uint8_t> {
        if (!c.ns) return {};
        resilience::BlobWriter w;
        w.str(warm_signature());
        resilience::BlobWriter state;
        c.ns->save_state(state);
        w.vec(state.data());
        return w.take();
      },
      continuum_);
}

template <class NS>
std::size_t Runner::develop(NS& ns) {
  const double tol = sc_.time.develop_tol;
  std::size_t cg = 0;
  typename NS::template Components<la::Vector> old;
  for (std::int64_t s = 0; s < sc_.time.develop_steps; ++s) {
    if (tol > 0.0) old = ns.velocity();
    cg += ns.step();
    ++develop_steps_;
    if (tol > 0.0) {
      double delta = 0.0;
      for (std::size_t c = 0; c < NS::kDim; ++c)
        for (std::size_t g = 0; g < old[c].size(); ++g)
          delta = std::max(delta, std::fabs(ns.velocity()[c][g] - old[c][g]));
      if (delta < tol) break;
    }
  }
  return cg;
}

std::uint32_t Runner::compute_digest() const {
  resilience::BlobWriter w;
  if (net_) {
    net_->save_state(w);
    return resilience::crc32(w.data());
  }
  std::visit(
      [&](const auto& c) {
        c.ns->save_state(w);
        dpd_->save_state(w);
        bc_->save_state(w);
        c.cdc->save_state(w);
        sampler_->save_state(w);
      },
      continuum_);
  return resilience::crc32(w.data());
}

void Runner::maybe_checkpoint(std::int64_t interval, double time) {
  const std::int64_t every = checkpoint_every();
  if (every > 0 && (interval + 1) % every == 0 && interval + 1 < intervals()) {
    const std::string dir = checkpoint_dir() + "/step-" + std::to_string(interval + 1);
    const std::size_t bytes = coord_->save(dir, static_cast<std::uint64_t>(interval + 1), time);
    if (opts_.verbose) std::printf("checkpoint: %s (%zu bytes)\n", dir.c_str(), bytes);
  }
}

RunResult Runner::run() {
  develop_steps_ = 0;
  if (sc_.kind == "net1d") return run_net1d();
  if (sc_.kind == "cdc3d") return run_coupled(continuum_.emplace<Continuum3D>());
  return run_coupled(continuum_.emplace<Continuum2D>());
}

template <class NS>
RunResult Runner::run_coupled(Continuum<NS>& c) {
  const bool restarting = !opts_.restart_dir.empty();
  RunResult res;

  // --- 1. the continuum solver -- same construction order, parameters and
  // BC expression trees as the hand-written examples (digest equality).
  c.disc = Dim<NS>::disc(sc_, tables_);
  typename NS::Params prm;
  prm.nu = sc_.sem.nu;
  prm.dt = sc_.sem.dt;
  prm.time_order = static_cast<int>(sc_.sem.time_order);
  c.ns = std::make_unique<NS>(*c.disc, prm);
  Dim<NS>::set_inlet(*c.ns, sc_);
  if (!restarting) {
    apply_warm_start(*c.ns);
    if (opts_.verbose) std::printf(Dim<NS>::kDevelopLine, sem_nodes());
    res.cg_iters += develop(*c.ns);
    res.develop_steps = develop_steps_;
  }

  // --- 2. the atomistic solver ---
  dpd::DpdParams dp;
  dp.box = {sc_.dpd.box[0], sc_.dpd.box[1], sc_.dpd.box[2]};
  dp.periodic = sc_.dpd.periodic;
  dp.rc = sc_.dpd.rc;
  dp.kBT = sc_.dpd.kBT;
  dp.dt = sc_.dpd.dt;
  std::shared_ptr<dpd::Geometry> geom;
  if (sc_.dpd.geometry.kind == "channel_z")
    geom = std::make_shared<dpd::ChannelZ>(sc_.dpd.geometry.height);
  else
    geom = std::make_shared<dpd::NoWalls>();
  dpd_ = std::make_unique<dpd::DpdSystem>(dp, geom);
  if (!restarting) {
    dpd_->fill(sc_.dpd.density, dpd::kSolvent, static_cast<unsigned>(sc_.dpd.seed),
               sc_.dpd.fill_margin);
    if (opts_.verbose) std::printf("atomistic: %zu DPD particles\n\n", dpd_->size());
  }

  dpd::FlowBcParams fp;
  fp.axis = static_cast<int>(sc_.flow_bc.axis);
  fp.buffer_len = sc_.flow_bc.buffer_len;
  fp.density = sc_.flow_bc.density;
  fp.relax = sc_.flow_bc.relax;
  fp.seed = static_cast<unsigned>(sc_.flow_bc.seed);
  bc_ = std::make_unique<dpd::FlowBc>(fp);

  // --- 3. glue: Eq. (1) scaling + Fig. 5 time progression ---
  scales_.L_ns = sc_.coupling.scales.L_ns;
  scales_.L_dpd = sc_.coupling.scales.L_dpd;
  scales_.nu_ns = sc_.coupling.scales.nu_ns;
  scales_.nu_dpd = sc_.coupling.scales.nu_dpd;
  coupling::TimeProgression tp;
  tp.dt_ns = sc_.sem.dt;
  tp.exchange_every_ns = static_cast<int>(sc_.coupling.exchange_every_ns);
  tp.dpd_per_ns = static_cast<int>(sc_.coupling.dpd_per_ns);
  c.cdc = std::make_unique<coupling::BasicContinuumDpdCoupler<NS>>(
      *c.ns, *dpd_, *bc_, Dim<NS>::region(sc_.coupling.region), scales_, tp);

  dpd::SamplerParams sp;
  sp.nx = static_cast<int>(sc_.sampler.nx);
  sp.ny = static_cast<int>(sc_.sampler.ny);
  sp.nz = static_cast<int>(sc_.sampler.nz);
  sampler_ = std::make_unique<dpd::FieldSampler>(*dpd_, sp);

  // stream names: the solver's phase prefix (ns2d, ns3d) and the scenario
  // kind (cdc, cdc3d)
  coord_ = std::make_unique<resilience::CheckpointCoordinator>();
  coord_->add(NS::Traits::kPhasePrefix, *c.ns);
  coord_->add("dpd", *dpd_);
  coord_->add("flowbc", *bc_);
  coord_->add(sc_.kind, *c.cdc);
  coord_->add("sampler", *sampler_);

  std::int64_t start_interval = 0;
  if (restarting) {
    const auto info = coord_->load(opts_.restart_dir);  // throws SnapshotError on damage
    start_interval = static_cast<std::int64_t>(info.step);
    res.restarted = true;
    res.start_interval = static_cast<int>(start_interval);
    res.t_ns = c.ns->time();
    if (opts_.verbose)
      std::printf("restarted from %s: interval %d, t_ns = %.4f, %zu DPD particles\n\n",
                  opts_.restart_dir.c_str(), res.start_interval, res.t_ns, dpd_->size());
  }

  const std::int64_t n = intervals();
  for (std::int64_t interval = start_interval; interval < n; ++interval) {
    if (opts_.fault_plan)
      opts_.fault_plan->check(opts_.fault_id, static_cast<std::uint64_t>(interval));
    auto cb = [&, interval] {
      if (interval >= sc_.time.sample_from) sampler_->accumulate(*dpd_);
    };
    res.cg_iters += c.cdc->advance_interval(cb);
    ++res.intervals_run;
    maybe_checkpoint(interval, c.ns->time());
  }

  res.develop_steps = develop_steps_;
  res.digest = compute_digest();
  return res;
}

RunResult Runner::run_net1d() {
  const bool restarting = !opts_.restart_dir.empty();
  RunResult res;

  net_ = std::make_unique<nektar1d::ArterialNetwork>();
  for (const auto& vs : sc_.network.vessels) {
    nektar1d::VesselParams p;
    p.length = vs.length;
    p.A0 = vs.A0;
    p.beta = vs.beta;
    p.rho = vs.rho;
    p.Kr = vs.Kr;
    p.elements = static_cast<std::size_t>(vs.elements);
    p.order = static_cast<int>(vs.order);
    net_->add_vessel(p);
  }
  for (const auto& in : sc_.network.inlets) {
    const double q_mean = in.q_mean, q_amp = in.q_amp, freq = in.freq;
    net_->set_inlet_flow(static_cast<int>(in.vessel), [q_mean, q_amp, freq](double t) {
      return q_mean + q_amp * std::sin(2.0 * M_PI * freq * t);
    });
  }
  for (const auto& out : sc_.network.outlets)
    net_->set_outlet_rcr(static_cast<int>(out.vessel), out.rp, out.rd, out.c);
  for (const auto& j : sc_.network.junctions) {
    std::vector<nektar1d::Attachment> atts;
    for (const auto& a : j)
      atts.push_back({static_cast<int>(a.vessel),
                      a.end == "left" ? nektar1d::End::Left : nektar1d::End::Right});
    net_->add_junction(std::move(atts));
  }
  if (opts_.verbose)
    std::printf("1D network: %zu vessels, %zu junctions\n\n", net_->num_vessels(),
                sc_.network.junctions.size());

  coord_ = std::make_unique<resilience::CheckpointCoordinator>();
  coord_->add("net1d", *net_);

  std::int64_t start_interval = 0;
  if (restarting) {
    const auto info = coord_->load(opts_.restart_dir);
    start_interval = static_cast<std::int64_t>(info.step);
    res.restarted = true;
    res.start_interval = static_cast<int>(start_interval);
    res.t_ns = net_->time();
    if (opts_.verbose)
      std::printf("restarted from %s: interval %d, t = %.4f\n\n", opts_.restart_dir.c_str(),
                  res.start_interval, res.t_ns);
  }

  const std::int64_t n = intervals();
  for (std::int64_t interval = start_interval; interval < n; ++interval) {
    if (opts_.fault_plan)
      opts_.fault_plan->check(opts_.fault_id, static_cast<std::uint64_t>(interval));
    const double dt =
        sc_.network.dt > 0.0 ? sc_.network.dt : net_->suggested_dt(sc_.network.cfl);
    for (std::int64_t k = 0; k < sc_.network.steps_per_interval; ++k) net_->step(dt);
    ++res.intervals_run;
    maybe_checkpoint(interval, net_->time());
  }

  res.digest = compute_digest();
  return res;
}

std::size_t Runner::sem_nodes() const {
  return std::visit(
      [](const auto& c) -> std::size_t { return c.disc ? c.disc->num_nodes() : 0; },
      continuum_);
}

std::size_t Runner::exchanges() const {
  return std::visit([](const auto& c) -> std::size_t { return c.cdc ? c.cdc->exchanges() : 0; },
                    continuum_);
}

double Runner::eval_u(double x, double y) const {
  const auto& c = std::get<Continuum2D>(continuum_);
  return sem::evaluate(*c.disc, {x, y}, c.ns->u());
}

double Runner::eval_u(double x, double y, double z) const {
  const auto& c = std::get<Continuum3D>(continuum_);
  return sem::evaluate(*c.disc, {x, y, z}, c.ns->u());
}

}  // namespace scenario
