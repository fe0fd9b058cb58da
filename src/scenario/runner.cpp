#include "scenario/runner.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "dpd/geometry.hpp"
#include "mesh/quadmesh.hpp"
#include "resilience/blob.hpp"
#include "resilience/snapshot.hpp"

namespace scenario {

namespace {

std::shared_ptr<const sem::Discretization> make_disc(const MeshSpec& m) {
  const auto& c = m.cavity;
  auto mesh = c.empty() ? mesh::QuadMesh::channel(m.length, m.height, m.nx, m.ny)
                        : mesh::QuadMesh::channel_with_cavity(m.length, m.height, c[0], c[1],
                                                              c[2], m.nx, m.ny);
  return std::make_shared<const sem::Discretization>(mesh, m.order);
}

std::shared_ptr<const sem::Discretization3D> make_disc(const Mesh3dSpec& m) {
  return std::make_shared<const sem::Discretization3D>(m.lx, m.ly, m.lz, m.nx, m.ny, m.nz,
                                                       m.order);
}

// Every platelet run seeds with this seed and arrests below this speed.
constexpr unsigned kPlateletSeed = 5;
constexpr double kPlateletBindSpeed = 1.2;

/// The pulsatile inflow factor; every pulsatile run has the period 0.8 (NS
/// time units). At a = 0 it is exactly 1, so a steady inlet keeps its bits.
double pulse(double a, double t) { return 1.0 + a * std::sin(2.0 * M_PI * t / 0.8); }

// What a coupled run builds differently per dimension: the discretization,
// the inlet BCs (the steady profile times the pulse factor, in the
// expression tree the hand-written stacks used) and the region the DPD box
// covers.
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
    const double a = sc.sem.inlet_pulse;
    ns.set_velocity_bc(
        mesh::kInlet,
        [H, Umax, a](double, double y, double t) {
          return 4.0 * Umax * y * (H - y) / (H * H) * pulse(a, t);
        },
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
    const double a = sc.sem.inlet_pulse;
    auto prof = [H, Umax, a](double, double, double z, double t) {
      return 4.0 * Umax * z * (H - z) / (H * H) * pulse(a, t);
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

// A kind-specific accessor called on a run that did not build its part.
[[noreturn]] void missing(const char* accessor, const std::string& kind) {
  throw std::logic_error(std::string("scenario::Runner::") + accessor +
                         ": not built by this run (scenario kind \"" + kind + "\")");
}

template <class Ptr>
auto& built(const Ptr& part, const char* accessor, const std::string& kind) {
  if (!part) missing(accessor, kind);
  return *part;
}

}  // namespace

std::shared_ptr<const sem::Discretization> SharedTables::quad(const MeshSpec& m) {
  const std::string key = mesh_key(m);
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
  const std::string key = mesh_key(m);
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

std::string Runner::warm_signature() const {
  if (sc_.kind == "net1d") return "net1d";
  char buf[120];
  std::snprintf(buf, sizeof buf, "|nu=%.17g|dt=%.17g|to=%d", sc_.sem.nu, sc_.sem.dt,
                sc_.sem.time_order);
  return (sc_.kind == "cdc" ? mesh_key(sc_.mesh) : mesh_key(sc_.mesh3d)) + buf;
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
    ++res_.develop_steps;
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

void Runner::maybe_checkpoint(std::int64_t interval, double time) {
  const std::int64_t every = sc_.checkpoint.every;
  if (every > 0 && (interval + 1) % every == 0 && interval + 1 < intervals()) {
    const std::string dir = sc_.checkpoint.dir + "/step-" + std::to_string(interval + 1);
    const std::size_t bytes = coord_->save(dir, static_cast<std::uint64_t>(interval + 1), time);
    if (opts_.verbose) std::printf("checkpoint: %s (%zu bytes)\n", dir.c_str(), bytes);
  }
}

void Runner::build() {
  res_ = {};
  interval_ = 0;
  platelets_.reset();
  if (sc_.kind == "net1d")
    build_net1d();
  else if (sc_.kind == "cdc3d")
    build_coupled(continuum_.emplace<Continuum3D>());
  else
    build_coupled(continuum_.emplace<Continuum2D>());
  if (opts_.restart_dir.empty()) return;
  const auto info = coord_->load(opts_.restart_dir);  // throws SnapshotError on damage
  interval_ = static_cast<std::int64_t>(info.step);
  if (interval_ > intervals())
    throw RestartPastEndError("restart from " + opts_.restart_dir + ": checkpoint step " +
                              std::to_string(interval_) + " lies past the end of the run " +
                              "(time.intervals = " + std::to_string(intervals()) + ")");
  res_.restarted = true;
  if (!opts_.verbose) return;
  const char* dir = opts_.restart_dir.c_str();
  const int start = static_cast<int>(interval_);
  if (net_)
    std::printf("restarted from %s: interval %d, t = %.4f\n\n", dir, start, info.time);
  else
    std::printf("restarted from %s: interval %d, t_ns = %.4f, %zu DPD particles\n\n", dir,
                start, info.time, dpd_->size());
}

void Runner::advance(std::int64_t n) {
  if (!coord_) throw std::logic_error("scenario::Runner::advance: call build() first");
  for (std::int64_t k = 0; k < n; ++k, ++interval_) {
    if (opts_.fault_plan)
      opts_.fault_plan->check(opts_.fault_id, static_cast<std::uint64_t>(interval_));
    double time = 0.0;
    if (net_) {
      const double dt =
          sc_.network.dt > 0.0 ? sc_.network.dt : net_->suggested_dt(sc_.network.cfl);
      for (std::int64_t s = 0; s < sc_.network.steps_per_interval; ++s) net_->step(dt);
      time = net_->time();
    } else {
      const bool sample = interval_ >= sc_.time.sample_from;
      const auto per_dpd_step = [this, sample] {
        if (platelets_) platelets_->update(*dpd_);
        if (sample) sampler_->accumulate(*dpd_);
      };
      time = std::visit(
          [&](auto& c) {
            res_.cg_iters += c.cdc->advance_interval(per_dpd_step);
            return c.ns->time();
          },
          continuum_);
    }
    ++res_.intervals_run;
    maybe_checkpoint(interval_, time);
  }
}

RunResult Runner::run() {
  build();
  advance(intervals() - interval_);
  res_.digest = coord_->digest();
  return res_;
}

template <class NS>
void Runner::build_coupled(Continuum<NS>& c) {
  const bool restarting = !opts_.restart_dir.empty();

  // --- 1. the continuum solver -- same construction order, parameters and
  // BC expression trees as the hand-written examples (digest equality).
  c.disc = Dim<NS>::disc(sc_, tables_);
  typename NS::Params prm;
  prm.nu = sc_.sem.nu;
  prm.dt = sc_.sem.dt;
  prm.time_order = sc_.sem.time_order;
  c.ns = std::make_unique<NS>(*c.disc, prm);
  Dim<NS>::set_inlet(*c.ns, sc_);
  if (!restarting) {
    apply_warm_start(*c.ns);
    if (opts_.verbose) std::printf(Dim<NS>::kDevelopLine, sem_nodes());
    res_.cg_iters += develop(*c.ns);
  }

  // --- 2. the atomistic solver, with the platelets seeded after the fill ---
  dpd::DpdParams dp;
  dp.box = {sc_.dpd.box[0], sc_.dpd.box[1], sc_.dpd.box[2]};
  dp.periodic = sc_.dpd.periodic;
  dp.rc = sc_.dpd.rc;
  dp.kBT = sc_.dpd.kBT;
  dp.dt = sc_.dpd.dt;
  const auto& g = sc_.dpd.geometry;
  std::shared_ptr<dpd::Geometry> geom;
  if (g.kind == "channel_z")
    geom = std::make_shared<dpd::ChannelZ>(g.height);
  else if (g.kind == "channel_with_cavity_z")
    geom = std::make_shared<dpd::ChannelWithCavityZ>(g.height, g.cavity[0], g.cavity[1],
                                                     g.cavity[2]);
  else
    geom = std::make_shared<dpd::NoWalls>();
  dpd_ = std::make_unique<dpd::DpdSystem>(dp, geom);
  if (!restarting)
    dpd_->fill(sc_.dpd.density, dpd::kSolvent, sc_.dpd.seed, sc_.dpd.fill_margin);
  if (sc_.platelets.count > 0) {
    // the damaged endothelium is the cavity wall, above the channel roof
    platelets_ = std::make_shared<dpd::PlateletModel>(dpd::PlateletParams{
        .adhesive_region = [roof = g.height](const dpd::Vec3& p) { return p.z > roof; },
        .trigger_distance = sc_.platelets.trigger_distance,
        .activation_delay = sc_.platelets.activation_delay,
        .bind_distance = sc_.platelets.bind_distance,
        .bind_speed = kPlateletBindSpeed});
    dpd_->add_module(platelets_);
    if (!restarting)
      platelets_->seed_platelets(*dpd_, static_cast<std::size_t>(sc_.platelets.count),
                                 kPlateletSeed);
  }
  if (!restarting && opts_.verbose)
    std::printf("atomistic: %zu DPD particles\n\n", dpd_->size());

  bc_ = std::make_unique<dpd::FlowBc>(sc_.flow_bc);

  // --- 3. glue: Eq. (1) scaling + Fig. 5 time progression ---
  coupling::TimeProgression tp;
  tp.dt_ns = sc_.sem.dt;
  tp.exchange_every_ns = sc_.coupling.exchange_every_ns;
  tp.dpd_per_ns = sc_.coupling.dpd_per_ns;
  c.cdc = std::make_unique<coupling::BasicContinuumDpdCoupler<NS>>(
      *c.ns, *dpd_, *bc_, Dim<NS>::region(sc_.coupling.region), sc_.coupling.scales, tp);

  sampler_ = std::make_unique<dpd::FieldSampler>(*dpd_, sc_.sampler);

  // stream names: the solver's phase prefix (ns2d, ns3d) and the scenario
  // kind (cdc, cdc3d)
  coord_ = std::make_unique<resilience::CheckpointCoordinator>();
  coord_->add(NS::Traits::kPhasePrefix, *c.ns);
  coord_->add("dpd", *dpd_);
  coord_->add("flowbc", *bc_);
  coord_->add(sc_.kind, *c.cdc);
  coord_->add("sampler", *sampler_);
  if (platelets_) coord_->add("platelets", *platelets_);
}

void Runner::build_net1d() {
  net_ = std::make_unique<nektar1d::ArterialNetwork>();
  for (const auto& vs : sc_.network.vessels) {
    nektar1d::VesselParams p;
    p.length = vs.length;
    p.A0 = vs.A0;
    p.beta = vs.beta;
    p.rho = vs.rho;
    p.Kr = vs.Kr;
    p.elements = vs.elements;
    p.order = vs.order;
    net_->add_vessel(p);
  }
  for (const auto& in : sc_.network.inlets) {
    const double q_mean = in.q_mean, q_amp = in.q_amp, freq = in.freq;
    net_->set_inlet_flow(in.vessel, [q_mean, q_amp, freq](double t) {
      return q_mean + q_amp * std::sin(2.0 * M_PI * freq * t);
    });
  }
  for (const auto& out : sc_.network.outlets)
    net_->set_outlet_rcr(out.vessel, out.rp, out.rd, out.c);
  for (const auto& j : sc_.network.junctions) {
    std::vector<nektar1d::Attachment> atts;
    for (const auto& a : j)
      atts.push_back({a.vessel, a.end == "left" ? nektar1d::End::Left : nektar1d::End::Right});
    net_->add_junction(std::move(atts));
  }
  if (opts_.verbose)
    std::printf("1D network: %zu vessels, %zu junctions\n\n", net_->num_vessels(),
                sc_.network.junctions.size());

  coord_ = std::make_unique<resilience::CheckpointCoordinator>();
  coord_->add("net1d", *net_);
}

dpd::FieldSampler& Runner::sampler() { return built(sampler_, "sampler()", sc_.kind); }
dpd::DpdSystem& Runner::dpd() { return built(dpd_, "dpd()", sc_.kind); }
dpd::FlowBc& Runner::flow_bc() { return built(bc_, "flow_bc()", sc_.kind); }
dpd::PlateletModel& Runner::platelets() { return built(platelets_, "platelets()", sc_.kind); }
nektar1d::ArterialNetwork& Runner::network() { return built(net_, "network()", sc_.kind); }

std::size_t Runner::sem_nodes() const {
  return std::visit(
      [](const auto& c) -> std::size_t { return c.disc ? c.disc->num_nodes() : 0; },
      continuum_);
}

std::size_t Runner::exchanges() const {
  return std::visit([](const auto& c) -> std::size_t { return c.cdc ? c.cdc->exchanges() : 0; },
                    continuum_);
}

const sem::NavierStokes<sem::Discretization>& Runner::ns2d() const {
  const auto* c = std::get_if<Continuum2D>(&continuum_);
  if (!c || !c->ns) missing("ns2d()", sc_.kind);
  return *c->ns;
}

double Runner::interface_mismatch() {
  return std::visit(
      [this](auto& c) {
        if (!c.cdc) missing("interface_mismatch()", sc_.kind);
        return c.cdc->interface_mismatch(*sampler_);
      },
      continuum_);
}

double Runner::eval_u(double x, double y) const {
  const auto* c = std::get_if<Continuum2D>(&continuum_);
  if (!c || !c->ns) missing("eval_u(x, y)", sc_.kind);
  return sem::evaluate(*c->disc, {x, y}, c->ns->u());
}

double Runner::eval_u(double x, double y, double z) const {
  const auto* c = std::get_if<Continuum3D>(&continuum_);
  if (!c || !c->ns) missing("eval_u(x, y, z)", sc_.kind);
  return sem::evaluate(*c->disc, {x, y, z}, c->ns->u());
}

}  // namespace scenario
