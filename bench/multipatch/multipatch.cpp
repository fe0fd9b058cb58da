#include "multipatch/multipatch.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "telemetry/registry.hpp"

namespace coupling {

MultiPatchChannel::MultiPatchChannel(const MultiPatchParams& p,
                                     std::function<double(double, double)> inlet_u)
    : prm_(p) {
  if (p.patches < 1) throw std::invalid_argument("MultiPatchChannel: patches >= 1");
  dx_ = p.L / static_cast<double>(p.nx);

  // split element columns into `patches` contiguous ranges, then extend each
  // by `overlap` columns into both neighbours
  const std::size_t base = p.nx / static_cast<std::size_t>(p.patches);
  if (base < 2 + p.overlap)
    throw std::invalid_argument("MultiPatchChannel: patches too small for overlap");
  for (int k = 0; k < p.patches; ++k) {
    std::size_t b = static_cast<std::size_t>(k) * base;
    std::size_t e = k + 1 == p.patches ? p.nx : b + base;
    if (k > 0) b -= p.overlap;
    if (k + 1 < p.patches) e += p.overlap;
    ranges_.emplace_back(b, e);
  }

  const double dy = p.H / static_cast<double>(p.ny);
  const std::size_t ny_cav =
      p.with_cavity
          ? std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(p.cav_depth / dy)))
          : 0;

  for (int k = 0; k < p.patches; ++k) {
    const auto [b, e] = ranges_[static_cast<std::size_t>(k)];
    const double x0 = static_cast<double>(b) * dx_;
    const double Lk = static_cast<double>(e - b) * dx_;
    const double Hk = p.H + static_cast<double>(ny_cav) * dy;
    auto mesh = std::make_unique<mesh::QuadMesh>(x0, 0.0, Lk, Hk, e - b, p.ny + ny_cav);
    if (p.with_cavity) {
      // deactivate cells above the channel outside the cavity window
      mesh->deactivate_if([&](std::size_t i, std::size_t j) {
        if (j < p.ny) return false;
        const double xc = x0 + (static_cast<double>(i) + 0.5) * dx_;
        return !(xc > p.cav_x0 && xc < p.cav_x1);
      });
    }
    const bool first = k == 0, last = k + 1 == p.patches;
    const double x_lo = x0, x_hi = x0 + Lk;
    mesh->retag_boundary([&](const mesh::BoundaryFace& f) {
      // only the patch's extreme columns become inlet/outlet/interface;
      // internal exposed faces from the cavity mask stay walls
      if (f.side == mesh::Side::West && std::fabs(f.mid_x - x_lo) < 1e-12)
        return first ? mesh::kInlet : kIfaceWest;
      if (f.side == mesh::Side::East && std::fabs(f.mid_x - x_hi) < 1e-12)
        return last ? mesh::kOutlet : kIfaceEast;
      return mesh::kWall;
    });
    auto disc = std::make_unique<sem::Discretization>(*mesh, p.order);

    sem::NavierStokes<sem::Discretization>::Params nsp = p.ns;
    // only the last patch has a pressure Dirichlet (true outlet); interior
    // patches run pure-Neumann pressure (mean-pinned)
    nsp.pressure_dirichlet_faces = last ? std::vector<int>{mesh::kOutlet} : std::vector<int>{};
    auto ns = std::make_unique<sem::NavierStokes<sem::Discretization>>(*disc, nsp);
    if (first)
      ns->set_velocity_bc(mesh::kInlet,
                          [inlet_u](double, double y, double t) { return inlet_u(y, t); },
                          [](double, double, double) { return 0.0; });
    if (last) ns->set_natural_bc(mesh::kOutlet);
    // artificial interfaces start as zero-velocity Dirichlet; refreshed in
    // step() from the neighbour's interior solution

    meshes_.push_back(std::move(mesh));
    discs_.push_back(std::move(disc));
    solvers_.push_back(std::move(ns));
  }
}

std::pair<double, double> MultiPatchChannel::patch_extent(int k) const {
  const auto [b, e] = ranges_[static_cast<std::size_t>(k)];
  return {static_cast<double>(b) * dx_, static_cast<double>(e) * dx_};
}

std::array<double, 2> MultiPatchChannel::eval_patch(int k, const std::array<double, 2>& x) const {
  return sem::evaluate(*discs_[static_cast<std::size_t>(k)], x,
                       solvers_[static_cast<std::size_t>(k)]->velocity());
}

void MultiPatchChannel::step() {
  telemetry::ScopedPhase phase("multipatch.step");
  telemetry::count("multipatch.steps");
  // exchange interface conditions once per step (paper Sec. 3.2)
  std::optional<telemetry::ScopedPhase> sub;
  sub.emplace("multipatch.bc_exchange");
  for (int k = 0; k < num_patches(); ++k) {
    auto& disc = *discs_[static_cast<std::size_t>(k)];
    auto& ns = *solvers_[static_cast<std::size_t>(k)];
    // an artificial boundary takes its values from the neighbour's interior
    auto refresh = [&](int tag, int from) {
      const auto& nodes = disc.boundary_nodes(tag);
      std::vector<double> uu(nodes.size()), vv(nodes.size());
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const auto [u, v] = eval_patch(from, disc.node(nodes[i]));
        uu[i] = u;
        vv[i] = v;
      }
      ns.set_velocity_bc_values(tag, std::move(uu), std::move(vv));
    };
    if (k > 0) refresh(kIfaceWest, k - 1);
    if (k + 1 < num_patches()) refresh(kIfaceEast, k + 1);
  }
  sub.emplace("multipatch.solve");
  for (auto& s : solvers_) s->step();
}

double MultiPatchChannel::interface_jump(int samples) const {
  double jump = 0.0;
  for (int k = 0; k + 1 < num_patches(); ++k) {
    // compare the two patches in the middle of their overlap region
    const double x_l = patch_extent(k + 1).first;   // left edge of right patch
    const double x_r = patch_extent(k).second;      // right edge of left patch
    const double xm = 0.5 * (x_l + x_r);
    for (int s = 0; s < samples; ++s) {
      const double y = prm_.H * (static_cast<double>(s) + 0.5) / samples;
      const auto l = eval_patch(k, {xm, y}), r = eval_patch(k + 1, {xm, y});
      jump = std::max(jump, std::fabs(l[0] - r[0]));
      jump = std::max(jump, std::fabs(l[1] - r[1]));
    }
  }
  return jump;
}

double MultiPatchChannel::pressure_jump(int samples) const {
  double jump = 0.0;
  for (int k = 0; k + 1 < num_patches(); ++k) {
    const double xm = 0.5 * (patch_extent(k + 1).first + patch_extent(k).second);
    const auto& dl = *discs_[static_cast<std::size_t>(k)];
    const auto& dr = *discs_[static_cast<std::size_t>(k + 1)];
    const auto& pl = solvers_[static_cast<std::size_t>(k)]->p();
    const auto& pr = solvers_[static_cast<std::size_t>(k + 1)]->p();
    // gauge alignment: remove the mean difference over the overlap line
    double shift = 0.0;
    std::vector<double> dp(static_cast<std::size_t>(samples));
    for (int s = 0; s < samples; ++s) {
      const double y = prm_.H * (static_cast<double>(s) + 0.5) / samples;
      dp[static_cast<std::size_t>(s)] =
          sem::evaluate(dl, {xm, y}, pl) - sem::evaluate(dr, {xm, y}, pr);
      shift += dp[static_cast<std::size_t>(s)];
    }
    shift /= samples;
    for (double d : dp) jump = std::max(jump, std::fabs(d - shift));
  }
  return jump;
}

int MultiPatchChannel::owner_patch(double x) const {
  // prefer the patch whose non-overlapped core contains x
  for (int k = 0; k < num_patches(); ++k) {
    auto [lo, hi] = patch_extent(k);
    if (k > 0) lo += static_cast<double>(prm_.overlap) * dx_;
    if (k + 1 < num_patches()) hi -= static_cast<double>(prm_.overlap) * dx_;
    if (x >= lo && x <= hi) return k;
  }
  // fall back to any covering patch
  for (int k = 0; k < num_patches(); ++k) {
    auto [lo, hi] = patch_extent(k);
    if (x >= lo && x <= hi) return k;
  }
  throw std::out_of_range("MultiPatchChannel: x outside domain");
}

std::array<double, 2> MultiPatchChannel::velocity_at(const std::array<double, 2>& x) const {
  return eval_patch(owner_patch(x[0]), x);
}

}  // namespace coupling
