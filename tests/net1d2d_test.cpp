// Tests for 1D-network <-> 2D-patch coupling (the paper's "3D domains to a
// number of 1D domains" capability).

#include <gtest/gtest.h>

#include <cmath>

#include "coupling/net1d2d.hpp"

namespace {

nektar1d::VesselParams vessel() {
  nektar1d::VesselParams p;
  p.length = 10.0;
  p.A0 = 0.5;
  p.beta = 1.0e5;
  p.elements = 8;
  p.order = 4;
  return p;
}

TEST(FluxProfile, IntegratesToFlux) {
  coupling::FluxProfile fp;
  fp.H = 2.0;
  const double q = 3.7;
  // midpoint quadrature of the parabola recovers q
  double integral = 0.0;
  const int n = 200;
  for (int k = 0; k < n; ++k) {
    const double y = fp.H * (k + 0.5) / n;
    integral += fp.u_at(q, y) * fp.H / n;
  }
  EXPECT_NEAR(integral, q, 1e-4 * q);
  // no-slip at the walls
  EXPECT_DOUBLE_EQ(fp.u_at(q, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(fp.u_at(q, fp.H), 0.0);
}

TEST(Net1dToPatch, VesselFlowDrivesPatchInlet) {
  // 1D vessel with prescribed ramp inflow and resistance outlet feeds a 2D
  // channel: the patch's inlet flux must track the vessel's outlet flow.
  nektar1d::ArterialNetwork net;
  const int v = net.add_vessel(vessel());
  const double Q0 = 1.2, R = 2.0e3;
  net.set_inlet_flow(v, [=](double t) { return Q0 * std::min(1.0, t / 0.05); });
  net.set_outlet_resistance(v, R);

  auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
  sem::Discretization d(m, 4);
  sem::NavierStokes<sem::Operators>::Params nsp;
  nsp.nu = 0.05;
  nsp.dt = 2e-3;
  sem::NavierStokes<sem::Operators> ns(d, nsp);
  ns.set_natural_bc(mesh::kOutlet);

  coupling::Network1DToPatch link(net, v, nektar1d::End::Right, ns, /*q_scale=*/1.0);
  for (int s = 0; s < 400; ++s) link.step(nsp.dt);

  // 1D side is (near) steady at Q0; patch inlet profile carries that flux
  EXPECT_NEAR(link.last_q2d(), Q0, 0.15 * Q0);
  // and the inlet centerline velocity matches the parabola 6Q/H^3 y(H-y)
  EXPECT_NEAR(d.evaluate(ns.u(), 1e-9, 0.5), 6.0 * link.last_q2d() * 0.25, 0.05);
}

TEST(PatchToNet1d, PatchOutletFeedsPeripheralBed) {
  // Steady Poiseuille patch drains into a 1D vessel with a resistance
  // outlet: the peripheral pressure must approach Q * R_total.
  auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
  sem::Discretization d(m, 4);
  sem::NavierStokes<sem::Operators>::Params nsp;
  nsp.nu = 0.05;
  nsp.dt = 2e-3;
  sem::NavierStokes<sem::Operators> ns(d, nsp);
  const double Umax = 1.0;
  ns.set_velocity_bc(mesh::kInlet,
                     [Umax](double, double y, double) { return 4.0 * Umax * y * (1.0 - y); },
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);

  nektar1d::ArterialNetwork net;
  const int root = net.add_vessel(vessel());
  const double R = 1.5e3;
  net.set_outlet_resistance(root, R);

  const double q_scale = 2.0;  // 2D slice flux -> volumetric flow
  coupling::PatchToNetwork1D link(ns, net, root, q_scale);
  for (int s = 0; s < 900; ++s) link.step(nsp.dt);

  // patch outlet flux for the parabola: 2/3 Umax H = 0.667
  EXPECT_NEAR(link.last_outlet_flux(), 2.0 / 3.0 * Umax, 0.05);
  const double q3d = q_scale * link.last_outlet_flux();
  EXPECT_NEAR(link.peripheral_pressure(), q3d * R, 0.15 * q3d * R);
}

TEST(Net1dToPatch, PulsatileWaveformTransmits) {
  // a pulsatile 1D inflow should appear as a pulsatile patch inlet flux
  nektar1d::ArterialNetwork net;
  const int v = net.add_vessel(vessel());
  const double T = 0.25;
  net.set_inlet_flow(v, [=](double t) {
    return (1.0 + 0.5 * std::sin(2 * M_PI * t / T)) * std::min(1.0, t / 0.05);
  });
  net.set_outlet_resistance(v, 1.0e3);

  auto m = mesh::QuadMesh::channel(2.0, 1.0, 4, 2);
  sem::Discretization d(m, 4);
  sem::NavierStokes<sem::Operators>::Params nsp;
  nsp.nu = 0.05;
  nsp.dt = 1e-3;
  sem::NavierStokes<sem::Operators> ns(d, nsp);
  ns.set_natural_bc(mesh::kOutlet);
  coupling::Network1DToPatch link(net, v, nektar1d::End::Right, ns);

  double qmin = 1e30, qmax = -1e30;
  for (int s = 0; s < 600; ++s) {
    link.step(nsp.dt);
    if (net.time() > 0.3) {  // past the ramp
      qmin = std::min(qmin, link.last_q2d());
      qmax = std::max(qmax, link.last_q2d());
    }
  }
  // oscillation survives the coupling (amplitude not annihilated)
  EXPECT_GT(qmax - qmin, 0.3);
  EXPECT_GT(qmin, 0.0);
}

}  // namespace
