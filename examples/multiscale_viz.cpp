// Example: multiscale visualization (the paper's fourth key contribution).
// Runs a short coupled simulation covering all three descriptions and dumps
// a ParaView-ready set of legacy-VTK files:
//   out/macro_network.vtk  — 1D Circle-of-Willis-like network (A, U, p)
//   out/patch_fields.vtk   — SEM channel+aneurysm fields (u, v, p)
//   out/particles.vtk      — DPD particles with species + platelet states
//
// Run: ./build/examples/multiscale_viz [output_dir]

#include <cstdio>
#include <filesystem>
#include <string>

#include "coupling/cdc.hpp"
#include "dpd/geometry.hpp"
#include "dpd/inflow.hpp"
#include "dpd/platelets.hpp"
#include "dpd/system.hpp"
#include "io/vtk.hpp"
#include "mesh/quadmesh.hpp"
#include "nektar1d/tree.hpp"
#include "sem/navier_stokes.hpp"

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "out";
  std::filesystem::create_directories(out);

  // --- 1D network (MaN skeleton) ---
  auto cow = nektar1d::cow_network();
  auto q = [](double t) { return (4.0 + 2.0 * std::sin(7.0 * t)) * std::min(1.0, t / 0.05); };
  auto qv = [](double t) { return (1.5 + 0.7 * std::sin(7.0 * t)) * std::min(1.0, t / 0.05); };
  cow.net.set_inlet_flow(cow.left_carotid, q);
  cow.net.set_inlet_flow(cow.right_carotid, q);
  cow.net.set_inlet_flow(cow.left_vertebral, qv);
  cow.net.set_inlet_flow(cow.right_vertebral, qv);
  while (cow.net.time() < 0.3) cow.net.step(cow.net.suggested_dt(0.3));

  // --- continuum patch with aneurysm (resolved MaN segment) ---
  auto m = mesh::QuadMesh::channel_with_cavity(8.0, 1.0, 3.0, 5.0, 1.0, 16, 2);
  sem::Discretization d(m, 4);
  sem::NavierStokes<sem::Operators>::Params nsp;
  nsp.nu = 0.02;
  nsp.dt = 2e-3;
  nsp.time_order = 2;
  sem::NavierStokes<sem::Operators> ns(d, nsp);
  ns.set_velocity_bc(mesh::kInlet,
                     [](double, double y, double) { return 4.0 * y * (1.0 - y); },
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);
  for (int s = 0; s < 150; ++s) ns.step();

  // --- DPD subdomain in the sac (MeN/MiN) with platelets ---
  dpd::DpdParams dp;
  dp.box = {20.0, 5.0, 10.0};
  dp.periodic = {false, true, false};
  dp.dt = 0.01;
  dpd::DpdSystem sys(dp, std::make_shared<dpd::ChannelWithCavityZ>(5.0, 6.0, 14.0, 5.0));
  sys.fill(3.0, dpd::kSolvent, 41, 0.1);
  dpd::PlateletParams pp;
  pp.adhesive_region = [](const dpd::Vec3& p) { return p.z > 5.0; };
  pp.activation_delay = 1.0;
  pp.bind_speed = 1.2;
  auto platelets = std::make_shared<dpd::PlateletModel>(pp);
  sys.add_module(platelets);
  platelets->seed_platelets(sys, 40, 5);

  dpd::FlowBcParams fp;
  fp.axis = 0;
  fp.buffer_len = 2.0;
  fp.density = 3.0;
  dpd::FlowBc bc(fp);
  coupling::ScaleMap scales;
  scales.L_ns = 1.0;
  scales.L_dpd = 5.0;
  scales.nu_ns = nsp.nu;
  scales.nu_dpd = 0.4;
  coupling::TimeProgression tp;
  tp.dt_ns = nsp.dt;
  tp.exchange_every_ns = 5;
  tp.dpd_per_ns = 10;
  coupling::BasicContinuumDpdCoupler cdc(ns, sys, bc, {2.0, 6.0, 0.0, 2.0}, scales, tp);
  for (int k = 0; k < 10; ++k) cdc.advance_interval([&] { platelets->update(sys); });

  // --- dump all three scales ---
  io::write_network_vtk(out + "/macro_network.vtk", cow.net);
  const la::Vector &u = ns.u(), &v = ns.v(), &p = ns.p();
  io::write_sem_vtk(out + "/patch_fields.vtk", d, {{"u", &u}, {"v", &v}, {"p", &p}});
  io::write_dpd_vtk(out + "/particles.vtk", sys, platelets.get());

  std::printf("wrote %s/macro_network.vtk (%zu vessels)\n", out.c_str(),
              cow.net.num_vessels());
  std::printf("wrote %s/patch_fields.vtk (%zu nodes, u/v/p)\n", out.c_str(), d.num_nodes());
  std::printf("wrote %s/particles.vtk (%zu particles, %zu bound platelets)\n", out.c_str(),
              sys.size(), platelets->count(dpd::PlateletState::Bound));
  std::printf("\nopen all three in one ParaView session for the Fig. 1 telescoping view\n");
  return 0;
}
