// Example: multiscale visualization (the paper's fourth key contribution).
// Runs a short coupled simulation covering all three descriptions (the 1D
// network, then scenario::aneurysm_preset's continuum + DPD stack run by
// scenario::Runner) and dumps a ParaView-ready set of legacy-VTK files:
//   out/macro_network.vtk  — 1D Circle-of-Willis-like network (A, U, p)
//   out/patch_fields.vtk   — SEM channel+aneurysm fields (u, v, p)
//   out/particles.vtk      — DPD particles with species + platelet states
//
// Run: ./build/examples/multiscale_viz [output_dir]

#include <cstdio>
#include <filesystem>
#include <string>

#include "io/vtk.hpp"
#include "nektar1d/tree.hpp"
#include "scenario/presets.hpp"
#include "scenario/runner.hpp"

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

  // --- continuum patch with aneurysm (resolved MaN segment) and the DPD
  //     subdomain in the sac (MeN/MiN) with platelets ---
  scenario::Scenario sc = scenario::aneurysm_preset();
  sc.sem.time_order = 2;
  sc.platelets = {40, 1.0, 1.0, 0.6};
  sc.flow_bc.relax = 0.2;
  sc.time.intervals = 10;
  scenario::Runner runner(sc);
  runner.run();

  // --- dump all three scales ---
  io::write_network_vtk(out + "/macro_network.vtk", cow.net);
  const auto& ns = runner.ns2d();
  const la::Vector &u = ns.u(), &v = ns.v(), &p = ns.p();
  io::write_sem_vtk(out + "/patch_fields.vtk", ns.disc(), {{"u", &u}, {"v", &v}, {"p", &p}});
  io::write_dpd_vtk(out + "/particles.vtk", runner.dpd(), &runner.platelets());

  std::printf("wrote %s/macro_network.vtk (%zu vessels)\n", out.c_str(),
              cow.net.num_vessels());
  std::printf("wrote %s/patch_fields.vtk (%zu nodes, u/v/p)\n", out.c_str(),
              runner.sem_nodes());
  std::printf("wrote %s/particles.vtk (%zu particles, %zu bound platelets)\n", out.c_str(),
              runner.dpd().size(), runner.platelets().count(dpd::PlateletState::Bound));
  std::printf("\nopen all three in one ParaView session for the Fig. 1 telescoping view\n");
  return 0;
}
