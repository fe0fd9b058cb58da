// Fig. 9 reproduction: continuity of the flow field across the coupled
// solvers' interfaces in the brain-vasculature simulation (Re = 394,
// Ws = 3.75). Two measurements, both on live solvers:
//   1. continuum-continuum: a pulsatile channel split into 3 overlapping
//      SEM patches; velocity and (gauge-aligned) pressure jumps across the
//      two artificial interfaces,
//   2. continuum-atomistic: a DPD subdomain embedded in the continuum patch;
//      mismatch between the DPD mean field and the imposed continuum field.

#include <cstdio>

#include "coupling/cdc.hpp"
#include "coupling/multipatch.hpp"
#include "dpd/geometry.hpp"
#include "dpd/inflow.hpp"
#include "dpd/sampling.hpp"
#include "dpd/system.hpp"
#include "telemetry/bench_report.hpp"

int main() {
  std::printf("=== Fig. 9: interface continuity in the coupled simulation ===\n\n");

  // --- continuum-continuum (multi-patch) ---
  coupling::MultiPatchParams mp;
  mp.L = 6.0;
  mp.H = 1.0;
  mp.nx = 12;
  mp.ny = 2;
  mp.order = 5;
  mp.patches = 3;
  mp.overlap = 1;
  mp.ns.nu = 0.02;
  mp.ns.dt = 2e-3;
  // pulsatile inlet: Womersley-like waveform (Ws ~ 3.7 regime)
  const double Umax = 1.0, T = 0.8;
  coupling::MultiPatchChannel chan(mp, [&](double y, double t) {
    return 4.0 * Umax * y * (1.0 - y) * (1.0 + 0.4 * std::sin(2.0 * M_PI * t / T));
  });
  telemetry::BenchReport rep("fig9_interface_continuity");
  rep.meta("patches", static_cast<double>(mp.patches));
  rep.meta("overlap", static_cast<double>(mp.overlap));
  std::printf("continuum-continuum: 3 overlapping SEM patches, pulsatile channel\n");
  std::printf("%-10s %-14s %-14s %-14s\n", "time", "max|u| jump", "max|p| jump",
              "centerline u");
  for (int block = 0; block < 5; ++block) {
    for (int s = 0; s < 100; ++s) chan.step();
    const double ujump = chan.interface_jump();
    const double pjump = chan.pressure_jump();
    const double ucl = chan.evaluate_u(3.0, 0.5);
    std::printf("%-10.3f %-14.5f %-14.5f %-14.4f\n", chan.time(), ujump, pjump, ucl);
    rep.row();
    rep.set("section", std::string("continuum_continuum"));
    rep.set("time", chan.time());
    rep.set("u_jump", ujump);
    rep.set("p_jump", pjump);
    rep.set("centerline_u", ucl);
  }

  // --- continuum-atomistic ---
  std::printf("\ncontinuum-atomistic: DPD box embedded mid-channel\n");
  auto m = mesh::QuadMesh::channel(4.0, 1.0, 8, 2);
  sem::Discretization d(m, 4);
  sem::NavierStokes<sem::Operators>::Params nsp;
  nsp.nu = 0.05;
  nsp.dt = 2e-3;
  sem::NavierStokes<sem::Operators> ns(d, nsp);
  ns.set_velocity_bc(mesh::kInlet,
                     [](double, double y, double t) {
                       return 4.0 * y * (1.0 - y) * (1.0 + 0.3 * std::sin(2.0 * M_PI * t / 0.8));
                     },
                     [](double, double, double) { return 0.0; });
  ns.set_natural_bc(mesh::kOutlet);
  for (int s = 0; s < 200; ++s) ns.step();

  dpd::DpdParams dp;
  dp.box = {16.0, 6.0, 10.0};
  dp.periodic = {false, true, false};
  dp.dt = 0.01;
  dpd::DpdSystem sys(dp, std::make_shared<dpd::ChannelZ>(10.0));
  sys.fill(3.0, dpd::kSolvent, 13, 0.1);
  dpd::FlowBcParams fp;
  fp.axis = 0;
  fp.buffer_len = 2.0;
  fp.density = 3.0;
  fp.relax = 0.3;
  dpd::FlowBc bc(fp);
  coupling::ScaleMap scales;
  scales.L_ns = 1.0;
  scales.L_dpd = 10.0;
  scales.nu_ns = 0.05;
  scales.nu_dpd = 2.5;
  coupling::TimeProgression tp;
  tp.exchange_every_ns = 2;
  tp.dpd_per_ns = 10;
  coupling::BasicContinuumDpdCoupler cdc(ns, sys, bc, {1.5, 2.5, 0.0, 1.0}, scales, tp);

  dpd::SamplerParams sp;
  sp.nx = 4;
  sp.ny = 1;
  sp.nz = 5;
  dpd::FieldSampler sampler(sys, sp);
  std::printf("%-10s %-18s %-18s\n", "interval", "mean |u_DPD-u_NS|", "relative to u_max");
  const double umax_dpd = scales.velocity_ns_to_dpd(4.0 * 0.25 * 1.3);
  for (int block = 0; block < 4; ++block) {
    for (int interval = 0; interval < 8; ++interval)
      cdc.advance_interval([&] {
        if (block > 0) sampler.accumulate(sys);
      });
    if (block == 0) continue;  // warm-up
    const double mism = cdc.interface_mismatch(sampler);
    std::printf("%-10d %-18.4f %-18.3f\n", 8 * (block + 1), mism, mism / umax_dpd);
    rep.row();
    rep.set("section", std::string("continuum_atomistic"));
    rep.set("interval", static_cast<double>(8 * (block + 1)));
    rep.set("mismatch", mism);
    rep.set("mismatch_rel", mism / umax_dpd);
  }
  // --- continuum-continuum through the aneurysm sac (the paper's actual
  //     Fig. 9 geometry: interfaces cut the vasculature wherever the patch
  //     decomposition put them) ---
  std::printf("\ncontinuum-continuum through the aneurysm cavity:\n");
  coupling::MultiPatchParams mc;
  mc.L = 8.0;
  mc.H = 1.0;
  mc.nx = 16;
  mc.ny = 2;
  mc.order = 4;
  mc.patches = 2;
  mc.overlap = 1;
  mc.with_cavity = true;
  mc.cav_x0 = 3.0;
  mc.cav_x1 = 5.0;
  mc.cav_depth = 1.0;
  mc.ns.nu = 0.02;
  mc.ns.dt = 2e-3;
  coupling::MultiPatchChannel sac(mc, [&](double y, double t) {
    return 4.0 * y * (1.0 - y) * (1.0 + 0.3 * std::sin(2.0 * M_PI * t / T));
  });
  for (int s = 0; s < 400; ++s) sac.step();
  const double xm = 0.5 * (sac.patch_extent(1).first + sac.patch_extent(0).second);
  double cav_jump = 0.0;
  for (double y : {1.2, 1.5, 1.8})
    cav_jump = std::max(cav_jump, std::fabs(sac.disc(0).evaluate(sac.patch(0).u(), xm, y) -
                                            sac.disc(1).evaluate(sac.patch(1).u(), xm, y)));
  const double sac_iface_jump = sac.interface_jump();
  const double sac_u = sac.evaluate_u(4.0, 1.6);
  const double chan_u = sac.evaluate_u(4.0, 0.5);
  std::printf("  channel-interface jump %.5f; in-sac jump %.5f; sac u %.4f vs channel u %.4f\n",
              sac_iface_jump, cav_jump, sac_u, chan_u);
  rep.row();
  rep.set("section", std::string("aneurysm_cavity"));
  rep.set("u_jump", sac_iface_jump);
  rep.set("in_sac_jump", cav_jump);
  rep.set("sac_u", sac_u);
  rep.set("channel_u", chan_u);

  std::printf("\n(paper shows visually continuous velocity/pressure contours across both\n"
              " interface types; here the jump norms quantify the same statement)\n");
  rep.write();
  return 0;
}
