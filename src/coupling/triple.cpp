#include "coupling/triple.hpp"

#include <algorithm>

namespace coupling {

namespace {
dpd::SamplerParams sampler_params(int bins, int component) {
  dpd::SamplerParams sp;
  sp.nx = bins;
  sp.ny = bins;
  sp.nz = bins;
  sp.component = component;
  return sp;
}
}  // namespace

TripleDecker::TripleDecker(Coupler& cdc, dpd::DpdSystem& md,
                           dpd::BufferZones& md_buffers, const NestedRegion& region,
                           const ScaleMap& scales_dpd_md, int md_per_dpd, int sampler_bins)
    : cdc_(&cdc), md_(&md), md_buffers_(&md_buffers), region_(region),
      scales_(scales_dpd_md), md_per_dpd_(md_per_dpd),
      sx_(cdc.dpd_system(), sampler_params(sampler_bins, 0)),
      sy_(cdc.dpd_system(), sampler_params(sampler_bins, 1)),
      sz_(cdc.dpd_system(), sampler_params(sampler_bins, 2)) {
  scales_.validate();
}

dpd::Vec3 TripleDecker::md_to_dpd(const dpd::Vec3& p_md) const {
  const auto& box = md_->params().box;
  return {region_.lo.x + (p_md.x / box.x) * (region_.hi.x - region_.lo.x),
          region_.lo.y + (p_md.y / box.y) * (region_.hi.y - region_.lo.y),
          region_.lo.z + (p_md.z / box.z) * (region_.hi.z - region_.lo.z)};
}

dpd::Vec3 TripleDecker::dpd_velocity_at_md_point(const dpd::Vec3& p_md) const {
  if (!have_field_) return {};
  const dpd::Vec3 p = md_to_dpd(p_md);
  // nearest sampler bin (bin counts are tiny, a scan is fine)
  std::size_t best = 0;
  double best_d = 1e300;
  for (std::size_t b = 0; b < mean_x_.size(); ++b) {
    const double d2 = (sx_.bin_center(b) - p).norm2();
    if (d2 < best_d) {
      best_d = d2;
      best = b;
    }
  }
  return {scales_.velocity_ns_to_dpd(mean_x_[best]),
          scales_.velocity_ns_to_dpd(mean_y_[best]),
          scales_.velocity_ns_to_dpd(mean_z_[best])};
}

void TripleDecker::advance_interval(const std::function<void()>& per_md_step) {
  // exchange: the DPD layer's windowed mean (previous interval) drives the
  // MD interface windows through the second Eq.-(1) map
  if (have_field_)
    md_buffers_->set_shared_target(
        [this](const dpd::Vec3& p_md) { return dpd_velocity_at_md_point(p_md); });
  ++exchanges_;

  cdc_->advance_interval([&] {
    // per DPD step: sample the DPD field, then run the MD substeps
    sx_.accumulate(cdc_->dpd_system());
    sy_.accumulate(cdc_->dpd_system());
    sz_.accumulate(cdc_->dpd_system());
    for (int q = 0; q < md_per_dpd_; ++q) {
      md_->step();
      md_buffers_->apply(*md_);
      if (per_md_step) per_md_step();
    }
  });

  mean_x_ = sx_.snapshot();
  mean_y_ = sy_.snapshot();
  mean_z_ = sz_.snapshot();
  have_field_ = true;
}

}  // namespace coupling
