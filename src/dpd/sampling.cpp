#include "dpd/sampling.hpp"

#include "resilience/blob.hpp"

#include <algorithm>

namespace dpd {

FieldSampler::FieldSampler(const DpdSystem& sys, SamplerParams p)
    : prm_(p), box_(sys.params().box) {
  sum_.assign(num_bins(), 0.0);
  count_.assign(num_bins(), 0);
}

void FieldSampler::accumulate(const DpdSystem& sys) {
  const auto& pos = sys.positions();
  const auto& vel = sys.velocities();
  const auto& ghost = sys.ghost_mask();
  for (std::size_t i = 0; i < sys.size(); ++i) {
    if (ghost[i]) continue;  // owners accumulate; ghosts would double-count
    const int bx = std::clamp(static_cast<int>(pos[i].x / box_.x * prm_.nx), 0, prm_.nx - 1);
    const int by = std::clamp(static_cast<int>(pos[i].y / box_.y * prm_.ny), 0, prm_.ny - 1);
    const int bz = std::clamp(static_cast<int>(pos[i].z / box_.z * prm_.nz), 0, prm_.nz - 1);
    const std::size_t b =
        (static_cast<std::size_t>(bz) * prm_.ny + by) * static_cast<std::size_t>(prm_.nx) + bx;
    const double v = prm_.component == 0 ? vel[i].x : prm_.component == 1 ? vel[i].y : vel[i].z;
    sum_[b] += v;
    count_[b]++;
  }
}

la::Vector FieldSampler::snapshot() {
  la::Vector out(num_bins());
  for (std::size_t b = 0; b < num_bins(); ++b)
    out[b] = count_[b] ? sum_[b] / static_cast<double>(count_[b]) : 0.0;
  std::fill(sum_.begin(), sum_.end(), 0.0);
  std::fill(count_.begin(), count_.end(), 0);
  return out;
}

Vec3 FieldSampler::bin_center(std::size_t bin) const {
  const std::size_t bx = bin % static_cast<std::size_t>(prm_.nx);
  const std::size_t by = (bin / static_cast<std::size_t>(prm_.nx)) % static_cast<std::size_t>(prm_.ny);
  const std::size_t bz = bin / (static_cast<std::size_t>(prm_.nx) * prm_.ny);
  return {(static_cast<double>(bx) + 0.5) * box_.x / prm_.nx,
          (static_cast<double>(by) + 0.5) * box_.y / prm_.ny,
          (static_cast<double>(bz) + 0.5) * box_.z / prm_.nz};
}

void FieldSampler::save_state(resilience::BlobWriter& w) const {
  w.vec(sum_);
  w.vec(count_);
}

void FieldSampler::load_state(resilience::BlobReader& r) {
  sum_ = r.vec<double>();
  count_ = r.vec<std::size_t>();
  if (sum_.size() != num_bins() || count_.size() != num_bins())
    throw resilience::CorruptError("FieldSampler: bin count mismatch in checkpoint");
}

}  // namespace dpd
