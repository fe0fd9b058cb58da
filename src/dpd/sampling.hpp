#pragma once
// Field sampling for atomistic data: velocities/densities accumulated over
// spatial bins (size ~ rc, as in the paper's WPOD pipeline, Sec. 3.4) and
// short time windows of Nts steps. Each window yields one "snapshot" — the
// input to WPOD and to Fig. 7/8-style post-processing.

#include <cstddef>
#include <vector>

#include "dpd/system.hpp"
#include "la/vector.hpp"

namespace dpd {

struct SamplerParams {
  int nx = 8, ny = 8, nz = 8;  ///< bin grid over the box
  int component = 0;           ///< velocity component sampled: 0=x, 1=y, 2=z
};

/// Accumulates per-bin mean velocity over a window of steps.
class FieldSampler {
public:
  FieldSampler(const DpdSystem& sys, SamplerParams p);

  std::size_t num_bins() const {
    return static_cast<std::size_t>(prm_.nx) * prm_.ny * prm_.nz;
  }

  /// Add the current system state to the window.
  void accumulate(const DpdSystem& sys);

  /// Windowed mean velocity per bin (bins never visited read 0); clears the
  /// accumulator for the next window.
  la::Vector snapshot();

  /// Per-bin sample counts of the *current* accumulation window.
  const std::vector<std::size_t>& counts() const { return count_; }

  /// Bin center coordinates.
  Vec3 bin_center(std::size_t bin) const;

  /// Checkpoint the partially accumulated window (sums and counts).
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);

private:
  // analyze: no-checkpoint (constructor configuration)
  SamplerParams prm_;
  // analyze: no-checkpoint (copied from the system geometry at construction)
  Vec3 box_;
  std::vector<double> sum_;
  std::vector<std::size_t> count_;
};

}  // namespace dpd
