#pragma once
// Window proper orthogonal decomposition (paper Sec. 3.4): a co-processing
// tool that splits noisy atomistic velocity snapshots into an ensemble mean
// (the few fast-converging, correlated low modes) and thermal fluctuations
// (the flat tail of the eigenspectrum), via the method of snapshots.
//
//   u(t, x) ~= sum_{k < k_mean} a_k(t) phi_k(x)     (ensemble average)
//   u'(t, x) = u(t, x) - mean                        (fluctuations)
//
// The split index k_mean is chosen adaptively from the eigenvalue
// convergence rate: thermal modes form a plateau whose level is estimated
// from the spectrum tail.

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "la/dense.hpp"
#include "la/vector.hpp"

namespace resilience {
class BlobWriter;
class BlobReader;
}  // namespace resilience

namespace wpod {

struct WpodOptions {
  /// Cap on the number of mean modes (0 = no cap).
  std::size_t max_mean_modes = 0;
};

struct WpodResult {
  la::Vector eigenvalues;                ///< descending, size = #snapshots
  std::vector<la::Vector> spatial_modes; ///< phi_k, orthonormal, size k_kept
  la::DenseMatrix temporal;              ///< a_k(t): (#snapshots) x k_kept
  std::size_t k_mean = 0;                ///< modes forming the ensemble mean
  double noise_floor = 0.0;              ///< estimated thermal plateau level

  /// Ensemble-average field at snapshot t (sum of the first k_mean modes).
  la::Vector mean_at(std::size_t t) const;
  /// Fluctuation field at snapshot t (needs the original snapshot).
  la::Vector fluctuation_at(std::size_t t, const la::Vector& snapshot) const;
};

/// Analyze one window of snapshots (each a field sampled over spatial bins).
/// Modes with eigenvalue > 10 x (tail plateau level) form the ensemble mean.
WpodResult analyze(const std::vector<la::Vector>& snapshots, const WpodOptions& opt = {});

/// Plain per-bin time average of the window (the "standard averaging" WPOD
/// is compared against in Fig. 7).
la::Vector standard_average(const std::vector<la::Vector>& snapshots);

/// Streaming WPOD: the paper extends the method of snapshots "to analyze a
/// certain space-time window adaptively" as a co-processing tool. This
/// analyzer keeps a moving window of recent snapshots; each push() may emit
/// a completed analysis. The window length adapts to what the eigenspectrum
/// reports:
///   * many mean modes (k_mean large)  -> the flow decorrelates within the
///     window (non-stationarity): shrink it,
///   * k_mean small and stable         -> statistics are stationary: grow
///     the window for better averaging.
class StreamingWpod {
public:
  struct Options {
    std::size_t initial_window = 16;
    std::size_t min_window = 8;
    std::size_t max_window = 64;
    std::size_t stride = 8;  ///< snapshots between successive analyses
    /// shrink when k_mean > shrink_fraction * window; grow when
    /// k_mean < grow_fraction * window
    double shrink_fraction = 0.25;
    double grow_fraction = 0.08;
    WpodOptions wpod;
  };

  StreamingWpod();  // default options (GCC <13 rejects `Options opt = {}` here)
  explicit StreamingWpod(Options opt);

  /// Feed one snapshot; returns a completed window analysis when one is due
  /// (std::nullopt otherwise).
  std::optional<WpodResult> push(la::Vector snapshot);

  std::size_t window() const { return window_; }
  std::size_t analyses_done() const { return analyses_; }

  /// Checkpoint the adaptive window state: current window length, stride
  /// phase, analysis count and the buffered snapshots.
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);

private:
  // analyze: no-checkpoint (constructor configuration)
  Options opt_;
  std::size_t window_;
  std::size_t since_last_ = 0;
  std::size_t analyses_ = 0;
  std::deque<la::Vector> buf_;
};

}  // namespace wpod
