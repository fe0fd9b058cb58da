#include "wpod/wpod.hpp"

#include "resilience/blob_la.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "la/eig.hpp"
#include "la/simd.hpp"

namespace wpod {

namespace {
/// Modes with eigenvalue > kNoiseGap * (tail plateau level) belong to the
/// ensemble mean.
constexpr double kNoiseGap = 10.0;
}  // namespace

la::Vector WpodResult::mean_at(std::size_t t) const {
  if (spatial_modes.empty()) return {};
  la::Vector m(spatial_modes[0].size(), 0.0);
  for (std::size_t k = 0; k < k_mean && k < spatial_modes.size(); ++k)
    la::simd::axpy(temporal(t, k), spatial_modes[k].data(), m.data(), m.size());
  return m;
}

la::Vector WpodResult::fluctuation_at(std::size_t t, const la::Vector& snapshot) const {
  la::Vector m = mean_at(t);
  la::Vector f(snapshot.size());
  for (std::size_t i = 0; i < snapshot.size(); ++i) f[i] = snapshot[i] - m[i];
  return f;
}

WpodResult analyze(const std::vector<la::Vector>& snapshots, const WpodOptions& opt) {
  const std::size_t nt = snapshots.size();
  if (nt < 2) throw std::invalid_argument("wpod::analyze: need >= 2 snapshots");
  const std::size_t nx = snapshots[0].size();
  for (const auto& s : snapshots)
    if (s.size() != nx) throw std::invalid_argument("wpod::analyze: ragged snapshots");

  // method of snapshots: C_ij = <u_i, u_j> / nt
  la::DenseMatrix C(nt, nt);
  for (std::size_t i = 0; i < nt; ++i)
    for (std::size_t j = i; j < nt; ++j) {
      const double c =
          la::simd::dot(snapshots[i].data(), snapshots[j].data(), nx) / static_cast<double>(nt);
      C(i, j) = c;
      C(j, i) = c;
    }

  auto eig = la::eig_symmetric(C);

  WpodResult out;
  out.eigenvalues = eig.values;

  out.spatial_modes.reserve(nt);
  out.temporal = la::DenseMatrix(nt, nt);

  for (std::size_t k = 0; k < nt; ++k) {
    const double lam = eig.values[k];
    if (lam <= 1e-300) break;
    // phi_k = sum_i V_ik u_i / sqrt(lam * nt)
    la::Vector phi(nx, 0.0);
    const double scale = 1.0 / std::sqrt(lam * static_cast<double>(nt));
    for (std::size_t i = 0; i < nt; ++i)
      la::simd::axpy(eig.vecs(i, k) * scale, snapshots[i].data(), phi.data(), nx);
    // a_k(t_i) = sqrt(lam * nt) V_ik
    for (std::size_t i = 0; i < nt; ++i)
      out.temporal(i, k) = std::sqrt(lam * static_cast<double>(nt)) * eig.vecs(i, k);
    out.spatial_modes.push_back(std::move(phi));
  }

  // adaptive split: thermal plateau level = median of the tail half of the
  // spectrum; mean modes are those clearly above it
  const std::size_t kept = out.spatial_modes.size();
  std::vector<double> tail;
  for (std::size_t k = kept / 2; k < kept; ++k) tail.push_back(out.eigenvalues[k]);
  if (tail.empty()) tail.push_back(out.eigenvalues[kept > 0 ? kept - 1 : 0]);
  std::nth_element(tail.begin(), tail.begin() + tail.size() / 2, tail.end());
  out.noise_floor = std::max(tail[tail.size() / 2], 0.0);

  std::size_t km = 0;
  for (std::size_t k = 0; k < kept; ++k) {
    if (out.eigenvalues[k] > kNoiseGap * out.noise_floor)
      km = k + 1;
    else
      break;
  }
  if (km == 0 && kept > 0) km = 1;  // always keep the most energetic mode
  if (opt.max_mean_modes > 0) km = std::min(km, opt.max_mean_modes);
  out.k_mean = km;
  return out;
}

StreamingWpod::StreamingWpod() : StreamingWpod(Options{}) {}

StreamingWpod::StreamingWpod(Options opt) : opt_(opt), window_(opt.initial_window) {
  if (opt_.min_window < 2 || opt_.max_window < opt_.min_window || opt_.stride == 0)
    throw std::invalid_argument("StreamingWpod: bad options");
  window_ = std::clamp(window_, opt_.min_window, opt_.max_window);
}

std::optional<WpodResult> StreamingWpod::push(la::Vector snapshot) {
  buf_.push_back(std::move(snapshot));
  while (buf_.size() > opt_.max_window) buf_.pop_front();
  ++since_last_;
  if (buf_.size() < window_ || since_last_ < opt_.stride) return std::nullopt;
  since_last_ = 0;

  std::vector<la::Vector> win(buf_.end() - static_cast<long>(window_), buf_.end());
  auto res = analyze(win, opt_.wpod);
  ++analyses_;

  // Adapt the window from the energy concentration of the spectrum: the
  // number of modes carrying 90% of the energy. A stationary flow (one
  // dominant structure + noise) concentrates energy in a few modes; a flow
  // that decorrelates within the window spreads it over many.
  double total = 0.0;
  for (std::size_t k = 0; k < res.eigenvalues.size(); ++k)
    total += std::max(res.eigenvalues[k], 0.0);
  std::size_t k90 = 0;
  double acc = 0.0;
  while (k90 < res.eigenvalues.size() && acc < 0.9 * total)
    acc += std::max(res.eigenvalues[k90++], 0.0);

  const auto grow_cap = std::max<std::size_t>(
      1, static_cast<std::size_t>(opt_.grow_fraction * static_cast<double>(window_)));
  if (static_cast<double>(k90) > opt_.shrink_fraction * static_cast<double>(window_))
    window_ = std::max(opt_.min_window, window_ / 2);
  else if (k90 <= grow_cap)
    window_ = std::min(opt_.max_window, window_ * 2);
  return res;
}

la::Vector standard_average(const std::vector<la::Vector>& snapshots) {
  if (snapshots.empty()) return {};
  la::Vector m(snapshots[0].size(), 0.0);
  for (const auto& s : snapshots)
    la::simd::axpy(1.0, s.data(), m.data(), m.size());
  la::simd::scale(1.0 / static_cast<double>(snapshots.size()), m.data(), m.size());
  return m;
}

void StreamingWpod::save_state(resilience::BlobWriter& w) const {
  w.pod(static_cast<std::uint64_t>(window_));
  w.pod(static_cast<std::uint64_t>(since_last_));
  w.pod(static_cast<std::uint64_t>(analyses_));
  resilience::put_vector_deque(w, buf_);
}

void StreamingWpod::load_state(resilience::BlobReader& r) {
  const auto window = r.pod<std::uint64_t>();
  if (window < opt_.min_window || window > opt_.max_window)
    throw resilience::CorruptError("StreamingWpod: window " + std::to_string(window) +
                                   " in checkpoint is outside [" +
                                   std::to_string(opt_.min_window) + ", " +
                                   std::to_string(opt_.max_window) + "]");
  window_ = static_cast<std::size_t>(window);
  since_last_ = static_cast<std::size_t>(r.pod<std::uint64_t>());
  analyses_ = static_cast<std::size_t>(r.pod<std::uint64_t>());
  resilience::get_vector_deque(r, buf_);
}

}  // namespace wpod
