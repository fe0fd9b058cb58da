#include "dpd/exchange/decomposition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace dpd::exchange {

GridDims auto_dims(int nranks, const Vec3& box) {
  if (nranks < 1) throw std::invalid_argument("exchange: auto_dims needs nranks >= 1");
  GridDims best{1, 1, nranks};
  double best_score = -1.0;
  for (int px = 1; px <= nranks; ++px) {
    if (nranks % px) continue;
    const int rest = nranks / px;
    for (int py = 1; py <= rest; ++py) {
      if (rest % py) continue;
      const int pz = rest / py;
      const double lx = box.x / px, ly = box.y / py, lz = box.z / pz;
      const double score = ly * lz + lx * lz + lx * ly;  // per-rank surface / 2
      if (best_score < 0.0 || score < best_score - 1e-12) {
        best_score = score;
        best = {px, py, pz};
      }
    }
  }
  return best;
}

Decomposition::Decomposition(const Vec3& box, const std::array<bool, 3>& periodic, GridDims dims,
                             double halo_width)
    : box_(box), periodic_(periodic), dims_(dims), halo_(halo_width) {
  if (dims_.px < 1 || dims_.py < 1 || dims_.pz < 1)
    throw std::invalid_argument("exchange: decomposition dims must be positive");
  if (halo_ <= 0.0) throw std::invalid_argument("exchange: halo_width must be positive");
  const int ns[3] = {dims_.px, dims_.py, dims_.pz};
  const double Ls[3] = {box_.x, box_.y, box_.z};
  for (int a = 0; a < 3; ++a) {
    auto& c = cuts_[static_cast<std::size_t>(a)];
    c.resize(static_cast<std::size_t>(ns[a]) + 1);
    const double w = Ls[a] / ns[a];
    for (int k = 0; k < ns[a]; ++k) c[static_cast<std::size_t>(k)] = w * k;
    c[static_cast<std::size_t>(ns[a])] = Ls[a];
  }
  rebuild_neighbors();
}

void Decomposition::rebuild_neighbors() {
  const int n = nranks();
  neighbors_.assign(static_cast<std::size_t>(n), {});
  // box-to-box periodic distance between every subdomain pair; with the
  // point-to-box halo test using the same strict `< halo` criterion, a
  // particle can only ever be ghosted to a rank in this precomputed set
  const double h2 = halo_ * halo_;
  for (int r = 0; r < n; ++r) {
    const Subdomain a = subdomain(r);
    for (int d = 0; d < n; ++d) {
      if (d == r) continue;
      const Subdomain b = subdomain(d);
      auto axis = [&](double alo, double ahi, double blo, double bhi, double L,
                      bool per) -> double {
        auto plain = [&](double shift) {
          return std::max(0.0, std::max(blo + shift - ahi, alo - (bhi + shift)));
        };
        double v = plain(0.0);
        if (per) v = std::min({v, plain(-L), plain(L)});
        return v;
      };
      const double dx = axis(a.lo.x, a.hi.x, b.lo.x, b.hi.x, box_.x, periodic_[0]);
      const double dy = axis(a.lo.y, a.hi.y, b.lo.y, b.hi.y, box_.y, periodic_[1]);
      const double dz = axis(a.lo.z, a.hi.z, b.lo.z, b.hi.z, box_.z, periodic_[2]);
      if (dx * dx + dy * dy + dz * dz < h2) neighbors_[static_cast<std::size_t>(r)].push_back(d);
    }
  }
}

void Decomposition::set_bounds(int axis, const std::vector<double>& b) {
  if (axis < 0 || axis > 2)
    throw std::invalid_argument("exchange: set_bounds axis " + std::to_string(axis) +
                                " out of range");
  const int n = axis == 0 ? dims_.px : axis == 1 ? dims_.py : dims_.pz;
  const double L = axis == 0 ? box_.x : axis == 1 ? box_.y : box_.z;
  if (b.size() != static_cast<std::size_t>(n) + 1)
    throw std::invalid_argument("exchange: set_bounds expects " + std::to_string(n + 1) +
                                " boundaries, got " + std::to_string(b.size()));
  if (b.front() != 0.0 || b.back() != L)
    throw std::invalid_argument("exchange: set_bounds boundaries must span [0, box length]");
  for (std::size_t i = 1; i < b.size(); ++i)
    if (!(b[i] > b[i - 1]))
      throw std::invalid_argument("exchange: set_bounds boundaries must be strictly ascending");
  cuts_[static_cast<std::size_t>(axis)] = b;
  rebuild_neighbors();
}

bool Decomposition::rebalance(const std::array<std::vector<double>, 3>& hist,
                              double max_shift_fraction) {
  const double max_shift = max_shift_fraction * halo_;
  const int ns[3] = {dims_.px, dims_.py, dims_.pz};
  const double Ls[3] = {box_.x, box_.y, box_.z};
  bool moved = false;
  for (int a = 0; a < 3; ++a) {
    const int n = ns[a];
    if (n < 2) continue;
    const auto& h = hist[static_cast<std::size_t>(a)];
    if (h.empty()) continue;
    double total = 0.0;
    for (double v : h) total += v;
    if (total <= 0.0) continue;
    const double L = Ls[a];
    const auto nbins = h.size();
    const double bw = L / static_cast<double>(nbins);
    std::vector<double> prefix(nbins + 1, 0.0);
    for (std::size_t b = 0; b < nbins; ++b) prefix[b + 1] = prefix[b] + h[b];

    auto& cuts = cuts_[static_cast<std::size_t>(a)];
    std::vector<double> next = cuts;
    for (int k = 1; k < n; ++k) {
      // Marginal quantile: the position splitting the axis counts k : n-k,
      // linearly interpolated inside its histogram bin.
      const double target = total * k / n;
      auto it = std::upper_bound(prefix.begin(), prefix.end(), target);
      auto b = static_cast<std::size_t>(
          std::clamp<std::ptrdiff_t>(it - prefix.begin() - 1, 0,
                                     static_cast<std::ptrdiff_t>(nbins) - 1));
      const double frac = h[b] > 0.0 ? (target - prefix[b]) / h[b] : 0.5;
      double x = (static_cast<double>(b) + frac) * bw;
      // Bounded step: a cut that moves less than halo_width keeps every
      // post-rebalance migration inside the *new* neighbor shell (the new
      // owner's slab is within the shift of the old owner's, which held the
      // particle), so MigrationExchanger needs no long-range path.
      x = std::clamp(x, cuts[static_cast<std::size_t>(k)] - max_shift,
                     cuts[static_cast<std::size_t>(k)] + max_shift);
      next[static_cast<std::size_t>(k)] = x;
    }
    // Keep slabs comfortably wide (half the smaller of halo and the uniform
    // width) and ordered; when the passes below push a cut back out of its
    // bounded step, skip this axis rather than risk migration legality.
    const double min_gap = 0.5 * std::min(halo_, L / n);
    for (int k = 1; k < n; ++k)
      next[static_cast<std::size_t>(k)] =
          std::max(next[static_cast<std::size_t>(k)], next[static_cast<std::size_t>(k) - 1] + min_gap);
    for (int k = n - 1; k >= 1; --k)
      next[static_cast<std::size_t>(k)] =
          std::min(next[static_cast<std::size_t>(k)], next[static_cast<std::size_t>(k) + 1] - min_gap);
    bool ok = true;
    for (int k = 1; k <= n && ok; ++k)
      ok = next[static_cast<std::size_t>(k)] > next[static_cast<std::size_t>(k) - 1];
    for (int k = 1; k < n && ok; ++k)
      ok = std::abs(next[static_cast<std::size_t>(k)] - cuts[static_cast<std::size_t>(k)]) <=
           max_shift + 1e-12;
    if (!ok) continue;
    for (int k = 1; k < n; ++k)
      if (next[static_cast<std::size_t>(k)] != cuts[static_cast<std::size_t>(k)]) moved = true;
    cuts = std::move(next);
  }
  if (moved) rebuild_neighbors();
  return moved;
}

std::array<int, 3> Decomposition::coords_of(int rank) const {
  const int cx = rank % dims_.px;
  const int cy = (rank / dims_.px) % dims_.py;
  const int cz = rank / (dims_.px * dims_.py);
  return {cx, cy, cz};
}

int Decomposition::rank_at(int cx, int cy, int cz) const {
  auto adjust = [](int c, int n, bool per) {
    if (per) return ((c % n) + n) % n;
    return std::clamp(c, 0, n - 1);
  };
  cx = adjust(cx, dims_.px, periodic_[0]);
  cy = adjust(cy, dims_.py, periodic_[1]);
  cz = adjust(cz, dims_.pz, periodic_[2]);
  return (cz * dims_.py + cy) * dims_.px + cx;
}

Subdomain Decomposition::subdomain(int rank) const {
  if (rank < 0 || rank >= nranks())
    throw std::invalid_argument("exchange: subdomain rank " + std::to_string(rank) +
                                " out of range");
  const auto c = coords_of(rank);
  const auto& cx = cuts_[0];
  const auto& cy = cuts_[1];
  const auto& cz = cuts_[2];
  Subdomain s;
  s.lo = {cx[static_cast<std::size_t>(c[0])], cy[static_cast<std::size_t>(c[1])],
          cz[static_cast<std::size_t>(c[2])]};
  s.hi = {cx[static_cast<std::size_t>(c[0]) + 1], cy[static_cast<std::size_t>(c[1]) + 1],
          cz[static_cast<std::size_t>(c[2]) + 1]};
  return s;
}

int Decomposition::rank_of_position(const Vec3& p) const {
  auto cell = [](double x, double L, int n, bool per, const std::vector<double>& cuts) {
    if (per) x = wrap_1d(x, L);
    // slab whose [cuts[k], cuts[k+1]) half-open interval holds x — exactly
    // the membership subdomain() describes, whatever the cut positions
    const auto it = std::upper_bound(cuts.begin(), cuts.end(), x);
    const auto k = static_cast<int>(it - cuts.begin()) - 1;
    return std::clamp(k, 0, n - 1);
  };
  return rank_at(cell(p.x, box_.x, dims_.px, periodic_[0], cuts_[0]),
                 cell(p.y, box_.y, dims_.py, periodic_[1], cuts_[1]),
                 cell(p.z, box_.z, dims_.pz, periodic_[2], cuts_[2]));
}

Subdomain Decomposition::owned_box(int rank) const {
  Subdomain s = subdomain(rank);
  const auto c = coords_of(rank);
  const int ns[3] = {dims_.px, dims_.py, dims_.pz};
  double* lo[3] = {&s.lo.x, &s.lo.y, &s.lo.z};
  double* hi[3] = {&s.hi.x, &s.hi.y, &s.hi.z};
  constexpr double inf = std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < 3; ++a) {
    if (periodic_[a]) continue;
    if (c[a] == 0) *lo[a] = -inf;
    if (c[a] == ns[a] - 1) *hi[a] = inf;
  }
  return s;
}

double Decomposition::dist2_to(const Vec3& p, const Subdomain& s) const {
  auto axis = [](double x, double lo, double hi, double L, bool per) {
    auto plain = [&](double xx) { return xx < lo ? lo - xx : (xx > hi ? xx - hi : 0.0); };
    double v = plain(x);
    if (per) v = std::min({v, plain(x - L), plain(x + L)});
    return v;
  };
  const double dx = axis(p.x, s.lo.x, s.hi.x, box_.x, periodic_[0]);
  const double dy = axis(p.y, s.lo.y, s.hi.y, box_.y, periodic_[1]);
  const double dz = axis(p.z, s.lo.z, s.hi.z, box_.z, periodic_[2]);
  return dx * dx + dy * dy + dz * dz;
}

}  // namespace dpd::exchange
