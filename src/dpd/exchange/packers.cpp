#include "dpd/exchange/packers.hpp"

#include <stdexcept>
#include <string>

namespace dpd::exchange {

void pack_posvel(const SoA3& a, const SoA3& b, const std::vector<std::uint32_t>& idx,
                 std::vector<double>& out) {
  const std::size_t n = idx.size();
  out.resize(6 * n);
  double* w = out.data();
  const std::vector<double>* lanes[6] = {&a.xs(), &a.ys(), &a.zs(), &b.xs(), &b.ys(), &b.zs()};
  for (const auto* lane : lanes) {
    const double* src = lane->data();
    for (std::size_t k = 0; k < n; ++k) w[k] = src[idx[k]];
    w += n;
  }
}

void unpack_posvel(SoA3& a, SoA3& b, const std::vector<std::uint32_t>& idx,
                   const std::vector<double>& in) {
  const std::size_t n = idx.size();
  if (in.size() != 6 * n)
    throw std::runtime_error("exchange: halo update buffer holds " + std::to_string(in.size()) +
                             " doubles, expected " + std::to_string(6 * n));
  const double* r = in.data();
  std::vector<double>* lanes[6] = {&a.xs(), &a.ys(), &a.zs(), &b.xs(), &b.ys(), &b.zs()};
  for (auto* lane : lanes) {
    double* dst = lane->data();
    for (std::size_t k = 0; k < n; ++k) dst[idx[k]] = r[k];
    r += n;
  }
}

}  // namespace dpd::exchange
