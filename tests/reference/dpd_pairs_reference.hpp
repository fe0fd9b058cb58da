#pragma once
// Direct O(N^2) pair enumeration: the reference the Verlet-list fast paths
// are validated against in neighbor_test. Header-only, over the system's
// public positions(), min_image() and params().

#include <cmath>
#include <cstddef>

#include "dpd/system.hpp"

namespace dpd::reference {

/// Every pair (i < j) closer than rc: fn(i, j, dr = xj - xi minimum image, r).
template <class Fn>
void for_each_pair_direct(const DpdSystem& sys, Fn&& fn) {
  const auto& pos = sys.positions();
  const double rc2 = sys.params().rc * sys.params().rc;
  for (std::size_t i = 0; i < pos.size(); ++i)
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      const Vec3 dr = sys.min_image(pos[i], pos[j]);
      const double r2 = dr.norm2();
      if (r2 < rc2 && r2 > 1e-20) fn(i, j, dr, std::sqrt(r2));
    }
}

}  // namespace dpd::reference
