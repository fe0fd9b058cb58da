#pragma once
// Flat-buffer packers for the exchange layer. Halo updates ship six
// contiguous double lanes per message — [x...][y...][z...][vx...][vy...][vz...]
// — gathered straight out of the SoA particle storage, so packing is six
// tight gather loops (and unpacking six scatter loops) over index lists the
// exchanger planned at halo-build time. Whole-record traffic (migration,
// halo build) sends trivially-copyable ParticleRecord arrays directly.

#include <cstdint>
#include <vector>

#include "dpd/soa.hpp"

namespace dpd::exchange {

/// Gather slots `idx` of two SoA arrays into out = [ax][ay][az][bx][by][bz].
void pack_posvel(const SoA3& a, const SoA3& b, const std::vector<std::uint32_t>& idx,
                 std::vector<double>& out);

/// Scatter a pack_posvel buffer back into slots `idx` of a and b. Throws
/// std::runtime_error when the buffer does not hold exactly 6*idx.size()
/// doubles (a mismatched exchange must fail loudly).
void unpack_posvel(SoA3& a, SoA3& b, const std::vector<std::uint32_t>& idx,
                   const std::vector<double>& in);

}  // namespace dpd::exchange
