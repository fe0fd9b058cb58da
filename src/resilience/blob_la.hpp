#pragma once
// Blob codec helpers for la:: containers, kept out of blob.hpp so the codec
// itself stays dependency-free.

#include <deque>
#include <string>

#include "la/cg.hpp"
#include "la/vector.hpp"
#include "resilience/blob.hpp"

namespace resilience {

inline void put_vector(BlobWriter& w, const la::Vector& v) { w.array(v.data(), v.size()); }

inline void get_vector(BlobReader& r, la::Vector& v) {
  const auto n = r.pod<std::uint64_t>();
  if (n > r.remaining() / sizeof(double))
    throw CorruptError("resilience: corrupt la::Vector length");
  v.resize(static_cast<std::size_t>(n));
  if (n) r.bytes(v.data(), static_cast<std::size_t>(n) * sizeof(double));
}

inline void put_vector_deque(BlobWriter& w, const std::deque<la::Vector>& d) {
  w.pod(static_cast<std::uint64_t>(d.size()));
  for (const auto& v : d) put_vector(w, v);
}

inline void get_vector_deque(BlobReader& r, std::deque<la::Vector>& d) {
  const auto n = r.pod<std::uint64_t>();
  d.clear();
  for (std::uint64_t k = 0; k < n; ++k) {
    la::Vector v;
    get_vector(r, v);
    d.push_back(std::move(v));
  }
}

// The successive-solution projector's basis determines the next solve's
// initial guess, hence the CG iterate sequence; restarts are only bitwise
// reproducible if it is carried across.
inline void put_projector(BlobWriter& w, const la::SolutionProjector& p) {
  put_vector_deque(w, p.basis());
  put_vector_deque(w, p.images());
}

// `n` is the solver's node count. SolutionProjector::record pairs basis
// vector k with image k over n entries, so a blob with unpaired or missized
// vectors is corrupt.
inline void get_projector(BlobReader& r, la::SolutionProjector& p, std::size_t n) {
  std::deque<la::Vector> basis, images;
  get_vector_deque(r, basis);
  get_vector_deque(r, images);
  if (basis.size() != images.size())
    throw CorruptError("resilience: projector has " + std::to_string(basis.size()) +
                       " basis vectors but " + std::to_string(images.size()) + " images");
  for (const auto* d : {&basis, &images})
    for (const auto& v : *d)
      if (v.size() != n)
        throw CorruptError("resilience: projector vector has " + std::to_string(v.size()) +
                           " entries, the solver has " + std::to_string(n) + " nodes");
  p.set_state(std::move(basis), std::move(images));
}

}  // namespace resilience
