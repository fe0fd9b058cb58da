#pragma once
// Point evaluation of nodal fields on either discretization, e.g. the SEM
// velocity on the coupling interfaces (paper Sec. 3.3).

#include <array>
#include <cstddef>
#include <stdexcept>

#include "la/simd.hpp"
#include "la/vector.hpp"
#include "sem/gll.hpp"

namespace sem {

/// Highest order a discretization accepts: evaluate()'s per-axis bases are
/// kMaxLineN-sized stack arrays.
inline constexpr int kMaxOrder = static_cast<int>(la::simd::kMaxLineN) - 1;

/// An element and reference coordinates in it, clamped to [-1, 1].
template <std::size_t D>
struct ElementPoint {
  std::size_t element = 0;
  std::array<double, D> xi{};
};

namespace detail {
using Basis = std::array<double, la::simd::kMaxLineN>;

// sum_i l[Axis][i] * (the same sum over the lower axes of slice i)
template <std::size_t Axis, std::size_t D, class Field, std::size_t N>
std::array<double, N> tensor_sum(const std::array<Basis, D>& l, std::size_t n1,
                                 std::size_t stride, const std::size_t* map,
                                 const std::array<Field, N>& f) {
  std::array<double, N> s{};
  for (std::size_t i = 0; i < n1; ++i) {
    if constexpr (Axis == 0) {
      for (std::size_t k = 0; k < N; ++k) s[k] += l[0][i] * f[k][map[i]];
    } else {
      const auto inner = tensor_sum<Axis - 1>(l, n1, stride / n1, map + i * stride, f);
      for (std::size_t k = 0; k < N; ++k) s[k] += l[Axis][i] * inner[k];
    }
  }
  return s;
}
}  // namespace detail

/// Values of N nodal fields (la::Vector or raw node arrays) at the point x:
/// one locate, one Lagrange basis per axis on the stack, then each field
/// summed through elem_map(e) with axis 0 innermost (`a` inside `b` inside
/// `c`), in the same order for any N. Throws std::out_of_range outside the
/// domain or at a non-finite point.
template <class Disc, class Field, std::size_t N>
std::array<double, N> evaluate(const Disc& d, const std::array<double, Disc::kDim>& x,
                               const std::array<Field, N>& fields) {
  const auto p = d.locate(x);
  if (!p) throw std::out_of_range("sem::evaluate: point outside the domain");
  std::array<detail::Basis, Disc::kDim> l{};
  for (std::size_t k = 0; k < Disc::kDim; ++k) lagrange_basis_at(d.rule(), p->xi[k], l[k].data());
  const std::size_t n1 = d.rule().nodes.size();
  return detail::tensor_sum<Disc::kDim - 1>(l, n1, d.nodes_per_element() / n1,
                                            d.elem_map(p->element), fields);
}

/// One nodal field at x, bitwise equal to its entry in the multi-field form.
template <class Disc>
double evaluate(const Disc& d, const std::array<double, Disc::kDim>& x, const la::Vector& field) {
  return evaluate(d, x, std::array{field.data()})[0];
}

}  // namespace sem
