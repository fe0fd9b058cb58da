#include "reference/sem_reference.hpp"

#include <vector>

#include "la/dense.hpp"
#include "la/simd.hpp"

namespace sem::reference {

namespace {

// G = D^T diag(w) D, the 1D weak-derivative kernel.
la::DenseMatrix weak_kernel(const la::DenseMatrix& D, const la::Vector& w) {
  const std::size_t n1 = w.size();
  la::DenseMatrix G(n1, n1);
  for (std::size_t a = 0; a < n1; ++a)
    for (std::size_t b = 0; b < n1; ++b) {
      double s = 0.0;
      for (std::size_t m = 0; m < n1; ++m) s += D(m, a) * w[m] * D(m, b);
      G(a, b) = s;
    }
  return G;
}

// Per-call element tables (what the operator classes precompute once).
// lmass is the per-element lumped mass, `a` fastest.
struct Tables2d {
  explicit Tables2d(const Discretization& d)
      : n1(static_cast<std::size_t>(d.order()) + 1), w(d.rule().weights), D(d.diff_matrix()),
        G(weak_kernel(D, w)), jac(0.25 * d.mesh().dx() * d.mesh().dy()),
        rx(2.0 / d.mesh().dx()), ry(2.0 / d.mesh().dy()), lmass(n1 * n1) {
    for (std::size_t b = 0; b < n1; ++b)
      for (std::size_t a = 0; a < n1; ++a) lmass[b * n1 + a] = jac * w[a] * w[b];
  }
  std::size_t n1;
  const la::Vector& w;
  const la::DenseMatrix& D;
  la::DenseMatrix G;
  double jac, rx, ry;
  std::vector<double> lmass;
};

struct Tables3d {
  explicit Tables3d(const Discretization3D& d)
      : n1(static_cast<std::size_t>(d.order()) + 1), w(d.rule().weights), D(d.diff_matrix()),
        G(weak_kernel(D, w)), jac(0.125 * d.dx() * d.dy() * d.dz()), rx(2.0 / d.dx()),
        ry(2.0 / d.dy()), rz(2.0 / d.dz()), lmass(n1 * n1 * n1) {
    for (std::size_t c = 0; c < n1; ++c)
      for (std::size_t b = 0; b < n1; ++b)
        for (std::size_t a = 0; a < n1; ++a)
          lmass[(c * n1 + b) * n1 + a] = jac * w[a] * w[b] * w[c];
  }
  std::size_t at(std::size_t a, std::size_t b, std::size_t c) const {
    return (c * n1 + b) * n1 + a;
  }
  std::size_t n1;
  const la::Vector& w;
  const la::DenseMatrix& D;
  la::DenseMatrix G;
  double jac, rx, ry, rz;
  std::vector<double> lmass;
};

// Assembled diagonal mass: the element lumped masses scattered to the nodes.
template <class Disc>
la::Vector assembled_mass(const Disc& d, const std::vector<double>& lmass) {
  la::Vector m(d.num_nodes(), 0.0);
  for (std::size_t e = 0; e < d.num_elements(); ++e) d.scatter_add(lmass.data(), e, m);
  return m;
}

void elem_stiffness(const Tables2d& t, const double* u, double* y) {
  const std::size_t n1 = t.n1;
  const double cx = t.jac * t.rx * t.rx;
  const double cy = t.jac * t.ry * t.ry;
  for (std::size_t k = 0; k < n1 * n1; ++k) y[k] = 0.0;
  // x-direction: for each row j, y(:,j) += cx*w_j * G u(:,j)
  for (std::size_t j = 0; j < n1; ++j) {
    const double* uj = u + j * n1;
    double* yj = y + j * n1;
    const double c = cx * t.w[j];
    for (std::size_t a = 0; a < n1; ++a) yj[a] += c * la::simd::dot(t.G.row(a), uj, n1);
  }
  // y-direction: for each column i, y(i,:) += cy*w_i * G u(i,:)
  for (std::size_t i = 0; i < n1; ++i) {
    const double c = cy * t.w[i];
    for (std::size_t b = 0; b < n1; ++b) {
      double s = 0.0;
      const double* Gb = t.G.row(b);
      for (std::size_t m = 0; m < n1; ++m) s += Gb[m] * u[m * n1 + i];
      y[b * n1 + i] += c * s;
    }
  }
}

void elem_stiffness(const Tables3d& t, const double* u, double* y) {
  const std::size_t n1 = t.n1;
  const auto& w = t.w;
  const double cx = t.jac * t.rx * t.rx;
  const double cy = t.jac * t.ry * t.ry;
  const double cz = t.jac * t.rz * t.rz;
  for (std::size_t q = 0; q < n1 * n1 * n1; ++q) y[q] = 0.0;
  // x-lines
  for (std::size_t c = 0; c < n1; ++c)
    for (std::size_t b = 0; b < n1; ++b) {
      const double coef = cx * w[b] * w[c];
      const double* line = u + t.at(0, b, c);  // contiguous in a
      double* yl = y + t.at(0, b, c);
      for (std::size_t a = 0; a < n1; ++a) yl[a] += coef * la::simd::dot(t.G.row(a), line, n1);
    }
  // y-lines
  for (std::size_t c = 0; c < n1; ++c)
    for (std::size_t a = 0; a < n1; ++a) {
      const double coef = cy * w[a] * w[c];
      for (std::size_t b = 0; b < n1; ++b) {
        double s = 0.0;
        const double* Gb = t.G.row(b);
        for (std::size_t m = 0; m < n1; ++m) s += Gb[m] * u[t.at(a, m, c)];
        y[t.at(a, b, c)] += coef * s;
      }
    }
  // z-lines
  for (std::size_t b = 0; b < n1; ++b)
    for (std::size_t a = 0; a < n1; ++a) {
      const double coef = cz * w[a] * w[b];
      for (std::size_t c = 0; c < n1; ++c) {
        double s = 0.0;
        const double* Gc = t.G.row(c);
        for (std::size_t m = 0; m < n1; ++m) s += Gc[m] * u[t.at(a, b, m)];
        y[t.at(a, b, c)] += coef * s;
      }
    }
}

template <class Disc, class Tables>
void stiffness_sweep(const Disc& d, const Tables& t, const la::Vector& u, la::Vector& y) {
  const std::size_t npe = d.nodes_per_element();
  if (y.size() != u.size()) y.resize(u.size());
  y.fill(0.0);
  std::vector<double> lu(npe), ly(npe);
  for (std::size_t e = 0; e < d.num_elements(); ++e) {
    d.gather(u, e, lu.data());
    elem_stiffness(t, lu.data(), ly.data());
    d.scatter_add(ly.data(), e, y);
  }
}

template <class Disc, class Tables>
void helmholtz_sweep(const Disc& d, double lambda, double nu, const la::Vector& u,
                     la::Vector& y) {
  const Tables t(d);
  stiffness_sweep(d, t, u, y);
  la::simd::scale(nu, y.data(), y.size());
  const la::Vector M = assembled_mass(d, t.lmass);
  for (std::size_t g = 0; g < u.size(); ++g) y[g] += lambda * M[g] * u[g];
}

}  // namespace

void apply_stiffness(const Discretization& d, const la::Vector& u, la::Vector& y) {
  stiffness_sweep(d, Tables2d(d), u, y);
}

void apply_stiffness(const Discretization3D& d, const la::Vector& u, la::Vector& y) {
  stiffness_sweep(d, Tables3d(d), u, y);
}

void apply_helmholtz(const Discretization& d, double lambda, double nu, const la::Vector& u,
                     la::Vector& y) {
  helmholtz_sweep<Discretization, Tables2d>(d, lambda, nu, u, y);
}

void apply_helmholtz(const Discretization3D& d, double lambda, double nu, const la::Vector& u,
                     la::Vector& y) {
  helmholtz_sweep<Discretization3D, Tables3d>(d, lambda, nu, u, y);
}

void gradient(const Discretization& d, const la::Vector& u, la::Vector& dudx,
              la::Vector& dudy) {
  const Tables2d t(d);
  const std::size_t n = d.num_nodes();
  const std::size_t npe = d.nodes_per_element();
  const std::size_t n1 = t.n1;
  for (la::Vector* v : {&dudx, &dudy}) {
    if (v->size() != n) v->resize(n);
    v->fill(0.0);
  }
  std::vector<double> lu(npe), dx(npe), dy(npe);
  for (std::size_t e = 0; e < d.num_elements(); ++e) {
    d.gather(u, e, lu.data());
    for (std::size_t j = 0; j < n1; ++j)
      for (std::size_t a = 0; a < n1; ++a)
        dx[j * n1 + a] = t.rx * la::simd::dot(t.D.row(a), lu.data() + j * n1, n1);
    for (std::size_t i = 0; i < n1; ++i)
      for (std::size_t b = 0; b < n1; ++b) {
        double s = 0.0;
        const double* Db = t.D.row(b);
        for (std::size_t m = 0; m < n1; ++m) s += Db[m] * lu[m * n1 + i];
        dy[b * n1 + i] = t.ry * s;
      }
    for (std::size_t k = 0; k < npe; ++k) {
      dx[k] *= t.lmass[k];
      dy[k] *= t.lmass[k];
    }
    d.scatter_add(dx.data(), e, dudx);
    d.scatter_add(dy.data(), e, dudy);
  }
  const la::Vector M = assembled_mass(d, t.lmass);
  for (std::size_t g = 0; g < n; ++g) {
    dudx[g] /= M[g];
    dudy[g] /= M[g];
  }
}

void gradient(const Discretization3D& d, const la::Vector& u, la::Vector& ddx, la::Vector& ddy,
              la::Vector& ddz) {
  const Tables3d t(d);
  const std::size_t n = d.num_nodes();
  const std::size_t npe = d.nodes_per_element();
  const std::size_t n1 = t.n1;
  const auto& D = t.D;
  for (la::Vector* v : {&ddx, &ddy, &ddz}) {
    if (v->size() != n) v->resize(n);
    v->fill(0.0);
  }
  std::vector<double> lu(npe), dx(npe), dy(npe), dz(npe);
  for (std::size_t e = 0; e < d.num_elements(); ++e) {
    d.gather(u, e, lu.data());
    for (std::size_t c = 0; c < n1; ++c)
      for (std::size_t b = 0; b < n1; ++b)
        for (std::size_t a = 0; a < n1; ++a) {
          double sx = 0.0, sy = 0.0, sz = 0.0;
          for (std::size_t m = 0; m < n1; ++m) {
            sx += D(a, m) * lu[t.at(m, b, c)];
            sy += D(b, m) * lu[t.at(a, m, c)];
            sz += D(c, m) * lu[t.at(a, b, m)];
          }
          const std::size_t k = t.at(a, b, c);
          dx[k] = t.rx * sx * t.lmass[k];
          dy[k] = t.ry * sy * t.lmass[k];
          dz[k] = t.rz * sz * t.lmass[k];
        }
    d.scatter_add(dx.data(), e, ddx);
    d.scatter_add(dy.data(), e, ddy);
    d.scatter_add(dz.data(), e, ddz);
  }
  const la::Vector M = assembled_mass(d, t.lmass);
  for (std::size_t g = 0; g < n; ++g) {
    ddx[g] /= M[g];
    ddy[g] /= M[g];
    ddz[g] /= M[g];
  }
}

}  // namespace sem::reference
