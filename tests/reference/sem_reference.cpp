#include "reference/sem_reference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "la/cg.hpp"
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

// Values of the Lagrange cardinal polynomials through the GLL nodes at x.
la::Vector lagrange_basis_at(const GllRule& rule, double x) {
  const std::size_t n = rule.nodes.size();
  la::Vector v(n);
  // If x coincides with a node, the basis is a Kronecker delta.
  for (std::size_t k = 0; k < n; ++k) {
    if (std::fabs(x - rule.nodes[k]) < 1e-14) {
      v[k] = 1.0;
      return v;
    }
  }
  la::Vector bw(n);
  for (std::size_t k = 0; k < n; ++k) {
    double prod = 1.0;
    for (std::size_t m = 0; m < n; ++m)
      if (m != k) prod *= (rule.nodes[k] - rule.nodes[m]);
    bw[k] = 1.0 / prod;
  }
  double denom = 0.0;
  for (std::size_t k = 0; k < n; ++k) denom += bw[k] / (x - rule.nodes[k]);
  for (std::size_t k = 0; k < n; ++k) v[k] = (bw[k] / (x - rule.nodes[k])) / denom;
  return v;
}

// Cell containing (x, y), or -1 outside the mesh/mask or at a non-finite
// point; a point on the far boundary belongs to the last cell.
long locate(const mesh::QuadMesh& mesh, double x, double y) {
  const double fx = (x - mesh.x0()) / mesh.dx();
  const double fy = (y - mesh.y0()) / mesh.dy();
  const auto nx = static_cast<double>(mesh.grid_nx());
  const auto ny = static_cast<double>(mesh.grid_ny());
  if (!(fx > -1.0 && fx < nx + 1.0 && fy > -1.0 && fy < ny + 1.0)) return -1;
  long i = static_cast<long>(std::floor(fx));
  long j = static_cast<long>(std::floor(fy));
  if (i == static_cast<long>(mesh.grid_nx()) && std::fabs(fx - i) < 1e-12) --i;
  if (j == static_cast<long>(mesh.grid_ny()) && std::fabs(fy - j) < 1e-12) --j;
  if (i < 0 || j < 0 || i >= static_cast<long>(mesh.grid_nx()) ||
      j >= static_cast<long>(mesh.grid_ny()))
    return -1;
  if (!mesh.is_active(static_cast<std::size_t>(i), static_cast<std::size_t>(j))) return -1;
  return static_cast<long>(
      mesh.cell_index(static_cast<std::size_t>(i), static_cast<std::size_t>(j)));
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

double evaluate(const Discretization& d, const la::Vector& field, double x, double y) {
  const auto& mesh = d.mesh();
  const long e = locate(mesh, x, y);
  if (e < 0) throw std::out_of_range("reference::evaluate: point outside domain");
  const auto [ox, oy] = mesh.cell_origin(static_cast<std::size_t>(e));
  const double xi = 2.0 * (x - ox) / mesh.dx() - 1.0;
  const double eta = 2.0 * (y - oy) / mesh.dy() - 1.0;
  const la::Vector lx = lagrange_basis_at(d.rule(), std::clamp(xi, -1.0, 1.0));
  const la::Vector ly = lagrange_basis_at(d.rule(), std::clamp(eta, -1.0, 1.0));
  double s = 0.0;
  for (int b = 0; b <= d.order(); ++b) {
    double row = 0.0;
    for (int a = 0; a <= d.order(); ++a)
      row += lx[static_cast<std::size_t>(a)] *
             field[d.global_node(static_cast<std::size_t>(e), a, b)];
    s += ly[static_cast<std::size_t>(b)] * row;
  }
  return s;
}

double evaluate(const Discretization3D& d, const la::Vector& field, double x, double y,
                double z) {
  auto clamp_elem = [](double v, double h, std::size_t n) {
    auto e = static_cast<long>(std::floor(v / h));
    return static_cast<std::size_t>(std::clamp<long>(e, 0, static_cast<long>(n) - 1));
  };
  // element counts per axis (L / h recovers them exactly for any sane grid)
  const auto nx = static_cast<std::size_t>(std::lround(d.Lx() / d.dx()));
  const auto ny = static_cast<std::size_t>(std::lround(d.Ly() / d.dy()));
  const auto nz = static_cast<std::size_t>(std::lround(d.Lz() / d.dz()));
  auto inside = [](double v, double L) { return v >= -1e-12 && v <= L + 1e-12; };
  if (!inside(x, d.Lx()) || !inside(y, d.Ly()) || !inside(z, d.Lz()))
    throw std::out_of_range("reference::evaluate: point outside box");
  const std::size_t i = clamp_elem(x, d.dx(), nx);
  const std::size_t j = clamp_elem(y, d.dy(), ny);
  const std::size_t k = clamp_elem(z, d.dz(), nz);
  const std::size_t e = (k * ny + j) * nx + i;
  auto ref = [](double v, double h, std::size_t idx) {
    return std::clamp(2.0 * (v - static_cast<double>(idx) * h) / h - 1.0, -1.0, 1.0);
  };
  const la::Vector lx = lagrange_basis_at(d.rule(), ref(x, d.dx(), i));
  const la::Vector ly = lagrange_basis_at(d.rule(), ref(y, d.dy(), j));
  const la::Vector lz = lagrange_basis_at(d.rule(), ref(z, d.dz(), k));
  double s = 0.0;
  for (int c = 0; c <= d.order(); ++c) {
    double sc = 0.0;
    for (int b = 0; b <= d.order(); ++b) {
      double sb = 0.0;
      for (int a = 0; a <= d.order(); ++a)
        sb += lx[static_cast<std::size_t>(a)] * field[d.global_node(e, a, b, c)];
      sc += ly[static_cast<std::size_t>(b)] * sb;
    }
    s += lz[static_cast<std::size_t>(c)] * sc;
  }
  return s;
}

template <class Disc>
la::Vector helmholtz_jacobi_cg(const Operators<Disc>& ops, double lambda, double nu,
                               const std::vector<typename Disc::Boundary>& dirichlet,
                               const la::Vector& f,
                               const typename Disc::template PointFn<>& g) {
  const auto& d = ops.disc();
  const auto& M = ops.mass_diag();
  const std::size_t n = d.num_nodes();
  std::vector<char> fixed(n, 0);
  for (const auto& b : dirichlet)
    for (std::size_t k : d.boundary_nodes(b)) fixed[k] = 1;
  la::Vector lift(n, 0.0), Alift(n);
  for (std::size_t k = 0; k < n; ++k)
    if (fixed[k]) lift[k] = eval_at(g, d.node(k));
  ops.apply_helmholtz(lambda, nu, lift, Alift);
  la::Vector b(n);
  for (std::size_t k = 0; k < n; ++k) b[k] = fixed[k] ? 0.0 : M[k] * f[k] - Alift[k];
  const bool singular = dirichlet.empty() && lambda == 0.0;
  if (singular) {  // consistent rhs: remove its constant-mode part
    double sb = 0.0;
    for (std::size_t k = 0; k < n; ++k) sb += b[k];
    const double shift = sb / ops.integral(la::Vector(n, 1.0));
    for (std::size_t k = 0; k < n; ++k) b[k] -= M[k] * shift;
  }
  la::Vector t(n), y(n);
  la::LinearOperator A = [&](const double* x, double* out) {
    for (std::size_t k = 0; k < n; ++k) t[k] = fixed[k] ? 0.0 : x[k];
    ops.apply_helmholtz(lambda, nu, t, y);
    for (std::size_t k = 0; k < n; ++k) out[k] = fixed[k] ? x[k] : y[k];
  };
  la::Vector diag = ops.helmholtz_diag(lambda, nu);
  for (std::size_t k = 0; k < n; ++k)
    if (fixed[k]) diag[k] = 1.0;
  la::Vector u(n, 0.0);
  const auto res = la::cg_solve(A, b, u, la::jacobi_preconditioner(diag),
                                {.rtol = 1e-14, .atol = 0.0, .max_iter = 20000});
  if (!res.converged)
    throw std::runtime_error("helmholtz_jacobi_cg: residual " +
                             std::to_string(res.residual_norm) + " after " +
                             std::to_string(res.iterations) + " iterations");
  for (std::size_t k = 0; k < n; ++k) u[k] += lift[k];
  if (singular) {
    const double mean = ops.integral(u) / ops.integral(la::Vector(n, 1.0));
    for (std::size_t k = 0; k < n; ++k) u[k] -= mean;
  }
  return u;
}

template la::Vector helmholtz_jacobi_cg(const Operators<Discretization>&, double, double,
                                        const std::vector<int>&, const la::Vector&,
                                        const Discretization::PointFn<>&);
template la::Vector helmholtz_jacobi_cg(const Operators<Discretization3D>&, double, double,
                                        const std::vector<HexFace>&, const la::Vector&,
                                        const Discretization3D::PointFn<>&);

}  // namespace sem::reference
