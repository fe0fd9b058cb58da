#pragma once
// Shared small types for the DPD engine.

#include <cmath>
#include <cstdint>

namespace dpd {

struct Vec3 {
  double x = 0.0, y = 0.0, z = 0.0;

  Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  Vec3& operator-=(const Vec3& o) {
    x -= o.x;
    y -= o.y;
    z -= o.z;
    return *this;
  }
  double dot(const Vec3& o) const { return x * o.x + y * o.y + z * o.z; }
  double norm2() const { return dot(*this); }
  double norm() const { return std::sqrt(norm2()); }
};

/// Minimum-image wrap of one separation component v = b - a along a
/// periodic axis of length L. Every pair path (neighbor-list build and
/// queries, the force gather, bonds, platelets) goes through this one
/// definition, so they all agree bit for bit. It is odd-symmetric:
/// min_image_1d(-v, L) == -min_image_1d(v, L) exactly, including v = ±L/2,
/// which is what makes a pair's separation independent of visit order.
inline double min_image_1d(double v, double L) {
  if (v > 0.5 * L) return v - L;
  if (v < -0.5 * L) return v + L;
  return v;
}

/// Wrap of a coordinate v into [0, L) along a periodic axis of length L:
/// bitwise `fmod(v, L)` plus L when negative, without the fmod in the
/// common cases, where that form returns v on [0, L), v - L on [L, 2L)
/// (exact by Sterbenz) and v + L on (-L, 0). Everything else (-L, 2L and
/// beyond, NaN, ±inf) takes the fmod form. Binning and the integrator call
/// this per particle.
inline double wrap_1d(double v, double L) {
  if (v >= 0.0) {
    if (v < L) return v;
    if (v < 2.0 * L) return v - L;
  } else if (v > -L) {
    return v + L;
  }
  v = std::fmod(v, L);
  return v < 0.0 ? v + L : v;
}

/// Particle species: a label carried into checkpoints, the VTK output and
/// the body-force callback. The pair coefficients are the same for every
/// species; RBC beads and platelets differ through their force modules.
enum Species : std::uint8_t {
  kSolvent = 0,
  kRbcBead = 1,
  kPlatelet = 2,
  kNumSpecies = 3,
};

/// Platelet activation state (Pivkin-Richardson-Karniadakis model).
enum class PlateletState : std::uint8_t {
  Passive = 0,    ///< circulating, non-adhesive
  Triggered = 1,  ///< touched an adhesive region; activation delay running
  Active = 2,     ///< adhesive: attracts wall sites and other active platelets
  Bound = 3,      ///< arrested at the wall (part of the thrombus)
};

/// Deterministic symmetric counter-based RNG used for the pairwise random
/// force: the same (step, i, j) always yields the same variate on both
/// partners, with no per-thread state (SplitMix64-style mixing).
inline double pair_gaussian_like(std::uint64_t step, std::uint32_t i, std::uint32_t j) {
  std::uint64_t z = step * 0x9E3779B97F4A7C15ull;
  const std::uint64_t lo = i < j ? i : j;
  const std::uint64_t hi = i < j ? j : i;
  z ^= (lo + 0xBF58476D1CE4E5B9ull) * 0x94D049BB133111EBull;
  z ^= (hi + 0x94D049BB133111EBull) * 0xBF58476D1CE4E5B9ull;
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ull;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBull;
  z ^= z >> 31;
  // uniform in [-sqrt(3), sqrt(3)): zero mean, unit variance — a standard
  // substitution for gaussian noise in DPD (Groot & Warren 1997).
  const double u = static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
  return (2.0 * u - 1.0) * 1.7320508075688772;
}

}  // namespace dpd
