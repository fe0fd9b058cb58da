#pragma once
// Arterial network: vessels joined at junctions (bifurcations, merges, or
// general M-way joints as in the Circle of Willis), with prescribed-flow
// inlets and RCR-windkessel outlets. Junction states are matched each step
// by Newton iteration on characteristic preservation + mass conservation +
// total-pressure continuity (the standard spectral/hp 1D hemodynamics
// treatment).

#include <functional>
#include <memory>
#include <vector>

#include "nektar1d/artery.hpp"

namespace nektar1d {

enum class End { Left, Right };

struct Attachment {
  int vessel = -1;
  End end = End::Right;
};

class ArterialNetwork {
public:
  /// Returns the new vessel's id.
  int add_vessel(const VesselParams& p);

  std::size_t num_vessels() const { return vessels_.size(); }
  const Artery& vessel(int v) const { return *vessels_[static_cast<std::size_t>(v)]; }
  Artery& vessel(int v) { return *vessels_[static_cast<std::size_t>(v)]; }

  /// Prescribed volumetric inflow Q(t) at the left end of `v`.
  void set_inlet_flow(int v, std::function<double(double)> Q);

  /// RCR windkessel at the right end of `v`: proximal resistance Rp,
  /// distal resistance Rd, compliance C.
  void set_outlet_rcr(int v, double Rp, double Rd, double C);

  /// Pure resistance outlet (RCR with C -> 0 shortcut).
  void set_outlet_resistance(int v, double R);

  /// Join vessel ends at a junction (any number >= 2; a classic bifurcation
  /// is {parent Right, child1 Left, child2 Left}).
  void add_junction(std::vector<Attachment> atts);

  /// Advance the whole network by dt.
  void step(double dt);

  /// CFL-limited time step suggestion.
  double suggested_dt(double cfl = 0.3) const;

  double time() const { return t_; }

  /// Diagnostics at a vessel end.
  double pressure_at(int v, End e) const;
  double flow_at(int v, End e) const;

  /// Checkpoint the network state: time, every vessel's (A, U) fields and
  /// ghosts, and the windkessel capacitor pressures. Topology (vessels,
  /// junctions, BCs) is configuration and must match at restart.
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);

private:
  struct Inlet {
    int vessel;
    std::function<double(double)> Q;
  };
  struct Outlet {
    int vessel;
    double Rp, Rd, C;
    double pc = 0.0;  ///< windkessel capacitor pressure (state)
  };
  struct Junction {
    std::vector<Attachment> atts;
  };

  void apply_inlet(const Inlet& in, double t_new);
  void apply_outlet(Outlet& out, double dt);
  void apply_junction(const Junction& j);

  std::vector<std::unique_ptr<Artery>> vessels_;
  // analyze: no-checkpoint (inflow waveform callbacks are configuration)
  std::vector<Inlet> inlets_;
  std::vector<Outlet> outlets_;
  // analyze: no-checkpoint (network topology is configuration, must match at restart)
  std::vector<Junction> junctions_;
  double t_ = 0.0;
};

}  // namespace nektar1d
