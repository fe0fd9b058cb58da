#pragma once
// One key list per schema struct, in document order, each key with its
// range when a single value decides it. from_json / to_json find these by
// argument-dependent lookup, which searches only the struct's own namespace
// (and no unnamed one): the solver structs' lists live in theirs. Code that
// enumerates the schema (SchemaTest.EveryBoundHoldsAtItsEdge) walks the same
// lists, from sections(kind) down.

#include <string>
#include <tuple>

#include "scenario/fields.hpp"
#include "scenario/schema.hpp"
#include "sem/evaluate.hpp"

namespace coupling {

inline auto fields(const ScaleMap*) {
  using S = ScaleMap;
  using scenario::Field;
  return std::tuple{Field{"L_ns", &S::L_ns}.gt(0), Field{"L_dpd", &S::L_dpd}.gt(0),
                    Field{"nu_ns", &S::nu_ns}.gt(0), Field{"nu_dpd", &S::nu_dpd}.gt(0)};
}

}  // namespace coupling

namespace dpd {

inline auto fields(const FlowBcParams*) {
  using S = FlowBcParams;
  using scenario::Field;
  return std::tuple{Field{"axis", &S::axis}.in(0, 2), Field{"buffer_len", &S::buffer_len}.gt(0),
                    Field{"density", &S::density}.gt(0), Field{"relax", &S::relax}.in(0, 1),
                    Field{"seed", &S::seed}};
}

inline auto fields(const SamplerParams*) {
  using S = SamplerParams;
  using scenario::Field;
  return std::tuple{Field{"nx", &S::nx}.ge(1), Field{"ny", &S::ny}.ge(1),
                    Field{"nz", &S::nz}.ge(1)};
}

}  // namespace dpd

namespace scenario {

inline auto fields(const MeshSpec*) {
  using S = MeshSpec;
  return std::tuple{Field{"length", &S::length}.gt(0), Field{"height", &S::height}.gt(0),
                    Field{"nx", &S::nx}.ge(1), Field{"ny", &S::ny}.ge(1),
                    Field{"order", &S::order}.in(1, sem::kMaxOrder),
                    Field{"cavity", &S::cavity}};
}

inline auto fields(const Mesh3dSpec*) {
  using S = Mesh3dSpec;
  return std::tuple{Field{"lx", &S::lx}.gt(0), Field{"ly", &S::ly}.gt(0),
                    Field{"lz", &S::lz}.gt(0), Field{"nx", &S::nx}.ge(1),
                    Field{"ny", &S::ny}.ge(1), Field{"nz", &S::nz}.ge(1),
                    Field{"order", &S::order}.in(1, sem::kMaxOrder)};
}

inline auto fields(const SemSpec*) {
  using S = SemSpec;
  return std::tuple{Field{"nu", &S::nu}.gt(0), Field{"dt", &S::dt}.gt(0),
                    Field{"time_order", &S::time_order}.in(1, 2),
                    Field{"inlet_umax", &S::inlet_umax},
                    Field{"inlet_pulse", &S::inlet_pulse}.in(0, 1)};
}

inline constexpr const char* kGeometryKinds[] = {"none", "channel_z", "channel_with_cavity_z"};

inline auto fields(const DpdGeometrySpec*) {
  using S = DpdGeometrySpec;
  return std::tuple{Field{"kind", &S::kind}.one_of(kGeometryKinds),
                    Field{"height", &S::height}.gt(0), Field{"cavity", &S::cavity}};
}

inline auto fields(const DpdSpec*) {
  using S = DpdSpec;
  return std::tuple{Field{"box", &S::box}.gt(0), Field{"periodic", &S::periodic},
                    Field{"rc", &S::rc}.gt(0), Field{"kBT", &S::kBT}.ge(0),
                    Field{"dt", &S::dt}.gt(0), Field{"density", &S::density}.gt(0),
                    Field{"seed", &S::seed}, Field{"fill_margin", &S::fill_margin}.ge(0),
                    Field{"geometry", &S::geometry}};
}

inline auto fields(const PlateletSpec*) {
  using S = PlateletSpec;
  return std::tuple{Field{"count", &S::count}.ge(0),
                    Field{"trigger_distance", &S::trigger_distance}.ge(0),
                    Field{"activation_delay", &S::activation_delay}.ge(0),
                    Field{"bind_distance", &S::bind_distance}.ge(0)};
}

inline auto fields(const CouplingSpec*) {
  using S = CouplingSpec;
  return std::tuple{Field{"scales", &S::scales},
                    Field{"exchange_every_ns", &S::exchange_every_ns}.ge(1),
                    Field{"dpd_per_ns", &S::dpd_per_ns}.ge(1), Field{"region", &S::region}};
}

inline auto fields(const TimeSpec*) {
  using S = TimeSpec;
  return std::tuple{Field{"intervals", &S::intervals}.ge(0),
                    Field{"develop_steps", &S::develop_steps}.ge(0),
                    Field{"develop_tol", &S::develop_tol}.ge(0),
                    Field{"sample_from", &S::sample_from}};
}

inline auto fields(const CheckpointSpec*) {
  using S = CheckpointSpec;
  return std::tuple{Field{"every", &S::every}.ge(0), Field{"dir", &S::dir}};
}

inline auto fields(const VesselSpec*) {
  using S = VesselSpec;
  return std::tuple{Field{"length", &S::length}.gt(0), Field{"A0", &S::A0}.gt(0),
                    Field{"beta", &S::beta}.gt(0), Field{"rho", &S::rho}.gt(0),
                    Field{"Kr", &S::Kr}, Field{"elements", &S::elements}.ge(1),
                    Field{"order", &S::order}.ge(1)};
}

inline auto fields(const InletSpec*) {
  using S = InletSpec;
  return std::tuple{Field{"vessel", &S::vessel}, Field{"q_mean", &S::q_mean},
                    Field{"q_amp", &S::q_amp}, Field{"freq", &S::freq}};
}

/// The windkessel divides by c and by rd * c.
inline auto fields(const OutletSpec*) {
  using S = OutletSpec;
  return std::tuple{Field{"vessel", &S::vessel}, Field{"rp", &S::rp}.ge(0),
                    Field{"rd", &S::rd}.ge(0), Field{"c", &S::c}.gt(0)};
}

inline constexpr const char* kEnds[] = {"left", "right"};

inline auto fields(const AttachmentSpec*) {
  using S = AttachmentSpec;
  return std::tuple{Field{"vessel", &S::vessel}, Field{"end", &S::end}.one_of(kEnds)};
}

inline auto fields(const NetworkSpec*) {
  using S = NetworkSpec;
  return std::tuple{Field{"vessels", &S::vessels}, Field{"junctions", &S::junctions},
                    Field{"inlets", &S::inlets}, Field{"outlets", &S::outlets},
                    Field{"dt", &S::dt}.ge(0), Field{"cfl", &S::cfl}.gt(0),
                    Field{"steps_per_interval", &S::steps_per_interval}.gt(0)};
}

/// The keys every document starts with; `kind` then picks the sections.
inline auto header() {
  return std::tuple{Field{"version", &Scenario::version, Use::Required},
                    Field{"name", &Scenario::name},
                    Field{"kind", &Scenario::kind, Use::Required}};
}

/// The sections a kind reads and writes, in document order.
inline auto sections(const std::string& kind) {
  const bool cdc = kind == "cdc", cdc3d = kind == "cdc3d", net1d = kind == "net1d";
  const bool coupled = cdc || cdc3d;
  const auto in = [](bool used, Use use = Use::Optional) { return used ? use : Use::Absent; };
  using S = Scenario;
  return std::tuple{Field{"mesh", &S::mesh, in(cdc)}, Field{"mesh3d", &S::mesh3d, in(cdc3d)},
                    Field{"sem", &S::sem, in(coupled)}, Field{"dpd", &S::dpd, in(coupled)},
                    Field{"platelets", &S::platelets, in(coupled)},
                    Field{"flow_bc", &S::flow_bc, in(coupled)},
                    Field{"coupling", &S::coupling, in(coupled, Use::Required)},
                    Field{"sampler", &S::sampler, in(coupled)},
                    Field{"network", &S::network, in(net1d, Use::Required)},
                    Field{"time", &S::time, in(coupled || net1d)},
                    Field{"checkpoint", &S::checkpoint, in(coupled || net1d)}};
}

}  // namespace scenario
