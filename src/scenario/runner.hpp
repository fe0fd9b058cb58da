#pragma once
// scenario::Runner — one object that instantiates a complete solver stack
// from a parsed Scenario and drives it; the only code that builds a coupled
// NS + DPD + FlowBc + coupler stack. quickstart and coupled3d call run(); the
// coupled figures and the aneurysm examples call build(), then advance() in
// blocks, reading the run in between. A Runner built from a preset
// reproduces the hand-written stack bit-for-bit (STATE_DIGEST equality).
// The Scenario already holds the solvers' parameter structs (ScaleMap,
// FlowBcParams, SamplerParams) and every integer in its solver's type, so
// the Runner hands each value on as it is: no copies, no narrowing casts.
//
// Runners are also the unit of work of the EnsembleEngine (ensemble.hpp):
// they accept shared discretization tables (cross-variant redundancy),
// continuum warm-start blobs from a completed nearby parameter point, and a
// FaultPlan hook for per-variant failure-isolation tests.

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "coupling/cdc.hpp"
#include "dpd/platelets.hpp"
#include "nektar1d/network.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault.hpp"
#include "scenario/schema.hpp"

namespace scenario {

/// Cross-variant warm-start policy (docs/SCENARIOS.md):
///   Off   — cold start, bitwise-reference behaviour.
///   State — seed the full continuum state from the donor, so a
///           tolerance-terminated develop phase (time.develop_tol > 0)
///           converges in a handful of steps instead of hundreds.
enum class WarmMode : std::uint8_t { Off, State };

/// Per-rank cache of immutable discretization tables, keyed by the mesh
/// spec's mesh_key. Variants of a sweep almost always share the mesh; building
/// the gather/scatter and quadrature tables once per rank instead of once
/// per variant is the first redundancy an ensemble can exploit. (Only const
/// objects are shared — Operators hold mutable scratch and stay per-Runner.)
class SharedTables {
 public:
  std::shared_ptr<const sem::Discretization> quad(const MeshSpec& m);
  std::shared_ptr<const sem::Discretization3D> hex(const Mesh3dSpec& m);
  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }

 private:
  std::vector<std::pair<std::string, std::shared_ptr<const sem::Discretization>>> quad_;
  std::vector<std::pair<std::string, std::shared_ptr<const sem::Discretization3D>>> hex_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

/// A restart checkpoint whose step lies past the run's last interval.
struct RestartPastEndError : resilience::SnapshotError {
  using resilience::SnapshotError::SnapshotError;
};

struct RunnerOptions {
  std::string restart_dir;      ///< non-empty: resume from this checkpoint
  /// >= 0 overrides time.intervals. Only bench/e2e/coupled.cpp's resume legs
  /// set it; it goes with ROADMAP item 2's next change to that bench.
  std::int64_t intervals = -1;
  bool verbose = false;         ///< reproduce the example progress lines
  /// Optional fault injection: check(fault_id, interval) runs once per
  /// coupling interval (failure-isolation tests).
  resilience::FaultPlan* fault_plan = nullptr;
  int fault_id = 0;
};

struct RunResult {
  std::uint32_t digest = 0;        ///< CheckpointCoordinator::digest() at the end
  std::size_t cg_iters = 0;        ///< continuum CG iterations (develop + coupled)
  std::size_t develop_steps = 0;   ///< develop steps actually taken
  std::size_t intervals_run = 0;
  bool restarted = false;
};

class Runner {
 public:
  /// `tables` may be nullptr (each Runner builds its own discretization).
  explicit Runner(Scenario sc, RunnerOptions opts = {}, SharedTables* tables = nullptr);
  ~Runner();

  /// Install a donor warm-start blob (from another Runner's warm_state())
  /// before run(). Blobs whose signature does not match this scenario are
  /// ignored — a mismatched donor must never corrupt a run.
  void set_warm_start(WarmMode mode, std::vector<std::uint8_t> blob);
  /// True when the installed blob's signature matched and will be applied.
  bool warm_applied() const { return warm_applied_; }

  /// Build the stack: develop and fill (seeding platelets) on a fresh start,
  /// or load the restart checkpoint (SnapshotError on damage or a step past the end).
  void build();
  /// Run `n` more intervals, checkpointing on schedule; propagates
  /// InjectedFault from the fault plan. Call build() first.
  void advance(std::int64_t n);
  /// build(), then advance through the remaining intervals.
  RunResult run();

  /// Donor blob for warm-starting sibling variants (valid after run()):
  /// {signature, continuum state in its checkpoint format}.
  std::vector<std::uint8_t> warm_state() const;
  /// Discretization + solver fingerprint gating warm-start transfer.
  std::string warm_signature() const;

  const Scenario& scenario() const { return sc_; }

  // --- introspection for the epilogues (valid after build()) ---
  // The kind-specific accessors throw std::logic_error naming the accessor
  // and the scenario kind when this run built no such component.
  std::size_t sem_nodes() const;
  std::size_t exchanges() const;
  const coupling::ScaleMap& scales() const { return sc_.coupling.scales; }
  dpd::FieldSampler& sampler();
  dpd::DpdSystem& dpd();
  dpd::FlowBc& flow_bc();
  /// Built when platelets.count > 0.
  dpd::PlateletModel& platelets();
  /// The continuum solver ("cdc" kind); its disc() is the mesh.
  const sem::NavierStokes<sem::Discretization>& ns2d() const;
  /// Fig. 9 diagnostic: mean |u_DPD - u_NS| over the sampler's bins.
  /// Consumes the sampler window.
  double interface_mismatch();
  /// Continuum u at a point ("cdc" kind).
  double eval_u(double x, double y) const;
  /// Continuum u at a point ("cdc3d" kind).
  double eval_u(double x, double y, double z) const;
  nektar1d::ArterialNetwork& network();

 private:
  /// The continuum solver of a coupled run and its coupler to the DPD box.
  template <class NS>
  struct Continuum {
    std::shared_ptr<const typename NS::Disc> disc;
    std::unique_ptr<NS> ns;
    std::unique_ptr<coupling::BasicContinuumDpdCoupler<NS>> cdc;
  };
  using Continuum2D = Continuum<sem::NavierStokes<sem::Discretization>>;
  using Continuum3D = Continuum<sem::NavierStokes<sem::Discretization3D>>;

  std::int64_t intervals() const;
  template <class NS>
  void apply_warm_start(NS& ns);
  template <class NS>
  std::size_t develop(NS& ns);
  void maybe_checkpoint(std::int64_t interval, double time);
  template <class NS>
  void build_coupled(Continuum<NS>& c);
  void build_net1d();

  Scenario sc_;
  RunnerOptions opts_;
  SharedTables* tables_;

  std::variant<Continuum2D, Continuum3D> continuum_;
  std::unique_ptr<dpd::DpdSystem> dpd_;
  std::unique_ptr<dpd::FlowBc> bc_;
  std::unique_ptr<dpd::FieldSampler> sampler_;
  std::shared_ptr<dpd::PlateletModel> platelets_;
  std::unique_ptr<nektar1d::ArterialNetwork> net_;
  std::unique_ptr<resilience::CheckpointCoordinator> coord_;

  WarmMode warm_mode_ = WarmMode::Off;
  std::vector<std::uint8_t> warm_blob_;
  bool warm_applied_ = false;
  RunResult res_;
  std::int64_t interval_ = 0;  ///< the next interval advance() runs
};

}  // namespace scenario
