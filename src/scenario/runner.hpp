#pragma once
// scenario::Runner — one object that instantiates a complete solver stack
// from a parsed Scenario and drives it to completion. It subsumes the
// hand-rolled setup the examples used to carry: quickstart and coupled3d are
// now thin wrappers that load a scenario (file or built-in preset) and call
// run(). A Runner built from the matching preset reproduces the handwritten
// example bit-for-bit (STATE_DIGEST equality — pinned by scenario_test).
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
/// signature. Variants of a sweep almost always share the mesh; building
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

struct RunnerOptions {
  std::string restart_dir;         ///< non-empty: resume from this checkpoint
  std::int64_t intervals = -1;     ///< >= 0 overrides scenario time.intervals
  std::int64_t checkpoint_every = -1;  ///< >= 0 overrides checkpoint.every
  std::string checkpoint_dir;      ///< non-empty overrides checkpoint.dir
  bool verbose = false;            ///< reproduce the example progress lines
  /// Optional fault injection: check(fault_id, interval) runs once per
  /// coupling interval (failure-isolation tests).
  resilience::FaultPlan* fault_plan = nullptr;
  int fault_id = 0;
};

struct RunResult {
  std::uint32_t digest = 0;        ///< CRC32 over the component states
  std::size_t cg_iters = 0;        ///< continuum CG iterations (develop + coupled)
  std::size_t develop_steps = 0;   ///< develop steps actually taken
  std::size_t intervals_run = 0;
  bool restarted = false;
  int start_interval = 0;
  double t_ns = 0.0;               ///< continuum time after restart load
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

  /// Build the stack and advance all intervals. Throws JsonError on
  /// configuration problems, SnapshotError on restart failures, and
  /// propagates InjectedFault from the fault plan.
  RunResult run();

  /// Donor blob for warm-starting sibling variants (valid after run()):
  /// {signature, continuum state in its checkpoint format}.
  std::vector<std::uint8_t> warm_state() const;
  /// Discretization + solver fingerprint gating warm-start transfer.
  std::string warm_signature() const;

  const Scenario& scenario() const { return sc_; }

  // --- introspection for the example epilogues (valid after run()) ---
  std::size_t sem_nodes() const;
  std::size_t exchanges() const;
  const coupling::ScaleMap& scales() const { return scales_; }
  dpd::FieldSampler& sampler() { return *sampler_; }
  dpd::DpdSystem& dpd() { return *dpd_; }
  dpd::FlowBc& flow_bc() { return *bc_; }
  /// Continuum u at a point ("cdc" kind).
  double eval_u(double x, double y) const;
  /// Continuum u at a point ("cdc3d" kind).
  double eval_u(double x, double y, double z) const;
  nektar1d::ArterialNetwork& network() { return *net_; }

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
  std::int64_t checkpoint_every() const;
  std::string checkpoint_dir() const;
  template <class NS>
  void apply_warm_start(NS& ns);
  template <class NS>
  std::size_t develop(NS& ns);
  std::uint32_t compute_digest() const;
  void maybe_checkpoint(std::int64_t interval, double time);
  template <class NS>
  RunResult run_coupled(Continuum<NS>& c);
  RunResult run_net1d();

  Scenario sc_;
  RunnerOptions opts_;
  SharedTables* tables_;

  std::variant<Continuum2D, Continuum3D> continuum_;
  std::unique_ptr<dpd::DpdSystem> dpd_;
  std::unique_ptr<dpd::FlowBc> bc_;
  std::unique_ptr<dpd::FieldSampler> sampler_;
  std::unique_ptr<nektar1d::ArterialNetwork> net_;
  std::unique_ptr<resilience::CheckpointCoordinator> coord_;
  coupling::ScaleMap scales_;

  WarmMode warm_mode_ = WarmMode::Off;
  std::vector<std::uint8_t> warm_blob_;
  bool warm_applied_ = false;
  std::size_t develop_steps_ = 0;
};

}  // namespace scenario
