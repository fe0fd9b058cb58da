"""sem-hot-alloc, exchange-hot-alloc, pair-hot-alloc: constructing a
`std::vector` or an `la::Vector` inside a hot-path function body is a heap
allocation per apply, per point or per force pass; the fast paths hoist all
scratch into persistent members or stack arrays (docs/PERF.md). One table
(HOT_ALLOC) gives each rule its path scope, the bodies it gates and its
opt-out marker, `// analyze: <marker> (<reason>)` on the line or up to two
lines above:
  sem-hot-alloc       src/sem/, the operator applies `apply_*` / `elem_*`,
                      the element sweeps `sweep` / `gradient`, the
                      fast-diagonalisation `transform`, the lane split
                      helper `split`, the stepper's `step` /
                      `fill_bc_values` and the point evaluator `evaluate` /
                      `tensor_sum` / `locate` / `lagrange_basis_at`, whose
                      per-lane scratch and stage are members sized once;
                      sem-alloc-ok (no body in src/ carries it: the scalar
                      baselines with per-call scratch live in
                      tests/reference)
  exchange-hot-alloc  src/dpd/exchange/, the halo fast path `begin_update` /
                      `finish_update`, the `pack_*` / `unpack_*` packers and
                      the layout rebuild (`full_rebuild` / `rebuild_halo`,
                      the migration `exchange` / `claim`, the halo `ship` /
                      `relayout`), whose scratch lives in members;
                      exchange-alloc-ok (distribute() and the gather and
                      checkpoint paths are cold and not gated)
  pair-hot-alloc      the DPD force pass, the open-boundary churn and what
                      runs them on every core: src/dpd/system.cpp's
                      `DpdSystem::pair_*` pair pass and
                      `DpdSystem::remove_particles`, src/dpd/inflow.cpp's
                      `FlowBc::apply`, src/dpd/neighbor.cpp's Verlet build
                      (`build`, the candidate scan `scan_*`,
                      `assemble_csr`), its removal map and compaction
                      (`on_remap`, `compact`) and the Verlet rule every
                      pass and every distributed refresh asks (`stale`),
                      whose per-lane buffers and churn scratch are
                      members sized once, and the thread pool that runs
                      every pass and every rank in
                      src/xmp/sched/ (`run`, `pass`, `for_chunks`, the
                      shared `fork_join` and `join`, the pool threads'
                      loop `serve`, `idle`, `wait_while`, and the run
                      workers' fiber dispatch `worker_main`);
                      pair-alloc-ok

A construction is a value declaration or temporary; a reference or pointer
type (`std::vector<T>&` parameters, `std::vector<T>*` lane tables)
allocates nothing.
"""

from __future__ import annotations

import re

from index import skip_template_args
from passes import Finding, spells

RULE = "hot-alloc"

# (rule, path prefix, class of the gated bodies or None for any, their
#  names, opt-out marker, what they are)
HOT_ALLOC = [
    (rule, scope, cls, re.compile(names), marker, what)
    for rule, scope, cls, names, marker, what in [
        ("sem-hot-alloc", "src/sem/", None,
         r"(?:apply_|elem_)\w*|sweep|gradient|transform|split|step|fill_bc_values"
         r"|evaluate|tensor_sum|locate|lagrange_basis_at", "sem-alloc-ok",
         "a SEM hot path (apply_*/elem_*, an element sweep, a fast-diagonalisation "
         "transform, the lane split, a time step or the point evaluator) allocates per call"),
        ("exchange-hot-alloc", "src/dpd/exchange/", None,
         r"begin_update|finish_update|pack_\w+|unpack_\w+"
         r"|full_rebuild|rebuild_halo|exchange|claim|ship|relayout", "exchange-alloc-ok",
         "an exchange hot path (the halo fast path begin_update/finish_update/"
         "pack_*/unpack_*, or a layout rebuild body) allocates every force pass "
         "or every rebuild"),
        ("pair-hot-alloc", "src/dpd/system.cpp", "DpdSystem", r"pair_\w+|remove_particles",
         "pair-alloc-ok",
         "a DpdSystem::pair_* or remove_particles body allocates every force pass or step"),
        ("pair-hot-alloc", "src/dpd/inflow.cpp", "FlowBc", r"apply", "pair-alloc-ok",
         "FlowBc::apply allocates every step"),
        ("pair-hot-alloc", "src/dpd/neighbor.cpp", None,
         r"build|scan_\w+|assemble_csr|on_remap|compact|stale", "pair-alloc-ok",
         "a Verlet build, removal-map, compaction or staleness body (build, scan_*, "
         "assemble_csr, on_remap, compact, stale) allocates every rebuild, removal or pass"),
        ("pair-hot-alloc", "src/xmp/sched/", None,
         r"run|pass|for_chunks|fork_join|join|serve|idle|wait_while|worker_main",
         "pair-alloc-ok", "the thread pool's dispatch allocates every pass or every wake"),
    ]
]


def constructions(body: list):
    """Tokens that start a std::vector or la::Vector construction."""
    for i, t in enumerate(body):
        if spells(body, i, "la", "::", "Vector"):
            nxt = body[i + 3] if i + 3 < len(body) else None
            if nxt is not None and (nxt.kind == "id" or nxt.text in ("(", "{")):
                yield t
        elif spells(body, i, "std", "::", "vector", "<"):
            j = skip_template_args(body, i + 3)
            if j >= len(body) or body[j].text not in ("&", "*"):
                yield t


def run(repo) -> list:
    findings: list[Finding] = []
    for rule, scope, cls, names, marker, what in HOT_ALLOC:
        for fi in repo.files.values():
            if not fi.path.startswith(scope):
                continue
            for fn in fi.functions:
                if (cls is not None and fn.cls != cls) or not names.fullmatch(fn.name):
                    continue
                for t in constructions(fn.body):
                    if not fi.markers_near(t.line, {marker}):
                        findings.append(Finding(
                            rule, fi.path, t.line,
                            f"std::vector or la::Vector construction inside {what}; use "
                            "persistent member or stack scratch, or mark a deliberate case "
                            f"with `// analyze: {marker} (<reason>)`"))
    return findings


# ---- self-test fixtures -----------------------------------------------------

SELF_TEST_CASES = [
    ("scratch vectors in an operator apply are flagged",
     {"src/sem/bad_hot_alloc.cpp":
      "void Ops::apply_stiffness(const V& u, V& y) const {\n"
      "  std::vector<double> lu(npe), ly(npe);\n"
      "  for (std::size_t e = 0; e < ne; ++e) {}\n}\n"},
     {"sem-hot-alloc"}),

    ("sem marker with a reason suppresses",
     {"src/sem/ok_hot_alloc_marker.cpp":
      "void Ops::apply_once(const V& u, V& y) const {\n"
      "  // analyze: sem-alloc-ok (one-off setup apply, not a hot path)\n"
      "  std::vector<double> lu(npe), ly(npe);\n}\n"},
     set()),

    ("a cold function may allocate",
     {"src/sem/ok_alloc_cold_fn.cpp":
      "void Ops::build_tables() {\n  std::vector<double> tmp(n);\n}\n"},
     set()),

    ("calling a hot function does not make the caller hot",
     {"src/sem/ok_call_is_not_definition.cpp":
      "void Solver::solve(V& u) {\n  ops_->apply_helmholtz(l, nu, u, y_);\n"
      "  std::vector<double> bc(nb);\n}\n"},
     set()),

    ("an la::Vector value in the point evaluator is flagged",
     {"src/sem/bad_eval_alloc.cpp":
      "double Discretization::evaluate(const la::Vector& field, double x, double y) const {\n"
      "  const la::Vector lx = lagrange_basis_at(rule_, x);\n  return lx[0] * field[0];\n}\n"},
     {"sem-hot-alloc"}),

    ("stack scratch in the point evaluator is clean",
     {"src/sem/ok_eval_stack.hpp":
      "#pragma once\ntemplate <class Disc>\n"
      "double evaluate(const Disc& d, const std::array<double, 2>& x, const la::Vector& f) {\n"
      "  std::array<std::array<double, 24>, 2> l{};\n  const auto p = d.locate(x);\n"
      "  return tensor_sum<1>(l, f.data(), d.elem_map(p->element));\n}\n"},
     set()),

    ("sem-hot-alloc is scoped to src/sem",
     {"src/other/ok_sem_rule_scoped.cpp":
      "void Ops::apply_stiffness(const V& u, V& y) const {\n"
      "  std::vector<double> lu(npe);\n}\n"},
     set()),

    ("a scratch vector in finish_update is flagged",
     {"src/dpd/exchange/bad_hot_alloc.cpp":
      "void HaloExchanger::finish_update(DpdSystem& sys) {\n"
      "  std::vector<double> buf(recv_.size() * 6);\n"
      "  unpack_posvel(sys.positions(), sys.velocities(), recv_[0], buf);\n}\n"},
     {"exchange-hot-alloc"}),

    ("a local vector in begin_update is flagged",
     {"src/dpd/exchange/bad_hot_alloc_begin.cpp":
      "void HaloExchanger::begin_update(DpdSystem& sys) {\n"
      "  std::vector<xmp::Pending> pending;\n}\n"},
     {"exchange-hot-alloc"}),

    ("reference parameters and pointer tables allocate nothing",
     {"src/dpd/exchange/ok_param_types.cpp":
      "void pack_posvel(const SoA3& a, const SoA3& b, const std::vector<std::uint32_t>& idx,\n"
      "                 std::vector<double>& out) {\n"
      "  out.resize(6 * idx.size());\n"
      "  const std::vector<double>* lanes[6] = {&a.xs(), &a.ys(), &a.zs(),\n"
      "                                         &b.xs(), &b.ys(), &b.zs()};\n"
      "}\n"},
     set()),

    ("exchange marker with a reason suppresses",
     {"src/dpd/exchange/ok_hot_alloc_marker.cpp":
      "void HaloExchanger::finish_update(DpdSystem& sys) {\n"
      "  // analyze: exchange-alloc-ok (diagnostic copy outside the benchmarked path)\n"
      "  std::vector<double> snapshot(recv_buf_);\n}\n"},
     set()),

    ("nested vectors in the halo ship are flagged",
     {"src/dpd/exchange/bad_rebuild_alloc.cpp":
      "void HaloExchanger::ship(const DpdSystem& sys, const std::vector<std::uint32_t>& keep,\n"
      "                         const std::vector<ParticleRecord>& arrivals) {\n"
      "  std::vector<std::vector<ParticleRecord>> out(nbrs.size());\n}\n"},
     {"exchange-hot-alloc"}),

    ("a local vector in the migration exchange is flagged",
     {"src/dpd/exchange/bad_migrate_alloc.cpp":
      "void MigrationExchanger::exchange(const DpdSystem& sys) {\n"
      "  std::vector<ParticleRecord> kept;\n}\n"},
     {"exchange-hot-alloc"}),

    ("the cold gather may allocate",
     {"src/dpd/exchange/ok_cold_gather.cpp":
      "std::vector<ParticleRecord> DistributedDpd::gather(int root) const {\n"
      "  std::vector<ParticleRecord> mine = owned_records(sys_);\n  return mine;\n}\n"},
     set()),

    ("distribute calling claim is not itself hot",
     {"src/dpd/exchange/ok_rebuild_calls.cpp":
      "void DistributedDpd::distribute() {\n"
      "  migrate_.claim(sys_);\n  std::vector<double> tmp(n);\n}\n"},
     set()),

    ("refresh calling begin_update is not itself hot",
     {"src/dpd/exchange/ok_call_not_definition.cpp":
      "void DistributedDpd::refresh(DpdSystem& sys) {\n"
      "  halo_.begin_update(sys);\n  std::vector<double> disp(n);\n}\n"},
     set()),

    ("exchange-hot-alloc is scoped to src/dpd/exchange",
     {"src/dpd/ok_exchange_rule_scoped.cpp":
      "void HaloExchanger::begin_update(DpdSystem& sys) {\n"
      "  std::vector<double> buf(n);\n}\n"},
     set()),

    ("a scratch vector in a pair pass is flagged",
     {"src/dpd/system.cpp":
      "void DpdSystem::pair_scatter(std::size_t lo, std::size_t hi) {\n"
      "  std::vector<double> acc(hi - lo);\n}\n"},
     {"pair-hot-alloc"}),

    ("pair marker with a reason suppresses; other DpdSystem bodies are cold",
     {"src/dpd/system.cpp":
      "std::size_t DpdSystem::pair_row(std::size_t i, std::size_t at) {\n"
      "  // analyze: pair-alloc-ok (diagnostic copy outside the timed pass)\n"
      "  std::vector<double> copy(batch_.r2);\n  return 0;\n}\n"
      "void DpdSystem::compute_forces() {\n  std::vector<double> tmp(n);\n}\n"},
     set()),

    ("a scratch vector in the Verlet build's CSR assembly is flagged",
     {"src/dpd/neighbor.cpp":
      "void NeighborList::assemble_csr(std::size_t n, int lanes) {\n"
      "  std::vector<std::uint32_t> by_upper(n);\n}\n"},
     {"pair-hot-alloc"}),

    ("a displacement vector in the Verlet rule is flagged",
     {"src/dpd/neighbor.cpp":
      "bool NeighborList::stale(const SoA3& pos) const {\n"
      "  std::vector<double> d2(ref_pos_.size());\n  return false;\n}\n"},
     {"pair-hot-alloc"}),

    ("a per-step escapee vector in FlowBc::apply is flagged",
     {"src/dpd/inflow.cpp":
      "void FlowBc::apply(DpdSystem& sys) {\n"
      "  std::vector<std::size_t> dead;\n  sys.remove_particles(dead);\n}\n"},
     {"pair-hot-alloc"}),

    ("a scan lane growing its hoisted member buffer is clean",
     {"src/dpd/neighbor.cpp":
      "template <bool Px, bool Py, bool Pz>\n"
      "void NeighborList::scan_rows(std::size_t lo, std::size_t hi, ScanLane& lane) const {\n"
      "  std::vector<IndexPair>& pairs = lane.pairs;\n"
      "  if (pairs.size() < hi - lo) pairs.resize(hi - lo);\n}\n"},
     set()),

    ("a vector in the lane pool's dispatch is flagged",
     {"src/xmp/sched/lanes.cpp":
      "Pass Pool::run(int want, Body body, void* ctx) {\n"
      "  std::vector<std::exception_ptr> errors(want);\n  return {};\n}\n"},
     {"pair-hot-alloc"}),

    ("a vector in the pool threads' loop is flagged",
     {"src/xmp/sched/lanes.cpp":
      "void Pool::serve() {\n"
      "  std::vector<ForkJoin*> open{&run_, &pass_};\n"
      "  for (;;) wait_while(wake_, wake_.load());\n}\n"},
     {"pair-hot-alloc"}),

    ("a vector in the fiber dispatch is flagged",
     {"src/xmp/sched/fiber.cpp":
      "void FiberScheduler::worker_main() {\n"
      "  std::vector<Fiber*> batch(runq_.begin(), runq_.end());\n}\n"},
     {"pair-hot-alloc"}),

    ("an allocating lane body in an element sweep is flagged",
     {"src/sem/bad_lane_alloc.cpp":
      "template <class Disc>\ntemplate <class Kernel>\n"
      "void Operators<Disc>::sweep(const la::Vector& u, la::Vector& y, Kernel&& kernel) const {\n"
      "  split(stage_lanes(), ne, [&](std::size_t lo, std::size_t hi, int lane) {\n"
      "    std::vector<double> lu(npe);\n"
      "    for (std::size_t e = lo; e < hi; ++e) d_->gather(u, e, lu.data());\n  });\n}\n"},
     {"sem-hot-alloc"}),

    ("a lane body on hoisted member scratch is clean",
     {"src/sem/ok_lane_member.cpp":
      "template <class Disc>\n"
      "void Operators<Disc>::gradient(const la::Vector& u, Fields& grad) const {\n"
      "  split(stage_lanes(), ne, [&](std::size_t lo, std::size_t hi, int lane) {\n"
      "    double* lu = lane_u_[static_cast<std::size_t>(lane)].data();\n"
      "    for (std::size_t e = lo; e < hi; ++e) d_->gather(u, e, lu);\n  });\n}\n"},
     set()),

    ("a scratch lattice in a fast-diagonalisation transform is flagged",
     {"src/sem/bad_transform_alloc.cpp":
      "void BoxEigenbasis::transform(bool t, const double* in, double* out) const {\n"
      "  std::vector<double> scratch(size_);\n}\n"},
     {"sem-hot-alloc"}),

    ("a per-step vector in the time step is flagged",
     {"src/sem/bad_step_alloc.cpp":
      "template <class D>\nstd::size_t NavierStokes<D>::step() {\n"
      "  la::Vector rhs(n);\n  return 0;\n}\n"},
     {"sem-hot-alloc"}),

    ("a vector in the lane pool's chunk split is flagged",
     {"src/xmp/sched/lanes.hpp":
      "#pragma once\ntemplate <class Fn>\n"
      "Pass for_chunks(int want, std::size_t n, Fn& fn) {\n"
      "  std::vector<std::size_t> bounds(want + 1);\n  return {};\n}\n"},
     {"pair-hot-alloc"}),

    ("a vector in a comment is not code",
     {"src/sem/ok_hot_alloc_in_comment.cpp":
      "void Ops::apply_stiffness(const V& u, V& y) const {\n"
      "  // scratch was once a std::vector<double> per call; now member-owned\n"
      "  run(lu_, ly_);\n}\n"},
     set()),

    ("a hot name in a string does not open a hot body",
     {"src/sem/ok_hot_name_in_string.cpp":
      "void report() {\n"
      "  log(\"apply_stiffness(n) took too long\");\n"
      "  std::vector<double> tmp(3);\n}\n"},
     set()),
]
