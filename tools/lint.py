#!/usr/bin/env python3
"""Repo-specific lint rules (stdlib only; CI runs this as a hard gate).

Rules
-----
memcpy-divisibility
    A memcpy whose byte-count expression does not mention sizeof is copying
    into/out of a typed buffer with a count computed elsewhere; it must be
    preceded (within 12 lines) by a `% sizeof` divisibility check, or carry a
    `// lint: memcpy-ok (<reason>)` marker on the call or just above it.
    This is the bug class behind gatherv/recv silently truncating odd-sized
    payloads.

collective-trace
    In src/xmp, every call into the byte-collecting collective primitives
    (collect_bytes_all / collect_bytes) must either be preceded (within 25
    lines) by trace attribution (trace_transfer / trace_allreduce /
    emit_trace) or carry a `// lint: no-trace (<reason>)` marker: new
    collectives must report their logical transfers to the trace hook the
    machine model replays.

dpd-no-std-function
    Headers under src/dpd/ must not take or store `std::function` unless the
    line (or the 2 lines above it) carries a `// lint: std-function-ok
    (<reason>)` marker. std::function in a DPD interface is how an indirect
    call per pair crept into the hot loop before the Verlet-list fast path
    (see docs/PERF.md); pair iteration must stay templated. The marker is for
    setup-time callbacks (body force, coupling velocity fields) that are
    evaluated at most once per particle, never per pair.

sem-hot-alloc, exchange-hot-alloc, pair-hot-alloc
    Constructing a `std::vector` or an `la::Vector` inside a hot-path
    function body is a heap allocation per apply, per point or per force
    pass; the fast paths hoist all scratch into persistent members or stack
    arrays (see docs/PERF.md). One table (HOT_ALLOC_RULES) gives each rule
    its path scope, the bodies it gates and its opt-out marker,
    `// lint: <marker> (<reason>)` on the line or the 2 lines above:
      sem-hot-alloc       src/sem/, the operator applies `apply_*` /
                          `elem_*` and the point evaluator `evaluate` /
                          `tensor_sum` / `locate` / `lagrange_basis_at`;
                          sem-alloc-ok (no body in src/ carries it: the
                          scalar baselines with per-call scratch live in
                          tests/reference)
      exchange-hot-alloc  src/dpd/exchange/, the halo fast path
                          `begin_update` / `finish_update`, the `pack_*` /
                          `unpack_*` packers and the layout rebuild
                          (`full_rebuild` / `rebuild_halo`, the migration
                          `exchange` / `claim`, the halo `ship` /
                          `relayout`), whose scratch lives in members;
                          exchange-alloc-ok (distribute() and the gather
                          and checkpoint paths are cold and not gated)
      pair-hot-alloc      src/dpd/system.cpp, the `DpdSystem::pair_*` pair
                          pass; pair-alloc-ok

sched-context
    Rank-visible code (src/xmp/, src/telemetry/) must not introduce raw
    `thread_local` state or call `std::this_thread::get_id`: with the fiber
    backend (src/xmp/sched/) a rank migrates between OS threads at every
    blocking point, so thread identity is NOT rank identity. Use
    xmp::sched::current_rank() / rank_local_slot() instead. The scheduler's
    own context variables opt out with a `// lint: sched-context-ok
    (<reason>)` marker on the line or within 2 lines above.

pragma-once
    Every header under src/ starts with `#pragma once`.

no-using-namespace
    No `using namespace std` (headers or sources).

Usage:  python3 tools/lint.py [--self-test] [paths...]
Exit status is non-zero iff findings (or a self-test failure).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# The token-level rules (memcpy-divisibility, sched-context, *-hot-alloc,
# dpd-no-std-function) match against comment/string-stripped lines produced
# by the analyzer's C++ tokenizer, so a rule name mentioned in a comment or a
# log string is never a finding. Markers, by contrast, live in comments and
# are matched on the raw lines.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "analyze"))
from tokenizer import code_only_lines  # noqa: E402

MEMCPY_BACKWINDOW = 12
TRACE_BACKWINDOW = 25
MARKER_BACKWINDOW = 2

MEMCPY_RE = re.compile(r"\bmemcpy\s*\(")
COLLECT_RE = re.compile(r"\b(collect_bytes_all|collect_bytes)\s*\(")
TRACE_RE = re.compile(r"\b(trace_transfer|trace_allreduce|emit_trace)\b")
DIVCHECK_RE = re.compile(r"%\s*sizeof")
MEMCPY_OK_RE = re.compile(r"//\s*lint:\s*memcpy-ok")
NO_TRACE_RE = re.compile(r"//\s*lint:\s*no-trace")
STD_FUNCTION_RE = re.compile(r"\bstd\s*::\s*function\s*<")
STD_FUNCTION_OK_RE = re.compile(r"//\s*lint:\s*std-function-ok")
STD_VECTOR_CTOR_RE = re.compile(r"\bstd\s*::\s*vector\s*<")
# an la::Vector value (declaration, temporary or returned-by-value type), not
# a reference, pointer or template argument
LA_VECTOR_VALUE_RE = re.compile(r"\bla\s*::\s*Vector\s*[\w({]")
# (rule, path prefix, gated function bodies, opt-out marker, what they are)
HOT_ALLOC_RULES = [
    (rule, scope, re.compile(rf"\b(?:\w+\s*::\s*)?({fn})\s*\("),
     re.compile(rf"//\s*lint:\s*{marker}"), marker, what)
    for rule, scope, fn, marker, what in [
        ("sem-hot-alloc", "src/sem/",
         r"(?:apply_|elem_)\w*|evaluate|tensor_sum|locate|lagrange_basis_at", "sem-alloc-ok",
         "a SEM hot path (apply_*/elem_* or the point evaluator) allocates per call"),
        ("exchange-hot-alloc", "src/dpd/exchange/",
         r"begin_update|finish_update|pack_\w+|unpack_\w+"
         r"|full_rebuild|rebuild_halo|exchange|claim|ship|relayout", "exchange-alloc-ok",
         "an exchange hot path (the halo fast path begin_update/finish_update/"
         "pack_*/unpack_*, or a layout rebuild body) allocates every force pass "
         "or every rebuild"),
        ("pair-hot-alloc", "src/dpd/system.cpp", r"DpdSystem\s*::\s*pair_\w+",
         "pair-alloc-ok", "a DpdSystem::pair_* body allocates every force pass"),
    ]
]
THREAD_IDENTITY_RE = re.compile(r"\bthread_local\b|\bstd\s*::\s*this_thread\s*::\s*get_id\b")
SCHED_CONTEXT_OK_RE = re.compile(r"//\s*lint:\s*sched-context-ok")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def balanced_call_text(lines: list[str], line_idx: int, open_pos: int) -> str:
    """Text of a call from its opening paren to the matching close (spans lines)."""
    depth = 0
    out: list[str] = []
    i, j = line_idx, open_pos
    while i < len(lines):
        line = lines[i]
        while j < len(line):
            c = line[j]
            out.append(c)
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    return "".join(out)
            j += 1
        out.append(" ")
        i, j = i + 1, 0
    return "".join(out)  # unbalanced: return what we saw


def marker_near(lines: list[str], idx: int, marker: re.Pattern, back: int) -> bool:
    lo = max(0, idx - back)
    return any(marker.search(lines[k]) for k in range(lo, idx + 1))


def is_declaration(line: str, name_start: int) -> bool:
    """True when `name(` at name_start is a function declaration/definition,
    i.e. directly preceded by a type (identifier, `>`, `&`, `*`) rather than
    an operator or statement keyword."""
    before = line[:name_start].rstrip()
    if not before:
        return False
    # Strip a `Comm::`/`ns::detail::` qualifier chain: `Type Comm::name(` is an
    # out-of-line definition (return type precedes the qualifier) while
    # `x = ns::name(...)` is a qualified call.
    m = re.search(r"(?:\w+\s*::\s*)+$", before)
    if m:
        before = before[:m.start()].rstrip()
        if not before:
            return False
    if re.search(r"\b(return|co_return|co_yield|throw)$", before):
        return False
    return before[-1].isalnum() or before[-1] in ">&*_,"


def vector_ctor_on_line(line: str) -> bool:
    """True if the line mentions `std::vector<...>` or `la::Vector` as a
    *construction* — a value declaration or temporary that allocates — rather
    than a reference or pointer type mention (`std::vector<T>&` parameters,
    `std::vector<T>*` lane tables), which allocates nothing. Template args
    that spill onto the next line are treated as a construction
    (conservative)."""
    if LA_VECTOR_VALUE_RE.search(line):
        return True
    for m in STD_VECTOR_CTOR_RE.finditer(line):
        depth = 1
        j = m.end()
        while j < len(line) and depth:
            if line[j] == "<":
                depth += 1
            elif line[j] == ">":
                depth -= 1
            j += 1
        if depth:
            return True
        while j < len(line) and line[j].isspace():
            j += 1
        if j >= len(line) or line[j] not in "&*":
            return True
    return False


def hot_fn_ranges(lines: list[str], fn_re: re.Pattern) -> list[tuple[int, int]]:
    """Line ranges (inclusive) of the BODIES of functions matching fn_re.

    A match followed by `;` before any `{` is a declaration or a call and
    opens no range; a match followed by `{` opens one that ends when the
    brace depth returns to zero. Brace counting ignores strings/comments,
    which is fine for the code this gates."""
    ranges: list[tuple[int, int]] = []
    n = len(lines)
    i = 0
    while i < n:
        m = fn_re.search(lines[i])
        if not m:
            i += 1
            continue
        j, pos = i, m.end()
        opened = False
        while j < n:
            stop = None
            for k in range(pos, len(lines[j])):
                if lines[j][k] in ";{":
                    stop = (lines[j][k], k)
                    break
            if stop:
                opened = stop[0] == "{"
                break
            j, pos = j + 1, 0
        if j >= n:
            break
        if not opened:
            i = j + 1
            continue
        depth = 0
        start = j
        k = stop[1]
        while j < n:
            for c in lines[j][k:]:
                if c == "{":
                    depth += 1
                elif c == "}":
                    depth -= 1
                    if depth == 0:
                        ranges.append((start, j))
                        break
            if depth == 0:
                break
            j, k = j + 1, 0
        i = j + 1
    return ranges


def lint_file(path: pathlib.Path, repo_root: pathlib.Path) -> list[Finding]:
    rel = str(path.relative_to(repo_root))
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    # comment/string-stripped view, padded to the same length
    clines = code_only_lines(text)
    clines = (clines + [""] * len(lines))[:len(lines)]
    findings: list[Finding] = []

    in_src = rel.startswith("src/")
    in_xmp = rel.startswith("src/xmp/")
    in_dpd_header = rel.startswith("src/dpd/") and path.suffix == ".hpp"
    in_rank_visible = in_xmp or rel.startswith("src/telemetry/")

    for rule, scope, fn_re, ok_re, marker, what in HOT_ALLOC_RULES:
        if not rel.startswith(scope):
            continue
        for lo, hi in hot_fn_ranges(clines, fn_re):
            for i in range(lo, hi + 1):
                if vector_ctor_on_line(clines[i]) and not marker_near(
                        lines, i, ok_re, MARKER_BACKWINDOW):
                    findings.append(Finding(
                        rel, i + 1, rule,
                        f"std::vector or la::Vector construction inside {what}; use "
                        "persistent member or stack scratch, or mark a deliberate case "
                        f"with `// lint: {marker} (<reason>)`"))

    if in_src and path.suffix == ".hpp":
        head = [l.strip() for l in lines[:5]]
        if "#pragma once" not in head:
            findings.append(Finding(rel, 1, "pragma-once",
                                    "header does not start with #pragma once"))

    for i, line in enumerate(lines):
        if re.search(r"\busing\s+namespace\s+std\b", line):
            findings.append(Finding(rel, i + 1, "no-using-namespace",
                                    "do not import namespace std wholesale"))

        if in_src:
            for m in MEMCPY_RE.finditer(clines[i]):
                call = balanced_call_text(clines, i, m.end() - 1)
                if "sizeof" in call:
                    continue  # count is sizeof-derived: divisibility is structural
                if marker_near(lines, i, MEMCPY_OK_RE, MARKER_BACKWINDOW):
                    continue
                lo = max(0, i - MEMCPY_BACKWINDOW)
                if any(DIVCHECK_RE.search(clines[k]) for k in range(lo, i)):
                    continue
                findings.append(Finding(
                    rel, i + 1, "memcpy-divisibility",
                    "memcpy with a non-sizeof byte count needs a preceding `% sizeof` "
                    "divisibility check or a `// lint: memcpy-ok (<reason>)` marker"))

        if in_rank_visible and THREAD_IDENTITY_RE.search(clines[i]):
            if not marker_near(lines, i, SCHED_CONTEXT_OK_RE, MARKER_BACKWINDOW):
                findings.append(Finding(
                    rel, i + 1, "sched-context",
                    "thread_local / this_thread::get_id in rank-visible code: "
                    "fiber ranks migrate between OS threads, so thread identity "
                    "is not rank identity; use xmp::sched::current_rank() / "
                    "rank_local_slot(), or mark scheduler-internal state with "
                    "`// lint: sched-context-ok (<reason>)`"))

        if in_dpd_header and STD_FUNCTION_RE.search(clines[i]):
            if not marker_near(lines, i, STD_FUNCTION_OK_RE, MARKER_BACKWINDOW):
                findings.append(Finding(
                    rel, i + 1, "dpd-no-std-function",
                    "std::function in a DPD header puts an indirect call in "
                    "reach of the pair hot loop; template the callback, or "
                    "mark a setup-time one with `// lint: std-function-ok "
                    "(<reason>)`"))

        if in_xmp:
            for m in COLLECT_RE.finditer(line):
                if is_declaration(line, m.start()):
                    continue
                if marker_near(lines, i, NO_TRACE_RE, 3):
                    continue
                lo = max(0, i - TRACE_BACKWINDOW)
                if any(TRACE_RE.search(lines[k]) for k in range(lo, i + 1)):
                    continue
                findings.append(Finding(
                    rel, i + 1, "collective-trace",
                    f"{m.group(1)} call without nearby trace attribution "
                    "(trace_transfer/trace_allreduce) or a `// lint: no-trace "
                    "(<reason>)` marker: collectives must report their logical "
                    "transfers"))

    return findings


def collect_targets(paths: list[str], repo_root: pathlib.Path) -> list[pathlib.Path]:
    exts = {".hpp", ".cpp"}
    roots = [repo_root / p for p in paths] if paths else [
        repo_root / "src", repo_root / "tests", repo_root / "bench", repo_root / "examples"]
    out: list[pathlib.Path] = []
    for r in roots:
        if r.is_file():
            out.append(r)
        elif r.is_dir():
            out.extend(p for p in sorted(r.rglob("*")) if p.suffix in exts)
    return out


# ---- self test --------------------------------------------------------------

SELF_TEST_CASES = [
    # (pseudo-path, source, expected rule ids)
    ("src/xmp/bad.hpp",
     "int f();\n",
     {"pragma-once"}),
    ("src/xmp/good.hpp",
     "#pragma once\nint f();\n",
     set()),
    ("src/a/bad_memcpy.cpp",
     "void f(char* d, const char* s, unsigned n) {\n  std::memcpy(d, s, n);\n}\n",
     {"memcpy-divisibility"}),
    ("src/a/ok_memcpy_sizeof.cpp",
     "void f(double* d, const char* s, unsigned n) {\n"
     "  std::memcpy(d, s,\n              n * sizeof(double));\n}\n",
     set()),
    ("src/a/ok_memcpy_checked.cpp",
     "void f(double* d, const std::vector<char>& s) {\n"
     "  if (s.size() % sizeof(double)) throw 1;\n  std::memcpy(d, s.data(), s.size());\n}\n",
     set()),
    ("src/a/ok_memcpy_marker.cpp",
     "void f(char* d, const char* s, unsigned n) {\n"
     "  // lint: memcpy-ok (raw bytes)\n  std::memcpy(d, s, n);\n}\n",
     set()),
    ("src/xmp/bad_collective.cpp",
     "void f(xmp::Comm& c) {\n  auto b = c.collect_bytes_all(nullptr, 0);\n}\n",
     {"collective-trace"}),
    ("src/xmp/ok_collective_traced.cpp",
     "void f(xmp::Comm& c) {\n  c.trace_transfer(0, 1, 8, xmp::TraceKind::Bcast);\n"
     "  auto b = c.collect_bytes_all(nullptr, 0);\n}\n",
     set()),
    ("src/xmp/ok_collective_marker.cpp",
     "void f(xmp::Comm& c) {\n  // lint: no-trace (no payload)\n"
     "  auto b = c.collect_bytes_all(nullptr, 0);\n}\n",
     set()),
    ("src/xmp/ok_collective_decl.cpp",
     "std::shared_ptr<Blobs> collect_bytes(const void* p, std::size_t n);\n",
     set()),
    ("src/xmp/ok_collective_defn.cpp",
     "std::shared_ptr<Blobs> Comm::collect_bytes_all(const void* p, std::size_t n) {\n"
     "  return nullptr;\n}\n",
     set()),
    ("src/xmp/bad_collective_qualified_call.cpp",
     "void f() {\n  auto b = detail::collect_bytes(g, 0, nullptr, 0, d);\n}\n",
     {"collective-trace"}),
    ("tests/bad_using.cpp",
     "using namespace std;\n",
     {"no-using-namespace"}),
    ("src/dpd/bad_fn.hpp",
     "#pragma once\n#include <functional>\n"
     "void for_each_pair(const std::function<void(int, int)>& fn);\n",
     {"dpd-no-std-function"}),
    ("src/dpd/ok_fn_marker.hpp",
     "#pragma once\n#include <functional>\n"
     "// lint: std-function-ok (setup-time callback, not a pair-loop parameter)\n"
     "using BodyForceFn = std::function<Vec3(const Vec3&)>;\n",
     set()),
    ("src/dpd/ok_fn_source.cpp",
     "#include <functional>\n"
     "static std::function<void()> g;  // sources are out of scope\n",
     set()),
    ("src/other/ok_fn_elsewhere.hpp",
     "#pragma once\n#include <functional>\n"
     "using Cb = std::function<void()>;\n",
     set()),
    ("src/sem/bad_hot_alloc.cpp",
     "void Ops::apply_stiffness(const V& u, V& y) const {\n"
     "  std::vector<double> lu(npe), ly(npe);\n"
     "  for (std::size_t e = 0; e < ne; ++e) {}\n}\n",
     {"sem-hot-alloc"}),
    ("src/sem/ok_hot_alloc_marker.cpp",
     "void Ops::apply_once(const V& u, V& y) const {\n"
     "  // lint: sem-alloc-ok (one-off setup apply, not a hot path)\n"
     "  std::vector<double> lu(npe), ly(npe);\n}\n",
     set()),
    ("src/sem/ok_alloc_cold_fn.cpp",
     "void Ops::build_tables() {\n  std::vector<double> tmp(n);\n}\n",
     set()),
    ("src/sem/ok_call_is_not_definition.cpp",
     "void Solver::solve(V& u) {\n  ops_->apply_helmholtz(l, nu, u, y_);\n"
     "  std::vector<double> bc(nb);\n}\n",
     set()),
    ("src/sem/bad_eval_alloc.cpp",
     "double Discretization::evaluate(const la::Vector& field, double x, double y) const {\n"
     "  const la::Vector lx = lagrange_basis_at(rule_, x);\n  return lx[0] * field[0];\n}\n",
     {"sem-hot-alloc"}),
    ("src/sem/ok_eval_stack.hpp",
     "#pragma once\ntemplate <class Disc>\n"
     "double evaluate(const Disc& d, const std::array<double, 2>& x, const la::Vector& f) {\n"
     "  std::array<std::array<double, 24>, 2> l{};\n  const auto p = d.locate(x);\n"
     "  return tensor_sum<1>(l, f.data(), d.elem_map(p->element));\n}\n",
     set()),
    ("src/other/ok_sem_rule_scoped.cpp",
     "void Ops::apply_stiffness(const V& u, V& y) const {\n"
     "  std::vector<double> lu(npe);\n}\n",
     set()),
    ("src/dpd/exchange/bad_hot_alloc.cpp",
     "void HaloExchanger::finish_update(DpdSystem& sys) {\n"
     "  std::vector<double> buf(recv_.size() * 6);\n"
     "  unpack_posvel(sys.positions(), sys.velocities(), recv_[0], buf);\n}\n",
     {"exchange-hot-alloc"}),
    ("src/dpd/exchange/bad_hot_alloc_begin.cpp",
     "void HaloExchanger::begin_update(DpdSystem& sys) {\n"
     "  std::vector<xmp::Pending> pending;\n}\n",
     {"exchange-hot-alloc"}),
    ("src/dpd/exchange/ok_param_types.cpp",
     "void pack_posvel(const SoA3& a, const SoA3& b, const std::vector<std::uint32_t>& idx,\n"
     "                 std::vector<double>& out) {\n"
     "  out.resize(6 * idx.size());\n"
     "  const std::vector<double>* lanes[6] = {&a.xs(), &a.ys(), &a.zs(),\n"
     "                                         &b.xs(), &b.ys(), &b.zs()};\n"
     "}\n",
     set()),
    ("src/dpd/exchange/ok_hot_alloc_marker.cpp",
     "void HaloExchanger::finish_update(DpdSystem& sys) {\n"
     "  // lint: exchange-alloc-ok (diagnostic copy outside the benchmarked path)\n"
     "  std::vector<double> snapshot(recv_buf_);\n}\n",
     set()),
    ("src/dpd/exchange/bad_rebuild_alloc.cpp",
     "void HaloExchanger::ship(const DpdSystem& sys, const std::vector<std::uint32_t>& keep,\n"
     "                         const std::vector<ParticleRecord>& arrivals) {\n"
     "  std::vector<std::vector<ParticleRecord>> out(nbrs.size());\n}\n",
     {"exchange-hot-alloc"}),
    ("src/dpd/exchange/bad_migrate_alloc.cpp",
     "void MigrationExchanger::exchange(const DpdSystem& sys) {\n"
     "  std::vector<ParticleRecord> kept;\n}\n",
     {"exchange-hot-alloc"}),
    ("src/dpd/exchange/ok_cold_gather.cpp",
     "std::vector<ParticleRecord> DistributedDpd::gather(int root) const {\n"
     "  std::vector<ParticleRecord> mine = owned_records(sys_);\n  return mine;\n}\n",
     set()),
    ("src/dpd/exchange/ok_rebuild_calls.cpp",
     "void DistributedDpd::distribute() {\n"
     "  migrate_.claim(sys_);\n  std::vector<double> tmp(n);\n}\n",
     set()),
    ("src/dpd/exchange/ok_call_not_definition.cpp",
     "void DistributedDpd::refresh(DpdSystem& sys) {\n"
     "  halo_.begin_update(sys);\n  std::vector<double> disp(n);\n}\n",
     set()),
    ("src/dpd/ok_exchange_rule_scoped.cpp",
     "void HaloExchanger::begin_update(DpdSystem& sys) {\n"
     "  std::vector<double> buf(n);\n}\n",
     set()),
    ("src/dpd/system.cpp",
     "void DpdSystem::pair_scatter(std::size_t lo, std::size_t hi) {\n"
     "  std::vector<double> acc(hi - lo);\n}\n",
     {"pair-hot-alloc"}),
    ("src/dpd/system.cpp",
     "std::size_t DpdSystem::pair_row(std::size_t i, std::size_t at) {\n"
     "  // lint: pair-alloc-ok (diagnostic copy outside the timed pass)\n"
     "  std::vector<double> copy(batch_.r2);\n  return 0;\n}\n"
     "void DpdSystem::compute_forces() {\n  std::vector<double> tmp(n);\n}\n",
     set()),
    ("src/xmp/bad_thread_local.cpp",
     "thread_local int cached_rank = -1;\n",
     {"sched-context"}),
    ("src/telemetry/bad_get_id.cpp",
     "void f() {\n  auto id = std::this_thread::get_id();\n}\n",
     {"sched-context"}),
    ("src/xmp/ok_thread_local_marker.cpp",
     "// lint: sched-context-ok (scheduler-internal worker state)\n"
     "thread_local Worker* tl_worker = nullptr;\n",
     set()),
    ("src/telemetry/ok_get_id_comment.cpp",
     "// never key on std::this_thread::get_id() here\nint f();\n",
     set()),
    ("src/other/ok_thread_local_elsewhere.cpp",
     "thread_local int scratch = 0;\n",
     set()),
    # --- tokenizer-backed rules: mentions inside comments/strings are not code ---
    ("src/a/ok_memcpy_in_comment.cpp",
     "void f(char* d, const char* s, unsigned n) {\n"
     "  // the old code did memcpy(d, s, n) without a check\n"
     "  copy_checked(d, s, n);\n}\n",
     set()),
    ("src/a/ok_memcpy_in_string.cpp",
     "void f() {\n  log(\"memcpy(dst, src, nbytes) failed\");\n}\n",
     set()),
    ("src/a/bad_memcpy_string_sizeof.cpp",
     # the only sizeof is inside the logged string: must still be flagged
     "void f(char* d, const char* s, unsigned n) {\n"
     "  std::memcpy(d, s, n /* \"n * sizeof(double)\" */);\n}\n",
     {"memcpy-divisibility"}),
    ("src/xmp/ok_thread_local_in_string.cpp",
     "void f() {\n  die(\"thread_local state is forbidden here\");\n}\n",
     set()),
    ("src/dpd/ok_fn_in_comment.hpp",
     "#pragma once\n"
     "// callbacks must NOT be std::function<void(int,int)>; keep them templated\n"
     "template <class F> void for_each_pair(F&& fn);\n",
     set()),
    ("src/sem/ok_hot_alloc_in_comment.cpp",
     "void Ops::apply_stiffness(const V& u, V& y) const {\n"
     "  // scratch was once a std::vector<double> per call; now member-owned\n"
     "  run(lu_, ly_);\n}\n",
     set()),
    ("src/sem/ok_hot_name_in_string.cpp",
     "void report() {\n"
     "  log(\"apply_stiffness(n) took too long\");\n"
     "  std::vector<double> tmp(3);\n}\n",
     set()),
]


def self_test() -> int:
    import tempfile

    failures = 0
    with tempfile.TemporaryDirectory() as td:
        root = pathlib.Path(td)
        for rel, src, expected in SELF_TEST_CASES:
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(src, encoding="utf-8")
            got = {f.rule for f in lint_file(p, root)}
            if got != expected:
                print(f"self-test FAIL: {rel}: expected {sorted(expected)}, got {sorted(got)}")
                failures += 1
    if failures:
        return 1
    print(f"self-test OK ({len(SELF_TEST_CASES)} cases)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", help="files or directories (default: src tests bench examples)")
    ap.add_argument("--self-test", action="store_true", help="run the linter's own test cases")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    repo_root = pathlib.Path(__file__).resolve().parent.parent
    findings: list[Finding] = []
    for path in collect_targets(args.paths, repo_root):
        findings.extend(lint_file(path, repo_root))
    for f in findings:
        print(f)
    if findings:
        print(f"lint: {len(findings)} finding(s)")
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
