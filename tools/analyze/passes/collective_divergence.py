"""collective-divergence: an xmp collective called under a rank-dependent
condition is a deadlock/mismatch waiting to happen — collectives must be
entered by every rank of the communicator. xmp checked mode catches this at
*run time*, when the divergent schedule actually executes (docs/CHECKING.md);
this pass is the static complement that fires before any test runs.

Flagged shapes (lexically, per function body):
  * a collective call inside an `if`/`else`/`while`/`for`/`switch` whose
    condition mentions rank identity — `rank()`, `world_rank`, `is_master`,
    `is_root`, or a local variable whose initialiser was rank-dependent
    (one level of taint, iterated to a fixpoint);
  * a collective call after a rank-guarded early `return` in the same body
    (the surviving ranks' schedules no longer match the returners').

Rank-dependent *arguments* are fine (`split(rank() == 0 ? a : b, key)` is
called by every rank); only control flow is flagged. Legitimate divergence
(e.g. a collective on a sub-communicator whose membership exactly matches
the guard) is suppressed with
`// analyze: collective-divergence-ok (<reason>)` on or above the call.
"""

from __future__ import annotations

from index import match_group
from passes import Finding, iter_calls

RULE = "collective-divergence"
MARKERS = {"collective-divergence-ok"}

COLLECTIVES = frozenset({
    "barrier", "bcast", "gather", "gatherv", "scatter", "scatterv",
    "allgather", "allgatherv", "reduce", "allreduce", "split", "set_trace",
    "collect_bytes", "collect_bytes_all",
})
# the raw primitives are collective even when called unqualified (implicit
# this inside Comm methods) or namespace-qualified
_ALWAYS = frozenset({"collect_bytes", "collect_bytes_all"})

RANK_IDS = frozenset({"rank", "rank_", "world_rank", "is_master", "is_root"})


def _taint(body: list) -> set:
    """Local identifiers assigned from rank-dependent expressions."""
    tainted: set[str] = set()
    for _ in range(3):  # transitive closure, bounded
        grew = False
        i = 0
        n = len(body)
        while i < n:
            t = body[i]
            # pattern: id '=' <rhs up to ';' or ',' at depth 0>, where '=' is
            # a single '=' (not ==, <=, !=, ...)
            if t.kind == "id" and t.text not in tainted and i + 1 < n \
                    and body[i + 1].kind == "punct" and body[i + 1].text == "=" \
                    and not (i + 2 < n and body[i + 2].kind == "punct"
                             and body[i + 2].text == "=") \
                    and not (i > 0 and body[i - 1].kind == "punct"
                             and body[i - 1].text in ("=", "!", "<", ">")):
                j = i + 2
                depth = 0
                dep = False
                while j < n:
                    tj = body[j]
                    if tj.kind == "punct":
                        if tj.text in "([{":
                            depth += 1
                        elif tj.text in ")]}":
                            if depth == 0:
                                break
                            depth -= 1
                        elif tj.text in (";", ",") and depth == 0:
                            break
                    if tj.kind == "id" and (tj.text in RANK_IDS or tj.text in tainted):
                        dep = True
                    j += 1
                if dep:
                    tainted.add(t.text)
                    grew = True
            i += 1
        if not grew:
            break
    return tainted


def _rank_dep(cond: list, tainted: set) -> bool:
    return any(t.kind == "id" and (t.text in RANK_IDS or t.text in tainted)
               for t in cond)


def _contains_return(span: list) -> bool:
    return any(t.kind == "id" and t.text == "return" for t in span)


class _Scanner:
    def __init__(self, fn, fi, tainted, report):
        self.fn = fn
        self.fi = fi
        self.tainted = tainted
        self.report = report   # callable(call_tok, call_name, cond_line)
        self.seq = 0

    def scan_block(self, toks, i, end, guards):
        """Statement list; returns nothing. `guards` is a list of
        (cond_span, cond_line) for every enclosing rank-dependent condition
        (including rank-guarded early returns earlier in this block)."""
        guards = list(guards)
        while i < end:
            i = self.scan_stmt(toks, i, end, guards)

    def scan_stmt(self, toks, i, end, guards):
        """Scan one statement starting at toks[i] under `guards`; may append
        to `guards` (rank-guarded early return). Returns index past it."""
        if i >= end:
            return end
        t = toks[i]
        if t.kind == "punct" and t.text == "{":
            close = match_group(toks, i, "{", "}")
            self.scan_block(toks, i + 1, min(close, end), guards)
            return min(close, end) + 1
        if t.kind == "id" and t.text in ("if", "while", "for", "switch"):
            j = i + 1
            if t.text == "if" and j < end and toks[j].kind == "id" \
                    and toks[j].text == "constexpr":
                j += 1
            if j >= end or not (toks[j].kind == "punct" and toks[j].text == "("):
                return i + 1
            close = match_group(toks, j, "(", ")")
            cond = toks[j + 1:min(close, end)]
            dep = _rank_dep(cond, self.tainted)
            cond_line = t.line
            inner = guards + [(cond, cond_line)] if dep else guards
            # the condition itself may contain collective calls (e.g.
            # `if (c.allreduce(x, Op::Min) > 0)`) — scan it under the OUTER
            # guards only
            self.check_calls(cond, guards)
            body_start = min(close, end) + 1
            j = self.scan_stmt(toks, body_start, end, list(inner))
            if t.text == "if":
                if dep and _contains_return(toks[body_start:j]):
                    guards.append((cond, cond_line))
                while j < end and toks[j].kind == "id" and toks[j].text == "else":
                    j = self.scan_stmt(toks, j + 1, end, list(inner))
            return j
        if t.kind == "id" and t.text == "do":
            j = self.scan_stmt(toks, i + 1, end, list(guards))
            # trailing `while (...)` handled as an expression statement
            return j
        # expression / declaration statement: up to ';' at depth 0
        j = i
        depth = 0
        while j < end:
            tj = toks[j]
            if tj.kind == "punct":
                if tj.text in "([{":
                    depth += 1
                elif tj.text in ")]}":
                    if depth == 0:
                        break
                    depth -= 1
                elif tj.text == ";" and depth == 0:
                    j += 1
                    break
            j += 1
        self.check_calls(toks[i:j], guards)
        return max(j, i + 1)

    def check_calls(self, span, guards):
        if not guards:
            return
        for idx, name, recv in iter_calls(span):
            if name not in COLLECTIVES:
                continue
            if name not in _ALWAYS and recv not in (".", "->", "::"):
                continue
            self.report(span[idx], name, guards[-1][1])


def run(repo) -> list:
    findings: list[Finding] = []
    for fi in repo.files.values():
        for fn in fi.functions:
            if not any(t.kind == "id" and t.text in COLLECTIVES for t in fn.body):
                continue
            tainted = _taint(fn.body)
            seen: dict = {}

            def report(tok, name, cond_line, fn=fn, fi=fi, seen=seen):
                if fi.markers_near(tok.line, MARKERS):
                    return
                qual = f"{fn.cls}::{fn.name}" if fn.cls else fn.name
                k = (qual, name)
                seen[k] = seen.get(k, 0) + 1
                key = f"{qual}:{name}#{seen[k]}"
                findings.append(Finding(
                    RULE, fi.path, tok.line,
                    f"collective {name}() in {qual} is guarded by a "
                    f"rank-dependent condition (line {cond_line}): divergent "
                    "collective schedules deadlock or mismatch; hoist the "
                    "call, or mark it `// analyze: collective-divergence-ok "
                    "(<reason>)`", key=key))

            sc = _Scanner(fn, fi, tainted, report)
            sc.scan_block(fn.body, 0, len(fn.body), [])
    return findings


# ---- self-test fixtures -----------------------------------------------------

SELF_TEST_CASES = [
    ("collective under a rank() guard is flagged",
     {"src/m/a.cpp": """
#include "xmp/comm.hpp"
void f(xmp::Comm& c) {
  if (c.rank() == 0) {
    c.barrier();
  }
}
"""},
     {"f:barrier#1"}),

    ("unguarded collective is clean",
     {"src/m/a.cpp": """
void f(xmp::Comm& c) {
  c.barrier();
  double s = c.allreduce(1.0, xmp::Op::Sum);
  (void)s;
}
"""},
     set()),

    ("rank-dependent argument is not a guard",
     {"src/m/a.cpp": """
void f(xmp::Comm& c) {
  xmp::Comm sub = c.split(c.rank() == 0 ? 0 : 1, c.rank());
}
"""},
     set()),

    ("else branch of a rank guard is also flagged",
     {"src/m/a.cpp": """
void f(xmp::Comm& c) {
  if (c.rank() == 0) {
    do_master_io();
  } else {
    c.barrier();
  }
}
"""},
     {"f:barrier#1"}),

    ("tainted local (is-root bool) guard is flagged",
     {"src/m/a.cpp": """
void f(xmp::Comm& c, int root) {
  const bool am_root = c.rank() == root;
  std::vector<double> pts;
  if (am_root) {
    c.bcast(pts, root);
  }
}
"""},
     {"f:bcast#1"}),

    ("guard on a non-rank condition is clean",
     {"src/m/a.cpp": """
void f(xmp::Comm& c, bool enabled) {
  std::vector<double> pts;
  if (enabled) {
    c.bcast(pts, 0);
  }
}
"""},
     set()),

    ("collective after a rank-guarded early return is flagged",
     {"src/m/a.cpp": """
void f(xmp::Comm& c) {
  if (c.rank() != 0) return;
  c.barrier();
}
"""},
     {"f:barrier#1"}),

    ("collective before the early return is clean",
     {"src/m/a.cpp": """
int f(xmp::Comm& c) {
  int n = static_cast<int>(c.allreduce(std::int64_t{1}, xmp::Op::Sum));
  if (c.rank() != 0) return 0;
  return n;
}
"""},
     set()),

    ("collective mentioned in a string/comment is not a call",
     {"src/m/a.cpp": """
void f(xmp::Comm& c) {
  if (c.rank() == 0) {
    log("entering barrier() now");  // the barrier() happens elsewhere
  }
}
"""},
     set()),

    ("marker with a reason suppresses",
     {"src/m/a.cpp": """
void f(xmp::Comm& c, xmp::Comm& masters) {
  if (c.rank() == 0) {
    // analyze: collective-divergence-ok (masters comm contains exactly the rank-0s)
    masters.barrier();
  }
}
"""},
     set()),

    ("raw collect_bytes_all under a guard is flagged even unqualified",
     {"src/m/a.cpp": """
void Comm::sync() const {
  if (rank() == 0) {
    collect_bytes_all(nullptr, 0);
  }
}
"""},
     {"Comm::sync:collect_bytes_all#1"}),

    ("plain function named split without receiver is ignored",
     {"src/m/a.cpp": """
void f(const std::string& s, int rank_like) {
  if (is_master(rank_like)) {
    auto parts = split(s, ',');
  }
}
"""},
     set()),

    ("collective inside a rank-guarded loop is flagged",
     {"src/m/a.cpp": """
void f(xmp::Comm& c) {
  for (int r = 0; r < c.rank(); ++r) {
    c.barrier();
  }
}
"""},
     {"f:barrier#1"}),
]
