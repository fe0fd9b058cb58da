"""lock-across-yield: holding a mutex across a fiber yield point.

Under the fiber scheduler (src/xmp/sched/), a rank that blocks in `recv`,
`barrier`, a collective, or a WaitCv wait is *suspended* and its OS worker
thread picks up another rank. If the suspended rank still holds a
`std::lock_guard`/`std::unique_lock`, every other rank that needs that mutex
wedges the worker pool — the PR-3 `abort_all` lock-order inversion class
(docs/CHECKING.md). The runtime deadlock detector sees it only when the
schedule actually wedges; this pass flags the shape statically.

Scope: src/xmp/** and src/scenario/ensemble.cpp (the code that runs on
fiber ranks and takes locks).

Exemptions:
  * a yield call that takes the held lock *as an argument* is the
    condition-variable protocol (`cv.wait(lk)`, `sched->park(lk)`): the
    primitive releases the lock while suspended — that is the correct
    pattern, not the bug;
  * an explicit `lk.unlock()` before the yield (and `lk.lock()` after)
    releases the guard for the blocking region;
  * `// analyze: lock-across-yield-ok (<reason>)` on or above the call.
"""

from __future__ import annotations

from index import match_group
from passes import Finding, call_args_span, iter_calls

RULE = "lock-across-yield"
MARKERS = {"lock-across-yield-ok"}

LOCK_TYPES = frozenset({"lock_guard", "unique_lock", "scoped_lock", "shared_lock"})
YIELD_CALLS = frozenset({
    "recv", "recv_bytes", "wait", "wait_for", "wait_until", "park",
    "barrier", "bcast", "gather", "gatherv", "scatter", "scatterv",
    "allgather", "allgatherv", "reduce", "allreduce", "split",
    "collect_bytes", "collect_bytes_all",
    # nonblocking-p2p handles: Pending::wait parks like a recv, and a
    # failed Pending::test is a cooperative yield (fiber_yield) — holding
    # an unrelated mutex across either from fiber code is the same inversion
    "test", "fiber_yield", "yield_current",
})


def in_scope(path: str) -> bool:
    return path.startswith("src/xmp/") or path == "src/scenario/ensemble.cpp"


def _lock_decl(toks, i):
    """If toks[i] starts `[std::]lock_guard[<...>] var(...)` or `{...}`,
    return (var_name, index_past_declaration); else None."""
    t = toks[i]
    if t.kind != "id" or t.text not in LOCK_TYPES:
        return None
    # reject type mentions in parameter lists / template args: require a
    # variable name then an initialiser
    j = i + 1
    if j < len(toks) and toks[j].kind == "punct" and toks[j].text == "<":
        from index import skip_template_args
        j = skip_template_args(toks, j)
    if j >= len(toks) or toks[j].kind != "id" or toks[j].text in LOCK_TYPES:
        return None
    var = toks[j]
    j += 1
    if j >= len(toks) or toks[j].kind != "punct" or toks[j].text not in "({":
        return None
    close = match_group(toks, j, toks[j].text, ")" if toks[j].text == "(" else "}")
    return var.text, close + 1


class _Scanner:
    def __init__(self, fn, fi, findings):
        self.fn = fn
        self.fi = fi
        self.findings = findings
        self.counts: dict = {}

    def scan_block(self, toks, i, end, held):
        """`held` maps lock var name -> True (locked) within enclosing
        scopes; locks declared in this block die at `end`."""
        held = dict(held)
        while i < end:
            t = toks[i]
            if t.kind == "punct" and t.text == "{":
                close = match_group(toks, i, "{", "}")
                self.scan_block(toks, i + 1, min(close, end), held)
                i = min(close, end) + 1
                continue
            d = _lock_decl(toks, i)
            if d is not None:
                var, past = d
                held[var] = True
                i = past
                continue
            if t.kind == "id" and i + 2 < end and toks[i + 1].kind == "punct" \
                    and toks[i + 1].text == "." and toks[i + 2].kind == "id" \
                    and toks[i + 2].text in ("unlock", "lock") and t.text in held:
                held[t.text] = toks[i + 2].text == "lock"
                i += 3
                continue
            if t.kind == "id" and t.text in YIELD_CALLS and i + 1 < end \
                    and toks[i + 1].kind == "punct" and toks[i + 1].text == "(":
                active = [v for v, on in held.items() if on]
                if active:
                    args = call_args_span(toks[i:], 0)
                    arg_ids = {a.text for a in args if a.kind == "id"}
                    hand_off = [v for v in active if v in arg_ids]
                    blocked = [v for v in active if v not in arg_ids]
                    if blocked:
                        self._report(t, blocked)
                close = match_group(toks, i + 1, "(", ")")
                # still scan the argument tokens for nested yields/locks
                self.scan_block(toks, i + 2, min(close, end), held)
                i = min(close, end) + 1
                continue
            i += 1

    def _report(self, tok, locks):
        if self.fi.markers_near(tok.line, MARKERS):
            return
        qual = f"{self.fn.cls}::{self.fn.name}" if self.fn.cls else self.fn.name
        k = (qual, tok.text)
        self.counts[k] = self.counts.get(k, 0) + 1
        key = f"{qual}:{tok.text}({'+'.join(sorted(locks))})#{self.counts[k]}"
        self.findings.append(Finding(
            RULE, self.fi.path, tok.line,
            f"{qual} holds {', '.join(sorted(locks))} across fiber yield point "
            f"{tok.text}(): a suspended rank keeps the mutex and wedges the "
            "worker pool (PR-3 abort_all inversion class); unlock first, pass "
            "the lock to the primitive, or mark `// analyze: "
            "lock-across-yield-ok (<reason>)`", key=key))


def run(repo) -> list:
    findings: list[Finding] = []
    for fi in repo.files.values():
        if not in_scope(fi.path):
            continue
        for fn in fi.functions:
            sc = _Scanner(fn, fi, findings)
            sc.scan_block(fn.body, 0, len(fn.body), {})
    return findings


# ---- self-test fixtures -----------------------------------------------------

SELF_TEST_CASES = [
    ("lock_guard held across recv is flagged",
     {"src/xmp/a.cpp": """
void f(xmp::Comm& c, std::mutex& mu) {
  std::lock_guard lk(mu);
  auto msg = c.recv_bytes(0, 7);
}
"""},
     {"f:recv_bytes(lk)#1"}),

    ("lock released by scope end before the yield is clean",
     {"src/xmp/a.cpp": """
void f(xmp::Comm& c, std::mutex& mu) {
  {
    std::lock_guard lk(mu);
    state++;
  }
  c.barrier();
}
"""},
     set()),

    ("cv wait taking the lock as argument is the correct protocol",
     {"src/xmp/a.cpp": """
void f(std::mutex& mu, std::condition_variable& cv) {
  std::unique_lock lk(mu);
  while (!ready) cv.wait(lk);
}
"""},
     set()),

    ("explicit unlock before the yield is clean; relock after is fine",
     {"src/xmp/a.cpp": """
void f(xmp::Comm& c, std::mutex& mu) {
  std::unique_lock lk(mu);
  lk.unlock();
  c.barrier();
  lk.lock();
}
"""},
     set()),

    ("relocking then yielding is flagged again",
     {"src/xmp/a.cpp": """
void f(xmp::Comm& c, std::mutex& mu) {
  std::unique_lock lk(mu);
  lk.unlock();
  c.barrier();
  lk.lock();
  c.barrier();
}
"""},
     {"f:barrier(lk)#1"}),

    ("unique_lock with template args held across collect_bytes_all is flagged",
     {"src/xmp/a.cpp": """
void f(xmp::Comm& c, std::mutex& mu) {
  std::unique_lock<std::mutex> lk(mu);
  auto blobs = c.collect_bytes_all(nullptr, 0);
}
"""},
     # the untraced raw collective also trips collective-trace
     {"f:collect_bytes_all(lk)#1", "collective-trace"}),

    ("a unique_lock parameter is not a lock acquisition",
     {"src/xmp/a.cpp": """
void park(std::unique_lock<std::mutex>& lk);
void WaitCv::wait(std::unique_lock<std::mutex>& lk) {
  waiters.push_back(current());
  sched->park(lk);
}
"""},
     set()),

    ("yield name inside a string or comment is not a call",
     {"src/xmp/a.cpp": """
void f(std::mutex& mu) {
  std::lock_guard lk(mu);
  log("blocked in recv(...)");  // recv() happens after release
}
"""},
     set()),

    ("ensemble.cpp is in scope",
     {"src/scenario/ensemble.cpp": """
void g(xmp::Comm& c, std::mutex& mu) {
  std::lock_guard lk(mu);
  auto msg = c.recv_bytes(0, 71);
}
"""},
     {"g:recv_bytes(lk)#1"}),

    ("other directories are out of scope",
     {"src/telemetry/a.cpp": """
void f(xmp::Comm& c, std::mutex& mu) {
  std::lock_guard lk(mu);
  c.barrier();
}
"""},
     set()),

    ("marker with a reason suppresses",
     {"src/xmp/a.cpp": """
void f(xmp::Comm& c, std::mutex& mu) {
  std::lock_guard lk(mu);
  // analyze: lock-across-yield-ok (single-rank comm: recv completes immediately)
  auto msg = c.recv_bytes(0, 7);
}
"""},
     set()),

    ("Pending::test polled under a held lock is flagged",
     {"src/xmp/a.cpp": """
void f(xmp::Pending& p, std::mutex& mu) {
  std::lock_guard lk(mu);
  while (!p.test()) spin();
}
"""},
     {"f:test(lk)#1"}),

    ("marked Pending::wait under a held lock is suppressed",
     {"src/xmp/a.cpp": """
void f(xmp::Pending& p, std::mutex& mu) {
  std::lock_guard lk(mu);
  // analyze: lock-across-yield-ok (handle is born matched: wait cannot park)
  auto raw = p.wait();
}
"""},
     set()),

    ("two locks held: both named in the finding",
     {"src/xmp/a.cpp": """
void f(xmp::Comm& c, std::mutex& a, std::mutex& b) {
  std::lock_guard la(a);
  std::lock_guard lb(b);
  c.barrier();
}
"""},
     {"f:barrier(la+lb)#1"}),
]
