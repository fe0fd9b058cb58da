"""collective-trace: in src/xmp, every call of the byte-collecting
primitives (collect_bytes_all / collect_bytes) must be preceded, within 25
lines, by trace attribution in code (trace_transfer / trace_allreduce /
emit_trace), or carry `// analyze: no-trace (<reason>)` on the call or up
to three lines above it. New collectives must report their logical
transfers to the trace hook the machine model replays.

Only calls inside function bodies count, so the primitives' own
declarations and definitions are not findings. A trace function named in a
comment is not attribution.
"""

from __future__ import annotations

from passes import Finding, iter_calls

RULE = "collective-trace"
MARKERS = {"no-trace"}
COLLECT = frozenset({"collect_bytes_all", "collect_bytes"})
TRACE = frozenset({"trace_transfer", "trace_allreduce", "emit_trace"})
BACKWINDOW = 25
MARKER_BACKWINDOW = 3


def run(repo) -> list:
    findings: list[Finding] = []
    for fi in repo.files.values():
        if not fi.path.startswith("src/xmp/"):
            continue
        traced = [t.line for t in fi.code if t.kind == "id" and t.text in TRACE]
        for fn in fi.functions:
            for idx, name, _ in iter_calls(fn.body):
                if name not in COLLECT:
                    continue
                line = fn.body[idx].line
                if fi.markers_near(line, MARKERS, MARKER_BACKWINDOW) or \
                        any(line - BACKWINDOW <= t <= line for t in traced):
                    continue
                findings.append(Finding(
                    RULE, fi.path, line,
                    f"{name} call without nearby trace attribution "
                    "(trace_transfer/trace_allreduce) or a `// analyze: no-trace "
                    "(<reason>)` marker: collectives must report their logical "
                    "transfers"))
    return findings


# ---- self-test fixtures -----------------------------------------------------

SELF_TEST_CASES = [
    ("untraced collect_bytes_all is flagged",
     {"src/xmp/bad_collective.cpp":
      "void f(xmp::Comm& c) {\n  auto b = c.collect_bytes_all(nullptr, 0);\n}\n"},
     {RULE}),

    ("trace_transfer just above is attribution",
     {"src/xmp/ok_collective_traced.cpp":
      "void f(xmp::Comm& c) {\n  c.trace_transfer(0, 1, 8, xmp::TraceKind::Bcast);\n"
      "  auto b = c.collect_bytes_all(nullptr, 0);\n}\n"},
     set()),

    ("marker with a reason suppresses",
     {"src/xmp/ok_collective_marker.cpp":
      "void f(xmp::Comm& c) {\n  // analyze: no-trace (no payload)\n"
      "  auto b = c.collect_bytes_all(nullptr, 0);\n}\n"},
     set()),

    ("a declaration is not a call",
     {"src/xmp/ok_collective_decl.cpp":
      "std::shared_ptr<Blobs> collect_bytes(const void* p, std::size_t n);\n"},
     set()),

    ("an out-of-line definition is not a call",
     {"src/xmp/ok_collective_defn.cpp":
      "std::shared_ptr<Blobs> Comm::collect_bytes_all(const void* p, std::size_t n) {\n"
      "  return nullptr;\n}\n"},
     set()),

    ("a namespace-qualified call is flagged",
     {"src/xmp/bad_collective_qualified_call.cpp":
      "void f() {\n  auto b = detail::collect_bytes(g, 0, nullptr, 0, d);\n}\n"},
     {RULE}),

    ("trace_transfer named in a comment is not attribution",
     {"src/xmp/bad_collective_trace_in_comment.cpp":
      "void f(xmp::Comm& c) {\n  // the caller already did trace_transfer\n"
      "  auto b = c.collect_bytes_all(nullptr, 0);\n}\n"},
     {RULE}),
]
