"""dpd-no-std-function: headers under src/dpd/ must not take or store a
`std::function` unless `// analyze: std-function-ok (<reason>)` sits on the
line or up to two lines above it. std::function in a DPD interface is how
an indirect call per pair crept into the hot loop before the Verlet-list
fast path (docs/PERF.md); pair iteration must stay templated. The marker is
for setup-time callbacks (body force, coupling velocity fields) evaluated
at most once per particle, never per pair.
"""

from __future__ import annotations

from passes import Finding, spells

RULE = "dpd-no-std-function"
MARKERS = {"std-function-ok"}


def run(repo) -> list:
    findings: list[Finding] = []
    for fi in repo.files.values():
        if not (fi.path.startswith("src/dpd/") and fi.path.endswith(".hpp")):
            continue
        for i, t in enumerate(fi.code):
            if spells(fi.code, i, "std", "::", "function", "<") and \
                    not fi.markers_near(t.line, MARKERS):
                findings.append(Finding(
                    RULE, fi.path, t.line,
                    "std::function in a DPD header puts an indirect call in "
                    "reach of the pair hot loop; template the callback, or "
                    "mark a setup-time one with `// analyze: std-function-ok "
                    "(<reason>)`"))
    return findings


# ---- self-test fixtures -----------------------------------------------------

SELF_TEST_CASES = [
    ("std::function parameter in a DPD header is flagged",
     {"src/dpd/bad_fn.hpp":
      "#pragma once\n#include <functional>\n"
      "void for_each_pair(const std::function<void(int, int)>& fn);\n"},
     {RULE}),

    ("marker with a reason suppresses",
     {"src/dpd/ok_fn_marker.hpp":
      "#pragma once\n#include <functional>\n"
      "// analyze: std-function-ok (setup-time callback, not a pair-loop parameter)\n"
      "using BodyForceFn = std::function<Vec3(const Vec3&)>;\n"},
     set()),

    ("sources are out of scope",
     {"src/dpd/ok_fn_source.cpp":
      "#include <functional>\n"
      "static std::function<void()> g;  // sources are out of scope\n"},
     set()),

    ("headers outside src/dpd are out of scope",
     {"src/other/ok_fn_elsewhere.hpp":
      "#pragma once\n#include <functional>\n"
      "using Cb = std::function<void()>;\n"},
     set()),

    ("std::function in a comment is not code",
     {"src/dpd/ok_fn_in_comment.hpp":
      "#pragma once\n"
      "// callbacks must NOT be std::function<void(int,int)>; keep them templated\n"
      "template <class F> void for_each_pair(F&& fn);\n"},
     set()),
]
