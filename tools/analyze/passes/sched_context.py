"""sched-context: rank-visible code (src/xmp/, src/telemetry/) must not
introduce raw `thread_local` state or call `std::this_thread::get_id`.
Under the fiber scheduler (src/xmp/sched/) a rank migrates between OS
threads at every blocking point, so thread identity is NOT rank identity;
use xmp::sched::current_rank() / rank_local_slot() instead. The
scheduler's own context variables opt out with
`// analyze: sched-context-ok (<reason>)` on the line or up to two lines
above it.
"""

from __future__ import annotations

from passes import Finding, spells

RULE = "sched-context"
MARKERS = {"sched-context-ok"}


def run(repo) -> list:
    findings: list[Finding] = []
    for fi in repo.files.values():
        if not fi.path.startswith(("src/xmp/", "src/telemetry/")):
            continue
        for i, t in enumerate(fi.code):
            if (t.text == "thread_local" or
                    spells(fi.code, i, "std", "::", "this_thread", "::", "get_id")) \
                    and not fi.markers_near(t.line, MARKERS):
                findings.append(Finding(
                    RULE, fi.path, t.line,
                    "thread_local / this_thread::get_id in rank-visible code: "
                    "fiber ranks migrate between OS threads, so thread identity "
                    "is not rank identity; use xmp::sched::current_rank() / "
                    "rank_local_slot(), or mark scheduler-internal state with "
                    "`// analyze: sched-context-ok (<reason>)`"))
    return findings


# ---- self-test fixtures -----------------------------------------------------

SELF_TEST_CASES = [
    ("thread_local in src/xmp is flagged",
     {"src/xmp/bad_thread_local.cpp": "thread_local int cached_rank = -1;\n"},
     {RULE}),

    ("this_thread::get_id in src/telemetry is flagged",
     {"src/telemetry/bad_get_id.cpp":
      "void f() {\n  auto id = std::this_thread::get_id();\n}\n"},
     {RULE}),

    ("marker with a reason suppresses",
     {"src/xmp/ok_thread_local_marker.cpp":
      "// analyze: sched-context-ok (scheduler-internal worker state)\n"
      "thread_local Worker* tl_worker = nullptr;\n"},
     set()),

    ("get_id in a comment is not code",
     {"src/telemetry/ok_get_id_comment.cpp":
      "// never key on std::this_thread::get_id() here\nint f();\n"},
     set()),

    ("other directories are out of scope",
     {"src/other/ok_thread_local_elsewhere.cpp": "thread_local int scratch = 0;\n"},
     set()),

    ("thread_local in a string is not code",
     {"src/xmp/ok_thread_local_in_string.cpp":
      "void f() {\n  die(\"thread_local state is forbidden here\");\n}\n"},
     set()),
]
