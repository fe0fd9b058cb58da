"""memcpy-divisibility: in src/, a memcpy whose byte-count argument does not
mention sizeof copies into or out of a typed buffer with a count computed
elsewhere. It must be preceded, within 12 lines, by a `% sizeof`
divisibility check, or carry `// analyze: memcpy-ok (<reason>)` on the call
or up to two lines above it. This is the bug class behind gatherv/recv
silently truncating odd-sized payloads.
"""

from __future__ import annotations

from passes import Finding, call_args_span, iter_calls, spells

RULE = "memcpy-divisibility"
MARKERS = {"memcpy-ok"}
BACKWINDOW = 12


def run(repo) -> list:
    findings: list[Finding] = []
    for fi in repo.files.values():
        if not fi.path.startswith("src/"):
            continue
        checks = [t.line for i, t in enumerate(fi.code) if spells(fi.code, i, "%", "sizeof")]
        for idx, name, _ in iter_calls(fi.code):
            if name != "memcpy":
                continue
            line = fi.code[idx].line
            if any(t.text == "sizeof" for t in call_args_span(fi.code, idx)):
                continue  # count is sizeof-derived: divisibility is structural
            if fi.markers_near(line, MARKERS) or \
                    any(line - BACKWINDOW <= c < line for c in checks):
                continue
            findings.append(Finding(
                RULE, fi.path, line,
                "memcpy with a non-sizeof byte count needs a preceding `% sizeof` "
                "divisibility check or a `// analyze: memcpy-ok (<reason>)` marker"))
    return findings


# ---- self-test fixtures -----------------------------------------------------

SELF_TEST_CASES = [
    ("non-sizeof count without a check is flagged",
     {"src/a/bad_memcpy.cpp":
      "void f(char* d, const char* s, unsigned n) {\n  std::memcpy(d, s, n);\n}\n"},
     {RULE}),

    ("sizeof-derived count spanning lines is clean",
     {"src/a/ok_memcpy_sizeof.cpp":
      "void f(double* d, const char* s, unsigned n) {\n"
      "  std::memcpy(d, s,\n              n * sizeof(double));\n}\n"},
     set()),

    ("preceding % sizeof check is clean",
     {"src/a/ok_memcpy_checked.cpp":
      "void f(double* d, const std::vector<char>& s) {\n"
      "  if (s.size() % sizeof(double)) throw 1;\n  std::memcpy(d, s.data(), s.size());\n}\n"},
     set()),

    ("marker with a reason suppresses",
     {"src/a/ok_memcpy_marker.cpp":
      "void f(char* d, const char* s, unsigned n) {\n"
      "  // analyze: memcpy-ok (raw bytes)\n  std::memcpy(d, s, n);\n}\n"},
     set()),

    ("marker without a reason does NOT suppress",
     {"src/a/bad_memcpy_bare_marker.cpp":
      "void f(char* d, const char* s, unsigned n) {\n"
      "  // analyze: memcpy-ok\n  std::memcpy(d, s, n);\n}\n"},
     {RULE}),

    ("memcpy in a comment is not a call",
     {"src/a/ok_memcpy_in_comment.cpp":
      "void f(char* d, const char* s, unsigned n) {\n"
      "  // the old code did memcpy(d, s, n) without a check\n"
      "  copy_checked(d, s, n);\n}\n"},
     set()),

    ("memcpy in a string is not a call",
     {"src/a/ok_memcpy_in_string.cpp":
      "void f() {\n  log(\"memcpy(dst, src, nbytes) failed\");\n}\n"},
     set()),

    ("a sizeof inside a comment does not make the count sizeof-derived",
     {"src/a/bad_memcpy_string_sizeof.cpp":
      "void f(char* d, const char* s, unsigned n) {\n"
      "  std::memcpy(d, s, n /* \"n * sizeof(double)\" */);\n}\n"},
     {RULE}),
]
