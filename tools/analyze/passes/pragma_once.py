"""pragma-once: every header under src/ has `#pragma once` within its first
five lines (a file comment may precede it)."""

from __future__ import annotations

from passes import Finding

RULE = "pragma-once"


def run(repo) -> list:
    return [Finding(RULE, fi.path, 1, "header does not start with #pragma once")
            for fi in repo.files.values()
            if fi.path.startswith("src/") and fi.path.endswith(".hpp")
            and "#pragma once" not in (line.strip() for line in fi.raw_lines[:5])]


# ---- self-test fixtures -----------------------------------------------------

SELF_TEST_CASES = [
    ("header without #pragma once is flagged",
     {"src/xmp/bad.hpp": "int f();\n"},
     {RULE}),

    ("header with #pragma once is clean",
     {"src/xmp/good.hpp": "#pragma once\nint f();\n"},
     set()),
]
