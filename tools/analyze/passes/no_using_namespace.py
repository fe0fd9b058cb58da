"""no-using-namespace: no `using namespace std` (or a namespace nested in
std), in headers or sources."""

from __future__ import annotations

from passes import Finding, spells

RULE = "no-using-namespace"


def run(repo) -> list:
    return [Finding(RULE, fi.path, t.line, "do not import namespace std wholesale")
            for fi in repo.files.values()
            for i, t in enumerate(fi.code) if spells(fi.code, i, "using", "namespace", "std")]


# ---- self-test fixtures -----------------------------------------------------

SELF_TEST_CASES = [
    ("using namespace std is flagged",
     {"tests/bad_using.cpp": "using namespace std;\n"},
     {RULE}),
]
