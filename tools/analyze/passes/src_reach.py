"""src-reach: every file under src/ is part of what a user's run executes.

The roots are the indexed `examples/*.cpp`, the binaries a user runs. An
edge is an `#include "..."`, resolved against the including file's
directory first and src/ second; a reached header also reaches its
same-stem source file. Every src/ file outside that closure is flagged,
unless its first 10 lines carry
`// analyze: unreached-ok (ROADMAP item N: <reason>)`, naming the item that
will give it a caller or delete it. A marker on a header also covers its
same-stem source file. A marker on a reached file, or on any file outside
src/ (where it suppresses nothing), is stale and flagged. When the index
holds no examples/ file (a subtree run such as `python3 tools/analyze
src/dpd`) there are no roots, and only markers outside src/ are reported.
"""

from __future__ import annotations

import posixpath
import re

from passes import Finding

RULE = "src-reach"
MARKERS = {"unreached-ok"}
MARKER_LINES = 10
INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')
ITEM_RE = re.compile(r"ROADMAP item \d+")


def _includes(fi):
    for t in fi.toks:
        m = INCLUDE_RE.match(t.text) if t.kind == "pp" else None
        if m:
            yield m.group(1)


def _resolve(repo, path: str, inc: str):
    for base in (posixpath.dirname(path), "src"):
        cand = posixpath.normpath(posixpath.join(base, inc))
        if cand in repo.files:
            return cand
    return None


def _sources_of(repo, header: str) -> list:
    """The same-stem .cpp of a header, if indexed."""
    src = header.removesuffix(".hpp") + ".cpp"
    return [src] if header.endswith(".hpp") and src in repo.files else []


def _closure(repo, roots: list) -> set:
    seen = set(roots)
    todo = list(roots)
    while todo:
        path = todo.pop()
        nxt = [_resolve(repo, path, inc) for inc in _includes(repo.files[path])]
        for n in nxt + _sources_of(repo, path):
            if n and n not in seen:
                seen.add(n)
                todo.append(n)
    return seen


def _marked(fi) -> bool:
    return any(m.name in MARKERS and ITEM_RE.match(m.reason) and m.line <= MARKER_LINES
               for m in fi.markers)


def run(repo) -> list:
    marked = {p for p, fi in repo.files.items() if _marked(fi)}
    outside = [Finding(RULE, p, 1, "only src/ files must be reached, so this unreached-ok "
                       "marker suppresses nothing: remove it", key=p)
               for p in sorted(marked) if not p.startswith("src/")]
    roots = [p for p in repo.files
             if posixpath.dirname(p) == "examples" and p.endswith(".cpp")]
    if not roots:
        return outside
    reached = _closure(repo, roots)
    marked = {p for p in marked if p.startswith("src/")}
    covered = marked | {s for p in marked for s in _sources_of(repo, p)}
    findings = [Finding(RULE, p, 1,
                        "no examples/*.cpp reaches this file through its includes: move "
                        "it to tests/ or bench/ with its callers, or mark its header "
                        "`// analyze: unreached-ok (ROADMAP item N: <reason>)`", key=p)
                for p in sorted(repo.files)
                if p.startswith("src/") and p not in reached and p not in covered]
    findings += [Finding(RULE, p, 1, "an examples/*.cpp now reaches this file: remove its "
                         "unreached-ok marker", key=p)
                 for p in sorted(marked & reached)]
    return outside + findings


# ---- self-test fixtures -----------------------------------------------------

_RUN = {"examples/run.cpp": '#include "a/used.hpp"\nint main() { return 0; }\n'}

SELF_TEST_CASES = [
    ("a reached header, its source and their includes are clean",
     {**_RUN,
      "src/a/used.hpp": "#pragma once\nint used();\n",
      "src/a/used.cpp": '#include "a/used.hpp"\n#include "detail.hpp"\nint used() { return 1; }\n',
      "src/a/detail.hpp": "#pragma once\nint detail();\n"},
     set()),

    ("an unreached file is flagged",
     {**_RUN,
      "src/a/used.hpp": "#pragma once\nint used();\n",
      "src/b/dead.hpp": "#pragma once\nint dead();\n",
      "src/b/dead.cpp": '#include "b/dead.hpp"\nint dead() { return 0; }\n'},
     {"src/b/dead.hpp", "src/b/dead.cpp"}),

    ("a marked header covers its source",
     {**_RUN,
      "src/a/used.hpp": "#pragma once\nint used();\n",
      "src/b/later.hpp": "#pragma once\n"
                         "// analyze: unreached-ok (ROADMAP item 7: the run calls it next)\n"
                         "int later();\n",
      "src/b/later.cpp": '#include "b/later.hpp"\nint later() { return 0; }\n'},
     set()),

    ("a bare marker suppresses nothing",
     {**_RUN,
      "src/a/used.hpp": "#pragma once\nint used();\n",
      "src/b/bare.hpp": "#pragma once\n// analyze: unreached-ok\nint bare();\n"},
     {"src/b/bare.hpp"}),

    ("a marker that names no ROADMAP item suppresses nothing",
     {**_RUN,
      "src/a/used.hpp": "#pragma once\nint used();\n",
      "src/b/vague.hpp": "#pragma once\n// analyze: unreached-ok (kept for later)\nint vague();\n"},
     {"src/b/vague.hpp"}),

    ("a marker on a reached file is stale",
     {**_RUN,
      "src/a/used.hpp": "#pragma once\n"
                        "// analyze: unreached-ok (ROADMAP item 7: the run calls it next)\n"
                        "int used();\n"},
     {"src/a/used.hpp"}),

    ("an index with no examples/ file reports nothing",
     {"src/b/dead.hpp": "#pragma once\nint dead();\n",
      "src/b/dead.cpp": '#include "b/dead.hpp"\nint dead() { return 0; }\n'},
     set()),

    ("a marker outside src/ is stale, since only src/ files must be reached",
     {**_RUN,
      "src/a/used.hpp": "#pragma once\nint used();\n",
      "bench/b/moved.hpp": "#pragma once\n"
                           "// analyze: unreached-ok (ROADMAP item 7: the run calls it next)\n"
                           "int moved();\n"},
     {"bench/b/moved.hpp"}),
]
