"""Driver for the repo analyzer.

Usage (from the repo root):
    python3 tools/analyze                 # analyze src tests bench examples,
                                          # exit 1 on any finding
    python3 tools/analyze src/dpd         # restrict to explicit paths
    python3 tools/analyze --self-test     # run the fixture cases of every pass
    python3 tools/analyze --json out.json # also write a machine-readable report

A finding is suppressed only by an inline `// analyze: <marker> (<reason>)`
on the offending line or a few lines above it (docs/ANALYSIS.md lists each
rule's marker and window); a marker without a reason suppresses nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from index import RepoIndex
from passes import (checkpoint_coverage, collective_divergence, collective_trace,
                    dpd_no_std_function, hot_alloc, lock_across_yield, memcpy_divisibility,
                    no_using_namespace, pragma_once, sched_context, src_reach)

PASSES = (checkpoint_coverage, collective_divergence, lock_across_yield, memcpy_divisibility,
          collective_trace, dpd_no_std_function, hot_alloc, sched_context, pragma_once,
          no_using_namespace, src_reach)

REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_ROOTS = ("src", "tests", "bench", "examples")
EXTS = (".hpp", ".h", ".cpp", ".cc", ".cxx")


def _relpath(p: Path) -> str:
    try:
        return p.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return p.as_posix()


def collect_targets(paths) -> list:
    """Repo-relative paths of the files to index, sorted and de-duplicated."""
    out: set[str] = set()
    for p in paths or DEFAULT_ROOTS:
        pp = Path(p)
        if not pp.is_absolute():
            pp = REPO_ROOT / pp
        if pp.is_dir():
            for ext in EXTS:
                out.update(_relpath(f) for f in pp.rglob(f"*{ext}"))
        elif pp.is_file():
            out.add(_relpath(pp))
        elif paths:
            print(f"analyze: warning: no such path: {p}", file=sys.stderr)
    return sorted(out)


def build_index(targets) -> RepoIndex:
    repo = RepoIndex()
    for rel in targets:
        p = REPO_ROOT / rel
        try:
            text = p.read_text(errors="replace")
        except OSError as e:
            print(f"analyze: warning: cannot read {rel} ({e})", file=sys.stderr)
            continue
        repo.add(rel, text)
    return repo


def run_passes(repo) -> list:
    return sorted((f for mod in PASSES for f in mod.run(repo)),
                  key=lambda f: (f.path, f.line, f.rule, f.key))


# ---- self-tests -------------------------------------------------------------

def run_self_tests() -> int:
    """Every case runs through every pass, so a case also pins that no other
    pass fires on its files."""
    failures = 0
    total = 0
    for mod in PASSES:
        for name, files, expected in mod.SELF_TEST_CASES:
            total += 1
            repo = RepoIndex()
            for rel, src in files.items():
                repo.add(rel, src)
            got = {f.key for f in run_passes(repo)}
            if got != expected:
                failures += 1
                print(f"FAIL [{mod.RULE}] {name}\n"
                      f"  expected: {sorted(expected)}\n"
                      f"  got:      {sorted(got)}")
    print(f"analyze self-test: {total - failures}/{total} cases passed "
          f"({', '.join(m.RULE for m in PASSES)})")
    return 1 if failures else 0


# ---- main -------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="tools/analyze",
        description="repo static analysis over a shared C++ index")
    ap.add_argument("paths", nargs="*", help="files/dirs to analyze "
                    f"(default: {' '.join(DEFAULT_ROOTS)})")
    ap.add_argument("--json", metavar="OUT",
                    help="write a machine-readable report to OUT")
    ap.add_argument("--self-test", action="store_true",
                    help="run the per-pass fixture cases and exit")
    args = ap.parse_args(argv)

    if args.self_test:
        return run_self_tests()

    targets = collect_targets(args.paths)
    if not targets:
        print("analyze: error: no input files", file=sys.stderr)
        return 2
    repo = build_index(targets)
    findings = run_passes(repo)

    if args.json:
        report = {"files": len(targets), "passes": [m.RULE for m in PASSES],
                  "findings": [asdict(f) for f in findings]}
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")

    for f in findings:
        print(f)
    n_cls = sum(len(fi.classes) for fi in repo.files.values())
    n_fn = sum(len(fi.functions) for fi in repo.files.values())
    print(f"analyze: {len(targets)} files, {n_cls} classes, {n_fn} function "
          f"bodies; {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
