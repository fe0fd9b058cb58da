#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

  python3 bench/e2e/compare.py A B        # A: parent, B: change
  python3 bench/e2e/compare.py --self-test

A and B are directories of run records written by `run.py --out DIR`, or
baseline files under bench/e2e/baselines/ (their "runs" list). Only
untraced runs are compared. For every workload and end_to_end metric of
BENCHMARK.json one row gives each side's median and quartiles, the share
by which B's median is worse than A's, and the fraction of pairs (A[i],
B[i]), in run order, that B wins; ties count for neither side. Verdicts:

  unresolved  the run-to-run spread (IQR / median) of either side is wider
              than the metric's bound, unless every run of B beats every
              run of A
  regression  B's median is worse than A's by more than the bound
  improved    B wins at least 9 of 10 pairs and the medians differ by more
              than A's own IQR
  unchanged   otherwise

A "failures" row per workload compares failed/attempted; any rise is a
regression. The exit status is 1 when any row is a regression.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path):
    path = Path(path)
    if path.is_dir():
        runs = []
        for f in sorted(path.glob("*.json")):
            with open(f) as fh:
                doc = json.load(fh)
            if "result" in doc:  # skip the TRACE_<workload>.json files kept alongside
                runs.append(doc)
        return runs
    with open(path) as fh:
        return json.load(fh)["runs"]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(a, b, better, bound):
    """Verdict and statistics of one metric; a and b in run order."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (bm - am) / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    elif win_fraction >= 0.9 and abs(bm - am) > a3 - a1 and worse < 0:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {"a": (a1, am, a3), "b": (b1, bm, b3), "worse": worse, "spread": spread,
            "win_fraction": win_fraction, "pairs": len(pairs), "verdict": verdict}


def compare(runs_a, runs_b, spec):
    """One row per (workload, metric), plus a failures row per workload."""
    def by_workload(runs):
        out = {}
        for r in runs:
            if not r.get("trace"):
                out.setdefault(r["workload"], []).append(r["result"])
        return out

    ga, gb = by_workload(runs_a), by_workload(runs_b)
    rows = []
    for w in sorted(set(ga) & set(gb)):
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in ga[w] if m["name"] in r["metrics"]]
            b = [r["metrics"][m["name"]]["value"] for r in gb[w] if m["name"] in r["metrics"]]
            if a and b:
                rows.append(dict(workload=w, metric=m["name"], unit=m["unit"], bound=m["bound"],
                                 **compare_metric(a, b, m["better"], m["bound"])))
        fa = sum(r["failed"] for r in ga[w]) / sum(r["attempted"] for r in ga[w])
        fb = sum(r["failed"] for r in gb[w]) / sum(r["attempted"] for r in gb[w])
        rows.append(dict(workload=w, metric="failures", unit="1", bound=0.0,
                         a=(fa, fa, fa), b=(fb, fb, fb), worse=fb - fa, spread=0.0,
                         win_fraction=0.0, pairs=0,
                         verdict="regression" if fb > fa else "unchanged"))
    return rows


def print_rows(rows):
    print(f"{'workload':<11} {'metric':<12} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'worse':>7} {'wins':>5} {'bound':>6}  verdict")
    for r in rows:
        def fmt(q):
            return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
        print(f"{r['workload']:<11} {r['metric']:<12} {fmt(r['a']):<32} {fmt(r['b']):<32} "
              f"{100 * r['worse']:>6.1f}% {r['win_fraction']:>5.2f} {r['bound']:>6.2f}  "
              f"{r['verdict']}")


def self_test():
    spec = {"end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.10},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10},
    ]}

    def runs(workload, run_s, rate, failed=0):
        return [{"workload": workload, "trace": 0,
                 "result": {"attempted": 10, "failed": failed,
                            "metrics": {"run_s": {"value": x, "unit": "s"},
                                        "rate": {"value": y, "unit": "1/s"}}}}
                for x, y in zip(run_s, rate)]

    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]
    cases = [
        # (name, A runs, B runs, {metric: expected verdict})
        ("same", runs("w", base, base), runs("w", base, base),
         {"run_s": "unchanged", "rate": "unchanged", "failures": "unchanged"}),
        ("slower", runs("w", base, base), runs("w", [x * 1.2 for x in base], base),
         {"run_s": "regression", "rate": "unchanged"}),
        ("small drift within bound", runs("w", base, base),
         runs("w", [x * 1.05 for x in base], base), {"run_s": "unchanged"}),
        ("faster", runs("w", base, base), runs("w", [x * 0.8 for x in base], base),
         {"run_s": "improved"}),
        ("higher is better", runs("w", base, base), runs("w", base, [x * 0.8 for x in base]),
         {"rate": "regression"}),
        ("noisy", runs("w", base, base),
         runs("w", [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0], base),
         {"run_s": "unresolved"}),
        ("noisy but every B run beats every A run",
         runs("w", [20.0, 30.0, 22.0, 28.0, 24.0], base[:5]),
         runs("w", [5.0, 15.0, 6.0, 14.0, 7.0], base[:5]), {"run_s": "improved"}),
        ("ties count for neither side", runs("w", [1.0] * 10, base),
         runs("w", [1.0] * 5 + [0.5] * 5, base), {"run_s": "unresolved"}),
        ("one run each", runs("w", [10.0], [1.0]), runs("w", [12.0], [1.0]),
         {"run_s": "regression"}),
        ("more failures", runs("w", base, base), runs("w", base, base, failed=1),
         {"failures": "regression"}),
    ]
    bad = 0
    for name, a, b, want in cases:
        rows = {r["metric"]: r for r in compare(a, b, spec)}
        for metric, verdict in want.items():
            got = rows[metric]["verdict"]
            if got != verdict:
                bad += 1
                print(f"FAIL {name}: {metric} is {got}, expected {verdict}")
    ties = compare(runs("w", [1.0, 2.0], base[:2]), runs("w", [1.0, 1.0], base[:2]), spec)[0]
    if ties["win_fraction"] != 0.5:
        bad += 1
        print(f"FAIL win fraction with one tie: {ties['win_fraction']}, expected 0.5")
    print(f"compare.py self-test: {len(cases) + 1 - bad} of {len(cases) + 1} cases ok")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a", nargs="?", help="parent: run-record directory or baseline file")
    ap.add_argument("b", nargs="?", help="change: run-record directory or baseline file")
    ap.add_argument("--self-test", action="store_true", help="run the built-in fixtures")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.a or not args.b:
        ap.error("need two run sets, A and B")
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    rows = compare(load_runs(args.a), load_runs(args.b), spec)
    if not rows:
        print("compare.py: the two sets share no workload", file=sys.stderr)
        return 2
    print_rows(rows)
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
