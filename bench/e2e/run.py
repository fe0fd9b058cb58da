#!/usr/bin/env python3
"""Runs the end-to-end benchmark (see README.md).

Builds bench/e2e with CMake into .bench_build/e2e, then runs each workload
in its own e2e_bench process. Runs are closed-loop: one at a time, the next
starts when the previous one has finished. Prints one table of every metric
with its unit and, as the last line of standard output, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics.

  python3 bench/e2e/run.py --workload cdc2d_ckpt --seed 3 --seconds 10 --trace 0
  python3 bench/e2e/run.py --seed 3 --trace --runs 5 --out results/   # all workloads

In the second form metric names are prefixed with "<workload>/" and values
are medians over the runs; --out keeps one JSON record per run for
compare.py, and --baseline FILE writes all records plus a description of
the host (CPU, caches, compiler, commit) as one baseline file.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
WORKLOADS = ["cdc2d_ckpt", "cdc3d_sem", "sweep_warm", "dpd_dist2"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    """BENCHMARK.json: which metrics a result reports, with their units."""
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure (once) and build e2e_bench; tool output goes to stderr."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                  "-j", str(min(2, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"run.py: build step timed out: {' '.join(cmd)}")
            return None
        if done.returncode != 0:
            log(f"run.py: build failed: {' '.join(cmd)}")
            return None
    return BUILD / "e2e_bench"


def host_info():
    """What a baseline was measured on: CPU, caches, compiler, commit."""
    def first_line(cmd):
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
            return done.stdout.splitlines()[0].strip() if done.returncode == 0 else "unknown"
        except (OSError, IndexError, subprocess.TimeoutExpired):
            return "unknown"

    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (idx / "level").read_text().strip()
        kind = (idx / "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{level}"] = (idx / "size").read_text().strip()
    compiler = "unknown"
    with open(BUILD / "CMakeCache.txt") as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = first_line([line.split("=", 1)[1].strip(), "--version"])
    return {"nproc": os.cpu_count(), "cpu": cpu, "caches_of_cpu0": caches,
            "machine": platform.machine(), "compiler": compiler,
            "commit": first_line(["git", "-C", str(ROOT), "describe", "--always", "--dirty"])}


def parse(stdout):
    out = {"metrics": {}, "checks": [], "attempted": None, "failed": None, "digest": None}
    for line in stdout.splitlines():
        f = line.split()
        if len(f) == 4 and f[0] == "METRIC":
            out["metrics"][f[1]] = {"value": float(f[2]), "unit": f[3]}
        elif len(f) >= 2 and f[0] == "CHECK":
            out["checks"].append({"ok": f[1] == "ok", "what": " ".join(f[2:])})
        elif len(f) == 3 and f[0] == "ATTEMPTS":
            out["attempted"], out["failed"] = int(f[1]), int(f[2])
        elif len(f) == 2 and f[0] == "DIGEST":
            out["digest"] = f[1]
    return out


def run_one(binary, workload, seed, seconds, trace):
    """One e2e_bench process in a fresh scratch directory under the build tree."""
    work = BUILD / "work" / f"{workload}-{os.getpid()}"
    results = BUILD / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--templates", str(BENCH / "workloads")]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, NEKTARG_BENCH_DIR=str(results))
    try:
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(done.stderr)
    rec = parse(done.stdout)
    rec.update(workload=workload, seed=seed, trace=int(trace), rc=done.returncode)
    for c in rec["checks"]:
        if not c["ok"]:
            log(f"run.py: {workload}: check failed: {c['what']}")
    if done.returncode not in (0, 1) or rec["attempted"] is None:
        log(f"run.py: {workload} exited with status {done.returncode}")
        return None
    return rec


def result_of(rec, spec):
    """The result object of one run, or None when a metric is missing."""
    wanted = spec["per_layer" if rec["trace"] else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = rec["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"run.py: {rec['workload']}: metric {m['name']} [{m['unit']}] missing")
            return None
        metrics[m["name"]] = got
    ok = rec["rc"] == 0 and rec["failed"] == 0
    return {"correct": ok, "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": metrics}


def print_table(rows):
    width = max([len(r[0]) for r in rows] + [6])
    print(f"{'metric':<{width}}  {'value':>18}  unit")
    for name, value, unit in rows:
        print(f"{name:<{width}}  {value:>18.9g}  {unit}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", default=[], choices=WORKLOADS)
    ap.add_argument("--workloads", nargs="+", default=[], choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring budget per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1],
                    help="1: traced run(s) with per-layer metrics")
    ap.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    ap.add_argument("--out", type=Path, help="directory for one JSON record per run")
    ap.add_argument("--baseline", type=Path,
                    help="write every run and the host as one baseline file")
    args = ap.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = args.workload + args.workloads or WORKLOADS
    binary = build()
    if binary is None:
        return 1

    single = len(workloads) == 1 and args.runs == 1
    plan = []
    for w in workloads:
        if single:
            plan.append((w, bool(args.trace)))
            continue
        plan += [(w, False)] * args.runs
        if args.trace:
            plan.append((w, True))

    records = []
    for i, (w, trace) in enumerate(plan):
        rec = run_one(binary, w, args.seed, seconds, trace)
        if rec is None:
            return 1
        rec["result"] = result_of(rec, spec)
        if rec["result"] is None:
            return 1
        records.append(rec)
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            with open(args.out / f"{i:03d}-{w}-{'trace' if trace else 'run'}.json", "w") as f:
                json.dump(rec, f, indent=1)
            if trace:
                shutil.copy(BUILD / "results" / f"TRACE_{w}.json", args.out)

    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump({"host": host_info(), "seed": args.seed, "seconds": seconds,
                       "runs": records}, f, indent=1)
            f.write("\n")

    if single:
        res = records[0]["result"]
        print_table([(k, v["value"], v["unit"]) for k, v in res["metrics"].items()])
        print(json.dumps(res))
        return 0

    merged = {}
    for rec in records:
        for k, v in rec["result"]["metrics"].items():
            merged.setdefault(f"{rec['workload']}/{k}", (v["unit"], []))[1].append(v["value"])
    rows = [(k, statistics.median(vals), unit) for k, (unit, vals) in merged.items()]
    print_table(rows)
    print(json.dumps({
        "correct": all(r["result"]["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, v, u in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
