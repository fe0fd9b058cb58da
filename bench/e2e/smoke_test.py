#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark (ctest e2e_bench_smoke).

Runs every workload of e2e_bench at --smoke size and asserts that
  * every check passes and every BENCHMARK.json metric is printed with its
    unit (end_to_end untraced, per_layer traced);
  * the traced replica's state equals the Runner state (a check of the
    traced coupled runs);
  * the same seed twice gives identical digests and identical counts;
  * another seed gives another digest, so the seed reaches the inputs;
  * a malformed template stops the bench with the scenario diagnostic.

  python3 bench/e2e/smoke_test.py --bench .bench_build/e2e/e2e_bench
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # keep the source tree clean when importing run.py
from run import BENCH, ROOT, WORKLOADS, parse  # noqa: E402

COUNTS = ["la.cg_iters", "dpd.nlist_rebuilds", "ckpt.bytes"]
failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run(bench, cwd, workload, seed, trace=False, templates=None):
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--smoke",
           "--templates", str(templates or BENCH / "workloads")]
    if trace:
        cmd.append("--trace")
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)
    rec = parse(done.stdout)
    rec["rc"], rec["stderr"] = done.returncode, done.stderr
    return rec


def check_run(rec, wanted, label):
    failed = [c["what"] for c in rec["checks"] if not c["ok"]]
    expect(rec["rc"] == 0 and not failed and rec["failed"] == 0,
           f"{label}: exit 0, every check passes" + (f" {failed}" if failed else ""))
    missing = [m["name"] for m in wanted
               if rec["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
    expect(not missing,
           f"{label}: every metric printed with its unit" + (f" {missing}" if missing else ""))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench", required=True, help="path of the e2e_bench binary")
    args = ap.parse_args()
    bench = str(Path(args.bench).resolve())
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)

    with tempfile.TemporaryDirectory() as tmp:
        for w in WORKLOADS:
            cwd = Path(tmp) / w
            cwd.mkdir()
            plain = run(bench, cwd, w, 1)
            check_run(plain, spec["end_to_end"], f"{w} seed 1")
            traced = [run(bench, cwd, w, 1, trace=True) for _ in range(2)]
            for i, t in enumerate(traced):
                check_run(t, spec["per_layer"], f"{w} seed 1 traced #{i + 1}")
            if w.startswith("cdc"):
                expect(any("bitwise equal to the Runner state" in c["what"] and c["ok"]
                           for c in traced[0]["checks"]),
                       f"{w}: traced replica state equals the Runner state")
            expect(plain["digest"] is not None and
                   plain["digest"] == traced[0]["digest"] == traced[1]["digest"],
                   f"{w}: same seed, same digest")
            same = all(traced[0]["metrics"][c]["value"] == traced[1]["metrics"][c]["value"]
                       for c in COUNTS if c in traced[0]["metrics"])
            expect(same, f"{w}: same seed, identical {', '.join(COUNTS)}")
            other = run(bench, cwd, w, 2)
            expect(other["digest"] not in (None, plain["digest"]),
                   f"{w}: seed 2, another digest")

        # A template that breaks the schema must end in the scenario
        # diagnostic (exit 2), not a crash.
        bad = Path(tmp) / "bad-templates"
        shutil.copytree(BENCH / "workloads", bad)
        doc = json.loads((bad / "cdc2d_ckpt.json").read_text())
        doc["sem"]["nu"] = -1
        (bad / "cdc2d_ckpt.json").write_text(json.dumps(doc))
        (bad / "cdc3d_sem.json").write_text('{"version": 1, "kind": ')
        for w, needle in [("cdc2d_ckpt", "$.sem.nu"), ("cdc3d_sem", "cdc3d_sem.json")]:
            rec = run(bench, tmp, w, 1, templates=bad)
            diagnosed = "scenario error" in rec["stderr"] and needle in rec["stderr"]
            expect(rec["rc"] == 2 and diagnosed,
                   f"{w}: malformed template ends in the scenario diagnostic naming {needle}")

    print(f"e2e smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
