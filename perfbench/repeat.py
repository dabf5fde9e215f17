#!/usr/bin/env python3
"""Run the benchmark several times per workload and report the spread.

Run from the repository root:

    python3 perfbench/repeat.py --runs 10 [--workloads grid,corpus] [--first-seed 1]

Each run uses its own seed. For every end-to-end metric the report gives the
median, the first and third quartiles (statistics.quantiles, n=4), the
sample count, and the spread: the quartile distance as a share of the
median, next to a third of the metric's bound from BENCHMARK.json. The
summary, with each run's sim_digest by seed so two sets of runs can be
compared, is written to perfbench/summary.json under the build directory.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    lines = p.stdout.strip().splitlines()
    host = next((line for line in lines if line.startswith("host:")), "host: unknown")
    digest = re.search(r"sim_digest=(\w+)", p.stdout)
    return host, digest.group(1) if digest else "", json.loads(lines[-1]), wall


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    ok = True
    for w in args.workloads.split(","):
        values, digests, failed = {}, {}, 0
        for i in range(args.runs):
            seed = args.first_seed + i
            host, digest, res, wall = run_once(w, seed, args.seconds, 0)
            summary["host"] = host
            digests[seed] = digest
            failed += res["failed"]
            if not res["correct"]:
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed} ({wall:.1f}s): " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        rows = {}
        print(f"\n{w}: {args.runs} runs, {failed} failed ops, {summary['host']}")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
        for name, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            limit = bounds.get(name, 0) / 3
            flag = "" if name == "setup_s" or spread < limit else "  WIDE"
            if flag:
                ok = False
            rows[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vs), "spread": spread, "values": vs}
            print(f"  {name:18} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {limit:8.4f}{flag}")
        summary["workloads"][w] = rows
        summary.setdefault("sim_digest", {})[w] = digests
        if failed:
            ok = False
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(ROOT if not os.path.isabs(build) else "", build, "perfbench", "summary.json")
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"\nwrote {path}; {'all spreads within a third of their bounds' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
