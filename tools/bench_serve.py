#!/usr/bin/env python3
"""Run the fbperf `forkbase serve` benchmark over several seeds; print medians.

Run from the repository root:

    python3 tools/bench_serve.py --seeds 5

For the dataset and sync workloads and each seed 1..N this runs
`python3 fbperf/run.py --workload W --seed S --seconds 20 --trace 0` (the run
length BENCHMARK.json sets), reads the JSON result on its last line of output,
and prints, per metric, the median and the quartiles across seeds.  A failed run is reported and left out of the
summary; the exit status is non-zero if any run failed or reported failed
operations.
"""

import argparse
import json
import statistics
import subprocess
import sys

SECONDS = 20
WORKLOADS = ("dataset", "sync")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def run_once(workload, seed):
    cmd = [sys.executable, "fbperf/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()

    ok = True
    for workload in WORKLOADS:
        values = {}
        units = {}
        for seed in range(1, args.seeds + 1):
            result = run_once(workload, seed)
            if result is None:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                ok = False
                continue
            if result.get("failed", 0) != 0 or not result.get("correct", False):
                print(f"{workload} seed {seed}: {result.get('failed')} failed "
                      f"operations", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: done", file=sys.stderr)
        print(f"== {workload} ({len(next(iter(values.values()), []))} seeds)")
        for name, xs in values.items():
            lo, hi = quartiles(xs)
            print(f"  {name:18s} median {statistics.median(xs):10.4g} "
                  f"[q1 {lo:.4g}, q3 {hi:.4g}] {units[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
