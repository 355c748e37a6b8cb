#!/usr/bin/env python3
"""Paired A/B of the fbperf `forkbase serve` benchmark: a base revision against the working tree.

Run from the repository root:

    python3 tools/ab.py --base REV --seeds 1,2,3 --workloads sync,dataset

The base revision's committed files are extracted into a scratch directory
(`git archive`, so the base builds exactly what is committed) and built there;
the working tree is built in place.  For every workload and seed the two sides
run `python3 fbperf/run.py --workload W --seed S --seconds 20 --trace 0` (the
run length BENCHMARK.json sets) back to back, alternating which side goes
first from one seed to the next.  Each finished pair is reported on standard
error as it completes.

The summary prints one row per workload and metric: the base and change
medians with their quartiles, the relative change of the medians, and how many
pairs the change won (direction from BENCHMARK.json's `better`).

The exit status is non-zero if any run failed, if any run reported failed
operations, or if `space_amp`, `wire_kib_per_op` or the failed-operation count
differ between the two sides of a pair: those are fixed by the seed, so a
difference means the change altered the work, not its speed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

SECONDS = 20
SAME_PER_SEED = ("space_amp", "wire_kib_per_op")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def extract(rev, dest):
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def run_once(tree, workload, seed):
    cmd = [sys.executable, "fbperf/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds")
    ap.add_argument("--workloads", default="sync,dataset",
                    help="comma-separated fbperf workloads")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s]
    workloads = [w for w in args.workloads.split(",") if w]

    with open("BENCHMARK.json") as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    scratch = tempfile.mkdtemp(prefix="fb-ab-")
    ok = True
    rows = []
    try:
        base_tree = os.path.join(scratch, "base")
        os.mkdir(base_tree)
        extract(args.base, base_tree)
        sides = {"base": base_tree, "change": os.getcwd()}
        for workload in workloads:
            values = {"base": {}, "change": {}}
            wins = {}
            pairs = 0
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                results = {side: run_once(sides[side], workload, seed)
                           for side in order}
                if any(r is None for r in results.values()):
                    print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                    ok = False
                    continue
                for side, r in results.items():
                    if r.get("failed", 0) != 0 or not r.get("correct", False):
                        print(f"{workload} seed {seed} {side}: {r.get('failed')} "
                              f"failed operations", file=sys.stderr)
                        ok = False
                b, c = results["base"], results["change"]
                for name in SAME_PER_SEED:
                    if b["metrics"][name]["value"] != c["metrics"][name]["value"]:
                        print(f"{workload} seed {seed}: {name} differs "
                              f"({b['metrics'][name]['value']} vs "
                              f"{c['metrics'][name]['value']})", file=sys.stderr)
                        ok = False
                if b.get("failed") != c.get("failed"):
                    print(f"{workload} seed {seed}: failed-operation count differs",
                          file=sys.stderr)
                    ok = False
                pairs += 1
                for name in b["metrics"]:
                    bv = b["metrics"][name]["value"]
                    cv = c["metrics"][name]["value"]
                    values["base"].setdefault(name, []).append(bv)
                    values["change"].setdefault(name, []).append(cv)
                    won = cv < bv if better.get(name, "lower") == "lower" else cv > bv
                    wins[name] = wins.get(name, 0) + int(won)
                summary = " ".join(
                    f"{name} {b['metrics'][name]['value']:.4g}->"
                    f"{c['metrics'][name]['value']:.4g}"
                    for name in b["metrics"])
                print(f"{workload} seed {seed} ({order[0]} first): {summary}",
                      file=sys.stderr)
            for name in values["base"]:
                bs, cs = values["base"][name], values["change"][name]
                bm, cm = statistics.median(bs), statistics.median(cs)
                rows.append((workload, name, bm, quartiles(bs), cm, quartiles(cs),
                             (cm - bm) / bm * 100 if bm else 0.0,
                             wins[name], pairs))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("workload metric           base median [q1, q3]        "
          "change median [q1, q3]      delta  wins")
    for workload, name, bm, (bl, bh), cm, (cl, ch), delta, won, pairs in rows:
        base = f"{bm:.4g} [{bl:.4g}, {bh:.4g}]"
        change = f"{cm:.4g} [{cl:.4g}, {ch:.4g}]"
        print(f"{workload:8s} {name:16s} {base:27s} {change:27s} "
              f"{delta:+6.1f}%  {won}/{pairs}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
