#!/usr/bin/env python3
"""The benchmark's own test: fixed, seeded work and answer checks.

Run from the repository root:

    python3 fbperf/selftest.py [--workloads dataset,sync,kv] [--seconds 5]

For each workload it runs the benchmark twice with one seed, untraced and
traced, and asserts that

  * every run is correct, with zero failed operations;
  * the byte and count metrics (space_amp, wire_kib_per_op and every
    *_per_op, *_samples and byte-ratio metric of the traced run) are
    identical across the two runs;
  * in the traced run, for every operation role the layer times add up
    to the client time: transit + service + forkbase + chunk +
    unexplained = remote.

Exits non-zero on the first failure.
"""

import argparse
import json
import subprocess
import sys

EXACT_END_TO_END = ["space_amp", "wire_kib_per_op"]
ROLES = ["read", "write", "diff", "merge", "branch"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["python3", "fbperf/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} trace={trace}: {result['failed']} of "
                 f"{result['attempted']} operations failed\n{out.stderr[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def exact_traced(name):
    return (name.endswith("_per_op") or name.endswith("_samples")
            or name == "chunk.log_bytes_per_user_byte"
            or name == "postree.node_cache_hit_ratio")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="dataset,sync,kv")
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    for w in args.workloads.split(","):
        a = run(w, args.seed, args.seconds, 0)
        b = run(w, args.seed, args.seconds, 0)
        for name in EXACT_END_TO_END:
            if a[name] != b[name]:
                sys.exit(f"{w}: {name} differs across runs with one seed: {a[name]} vs {b[name]}")
        ta = run(w, args.seed, args.seconds, 1)
        tb = run(w, args.seed, args.seconds, 1)
        for name in ta:
            if exact_traced(name) and ta[name] != tb[name]:
                sys.exit(f"{w}: {name} differs across traced runs with one seed: "
                         f"{ta[name]} vs {tb[name]}")
        for role in ROLES:
            parts = sum(ta[f"{layer}_ms"] for layer in (
                f"server.transit_{role}", f"service.{role}_self",
                f"forkbase.{role}_self", f"chunk.{role}", f"unexplained.{role}"))
            remote = ta[f"remote.{role}_ms"]
            if abs(parts - remote) > 1e-6 * max(1.0, remote):
                sys.exit(f"{w}: {role} layers sum to {parts} ms, client time {remote} ms")
        print(f"{w}: ok (correct, exact counts, layers sum to client time)")


if __name__ == "__main__":
    main()
