#!/usr/bin/env python3
"""Build forkbase and the fbperf program from source, then run one workload.

Run from the repository root:

    python3 fbperf/run.py --workload kv|dataset|sync --seed N --seconds S --trace 0|1

The last line fbperf.exe prints to standard output is the JSON result.  On any
failure (build, timeout, failed set-up) this exits non-zero and prints no
result.  fbperf.exe and the `forkbase serve` children it spawns run in a
process group of their own, which is killed and reaped on a timeout.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
TARGETS = ["./bin/forkbase_cli.exe", "./fbperf/fbperf.exe"]


def kill_group(proc):
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        try:
            proc.wait(timeout=5)
            return
        except subprocess.TimeoutExpired:
            continue


def remove_scratch(pid):
    base = ".fbperf_tmp"
    if not os.path.isdir(base):
        return
    for name in os.listdir(base):
        if name.startswith(f"{pid}-"):
            shutil.rmtree(os.path.join(base, name), ignore_errors=True)
    try:
        os.rmdir(base)
    except OSError:
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["kv", "dataset", "sync"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", *TARGETS],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join("_build", "default", "fbperf", "fbperf.exe"),
           "--serve", os.path.join("_build", "default", "bin", "forkbase_cli.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, start_new_session=True)

    def on_signal(signum, _frame):
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, on_signal)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: workload timed out", file=sys.stderr)
        kill_group(proc)
        code = 1
    except KeyboardInterrupt:
        kill_group(proc)
        code = 1
    remove_scratch(proc.pid)
    return 1 if code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
