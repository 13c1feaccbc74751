#!/usr/bin/env python3
"""Build and run the end-to-end Experiment benchmark.

    python3 e2ebench/run.py --workload campus|fig14|floorplan_churn \
        --seed N --seconds S --trace 0|1 [--shape full|tiny]

Run from the root of a checkout. The benchmark binary and the simulator
library it links are built from source into .bench_build/ (incremental after
the first run). The last line of stdout is the benchmark's JSON result; with
--trace 1 the spans are also written to
.bench_build/traces/<workload>-seed<N>.json (Chrome trace-event format).

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2e_bench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; build logs go to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2e_bench",
                    "-j", "4"], check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["campus", "fig14", "floorplan_churn"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--shape", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--shape", args.shape]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"run.py: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError(f"unexpected keys {sorted(result)}")
    except ValueError as e:
        sys.stderr.write(proc.stdout)
        print(f"run.py: malformed result line: {e}", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
