#!/usr/bin/env python3
"""Paired comparison of two builds on the end-to-end benchmark.

Three subcommands:

  run     Runs `pairs` paired runs of two checkouts (parent and change) per
          workload, alternating which side runs first, with a fresh seed per
          pair. Each run's stdout is saved as <out>/<side>/<workload>-seed<N>.txt.

              python3 e2ebench/compare.py run --base ../parent --change . \\
                  --out /tmp/cmp --pairs 10

  judge   Compares two directories of result files, pairing runs by
          workload and seed, and prints one verdict per metric-and-workload
          row:
            improved    the change wins at least 9/10 of the pairs (ties count
                        for neither) and the medians differ by more than the
                        parent's interquartile range;
            regressed   the same rule in the parent's favour, or the change's
                        median is worse than the parent's by more than the
                        metric's bound in BENCHMARK.json;
            unresolved  the parent's own spread is wider than the bound and
                        not every run of the change reads better than every
                        run of the parent;
            unchanged   otherwise.

              python3 e2ebench/compare.py judge /tmp/cmp/base /tmp/cmp/change

  spread  Prints, per workload and metric, the median and the interquartile
          range as a share of the median over a set of result files, against
          the metric's bound.

              python3 e2ebench/compare.py spread /tmp/cmp/base

Result files hold the full stdout of e2ebench/run.py: the header line names
the workload and seed, and the last line is the JSON result.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HEADER = re.compile(r"^e2e_bench: workload=(\S+) seed=(\d+) .*trace=(\d)")


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def load_results(directory):
    """{(workload, seed): metrics} for every trace-0 result file."""
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path) as f:
            lines = f.read().strip().split("\n")
        header = next((HEADER.match(l) for l in lines if HEADER.match(l)),
                      None)
        if header is None or header.group(3) != "0":
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"warning: {path} reports failed points", file=sys.stderr)
        out[(header.group(1), int(header.group(2)))] = {
            k: v["value"] for k, v in result["metrics"].items()}
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_run(args):
    spec, _ = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    for side in sides:
        os.makedirs(os.path.join(args.out, side), exist_ok=True)
    for workload in workloads:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                proc = subprocess.run(
                    [sys.executable, os.path.join("e2ebench", "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    cwd=sides[side], stdout=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    sys.exit(f"{side} {workload} seed {seed}: exit "
                             f"{proc.returncode}")
                path = os.path.join(args.out, side,
                                    f"{workload}-seed{seed}.txt")
                with open(path, "w") as f:
                    f.write(proc.stdout)
                print(f"{workload} seed {seed} {side}: done", flush=True)


def worse(metric, a, b):
    """How much worse b is than a, as a share of a (negative = better)."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    return sign * (b - a) / abs(a) if a else 0.0


def cmd_judge(args):
    _, spec = load_spec()
    base = load_results(args.base)
    change = load_results(args.change)
    keys = sorted(set(base) & set(change))
    if not keys:
        sys.exit("no paired result files (same workload and seed)")
    workloads = sorted({k[0] for k in keys})
    print(f"{'workload':<16} {'metric':<14} {'pairs':>5} {'wins':>5} "
          f"{'base_med':>12} {'change_med':>12} {'base_iqr':>10} verdict")
    regressed = False
    for workload in workloads:
        seeds = [k for k in keys if k[0] == workload]
        for name, metric in spec.items():
            if "bound" not in metric or name not in base[seeds[0]]:
                continue
            b = [base[k][name] for k in seeds]
            c = [change[k][name] for k in seeds]
            wins = losses = 0
            for x, y in zip(b, c):
                d = worse(metric, x, y)
                wins += d < 0
                losses += d > 0
            bq1, bmed, bq3 = quartiles(b)
            _, cmed, _ = quartiles(c)
            iqr = bq3 - bq1
            n = len(seeds)
            beyond_iqr = abs(cmed - bmed) > iqr
            bound = metric["bound"]
            if wins >= 0.9 * n and beyond_iqr and worse(metric, bmed, cmed) < 0:
                verdict = "improved"
            elif (losses >= 0.9 * n and beyond_iqr) or \
                    worse(metric, bmed, cmed) > bound:
                verdict = "regressed"
            elif bmed and iqr / abs(bmed) > bound and not all(
                    worse(metric, x, y) < 0 for x in b for y in c):
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            regressed |= verdict == "regressed"
            print(f"{workload:<16} {name:<14} {n:>5} {wins:>5} {bmed:>12.6g} "
                  f"{cmed:>12.6g} {iqr:>10.4g} {verdict}")
    return 1 if regressed else 0


def cmd_spread(args):
    _, spec = load_spec()
    results = load_results(args.dir)
    status = 0
    for workload in sorted({k[0] for k in results}):
        runs = [v for k, v in results.items() if k[0] == workload]
        print(f"{workload}: {len(runs)} runs")
        for name in runs[0]:
            values = [r[name] for r in runs]
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / abs(med) if med else 0.0
            bound = spec.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and share > bound:
                flag, status = "  OVER BOUND", 1
            elif bound is not None and share > bound / 3:
                flag = "  over a third of the bound"
            print(f"  {name:<14} median {med:>12.6g}  iqr/median "
                  f"{share:7.4f}  bound {bound}{flag}")
    return status


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--base", required=True, help="parent checkout root")
    run.add_argument("--change", required=True, help="change checkout root")
    run.add_argument("--out", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=101)
    run.add_argument("--workload", action="append")
    judge = sub.add_parser("judge")
    judge.add_argument("base")
    judge.add_argument("change")
    spread = sub.add_parser("spread")
    spread.add_argument("dir")
    args = ap.parse_args()
    return {"run": cmd_run, "judge": cmd_judge,
            "spread": cmd_spread}[args.cmd](args) or 0


if __name__ == "__main__":
    sys.exit(main())
