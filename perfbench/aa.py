#!/usr/bin/env python3
"""A/A comparison: alternating runs of one build, per-metric median and quartiles.

    python3 perfbench/aa.py --workload NAME [--runs 10] [--seeds 1,2,3]
                            [--seconds 10] [--trace 0]

Runs perfbench/run.py --runs times, labelling the runs A and B in turn (A
first in even pairs, B first in odd ones) and cycling through --seeds. For
each metric it prints the median and quartiles of each side and of all
runs, with the quartile spread as a share of the median: the noise floor a
later A/B comparison of two builds must beat.

It refuses records taken at different worker-thread counts, and checks that
runs at the same seed report identical exact work counters.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_once(args, seed):
    records = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                           "records")
    before = set(glob.glob(os.path.join(records, "*.json")))
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"aa: run failed: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    new = sorted(set(glob.glob(os.path.join(records, "*.json"))) - before)
    with open(new[-1]) as f:
        record = json.load(f)
    return result, record


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    sides = {"A": [], "B": []}
    counters_by_seed = {}
    threads = set()
    for i in range(args.runs):
        pair, second = divmod(i, 2)
        label = "AB"[(pair + second) % 2]
        seed = seeds[i % len(seeds)]
        result, record = run_once(args, seed)
        threads.add(record["threads"])
        if len(threads) > 1:
            sys.exit(f"aa: runs taken at different thread counts {sorted(threads)}")
        if not result["correct"]:
            sys.exit(f"aa: run {i} (seed {seed}) failed its output check")
        seen = counters_by_seed.setdefault(seed, record["counters"])
        if seen != record["counters"]:
            sys.exit(f"aa: exact work counters differ between runs at seed {seed}: "
                     f"{seen} vs {record['counters']}")
        sides[label].append(result["metrics"])
        print(f"run {i:2d} {label} seed {seed}: " +
              ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              file=sys.stderr)

    every = sides["A"] + sides["B"]
    print(f"{args.workload}: {len(every)} runs at {threads.pop()} threads, "
          f"{args.seconds:g} s each, seeds {args.seeds}")
    print(f"{'metric':34s} {'unit':6s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'all IQR/median':>15s}")
    for name, first in every[0].items():
        cells = []
        for side in ("A", "B"):
            vals = [m[name]["value"] for m in sides[side]]
            if not vals:
                cells.append("-")
                continue
            q1, med, q3 = quartiles(vals)
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        q1, med, q3 = quartiles([m[name]["value"] for m in every])
        spread = (q3 - q1) / abs(med) if med else float("nan")
        print(f"{name:34s} {first['unit']:6s} {cells[0]:>34s} {cells[1]:>34s} {spread:15.4f}")


if __name__ == "__main__":
    main()
