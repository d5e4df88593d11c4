#!/usr/bin/env python3
"""End-to-end benchmark of the obcore fleet stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
library from the checkout's src/) into $CARGO_TARGET_DIR or .bench_build,
runs the workload at the pinned worker-thread count, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
"end_to_end"), with --trace 1 the per-layer ones. Every run's full record
(all metric tables, exact work counters, set-up samples) is also saved under
<build dir>/records/ for perfbench/aa.py. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["library-regression", "monte-carlo", "fault-campaign", "serve-mixed"]
PINNED_THREADS = 4
# Set-up is timed this many extra times per run, each in a process that
# stops right after set-up; the reported setup_s is the median of these
# and the measured run's own set-up.
SETUP_REPEATS = 8
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    """Configure once, then (re)build the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isfile(
        os.path.join(ROOT, "src", "system", "fleet.hpp")
    ):
        fail(f"no obcore sources in {ROOT}; run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    log = sys.stderr
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "obbench", "-j", jobs],
        check=True, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S,
    )
    return os.path.join(out_dir, "obbench")


def run_binary(binary, args):
    """Run obbench; returns (record, spawn time on the monotonic clock)."""
    spawn = time.monotonic()
    proc = subprocess.run(
        [binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
        text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"obbench {' '.join(args)} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return json.loads(lines[-1]), spawn


def setup_time(rec, spawn):
    """Spawn to ready, at the reference speed (speed_factor in src/harness.hpp)."""
    return (rec["ready_mono_s"] - spawn) * rec["setup_speed_factor"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--threads", type=int, default=PINNED_THREADS,
                    help="worker threads (recorded; compare only equal counts)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    work = os.path.relpath(os.path.join(out_dir, "work"), ROOT)
    os.makedirs(os.path.join(ROOT, work), exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--threads", str(args.threads), "--work-dir", work]

    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                rec, spawn = run_binary(binary, common + ["--setup-only"])
                setup_samples.append(setup_time(rec, spawn))
        rec, spawn = run_binary(
            binary, common + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    except subprocess.TimeoutExpired:
        fail("a benchmark process exceeded its time limit")
    setup_samples.append(setup_time(rec, spawn))

    if args.trace:
        metrics = rec["layers"]
    else:
        metrics = dict(rec["e2e"])
        metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}

    rec["setup_samples_s"] = setup_samples
    rec["seconds"] = args.seconds
    records = os.path.join(out_dir, "records")
    os.makedirs(records, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}.json"
    with open(os.path.join(records, name), "w") as f:
        json.dump(rec, f, indent=1)

    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
