#!/usr/bin/env python3
"""Gate bench regressions against a committed baseline.

Usage:
    compare_bench.py FRESH_JSON BASELINE_JSON [--max-regression 0.20]
    compare_bench.py FRESH_JSON BASELINE_JSON --update

The JSON's "bench" key selects the schema (missing key => "perfbench" for
a perfbench/run.py record, which carries a "workload" key instead, else
"fleet", the original schema):

fleet (bench/fleet_throughput, BENCH_fleet.json) — exits nonzero when:

  * scenarios_per_sec or epochs_per_sec drop more than --max-regression
    (default 20%) below the baseline, or
  * multi_seed.shared_runs_per_sec or multi_seed.speedup drop more than
    --max-regression below the baseline (the seed-axis sweep: the default
    runner's shared-trace, SoA-batched throughput and its speedup over
    per-run synthesis).

fault_campaign (bench/fault_campaign, BENCH_fault.json) — exits nonzero
when:

  * cells_per_sec or epochs_per_sec drop more than --max-regression
    below the baseline, or
  * any deterministic campaign total (cells, realizations, the
    detection/miss/false-alarm/true-negative outcome counts, the
    per-detector residual/supervisor detection columns, the number of
    demonstrated detection boundaries, and the boundary-search
    refinement/probe counts) differs from the baseline at all — those
    are functions of the config and the RNG contract, never of the
    machine, so any drift means the fault envelope itself moved.

serve (bench/fleet_serve, BENCH_serve.json) — exits nonzero when:

  * ping or fleet requests_per_sec drop more than --max-regression
    below the baseline, or
  * a latency percentile (p50/p95/p99 of either phase) rises more than
    --max-regression above the baseline AND by more than a per-
    percentile absolute slack — tail latency on a shared runner is
    noisy, so tiny absolute shifts must not trip the gate, or
  * the protocol version, client count, request counts or per-request
    job shape differ from the baseline at all (pinned: the bench
    config and wire contract, not the machine).

perfbench (one record that perfbench/run.py saved under <build dir>/records/,
against perfbench.baseline.json, which pins every (workload, seed)) —
exits nonzero when:

  * the run's output check failed (correct is false) or any operation
    failed (failed > 0), or
  * the output digest or any exact work counter (allocations, epochs,
    realizations and trace builds per pass; bytes, frames and requests per
    serve pass) differs from the baseline at all. No wall-clock value is
    compared: these are functions of the code and the seed, so a changed
    counter is a changed cost (one new heap allocation per epoch moves
    allocations by thousands) and a changed digest is changed output.

  A (workload, seed) the baseline does not pin is a data error (exit 2);
  --update adds or replaces that one entry, keeping the others.

An unknown "bench" schema name in either file is a hard error (exit 2)
naming the known schemas — a typo'd or future schema must never be
silently waved through.

--update rewrites the baseline from the fresh run instead of comparing
(use after an intentional perf change, and commit the result). A perfbench
run whose output check failed is never pinned.

Exit codes: 0 ok, 1 regression, 2 malformed/incomplete bench JSON (e.g. a
baseline missing a required key, or a fresh/baseline schema mismatch —
reported with a clear message, never a KeyError traceback).

Throughput baselines are machine-specific: numbers measured on one box do
not transfer to a different CPU. Refresh the baseline when the benchmark
host changes. The fault-campaign outcome totals and the perfbench counters
are the exception — they must reproduce everywhere; the perfbench digests
too, on a libm with the same elementary-function rounding.
"""

import argparse
import json
import os
import shutil
import sys

# Metrics each schema's gate is meaningless without. A baseline (or fresh
# run) that lacks one of these is a data error — exit 2 with a pointed
# message, never a silent skip or a KeyError traceback.
FLEET_REQUIRED_KEYS = ("scenarios_per_sec", "epochs_per_sec", "multi_seed")

# Sub-keys of the multi_seed section (the 8-seed shared-trace sweep;
# "runs" are scenario realizations, scenario x tuning x seed); the shared
# throughput and the shared-vs-per-run-synthesis speedup are gated like
# the top-level throughput numbers.
FLEET_REQUIRED_MULTI_SEED_KEYS = ("shared_runs_per_sec",
                                  "unshared_runs_per_sec", "speedup")

FAULT_REQUIRED_KEYS = ("cells", "realizations", "cells_per_sec",
                       "epochs_per_sec", "outcomes",
                       "boundaries_demonstrated", "boundary_search")
FAULT_REQUIRED_OUTCOME_KEYS = ("detections", "misses", "false_alarms",
                               "true_negatives", "residual_detections",
                               "supervisor_detections")

# Sub-keys of the boundary_search section (the adaptive bisection pass
# that narrows every demonstrated detection boundary to the configured
# intensity tolerance); both are deterministic and pinned exactly.
FAULT_REQUIRED_BOUNDARY_KEYS = ("boundaries_refined", "probes")

SERVE_REQUIRED_KEYS = ("protocol_version", "clients", "ping", "fleet",
                       "fleet_jobs_per_request")
SERVE_PHASE_KEYS = ("requests", "requests_per_sec", "p50_ms", "p95_ms",
                    "p99_ms")
# Absolute latency slack per percentile (ms): a percentile only fails the
# gate when it exceeds BOTH the ratio bound and baseline + slack. The tail
# gets more room — p99 of a 4-client phase is a handful of samples.
SERVE_LATENCY_SLACK_MS = {"p50_ms": 20.0, "p95_ms": 50.0, "p99_ms": 100.0}

PERFBENCH_RECORD_KEYS = ("workload", "seed", "correct", "failed", "digest",
                         "counters")
# What the baseline pins per (workload, seed): output and work, no time.
PERFBENCH_PINNED_KEYS = ("digest", "counters")


class BenchDataError(Exception):
    """Malformed or incomplete bench JSON (distinct from a regression)."""


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise BenchDataError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise BenchDataError(f"{path} is not valid JSON: {e}") from e


def schema_of(data):
    if "bench" in data:
        return data["bench"]
    return "perfbench" if "workload" in data else "fleet"


def missing_fleet_keys(data):
    missing = [k for k in FLEET_REQUIRED_KEYS if k not in data]
    missing += [f"multi_seed.{k}" for k in FLEET_REQUIRED_MULTI_SEED_KEYS
                if k not in data.get("multi_seed", {})]
    return missing


def missing_fault_keys(data):
    missing = [k for k in FAULT_REQUIRED_KEYS if k not in data]
    missing += [f"outcomes.{k}" for k in FAULT_REQUIRED_OUTCOME_KEYS
                if k not in data.get("outcomes", {})]
    missing += [f"boundary_search.{k}" for k in FAULT_REQUIRED_BOUNDARY_KEYS
                if k not in data.get("boundary_search", {})]
    return missing


def missing_serve_keys(data):
    missing = [k for k in SERVE_REQUIRED_KEYS if k not in data]
    for phase in ("ping", "fleet"):
        missing += [f"{phase}.{k}" for k in SERVE_PHASE_KEYS
                    if k not in data.get(phase, {})]
    return missing


def missing_perfbench_keys(data):
    if "bench" not in data:  # a run record
        return [k for k in PERFBENCH_RECORD_KEYS if k not in data]
    if "workloads" not in data:
        return ["workloads"]
    return [f"workloads.{w}.{seed}.{k}"
            for w, seeds in data["workloads"].items()
            for seed, pins in seeds.items()
            for k in PERFBENCH_PINNED_KEYS if k not in pins]


def require_keys(data, role, path):
    schema = schema_of(data)
    spec = SCHEMAS.get(schema)
    if spec is None:
        known = ", ".join(f"'{s}'" for s in sorted(SCHEMAS))
        raise BenchDataError(
            f"{role} {path} has unknown bench schema '{schema}' (this gate "
            f"understands {known})")
    missing = spec["missing"](data)
    if missing:
        raise BenchDataError(
            f"{role} {path} is missing key(s) {missing}; regenerate it with "
            f"{spec['regen']} (or refresh the baseline with "
            "compare_bench.py fresh baseline --update)")


def check_fleet(fresh, base, tol, rows, failures):
    def check_throughput(key, b, f):
        delta = (f - b) / b if b else 0.0
        rows.append((key, b, f, delta, "higher-is-better"))
        if f < b * (1.0 - tol):
            failures.append(
                f"{key}: {f:.2f} is {-delta:.0%} below baseline {b:.2f} "
                f"(allowed {tol:.0%})")

    for key in ("scenarios_per_sec", "epochs_per_sec"):
        check_throughput(key, base[key], fresh[key])
    # The seed-axis sweep: shared-trace throughput, and the amortization
    # speedup itself so a regression back toward per-run synthesis cost is
    # caught even if absolute throughput moved with the host.
    for key in ("shared_runs_per_sec", "speedup"):
        check_throughput(f"multi_seed.{key}", base["multi_seed"][key],
                         fresh["multi_seed"][key])


def check_fault_campaign(fresh, base, tol, rows, failures):
    for key in ("cells_per_sec", "epochs_per_sec"):
        b, f = base[key], fresh[key]
        delta = (f - b) / b if b else 0.0
        rows.append((key, b, f, delta, "higher-is-better"))
        if f < b * (1.0 - tol):
            failures.append(
                f"{key}: {f:.2f} is {-delta:.0%} below baseline {b:.2f} "
                f"(allowed {tol:.0%})")

    # Deterministic campaign totals: functions of the config and the RNG
    # contract alone, pinned exactly. A changed count is a changed fault
    # envelope, not machine noise.
    pinned = [("cells", base["cells"], fresh["cells"]),
              ("realizations", base["realizations"], fresh["realizations"])]
    pinned += [(f"outcomes.{k}", base["outcomes"][k], fresh["outcomes"][k])
               for k in FAULT_REQUIRED_OUTCOME_KEYS]
    pinned.append(("boundaries_demonstrated", base["boundaries_demonstrated"],
                   fresh["boundaries_demonstrated"]))
    pinned += [(f"boundary_search.{k}", base["boundary_search"][k],
                fresh["boundary_search"][k])
               for k in FAULT_REQUIRED_BOUNDARY_KEYS]
    for key, b, f in pinned:
        rows.append((key, b, f, 0.0, "pinned"))
        if f != b:
            failures.append(
                f"{key}: {f} differs from pinned baseline {b} — the "
                "deterministic fault envelope moved (if intentional, "
                "refresh the baseline with --update)")


def check_serve(fresh, base, tol, rows, failures):
    for phase in ("ping", "fleet"):
        b, f = base[phase]["requests_per_sec"], fresh[phase]["requests_per_sec"]
        delta = (f - b) / b if b else 0.0
        rows.append((f"{phase}.requests_per_sec", b, f, delta,
                     "higher-is-better"))
        if f < b * (1.0 - tol):
            failures.append(
                f"{phase}.requests_per_sec: {f:.1f} is {-delta:.0%} below "
                f"baseline {b:.1f} (allowed {tol:.0%})")
        for pct, slack_ms in SERVE_LATENCY_SLACK_MS.items():
            b, f = base[phase][pct], fresh[phase][pct]
            delta = (f - b) / b if b else 0.0
            rows.append((f"{phase}.{pct}", b, f, delta, "lower-is-better"))
            if f > max(b * (1.0 + tol), b + slack_ms):
                failures.append(
                    f"{phase}.{pct}: {f:.3f} ms is {delta:.0%} above "
                    f"baseline {b:.3f} ms (allowed {tol:.0%} + "
                    f"{slack_ms:.0f} ms slack)")

    # Bench shape and wire contract, pinned exactly: a changed request
    # count or protocol version means the two runs measured different
    # things, not that one of them is slower.
    pinned = [("protocol_version", base["protocol_version"],
               fresh["protocol_version"]),
              ("clients", base["clients"], fresh["clients"]),
              ("ping.requests", base["ping"]["requests"],
               fresh["ping"]["requests"]),
              ("fleet.requests", base["fleet"]["requests"],
               fresh["fleet"]["requests"]),
              ("fleet_jobs_per_request", base["fleet_jobs_per_request"],
               fresh["fleet_jobs_per_request"])]
    for key, b, f in pinned:
        rows.append((key, b, f, 0.0, "pinned"))
        if f != b:
            failures.append(
                f"{key}: {f} differs from pinned baseline {b} — the bench "
                "config or wire contract changed (if intentional, refresh "
                "the baseline with --update)")


def check_perfbench(fresh, base, _tol, rows, failures):
    run = f"{fresh['workload']} seed {fresh['seed']}"
    seeds = base["workloads"].get(fresh["workload"], {})
    pins = seeds.get(str(fresh["seed"]))
    if pins is None:
        raise BenchDataError(
            f"the baseline pins no run of {run}; pin one with --update")
    if not fresh["correct"] or fresh["failed"] > 0:
        failures.append(
            f"{run}: correct is {str(fresh['correct']).lower()}, "
            f"{fresh['failed']} operation(s) failed (the run's report says why)")
    # Output digest and exact work counters: functions of the code and the
    # seed, never of the machine, so any difference is a real change.
    pinned = [("digest", pins["digest"], fresh["digest"])]
    pinned += [(f"counters.{k}", pins["counters"].get(k),
                fresh["counters"].get(k))
               for k in sorted(set(pins["counters"]) | set(fresh["counters"]))]
    for key, b, f in pinned:
        rows.append((key, b, f, 0.0, "pinned"))
        if f != b:
            failures.append(
                f"{key}: {f} differs from pinned baseline {b} (if the "
                "change is intended, refresh the baseline with --update)")


def update_perfbench(fresh, baseline_path):
    """Pin the record's digest and counters, keeping every other entry."""
    if not fresh["correct"] or fresh["failed"] > 0:
        raise BenchDataError("refusing to pin a run that failed its check")
    base = {"bench": "perfbench", "workloads": {}}
    if os.path.exists(baseline_path):
        base = load(baseline_path)
        require_keys(base, "baseline", baseline_path)
        if schema_of(base) != "perfbench":
            raise BenchDataError(f"baseline {baseline_path} is not perfbench")
    base["workloads"].setdefault(fresh["workload"], {})[str(fresh["seed"])] = {
        k: fresh[k] for k in PERFBENCH_PINNED_KEYS}
    # One line per workload, so a refresh diffs per workload.
    lines = ",\n".join(
        f"  {json.dumps(w)}: {json.dumps(seeds, sort_keys=True)}"
        for w, seeds in sorted(base["workloads"].items()))
    with open(baseline_path, "w", encoding="utf-8") as f:
        f.write(f'{{"bench": "perfbench", "workloads": {{\n{lines}\n}}}}\n')


# Registry dispatching the "bench" key to required-key validation and the
# gate itself. Adding a bench schema = one bench binary, one baseline
# file, one entry here (documented in docs/REPORTS.md).
SCHEMAS = {
    "fleet": {
        "missing": missing_fleet_keys,
        "check": check_fleet,
        "regen": "bench/fleet_throughput",
    },
    "fault_campaign": {
        "missing": missing_fault_keys,
        "check": check_fault_campaign,
        "regen": "bench/fault_campaign",
    },
    "serve": {
        "missing": missing_serve_keys,
        "check": check_serve,
        "regen": "bench/fleet_serve",
    },
    "perfbench": {
        "missing": missing_perfbench_keys,
        "check": check_perfbench,
        "regen": "perfbench/run.py --workload W --seed S --seconds 15",
    },
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", help="freshly generated bench JSON")
    ap.add_argument("baseline", help="committed baseline JSON")
    ap.add_argument("--max-regression", type=float, default=0.20,
                    help="allowed fractional regression (default 0.20)")
    ap.add_argument("--update", action="store_true",
                    help="overwrite the baseline with the fresh run (a "
                         "perfbench record: its workload and seed entry)")
    args = ap.parse_args()

    if args.update:
        # Never pin a malformed run: a truncated or key-missing fresh file
        # would otherwise get committed and break every subsequent gate.
        fresh = load(args.fresh)
        require_keys(fresh, "fresh run", args.fresh)
        if schema_of(fresh) == "perfbench":
            update_perfbench(fresh, args.baseline)
        else:
            shutil.copyfile(args.fresh, args.baseline)
        print(f"baseline updated: {args.baseline}")
        return 0

    fresh = load(args.fresh)
    base = load(args.baseline)
    require_keys(fresh, "fresh run", args.fresh)
    require_keys(base, "baseline", args.baseline)
    if schema_of(fresh) != schema_of(base):
        raise BenchDataError(
            f"schema mismatch: fresh run {args.fresh} is "
            f"'{schema_of(fresh)}' but baseline {args.baseline} is "
            f"'{schema_of(base)}'")
    tol = args.max_regression
    failures = []
    rows = []

    schema = schema_of(fresh)
    SCHEMAS[schema]["check"](fresh, base, tol, rows, failures)

    def cell(v):
        return f"{v:>12.3f}" if isinstance(v, (int, float)) else f"{v!s:>12}"

    width = max(len(r[0]) for r in rows) if rows else 20
    print(f"{'metric':<{width}} {'baseline':>12} {'fresh':>12} {'delta':>8}")
    for name, b, f, delta, _ in rows:
        print(f"{name:<{width}} {cell(b)} {cell(f)} {delta:>+8.1%}")

    if failures:
        print("\nREGRESSION:", file=sys.stderr)
        for msg in failures:
            print(f"  - {msg}", file=sys.stderr)
        return 1
    if schema == "perfbench":
        print("\nOK: output check passed; digest and counters match")
    else:
        print(f"\nOK: no metric regressed more than {tol:.0%}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchDataError as e:
        print(f"ERROR: {e}", file=sys.stderr)
        sys.exit(2)
