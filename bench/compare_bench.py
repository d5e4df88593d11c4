#!/usr/bin/env python3
"""Gate bench regressions against a committed baseline.

Usage:
    compare_bench.py FRESH_JSON BASELINE_JSON [--max-regression 0.20]
    compare_bench.py FRESH_JSON BASELINE_JSON --update

The JSON's "bench" key selects the schema (missing key => "fleet", the
original schema):

fleet (bench/fleet_throughput, BENCH_fleet.json) — exits nonzero when:

  * scenarios_per_sec or epochs_per_sec drop more than --max-regression
    (default 20%) below the baseline, or
  * multi_seed.shared_runs_per_sec, multi_seed.batched_runs_per_sec or
    multi_seed.speedup drop more than --max-regression below the
    baseline (the seed-axis sweep: the default runner's shared-trace,
    SoA-batched throughput and its speedup over per-run synthesis), or
  * any per-stage cost in per_stage_us rises more than --max-regression
    above the baseline AND by more than an absolute slack of 0.1 us —
    the slack keeps sub-microsecond stages from tripping on timer
    noise, or
  * feed_allocs_per_epoch rises above the baseline at all — the zero-
    allocation steady state is pinned exactly.

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

An unknown "bench" schema name in either file is a hard error (exit 2)
naming the known schemas — a typo'd or future schema must never be
silently waved through.

--update rewrites the baseline from the fresh run instead of comparing
(use after an intentional perf change, and commit the result).

Exit codes: 0 ok, 1 regression, 2 malformed/incomplete bench JSON (e.g. a
baseline missing a required key, or a fresh/baseline schema mismatch —
reported with a clear message, never a KeyError traceback).

Throughput baselines are machine-specific: numbers measured on one box do
not transfer to a different CPU. Refresh the baseline when the benchmark
host changes. The fault-campaign outcome totals are the exception — they
must reproduce everywhere.
"""

import argparse
import json
import shutil
import sys

STAGE_NOISE_SLACK_US = 0.1

# Metrics each schema's gate is meaningless without. A baseline (or fresh
# run) that lacks one of these is a data error — exit 2 with a pointed
# message, never a silent skip or a KeyError traceback.
FLEET_REQUIRED_KEYS = ("scenarios_per_sec", "epochs_per_sec", "per_stage_us",
                       "feed_allocs_per_epoch", "multi_seed")

# Stages of per_stage_us that the gate is meaningless without. Most stages
# are discovered dynamically (new ones are reported, vanished ones error),
# but these are load-bearing capabilities: sabre_step pins the predecoded
# ISS dispatch cost so a regression back toward per-instruction decode is
# caught.
FLEET_REQUIRED_STAGE_KEYS = ("sabre_step",)

# Sub-keys of the multi_seed section (the 8-seed shared-trace sweep;
# "runs" are scenario realizations, scenario x tuning x seed); the shared
# throughput and the shared-vs-per-run-synthesis speedup are gated like
# the top-level throughput numbers. batched_runs_per_sec is the default
# runner's SoA ensemble throughput on the same sweep (the shared figure,
# under the name the committed baselines carry).
FLEET_REQUIRED_MULTI_SEED_KEYS = ("shared_runs_per_sec",
                                  "unshared_runs_per_sec", "speedup",
                                  "batched_runs_per_sec")

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
    return data.get("bench", "fleet")


def missing_fleet_keys(data):
    missing = [k for k in FLEET_REQUIRED_KEYS if k not in data]
    missing += [f"multi_seed.{k}" for k in FLEET_REQUIRED_MULTI_SEED_KEYS
                if k not in data.get("multi_seed", {})]
    missing += [f"per_stage_us.{k}" for k in FLEET_REQUIRED_STAGE_KEYS
                if k not in data.get("per_stage_us", {})]
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


def check_fleet(fresh, base, fresh_path, tol, rows, failures):
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
    for key in ("shared_runs_per_sec", "speedup", "batched_runs_per_sec"):
        check_throughput(f"multi_seed.{key}", base["multi_seed"][key],
                         fresh["multi_seed"][key])

    base_stages = base["per_stage_us"]
    fresh_stages = fresh["per_stage_us"]
    for key in sorted(set(fresh_stages) - set(base_stages)):
        print(f"note: stage '{key}' has no baseline yet (new stage?); "
              f"not gated this run")
    vanished = sorted(set(base_stages) - set(fresh_stages))
    if vanished:
        # A stage the baseline gates no longer exists in the bench output:
        # either the bench schema drifted by accident, or the removal is
        # intentional and the baseline must be refreshed first.
        raise BenchDataError(
            f"baseline stage(s) {vanished} missing from the fresh run "
            f"{fresh_path}; if the stage was removed on purpose, refresh "
            "the baseline with --update")
    for key in sorted(set(base_stages) & set(fresh_stages)):
        b, f = base_stages[key], fresh_stages[key]
        delta = (f - b) / b if b else 0.0
        rows.append((f"per_stage_us.{key}", b, f, delta, "lower-is-better"))
        if f > max(b * (1.0 + tol), b + STAGE_NOISE_SLACK_US):
            failures.append(
                f"per_stage_us.{key}: {f:.3f} us is {delta:.0%} above "
                f"baseline {b:.3f} us (allowed {tol:.0%})")

    b = base["feed_allocs_per_epoch"]
    f = fresh["feed_allocs_per_epoch"]
    rows.append(("feed_allocs_per_epoch", b, f, 0.0, "pinned"))
    if f > b + 1e-9:
        failures.append(
            f"feed_allocs_per_epoch: {f} exceeds pinned baseline {b}")


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


# Registry dispatching the "bench" key to required-key validation and the
# gate itself. Adding a bench schema = one bench binary, one baseline
# file, one entry here (documented in docs/REPORTS.md).
SCHEMAS = {
    "fleet": {
        "missing": missing_fleet_keys,
        "regen": "bench/fleet_throughput",
    },
    "fault_campaign": {
        "missing": missing_fault_keys,
        "regen": "bench/fault_campaign",
    },
    "serve": {
        "missing": missing_serve_keys,
        "regen": "bench/fleet_serve",
    },
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", help="freshly generated bench JSON")
    ap.add_argument("baseline", help="committed baseline JSON")
    ap.add_argument("--max-regression", type=float, default=0.20,
                    help="allowed fractional regression (default 0.20)")
    ap.add_argument("--update", action="store_true",
                    help="overwrite the baseline with the fresh run")
    args = ap.parse_args()

    if args.update:
        # Never pin a malformed run: a truncated or key-missing fresh file
        # would otherwise get committed and break every subsequent gate.
        require_keys(load(args.fresh), "fresh run", args.fresh)
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
    if schema == "fleet":
        check_fleet(fresh, base, args.fresh, tol, rows, failures)
    elif schema == "fault_campaign":
        check_fault_campaign(fresh, base, tol, rows, failures)
    else:
        check_serve(fresh, base, tol, rows, failures)

    width = max(len(r[0]) for r in rows) if rows else 20
    print(f"{'metric':<{width}} {'baseline':>12} {'fresh':>12} {'delta':>8}")
    for name, b, f, delta, _ in rows:
        print(f"{name:<{width}} {b:>12.3f} {f:>12.3f} {delta:>+8.1%}")

    if failures:
        print("\nREGRESSION:", file=sys.stderr)
        for msg in failures:
            print(f"  - {msg}", file=sys.stderr)
        return 1
    print(f"\nOK: no metric regressed more than {tol:.0%} "
          f"(per-stage absolute slack {STAGE_NOISE_SLACK_US} us)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchDataError as e:
        print(f"ERROR: {e}", file=sys.stderr)
        sys.exit(2)
