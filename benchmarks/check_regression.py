#!/usr/bin/env python
"""Benchmark-regression gate: quick-mode experiments vs a committed baseline.

Runs a curated set of experiments at small ``--sizes``-style quick
parameters (everything seeded, so the numbers are exact) and compares
each message-cost metric against ``benchmarks/baseline.json``.  A metric
that **regresses by more than 20 %** — more messages per operation than
the committed baseline allows — fails the gate; improvements and small
jitter pass.  Missing-key behaviour is explicit: a current-run metric
with **no baseline entry** (a freshly added experiment) is reported as
"no baseline, skipped" and does not fail the gate — it is simply not
checked until the next ``--update`` records it — while a **vanished**
metric (present in the baseline, absent from the run) still fails, since
that means coverage was silently lost.

Metrics belong to **families** with their own tolerances.  The seeded
``counts`` family (message costs; exact numbers) keeps the strict 20 %
bar; the ``wallclock`` family (``bench_wallclock.py`` timings; noisy by
nature) only fails on a multi-× slowdown, so CI machine jitter cannot
flap the gate.  ``--families`` selects what a run collects and checks —
the bench-regression CI job gates ``counts``, the bench-wallclock job
gates ``wallclock``.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py                       # counts gate
    PYTHONPATH=src python benchmarks/check_regression.py --families wallclock  # timing gate
    PYTHONPATH=src python benchmarks/check_regression.py --update              # re-baseline
                                                          # (only the selected families)

Run with ``PYTHONHASHSEED=0`` (as CI does) so dict/set iteration cannot
introduce cross-run jitter.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:  # pragma: no cover - direct-script shim
        sys.path.insert(0, str(_SRC))

from repro.bench.experiments import EXPERIMENTS

BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"

#: Allowed relative regression before the gate fails (the ``counts`` family).
TOLERANCE = 0.20

#: Timing metrics fail only beyond baseline × (1 + this): a 4× slowdown.
#: Deliberately ≥ 2× so cross-machine noise can never flap the gate.
WALLCLOCK_TOLERANCE = 3.0

#: Timing cells faster than this per op are too short to gate reliably
#: (one scheduler stall dwarfs them); they are recorded in the baseline
#: for information but never failed.
WALLCLOCK_MIN_SECS_PER_OP = 1e-4

FAMILIES = ("counts", "wallclock")


def family_of(key: str) -> str:
    """The metric family a baseline key belongs to."""
    return "wallclock" if key.startswith("wallclock[") else "counts"


def tolerance_for(key: str) -> float:
    """Allowed relative regression for one metric."""
    return WALLCLOCK_TOLERANCE if family_of(key) == "wallclock" else TOLERANCE

#: Quick-mode parameters per gated experiment (small sizes, fixed seed).
QUICK_PARAMS: dict[str, dict] = {
    "throughput": {"sizes": (64,), "ops_per_size": 120, "seed": 0},
    "congestion-rounds": {"sizes": (64, 128), "queries_per_host": 1, "seed": 0},
    "theorem2-onedim": {
        "sizes": (128,),
        "memory_sizes": (16,),
        "queries_per_size": 20,
        "seed": 0,
    },
    "range-queries": {
        "sizes": (48,),
        "target_ks": (4, 16),
        "queries_per_size": 4,
        "seed": 0,
    },
    "updates": {"sizes": (64,), "updates_per_size": 6, "seed": 0},
    "churn": {"sizes": (48,), "events": 4, "ops_per_phase": 24, "seed": 0},
    "topology": {
        "sizes": (48,),
        "ops": 24,
        "seed": 0,
        "topologies": ("flat", "clustered", "geo"),
    },
    "faults": {
        "sizes": (32,),
        "ops": 24,
        "seed": 0,
        "drop_rates": (0.0, 0.2),
    },
}

#: Row columns treated as message-cost metrics (lower is better).  The
#: ``faults`` rows contribute ``retry_overhead`` (retries per delivered
#: op under a fixed seeded drop rate — a resilience-efficiency metric;
#: at ``drop_rate=0`` its baseline is 0.0, so *any* spontaneous retry on
#: a lossless link fails the gate).
METRIC_COLUMNS = (
    "msgs_per_op",
    "Q_mean",
    "insert_mean",
    "delete_mean",
    "repair_msgs_per_event",
    "latency_per_op",
    "retry_overhead",
)

#: Row columns that identify a row within its experiment.
IDENTITY_COLUMNS = (
    "structure",
    "topology",
    "method",
    "policy",
    "cache",
    "n",
    "M",
    "k_target",
    "drop_rate",
)


def _row_identity(row: dict) -> str:
    parts = [
        f"{column}={row[column]}" for column in IDENTITY_COLUMNS if column in row
    ]
    return ",".join(parts)


def collect_metrics(families: tuple[str, ...] = ("counts",)) -> dict[str, float]:
    """Run the gated suites of the selected families and flatten their metrics."""
    metrics: dict[str, float] = {}
    if "counts" in families:
        for name, params in QUICK_PARAMS.items():
            function, _description = EXPERIMENTS[name]
            for row in function(**params):
                identity = _row_identity(row)
                for column in METRIC_COLUMNS:
                    value = row.get(column)
                    if isinstance(value, (int, float)):
                        metrics[f"{name}[{identity}].{column}"] = float(value)
    if "wallclock" in families:
        import bench_wallclock

        metrics.update(bench_wallclock.wallclock_metrics())
    return metrics


def compare(
    current: dict[str, float],
    baseline: dict[str, float],
    families: tuple[str, ...] = FAMILIES,
) -> tuple[list[str], list[str]]:
    """Compare the run against the baseline: ``(failures, skipped)``.

    Only metrics of the selected ``families`` are considered (a counts-only
    run must not flag the absent wallclock timings as lost coverage).  A
    current metric with no baseline entry is *skipped*, not failed — it
    is reported explicitly so a fresh experiment cannot silently pass
    *or* crash the gate before its baseline lands.  A baseline metric
    missing from the run is still a failure (lost coverage).  Each
    metric is judged against its family's tolerance.
    """
    failures: list[str] = []
    skipped: list[str] = []
    for key in sorted(set(current) | set(baseline)):
        if family_of(key) not in families:
            continue
        if key not in baseline:
            skipped.append(
                f"NO BASELINE    {key} = {current[key]} (skipped; record it with --update)"
            )
            continue
        if key not in current:
            failures.append(
                f"MISSING METRIC {key} (was {baseline[key]}; re-baseline with --update)"
            )
            continue
        reference = baseline[key]
        measured = current[key]
        if family_of(key) == "wallclock" and reference < WALLCLOCK_MIN_SECS_PER_OP:
            # Sub-100µs cells are pure scheduler noise at quick sizes:
            # informational only, never gated.
            continue
        tolerance = tolerance_for(key)
        allowed = reference * (1.0 + tolerance)
        if measured > allowed and measured - reference > 1e-9:
            failures.append(
                f"REGRESSION     {key}: {measured} > {reference} "
                f"(+{(measured / reference - 1.0) * 100.0 if reference else float('inf'):.1f}%, "
                f"allowed +{tolerance * 100.0:.0f}%)"
            )
    return failures, skipped


def _parse_families(text: str) -> tuple[str, ...]:
    families = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = [family for family in families if family not in FAMILIES]
    if unknown or not families:
        raise argparse.ArgumentTypeError(
            f"families must be drawn from {', '.join(FAMILIES)}; got {text!r}"
        )
    return families


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the selected families' metrics in benchmarks/baseline.json "
        "(other families' entries are preserved)",
    )
    parser.add_argument(
        "--families",
        type=_parse_families,
        default=("counts",),
        help="comma-separated metric families to collect and check "
        f"(default: counts; available: {', '.join(FAMILIES)})",
    )
    args = parser.parse_args(argv)

    current = collect_metrics(args.families)
    if args.update:
        merged = {}
        if BASELINE_PATH.exists():
            merged = {
                key: value
                for key, value in json.loads(BASELINE_PATH.read_text()).items()
                if family_of(key) not in args.families
            }
        merged.update(current)
        BASELINE_PATH.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(
            f"baseline updated: {len(current)} {'/'.join(args.families)} metric(s) "
            f"-> {BASELINE_PATH} ({len(merged)} total)"
        )
        return 0

    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --update first", file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    failures, skipped = compare(current, baseline, args.families)
    for line in skipped:
        print(f"  {line}")
    if failures:
        print(f"bench-regression gate FAILED ({len(failures)} issue(s)):")
        for line in failures:
            print(f"  {line}")
        return 1
    checked = len(current) - len(skipped)
    summary = (
        f"bench-regression gate passed: {checked} {'/'.join(args.families)} "
        f"metric(s) within tolerance of baseline"
    )
    if skipped:
        summary += f" ({len(skipped)} new metric(s) skipped, no baseline yet)"
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
