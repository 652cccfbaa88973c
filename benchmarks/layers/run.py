"""Layered benchmark runner: one workload per fresh interpreter.

    python3 benchmarks/layers/run.py --workload lib-read-1d --seed 7 --seconds 15 --trace 0
    python3 benchmarks/layers/run.py --workload served-read --seed 7 --trace 1
    python3 benchmarks/layers/run.py --smoke

``--trace 0`` (the default) times the workload with tracing off and prints
the eight end-to-end metrics; ``--trace 1`` replays a prefix of every
workload's stream through each layer and prints the per-layer metrics.
Either way one line per metric (``name value unit``) goes to stdout, lines
starting with ``#`` are diagnostics, and the last line is one JSON object.
The exit code is non-zero when an oracle check failed or a metric that
BENCHMARK.json names is missing.  README.md has the definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("lib-read-1d", "lib-write-1d", "lib-quadtree", "served-read")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def run_workload(args: argparse.Namespace) -> int:
    # The driver's command names no path outside benchmarks/layers, so the
    # runner finds src/ itself; PYTHONPATH=src works just as well.
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs
    import layers
    import oracle
    import workloads

    oracle.self_check()
    sizes = inputs.sizes_for(args.seconds, args.smoke)
    declared = declared_metrics(bool(args.trace))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    notes: dict[str, float] = {}
    try:
        if args.trace:
            metrics, notes, tally, tracer = layers.trace_run(
                args.workload, args.seed, sizes, SRC, workdir
            )
            spans = {"workload": args.workload, "seed": args.seed, "spans": tracer.spans}
            (OUT / f"trace-{args.workload}.json").write_text(json.dumps(spans), encoding="utf-8")
        else:
            import_s = time.perf_counter() - _STARTED
            if args.workload == "served-read":
                measured = workloads.run_served(args.seed, sizes, SRC, workdir)
            else:
                measured = workloads.run_library(args.workload, args.seed, sizes)
            metrics = workloads.end_to_end(measured, import_s)
            tally = measured.tally
            ordered = sorted(measured.latencies)
            shared = measured.shared
            notes = {
                "samples": float(len(ordered)),
                "op_p99_ms": workloads.percentile(ordered, 0.99) * 1e3,
                "timed_wall_s": measured.wall_s,
                "fail_share": tally.failed / tally.attempted,
                # The calls a traced run replays as well: what its façade
                # and socket numbers are to be reconciled with (README).
                "shared_calls": float(len(shared)),
                "shared_mean_ms": sum(shared) / len(shared) * 1e3,
                "shared_p50_ms": workloads.percentile(sorted(shared), 0.5) * 1e3,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [f"metric {name} was not produced" for name in declared if name not in metrics]
    problems += [f"metric {name} is undeclared" for name in metrics if name not in declared]
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
        if not math.isfinite(value):
            problems.append(f"metric {name} is not finite: {value!r}")
        if name in declared and declared[name] != unit:
            problems.append(f"metric {name} has unit {unit}, BENCHMARK.json says {declared[name]}")
    for name, value in notes.items():
        print(f"# {name} {value!r}")
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": pair[0], "unit": pair[1]} for name, pair in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, notes=notes)
    saved = OUT / f"{'layers' if args.trace else 'result'}-{args.workload}.json"
    saved.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_smoke() -> int:
    """The benchmark's own test: every workload, both modes, at toy sizes."""
    started = time.perf_counter()
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--smoke"]
            command += ["--workload", workload, "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True, timeout=170)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                failures.append(f"{label}: exit code {done.returncode}\n{done.stderr}")
                continue
            printed: dict[str, int] = {}
            for line in done.stdout.splitlines()[:-1]:
                fields = line.split()
                if line.startswith("#") or len(fields) != 3:
                    continue
                if math.isfinite(float(fields[1])):
                    printed[fields[0]] = printed.get(fields[0], 0) + 1
            for name in declared_metrics(bool(trace)):
                if printed.get(name, 0) != 1:
                    failures.append(f"{label}: {name} printed {printed.get(name, 0)} times")
            final = json.loads(done.stdout.splitlines()[-1])
            if set(final) != {"correct", "attempted", "failed", "metrics"} or not final["correct"]:
                failures.append(f"{label}: bad final line {final}")
            print(f"ok   {label}: {final['attempted']} checked, {len(final['metrics'])} metrics")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"smoke: {len(failures)} failure(s) in {time.perf_counter() - started:.1f} s")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7, help="seed of the generated inputs")
    parser.add_argument(
        "--seconds",
        type=float,
        default=20,
        help="timed seconds the op counts are sized for on the reference box",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="1: replay through each layer and print the per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="toy sizes; alone: test all workloads")
    args = parser.parse_args()
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required (or --smoke alone, to test all four)")
        return run_smoke()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
