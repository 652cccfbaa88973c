"""Run-to-run spread of the layered benchmark against its own bounds.

    python3 benchmarks/layers/repeat.py                  # 3 sets at seed 7
    python3 benchmarks/layers/repeat.py --sets 10 --vary-seed

Runs ``--sets`` sets of all four workloads (untraced, one fresh interpreter
each) and prints, per workload and end-to-end metric, min / median / max,
the spread — the distance between the first and third quartile as a share
of the median, ``statistics.quantiles(values, n=4)`` — and spread ÷ bound.
Exits non-zero when a spread exceeds the metric's bound in BENCHMARK.json
(``setup_s`` is printed but exempt), when a run fails, or when, at one seed,
a count metric differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Counts: identical between runs of one seed.
EXACT = ("msgs_per_op", "max_host_memory", "ok_share")


def one_run(workload: str, seed: int, seconds: int) -> dict[str, float]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    final = json.loads(done.stdout.splitlines()[-1])
    return {name: metric["value"] for name, metric in final["metrics"].items()}


def spread(values: list[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=3, help="runs per workload (at least 2)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--vary-seed", action="store_true", help="run i uses seed + i")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()
    if args.sets < 2:
        parser.error("--sets must be at least 2 to have a spread")

    runs: dict[str, list[dict[str, float]]] = {w["name"]: [] for w in SPEC["workloads"]}
    for index in range(args.sets):
        seed = args.seed + index if args.vary_seed else args.seed
        for workload in runs:
            runs[workload].append(one_run(workload, seed, args.seconds))
            print(f"# set {index + 1}/{args.sets} seed {seed} {workload} done", flush=True)

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "repeat.json").write_text(json.dumps(runs, indent=1), encoding="utf-8")

    failures = []
    header = ("workload", "metric", "min", "median", "max", "spread", "bound", "spread/bound")
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for workload, results in runs.items():
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [result[name] for result in results]
            share = spread(values)
            row = (workload, name, f"{min(values):.4g}", f"{statistics.median(values):.4g}")
            row += (f"{max(values):.4g}", f"{share:.4f}", f"{bound:g}", f"{share / bound:.2f}")
            print("| " + " | ".join(row) + " |")
            if share > bound and name != "setup_s":
                failures.append(f"{workload} {name}: spread {share:.4f} exceeds bound {bound:g}")
            if name in EXACT and not args.vary_seed and min(values) != max(values):
                failures.append(f"{workload} {name}: a count differs between runs of one seed")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
