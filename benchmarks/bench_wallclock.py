"""Wall-clock benchmark tier: ops/sec and peak memory, not message counts.

The message-count benchmarks (everything else in ``benchmarks/``) treat
the paper's cost model as ground truth; this module measures the other
axis — how fast the simulator itself runs.  Seeded query / insert /
range / churn workloads are timed over every structure family, under
both executors (the immediate driver and the round-based
:class:`~repro.engine.executor.BatchExecutor`), with bulk-load
construction — the configuration the experiment registry runs in.

Rows carry ``secs_per_op`` (the gated metric: lower is better),
``ops_per_sec`` and the process peak RSS at the end of the workload.
``check_regression.py --families wallclock`` compares the quick-mode
``secs_per_op`` values against ``benchmarks/baseline.json`` with a
deliberately loose tolerance (timing noise must never flap CI; only
multi-× slowdowns fail).

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_wallclock.py   # table + sanity
    PYTHONPATH=src python benchmarks/bench_wallclock.py             # table
    PYTHONPATH=src python benchmarks/bench_wallclock.py --markdown  # CI job summary
"""

from __future__ import annotations

import argparse
import os
import random
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterator

if __package__ in (None, ""):
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.baselines import ChordDHT, SkipGraph
from repro.engine import BatchExecutor, Operation, RepairEngine, run_immediate
from repro.net.churn import ChurnController, churn_schedule
from repro.onedim import BucketSkipWeb1D, SkipWeb1D
from repro.spatial.geometry import Box, HyperCube
from repro.spatial.skip_quadtree import SkipQuadtreeWeb
from repro.strings import LOWERCASE
from repro.strings.skip_trie import PrefixRange, SkipTrieWeb
from repro.workloads import uniform_keys, uniform_points
from repro.workloads.strings import prefix_queries, random_strings

Row = dict[str, Any]

#: Quick-mode workload sizes (the CI-gated configuration).
QUICK = {"n": 96, "queries": 48, "inserts": 12, "ranges": 8, "churn_events": 3, "seed": 0}
#: Full-mode sizes for local runs.
FULL = {"n": 256, "queries": 160, "inserts": 32, "ranges": 24, "churn_events": 6, "seed": 0}


def _peak_rss_kb() -> int:
    """Process peak RSS in KB (monotone high-water mark on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


#: Peak RSS measured once, before any workload has run (see
#: :func:`_startup_rss_kb`).
_STARTUP_RSS_KB: int | None = None


def _startup_rss_kb() -> int:
    """Calibrated startup baseline: peak RSS before the first workload.

    On quick-mode sizes the interpreter, pytest and the imports dominate
    ``ru_maxrss``, so the raw high-water mark says almost nothing about
    the structures under test.  The baseline is captured once per
    process, immediately before the first workload builds anything; the
    ``rss_delta_kb`` column reports each row's peak minus this floor —
    the memory the benchmark itself has added so far.
    """
    global _STARTUP_RSS_KB
    if _STARTUP_RSS_KB is None:
        _STARTUP_RSS_KB = _peak_rss_kb()
    return _STARTUP_RSS_KB


class _Scenario:
    """One structure family with its workload makers."""

    def __init__(
        self,
        name: str,
        build: Callable[[], Any],
        queries: list[Any],
        inserts: list[Any],
        ranges: list[Any],
        churn: bool = True,
    ) -> None:
        self.name = name
        self.build = build
        self.queries = queries
        self.inserts = inserts
        self.ranges = ranges
        self.churn = churn


def _scenarios(n: int, queries: int, inserts: int, ranges: int, seed: int) -> Iterator[_Scenario]:
    rng = random.Random(seed)
    keys = sorted(set(float(key) for key in uniform_keys(n, seed=seed)))
    key_queries = [rng.uniform(0.0, 1_000_000.0) for _ in range(queries)]
    key_inserts = sorted(
        set(
            float(key)
            for key in uniform_keys(2 * inserts, seed=seed + 1, low=1_000_001.0, high=2_000_000.0)
        )
    )[:inserts]
    sorted_keys = sorted(keys)
    key_ranges = []
    for _ in range(ranges):
        start = rng.randrange(0, max(1, len(sorted_keys) - 8))
        key_ranges.append((sorted_keys[start], sorted_keys[min(len(sorted_keys) - 1, start + 7)]))

    yield _Scenario(
        "skip-web 1-d",
        lambda: SkipWeb1D.build_from_sorted(keys, seed=seed),
        key_queries,
        key_inserts,
        key_ranges,
    )
    yield _Scenario(
        "bucket skip-web (M=32)",
        lambda: BucketSkipWeb1D.build_from_sorted(keys, 32, seed=seed),
        key_queries,
        key_inserts,
        key_ranges,
    )

    points = uniform_points(n, dimension=2, seed=seed)
    fresh_points = [
        point
        for point in uniform_points(2 * inserts, dimension=2, seed=seed + 2)
        if point not in points
    ][:inserts]
    point_ranges = [Box.around_point(rng.choice(points), 0.05) for _ in range(ranges)]
    yield _Scenario(
        "quadtree skip-web",
        lambda: SkipQuadtreeWeb.build_from_sorted(
            points, bounding_cube=HyperCube((0.0, 0.0), 1.0), seed=seed
        ),
        [(rng.random(), rng.random()) for _ in range(queries)],
        fresh_points,
        point_ranges,
    )

    strings = random_strings(n, alphabet=LOWERCASE, seed=seed)
    fresh_strings = [
        text
        for text in random_strings(2 * inserts, alphabet=LOWERCASE, seed=seed + 3)
        if text not in strings
    ][:inserts]
    string_ranges = [PrefixRange(rng.choice(strings)[:2]) for _ in range(ranges)]
    yield _Scenario(
        "trie skip-web",
        lambda: SkipTrieWeb.build_from_sorted(strings, alphabet=LOWERCASE, seed=seed),
        prefix_queries(strings, queries, seed=seed),
        fresh_strings,
        string_ranges,
    )

    yield _Scenario(
        "skip graph (baseline)",
        lambda: SkipGraph.build_from_sorted(keys, seed=seed),
        key_queries,
        key_inserts,
        key_ranges,
    )

    # Chord answers exact-match lookups only (§1.2): query stored keys,
    # and skip the unsupported insert / range workloads.
    yield _Scenario(
        "Chord DHT",
        lambda: ChordDHT.build_from_sorted(keys),
        [rng.choice(keys) for _ in range(queries)],
        [],
        [],
    )


def _timed(fn: Callable[[], Any]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _row(
    structure: str,
    workload: str,
    executor: str,
    ops: int,
    elapsed: float,
    topology: str = "flat",
) -> Row:
    per_op = elapsed / ops if ops else 0.0
    peak_rss = _peak_rss_kb()
    return {
        "structure": structure,
        "workload": workload,
        "executor": executor,
        "topology": topology,
        "ops": ops,
        "elapsed_s": round(elapsed, 4),
        # Nanosecond precision: a cell must never round down to 0.0, or a
        # recorded 0.0 baseline would fail every later (non-zero) run.
        "secs_per_op": round(per_op, 9),
        "ops_per_sec": round(1.0 / per_op, 1) if per_op else 0.0,
        "peak_rss_kb": peak_rss,
        "rss_delta_kb": max(0, peak_rss - _startup_rss_kb()),
    }


def _run_immediate_ops(structure, kind: str, payloads: list[Any]) -> None:
    origins = structure.origin_hosts()
    for index, payload in enumerate(payloads):
        origin = origins[index % len(origins)]
        if kind == "query":
            gen = structure.search_steps(payload, origin)
        elif kind == "insert":
            gen = structure.insert_steps(payload, origin)
        else:
            gen = structure.range_steps(payload, origin)
        run_immediate(structure.network, gen, origin)


def _run_batched_ops(structure, kind: str, payloads: list[Any]) -> None:
    op_kind = {"query": "search", "insert": "insert", "range": "range"}[kind]
    BatchExecutor(structure).run([Operation(op_kind, payload) for payload in payloads])


def wallclock_rows(
    n: int, queries: int, inserts: int, ranges: int, churn_events: int, seed: int
) -> list[Row]:
    """Time every (structure, workload, executor) cell; returns table rows.

    Runs with bulk-load construction — the same configuration the
    experiment registry uses — so the timings reflect the fast path users
    actually get.  All workloads are seeded; the
    timings are the only non-deterministic column.
    """
    rows: list[Row] = []
    _startup_rss_kb()  # calibrate the RSS floor before any workload runs
    for scenario in _scenarios(n, queries, inserts, ranges, seed):
        holder: dict[str, Any] = {}

        def build(scenario=scenario, holder=holder) -> None:
            holder["structure"] = scenario.build()

        rows.append(_row(scenario.name, "build", "bulk", n, _timed(build)))
        structure = holder["structure"]

        rows.append(
            _row(
                scenario.name,
                "query",
                "immediate",
                len(scenario.queries),
                _timed(lambda: _run_immediate_ops(structure, "query", scenario.queries)),
            )
        )
        rows.append(
            _row(
                scenario.name,
                "query",
                "batched",
                len(scenario.queries),
                _timed(lambda: _run_batched_ops(structure, "query", scenario.queries)),
            )
        )
        if scenario.ranges:
            rows.append(
                _row(
                    scenario.name,
                    "range",
                    "immediate",
                    len(scenario.ranges),
                    _timed(lambda: _run_immediate_ops(structure, "range", scenario.ranges)),
                )
            )
            rows.append(
                _row(
                    scenario.name,
                    "range",
                    "batched",
                    len(scenario.ranges),
                    _timed(lambda: _run_batched_ops(structure, "range", scenario.ranges)),
                )
            )
        if scenario.inserts:
            half = len(scenario.inserts) // 2
            rows.append(
                _row(
                    scenario.name,
                    "insert",
                    "immediate",
                    half,
                    _timed(
                        lambda: _run_immediate_ops(structure, "insert", scenario.inserts[:half])
                    ),
                )
            )
            rows.append(
                _row(
                    scenario.name,
                    "insert",
                    "batched",
                    len(scenario.inserts) - half,
                    _timed(lambda: _run_batched_ops(structure, "insert", scenario.inserts[half:])),
                )
            )
        if scenario.churn and churn_events:
            controller = ChurnController(
                structure.network, RepairEngine(structure), rng=random.Random(seed)
            )
            schedule = churn_schedule(churn_events, random.Random(seed + 7))
            rows.append(
                _row(
                    scenario.name,
                    "churn",
                    "rounds",
                    churn_events,
                    _timed(lambda: controller.run_schedule(schedule)),
                )
            )
    rows.extend(_topology_rows(n, queries, seed))
    rows.extend(_durability_rows(seed))
    return rows


#: Explicit topologies timed by the cost-model rows; the flat *default*
#: (no explicit topology) is the plain ``skip-web 1-d`` query/batched row.
TOPOLOGY_ROWS = ("clustered", "geo")


def _topology_rows(n: int, queries: int, seed: int) -> list[Row]:
    """Cost-model overhead: the batched 1-d query workload per topology.

    The flat default is already timed by the
    ``structure=skip-web 1-d,workload=query,executor=batched`` row
    (``topology=flat``); these rows re-run the same seeded workload on a
    fresh structure under each explicit topology.  Comparing them bounds
    the weighted-aggregation path's overhead and shows the flat default
    pays none of it — the per-link/per-cluster tallies only run when a
    topology is attached.
    """
    from repro.net.topology import resolve_topology

    rng = random.Random(seed)
    keys = sorted(set(float(key) for key in uniform_keys(n, seed=seed)))
    payloads = [rng.uniform(0.0, 1_000_000.0) for _ in range(queries)]
    rows: list[Row] = []
    for name in TOPOLOGY_ROWS:
        structure = SkipWeb1D.build_from_sorted(keys, seed=seed)
        structure.network.set_topology(resolve_topology(name, seed=seed))
        rows.append(
            _row(
                "skip-web 1-d",
                "query",
                "batched",
                len(payloads),
                _timed(lambda: _run_batched_ops(structure, "query", payloads)),
                topology=name,
            )
        )
    return rows


#: Steps of the seeded durable workload timed by the ``durability`` rows.
DURABILITY_STEPS = 12


def _durability_rows(seed: int) -> list[Row]:
    """Journaling overhead: the seeded workload bare vs with a jsonl log.

    Times ``repro.storage.workload.run_workload`` twice — once without
    storage, once journaling every committed action to a jsonl store —
    and prints the overhead to stderr.  The overhead is informational
    (the regression gate bounds each timing independently); the design
    target is < 15% for the log-everything configuration (DESIGN.md §9).
    """
    import shutil
    import tempfile

    from repro.storage.workload import run_workload

    steps = DURABILITY_STEPS
    bare = _timed(lambda: run_workload("skipweb1d", steps=steps, seed=seed))
    tmp = tempfile.mkdtemp(prefix="repro-durability-")
    try:
        logged = _timed(
            lambda: run_workload(
                "skipweb1d", steps=steps, seed=seed, storage=os.path.join(tmp, "log.jsonl")
            )
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if bare > 0:
        overhead = (logged - bare) / bare * 100.0
        print(
            f"durability: jsonl journaling overhead {overhead:+.1f}% "
            f"({logged:.3f}s vs {bare:.3f}s over {steps} steps; target < 15%)",
            file=sys.stderr,
        )
    return [
        _row("skip-web 1-d", "durability", "bare", steps, bare),
        _row("skip-web 1-d", "durability", "journaled", steps, logged),
    ]


def wallclock_metrics(params: dict[str, int] | None = None) -> dict[str, float]:
    """The quick-mode timing metrics gated by ``check_regression.py``.

    Keys follow the ``wallclock[...]`` family convention; values are
    ``secs_per_op`` (lower is better).
    """
    rows = wallclock_rows(**(params or QUICK))
    metrics: dict[str, float] = {}
    for row in rows:
        identity = (
            f"structure={row['structure']},workload={row['workload']},executor={row['executor']}"
        )
        # Flat-default rows keep their historical keys; only explicit
        # non-flat topologies grow a discriminating suffix.
        if row.get("topology", "flat") != "flat":
            identity += f",topology={row['topology']}"
        metrics[f"wallclock[{identity}].secs_per_op"] = row["secs_per_op"]
    return metrics


# --------------------------------------------------------------------- #
# pytest entry point
# --------------------------------------------------------------------- #
def test_wallclock_quick(capsys):
    from repro.bench.reporting import format_table

    rows = wallclock_rows(**QUICK)
    with capsys.disabled():
        print()
        print(format_table(rows, title="Wall-clock tier (quick): ops/sec and peak RSS"))
    structures = {row["structure"] for row in rows}
    assert len(structures) >= 5
    workloads = {row["workload"] for row in rows}
    assert workloads == {"build", "query", "insert", "range", "churn", "durability"}
    durability = [row for row in rows if row["workload"] == "durability"]
    assert {row["executor"] for row in durability} == {"bare", "journaled"}
    for row in rows:
        assert row["elapsed_s"] >= 0.0
        assert row["ops"] > 0
        assert row["peak_rss_kb"] > 0
        # The delta is measured against the calibrated startup floor, so
        # it is non-negative and strictly below the raw high-water mark.
        assert 0 <= row["rss_delta_kb"] < row["peak_rss_kb"]
    # Both executors are exercised for every operational workload.
    for workload in ("query", "insert", "range"):
        executors = {row["executor"] for row in rows if row["workload"] == workload}
        assert {"immediate", "batched"} <= executors, workload
    # Every row carries the cost-model column; the explicit topologies
    # appear exactly once each, next to the flat-default majority.
    topologies = {row["topology"] for row in rows}
    assert topologies == {"flat", *TOPOLOGY_ROWS}
    for name in TOPOLOGY_ROWS:
        assert sum(1 for row in rows if row["topology"] == name) == 1


# --------------------------------------------------------------------- #
# command line
# --------------------------------------------------------------------- #
def _markdown_table(rows: list[Row]) -> str:
    columns = list(rows[0].keys())
    lines = ["| " + " | ".join(columns) + " |", "|" + "---|" * len(columns)]
    for row in rows:
        lines.append("| " + " | ".join(str(row[column]) for column in columns) + " |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="run the larger local sizes")
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit a GitHub-flavoured markdown table (for CI job summaries)",
    )
    args = parser.parse_args(argv)
    rows = wallclock_rows(**(FULL if args.full else QUICK))
    if args.markdown:
        print("### Wall-clock tier" + (" (full)" if args.full else " (quick)"))
        print()
        print(_markdown_table(rows))
        return 0
    from repro.bench.reporting import format_table

    print(format_table(rows, title="Wall-clock tier: ops/sec and peak RSS"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
