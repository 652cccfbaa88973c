"""The experiment registry: one function per table / figure / lemma of the paper.

Every function returns a list of plain dictionaries (rows) so that the
``benchmarks/`` modules can assert on them and the CLI can print them with
:func:`repro.bench.reporting.format_table`.  All randomness is seeded.

Every distributed structure is deployed through the public
:class:`repro.api.Cluster` façade (see :func:`_cluster` below) — the
same registry path clients use.  A façade single operation is a batch
of one that costs the messages of the structure-level walk, so every
message count is byte-identical to the pre-façade direct constructions.

Experiment index (see DESIGN.md §3 for the full mapping):

=====================  =========================================================
function               reproduces
=====================  =========================================================
``table1_comparison``  Table 1 — H, M, C(n), Q(n), U(n) for every method
``fig1_skiplist``      Figure 1 — skip list expected O(log n) search, O(n) space
``fig2_skipweb_levels``Figure 2 — the 1-d skip-web level structure
``fig3_quadtree``      Figure 3 / Lemma 3 — quadtree set-halving constant
``fig4_trapezoid``     Figure 4 / Lemma 5 — trapezoidal-map set-halving constant
``lemma1_list``        Lemma 1 — sorted-list set-halving constant
``lemma4_trie``        Lemma 4 — trie set-halving constant
``theorem2_multidim``  Theorem 2 — O(log n) queries for quadtree/trie/trapezoid
``theorem2_onedim``    Theorem 2 + §2.4.1 — 1-d and bucket skip-web query costs
``range_queries``      output-sensitive O(log n + k) range reporting (extension)
``update_costs``       §4 — insertion/deletion message costs
``ablation_blocking``  §2.4 vs §2.4.1 — blocking-policy ablation
``throughput``         batched mixed workloads through the round-based engine
``congestion_rounds``  Theorem 2 congestion — max per-host per-round load
``churn``              live join/leave/crash with self-repair (extension)
``topology_comparison``flat vs clustered vs geo link-cost models (extension)
``fault_tolerance``    delivered-ops ratio under seeded message loss (extension)
=====================  =========================================================
"""

from __future__ import annotations

import math
import random
from statistics import mean
from typing import Any, Callable, Sequence

from repro.api import BatchReport, Cluster
from repro.baselines import SkipList
from repro.core.halving import sample_half, verify_halving
from repro.core.ranges import Interval
from repro.engine import Operation
from repro.errors import ChurnError
from repro.net.churn import churn_schedule
from repro.onedim import SortedListStructure
from repro.planar.segments import bounding_box
from repro.planar.skip_trapezoid import TrapezoidalMapStructure, Window
from repro.spatial.geometry import Box, HyperCube
from repro.spatial.quadtree import CompressedQuadtree
from repro.spatial.skip_quadtree import descent_conflicts
from repro.strings import DNA, LOWERCASE
from repro.strings.skip_trie import PrefixRange, TrieStructure
from repro.workloads import (
    dna_reads,
    non_crossing_segments,
    uniform_keys,
    uniform_points,
)
from repro.workloads.strings import prefix_queries, random_strings

Row = dict[str, Any]


def _cluster(name: str, items: Sequence[Any], **kwargs: Any) -> Cluster:
    """Deploy one structure family through the public façade.

    Every experiment constructs through :class:`repro.api.Cluster` (the
    registry path clients use); its single operations cost what the
    pre-façade direct calls cost, message for message.
    """
    return Cluster(structure=name, items=items, **kwargs)


def _structure(name: str, items: Sequence[Any], **kwargs: Any) -> Any:
    """Shorthand for experiments that only need the raw structure."""
    return _cluster(name, items, **kwargs).structure


def _query_points(
    count: int, rng: random.Random, low: float = 0.0, high: float = 1_000_000.0
) -> list[float]:
    return [rng.uniform(low, high) for _ in range(count)]


def _unit_main(conn: Any, unit: Callable[[], list[Row]]) -> None:
    """Run one benchmark unit in a forked worker; ship its rows back."""
    try:
        conn.send(("ok", unit()))
    except BaseException as error:  # pragma: no cover - defensive
        try:
            conn.send(("error", repr(error)))
        except Exception:
            pass
    finally:
        conn.close()


def _run_units(units: Sequence[Callable[[], list[Row]]]) -> list[list[Row]]:
    """Run independent benchmark units, forking one worker per unit.

    Each unit is a zero-argument callable returning a list of rows.
    Units must be *pre-planned*: all shared random state (payload
    generation, shuffles) is consumed by the caller before the unit is
    built, so a unit only constructs its own cluster and runs its own
    batches — cross-process execution changes no counter.  Rows come
    back in submission order.  Platforms without the ``fork`` start
    method — or a worker that dies — fall back to in-process execution,
    so the rows never depend on the platform.
    """
    import multiprocessing
    import os

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    # On a single CPU the forks would only add setup cost — stay serial.
    if len(units) < 2 or cpus < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [unit() for unit in units]
    ctx = multiprocessing.get_context("fork")
    workers = []
    for unit in units:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(target=_unit_main, args=(child_conn, unit))
        process.start()
        child_conn.close()
        workers.append((process, parent_conn))
    results: list[list[Row] | None] = []
    for process, conn in workers:
        try:
            status, payload = conn.recv()
        except EOFError:  # pragma: no cover - defensive
            status, payload = "error", "worker pipe closed"
        conn.close()
        process.join()
        results.append(payload if status == "ok" else None)
    return [
        result if result is not None else unit()
        for unit, result in zip(units, results)
    ]


# --------------------------------------------------------------------- #
# Table 1
# --------------------------------------------------------------------- #
def table1_comparison(
    sizes: Sequence[int] = (128, 256, 512),
    queries_per_size: int = 40,
    updates_per_size: int = 8,
    bucket_memory: int = 32,
    seed: int = 0,
) -> list[Row]:
    """Measure every Table 1 row (plus Chord) on the same workloads."""
    rows: list[Row] = []
    for n in sizes:
        rng = random.Random(seed + n)
        keys = uniform_keys(n, seed=seed + n)
        queries = _query_points(queries_per_size, rng)
        update_keys = _query_points(updates_per_size, rng)

        def measure_baseline(structure, name: str) -> Row:
            query_costs = [
                structure.search(q, origin_key=rng.choice(keys)).messages for q in queries
            ]
            update_costs = []
            for key in update_keys:
                update_costs.append(structure.insert(key).messages)
            congestion = structure.congestion()
            return {
                "method": name,
                "n": n,
                "H": structure.host_count,
                "M_max": structure.max_memory_per_host(),
                "C_max": round(congestion.max_congestion, 1),
                "Q_mean": round(mean(query_costs), 2),
                "U_mean": round(mean(update_costs), 2) if update_costs else 0.0,
            }

        rows.append(measure_baseline(_structure("skipgraph", keys, seed=seed), "skip graph"))
        rows.append(measure_baseline(_structure("skipnet", keys, seed=seed), "SkipNet"))
        rows.append(
            measure_baseline(_structure("non-skipgraph", keys, seed=seed), "NoN skip graph")
        )
        rows.append(measure_baseline(_structure("family-tree", keys, seed=seed), "family tree"))
        rows.append(
            measure_baseline(_structure("det-skipnet", keys, seed=seed), "deterministic SkipNet")
        )
        rows.append(
            measure_baseline(_structure("bucket-skipgraph", keys, seed=seed), "bucket skip graph")
        )

        # skip-web (this paper)
        web = _structure("skipweb1d", keys, seed=seed)
        query_costs = [web.nearest(q).messages for q in queries]
        update_costs = [web.insert(key).messages for key in update_keys]
        congestion = web.congestion()
        rows.append(
            {
                "method": "skip-web (this paper)",
                "n": n,
                "H": web.host_count,
                "M_max": web.max_memory_per_host(),
                "C_max": round(congestion.max_congestion, 1),
                "Q_mean": round(mean(query_costs), 2),
                "U_mean": round(mean(update_costs), 2),
            }
        )

        # bucket skip-web (this paper)
        bucket = _structure("bucket-skipweb1d", keys, memory_size=bucket_memory, seed=seed)
        query_costs = [bucket.nearest(q, origin_key=rng.choice(keys)).messages for q in queries]
        update_costs = [
            bucket.insert(key).messages for key in update_keys[: max(2, updates_per_size // 2)]
        ]
        congestion = bucket.congestion()
        rows.append(
            {
                "method": "bucket skip-web (this paper)",
                "n": n,
                "H": bucket.host_count,
                "M_max": bucket.max_memory_per_host(),
                "C_max": round(congestion.max_congestion, 1),
                "Q_mean": round(mean(query_costs), 2),
                "U_mean": round(mean(update_costs), 2),
            }
        )

        # Chord: exact-match lookups only (richer queries unsupported, §1.2).
        chord = _structure("chord", keys)
        lookup_costs = [
            chord.lookup(key).messages
            for key in rng.sample(keys, min(len(keys), queries_per_size))
        ]
        rows.append(
            {
                "method": "Chord DHT (exact match only)",
                "n": n,
                "H": chord.host_count,
                "M_max": chord.max_memory_per_host(),
                "C_max": 0.0,
                "Q_mean": round(mean(lookup_costs), 2),
                "U_mean": 0.0,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Figure 1 — the classic skip list
# --------------------------------------------------------------------- #
def fig1_skiplist(
    sizes: Sequence[int] = (128, 512, 2048, 8192),
    queries_per_size: int = 200,
    seed: int = 0,
) -> list[Row]:
    """Expected O(log n) search hops and O(n) total space for a skip list."""
    rows: list[Row] = []
    for n in sizes:
        rng = random.Random(seed + n)
        keys = uniform_keys(n, seed=seed + n)
        skiplist = SkipList(keys, seed=seed)
        queries = _query_points(queries_per_size, rng)
        hops = [skiplist.search(q).hops for q in queries]
        rows.append(
            {
                "n": n,
                "search_hops_mean": round(mean(hops), 2),
                "search_hops_max": max(hops),
                "levels": skiplist.height,
                "node_copies": skiplist.node_count(),
                "node_copies_per_key": round(skiplist.node_count() / n, 3),
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Figure 2 — one-dimensional skip-web levels
# --------------------------------------------------------------------- #
def fig2_skipweb_levels(n: int = 256, queries: int = 60, seed: int = 0) -> list[Row]:
    """Level-structure statistics plus per-level query messages for a 1-d skip-web."""
    rng = random.Random(seed)
    keys = uniform_keys(n, seed=seed)
    web = _structure("skipweb1d", keys, seed=seed)
    rows: list[Row] = []
    per_level_messages: dict[int, list[int]] = {}
    for _ in range(queries):
        result = web.nearest(rng.uniform(0, 1_000_000))
        for depth, messages in enumerate(result.per_level_messages):
            per_level_messages.setdefault(depth, []).append(messages)
    for level in range(web.height, -1, -1):
        prefixes = web.level_prefixes(level)
        sizes = [len(web.level_structure(level, prefix).items) for prefix in prefixes]
        descent_index = web.height - level
        messages = per_level_messages.get(descent_index, [0])
        rows.append(
            {
                "level": level,
                "sets": len(prefixes),
                "largest_set": max(sizes) if sizes else 0,
                "mean_set": round(mean(sizes), 2) if sizes else 0,
                "msgs_at_level_mean": round(mean(messages), 2),
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Set-halving lemmas (Lemma 1, 3, 4, 5 / Figures 3 and 4)
# --------------------------------------------------------------------- #
def lemma1_list(
    sizes: Sequence[int] = (64, 256, 1024),
    trials: int = 12,
    queries_per_size: int = 30,
    seed: int = 0,
) -> list[Row]:
    """Lemma 1: E[|C(Q, S)|] stays O(1) (paper's closed-form bound: 7)."""
    rows: list[Row] = []
    for n in sizes:
        rng = random.Random(seed + n)
        keys = [float(k) for k in uniform_keys(n, seed=seed + n)]
        report = verify_halving(
            SortedListStructure,
            keys,
            queries=_query_points(queries_per_size, rng),
            trials=trials,
            rng=rng,
        )
        rows.append(
            {
                "n": n,
                "mean_conflicts": round(report.mean_conflicts, 2),
                "p99_conflicts": report.p99_conflicts,
                "max_conflicts": report.max_conflicts,
            }
        )
    return rows


def fig3_quadtree(
    sizes: Sequence[int] = (64, 256, 1024),
    trials: int = 8,
    queries_per_size: int = 25,
    dimension: int = 2,
    seed: int = 0,
) -> list[Row]:
    """Lemma 3 / Figure 3: quadtree halving — per-level descent work is O(1)."""
    cube = HyperCube(tuple(0.0 for _ in range(dimension)), 1.0)
    rows: list[Row] = []
    for n in sizes:
        rng = random.Random(seed + n)
        points = uniform_points(n, dimension=dimension, seed=seed + n)
        full = CompressedQuadtree(points, cube)
        samples: list[int] = []
        for _ in range(trials):
            half_points = sample_half(points, rng) or points[:1]
            half = CompressedQuadtree(half_points, cube)
            for _ in range(queries_per_size):
                query = tuple(rng.random() for _ in range(dimension))
                samples.append(descent_conflicts(full, half, query))
        rows.append(
            {
                "n": n,
                "dimension": dimension,
                "tree_depth": full.depth(),
                "mean_conflicts": round(mean(samples), 2),
                "max_conflicts": max(samples),
            }
        )
    return rows


def lemma4_trie(
    sizes: Sequence[int] = (64, 256, 1024),
    trials: int = 8,
    queries_per_size: int = 25,
    seed: int = 0,
) -> list[Row]:
    """Lemma 4: trie halving — E[|C(Q, S)|] stays O(1)."""
    rows: list[Row] = []
    for n in sizes:
        rng = random.Random(seed + n)
        reads = dna_reads(n, seed=seed + n)
        queries = dna_reads(queries_per_size, seed=seed + n + 1)
        report = verify_halving(
            TrieStructure, reads, queries=queries, trials=trials, rng=rng, alphabet=DNA
        )
        rows.append(
            {
                "n": n,
                "mean_conflicts": round(report.mean_conflicts, 2),
                "p99_conflicts": report.p99_conflicts,
                "max_conflicts": report.max_conflicts,
            }
        )
    return rows


def fig4_trapezoid(
    sizes: Sequence[int] = (16, 32, 64),
    trials: int = 6,
    queries_per_size: int = 20,
    seed: int = 0,
) -> list[Row]:
    """Lemma 5 / Figure 4: trapezoidal-map halving — E[|C(Q, S)|] stays O(1)."""
    rows: list[Row] = []
    for n in sizes:
        rng = random.Random(seed + n)
        segments = non_crossing_segments(n, seed=seed + n)
        box = bounding_box(segments)
        queries = [
            (rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3]))
            for _ in range(queries_per_size)
        ]
        report = verify_halving(
            TrapezoidalMapStructure,
            segments,
            queries=queries,
            trials=trials,
            rng=rng,
            box=box,
        )
        rows.append(
            {
                "n": n,
                "mean_conflicts": round(report.mean_conflicts, 2),
                "p99_conflicts": report.p99_conflicts,
                "max_conflicts": report.max_conflicts,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Theorem 2 — query message complexity
# --------------------------------------------------------------------- #
def theorem2_multidim(
    sizes: Sequence[int] = (64, 128, 256),
    queries_per_size: int = 25,
    seed: int = 0,
) -> list[Row]:
    """O(log n) query messages for quadtree, trie and trapezoid skip-webs."""
    rows: list[Row] = []
    for n in sizes:
        rng = random.Random(seed + n)

        points = uniform_points(n, dimension=2, seed=seed + n)
        quad_web = _structure(
            "skipquadtree", points, bounding_cube=HyperCube((0.0, 0.0), 1.0), seed=seed
        )
        quad_costs = [
            quad_web.locate((rng.random(), rng.random())).messages
            for _ in range(queries_per_size)
        ]
        rows.append(
            {
                "structure": "quadtree skip-web",
                "n": n,
                "Q_mean": round(mean(quad_costs), 2),
                "Q_max": max(quad_costs),
                "M_max": quad_web.max_memory_per_host(),
                "H": quad_web.host_count,
            }
        )

        strings = random_strings(n, alphabet=LOWERCASE, seed=seed + n)
        trie_web = _structure("skiptrie", strings, alphabet=LOWERCASE, seed=seed)
        trie_costs = [
            trie_web.locate(query).messages
            for query in prefix_queries(strings, queries_per_size, seed=seed + n)
        ]
        rows.append(
            {
                "structure": "trie skip-web",
                "n": n,
                "Q_mean": round(mean(trie_costs), 2),
                "Q_max": max(trie_costs),
                "M_max": trie_web.max_memory_per_host(),
                "H": trie_web.host_count,
            }
        )

        segment_count = max(8, n // 8)
        segments = non_crossing_segments(segment_count, seed=seed + n)
        box = bounding_box(segments)
        trapezoid_web = _structure("skiptrapezoid", segments, box=box, seed=seed)
        trapezoid_costs = [
            trapezoid_web.locate(
                (rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3]))
            ).messages
            for _ in range(queries_per_size)
        ]
        rows.append(
            {
                "structure": "trapezoid skip-web",
                "n": segment_count,
                "Q_mean": round(mean(trapezoid_costs), 2),
                "Q_max": max(trapezoid_costs),
                "M_max": trapezoid_web.max_memory_per_host(),
                "H": trapezoid_web.host_count,
            }
        )
    return rows


def theorem2_onedim(
    sizes: Sequence[int] = (128, 512, 2048),
    memory_sizes: Sequence[int] = (16, 64, 256),
    queries_per_size: int = 40,
    seed: int = 0,
) -> list[Row]:
    """1-d skip-web vs bucket skip-web: O(log n) vs O(log_M H) query messages."""
    rows: list[Row] = []
    for n in sizes:
        rng = random.Random(seed + n)
        keys = uniform_keys(n, seed=seed + n)
        queries = _query_points(queries_per_size, rng)

        web = _structure("skipweb1d", keys, seed=seed)
        costs = [web.nearest(q).messages for q in queries]
        rows.append(
            {
                "structure": "skip-web 1-d",
                "n": n,
                "M": web.max_memory_per_host(),
                "H": web.host_count,
                "Q_mean": round(mean(costs), 2),
                "Q_max": max(costs),
            }
        )
        for memory in memory_sizes:
            bucket = _structure("bucket-skipweb1d", keys, memory_size=memory, seed=seed)
            costs = [bucket.nearest(q, origin_key=rng.choice(keys)).messages for q in queries]
            rows.append(
                {
                    "structure": f"bucket skip-web (M={memory})",
                    "n": n,
                    "M": bucket.max_memory_per_host(),
                    "H": bucket.host_count,
                    "Q_mean": round(mean(costs), 2),
                    "Q_max": max(costs),
                }
            )
    return rows


# --------------------------------------------------------------------- #
# Output-sensitive range reporting (extension; O(log n + k) messages)
# --------------------------------------------------------------------- #
def _interval_queries_exact_k(
    sorted_keys: Sequence[float], k: int, count: int, rng: random.Random
) -> list[Interval]:
    """Intervals covering exactly ``k`` consecutive stored keys."""
    k = min(k, len(sorted_keys))
    queries = []
    for _ in range(count):
        start = rng.randrange(0, len(sorted_keys) - k + 1)
        queries.append(Interval(sorted_keys[start], sorted_keys[start + k - 1]))
    return queries


def _box_queries_near_k(points, k: int, count: int, rng: random.Random) -> list[Box]:
    """Chebyshev balls around stored points containing ≥ ``k`` points."""
    k = min(k, len(points))
    queries = []
    for _ in range(count):
        anchor = rng.choice(points)
        distances = sorted(
            max(abs(a - b) for a, b in zip(anchor, point)) for point in points
        )
        queries.append(Box.around_point(anchor, distances[k - 1] + 1e-9))
    return queries


def _prefix_queries_near_k(
    strings: Sequence[str], k: int, count: int, rng: random.Random
) -> list[PrefixRange]:
    """The longest prefix of a random stored string matching ≥ ``k`` strings."""
    k = min(k, len(strings))
    queries = []
    for _ in range(count):
        base = rng.choice(strings)
        chosen = ""
        for length in range(len(base), -1, -1):
            prefix = base[:length]
            if sum(1 for text in strings if text.startswith(prefix)) >= k:
                chosen = prefix
                break
        queries.append(PrefixRange(chosen))
    return queries


def _window_queries_near_k(
    trapezoids, box, k: int, count: int, rng: random.Random
) -> list[Window]:
    """Windows around trapezoid centres grown until ≥ ``k`` faces overlap."""
    k = min(k, len(trapezoids))
    x_span = box[1] - box[0]
    y_span = box[3] - box[2]
    queries = []
    for _ in range(count):
        center_x, center_y = rng.choice(trapezoids).center
        half_x, half_y = 0.02 * x_span, 0.02 * y_span
        while True:
            window = Window(
                max(box[0], center_x - half_x),
                min(box[1], center_x + half_x),
                max(box[2], center_y - half_y),
                min(box[3], center_y + half_y),
            )
            overlap = sum(
                1 for trapezoid in trapezoids if window.intersects(trapezoid)
            )
            full = (
                window.x_low <= box[0]
                and window.x_high >= box[1]
                and window.y_low <= box[2]
                and window.y_high >= box[3]
            )
            if overlap >= k or full:
                break
            half_x *= 1.6
            half_y *= 1.6
        queries.append(window)
    return queries


def _range_scenarios(n: int, bucket_memory: int, seed: int):
    """The six range-capable structures with their per-k query makers.

    Yields ``(name, cluster, size, make_queries)`` where ``cluster`` is
    the façade deployment, ``make_queries(k, count, rng)`` draws
    ``count`` ranges with output size near ``k``, and ``size`` is the
    structure's own ground-set size (the trapezoid web is built over
    fewer segments than ``n``).
    """
    keys = uniform_keys(n, seed=seed + n)
    sorted_keys = sorted(set(float(key) for key in keys))
    yield (
        "skip-web 1-d",
        _cluster("skipweb1d", keys, seed=seed),
        n,
        lambda k, count, rng: _interval_queries_exact_k(sorted_keys, k, count, rng),
    )
    yield (
        f"bucket skip-web (M={bucket_memory})",
        _cluster("bucket-skipweb1d", keys, memory_size=bucket_memory, seed=seed),
        n,
        lambda k, count, rng: _interval_queries_exact_k(sorted_keys, k, count, rng),
    )

    points = uniform_points(n, dimension=2, seed=seed + n)
    yield (
        "quadtree skip-web",
        _cluster("skipquadtree", points, bounding_cube=HyperCube((0.0, 0.0), 1.0), seed=seed),
        n,
        lambda k, count, rng: _box_queries_near_k(points, k, count, rng),
    )

    reads = dna_reads(n, seed=seed + n)
    yield (
        "trie skip-web",
        _cluster("skiptrie", reads, alphabet=DNA, seed=seed),
        n,
        lambda k, count, rng: _prefix_queries_near_k(reads, k, count, rng),
    )

    segment_count = max(8, n // 8)
    segments = non_crossing_segments(segment_count, seed=seed + n)
    box = bounding_box(segments)
    trapezoid_cluster = _cluster("skiptrapezoid", segments, box=box, seed=seed)
    trapezoids = trapezoid_cluster.structure.level0_map.trapezoids
    yield (
        "trapezoid skip-web",
        trapezoid_cluster,
        segment_count,
        lambda k, count, rng: _window_queries_near_k(trapezoids, box, k, count, rng),
    )

    yield (
        "skip graph (baseline)",
        _cluster("skipgraph", keys, seed=seed),
        n,
        lambda k, count, rng: _interval_queries_exact_k(sorted_keys, k, count, rng),
    )


def range_queries(
    sizes: Sequence[int] = (48, 96, 192),
    target_ks: Sequence[int] = (4, 16),
    queries_per_size: int = 6,
    bucket_memory: int = 32,
    seed: int = 0,
) -> list[Row]:
    """Output-sensitive range reporting across every instantiation (extension).

    For each structure and each target output size ``k``, seeded range
    queries (1-d intervals, boxes, DNA prefixes, planar windows) are run
    twice through the round engine: one at a time (each a batch of one)
    and as one concurrent batch, from identical pinned origins — the two
    must charge identical message totals.  Rows report the measured
    output size, messages per operation in both modes, and the cost
    normalised by ``log2(n) + k``, which stays roughly flat when the
    O(log n + k) bound holds.  The Chord row documents that a hash-based
    overlay cannot answer these queries at all (§1.2).
    """
    rows: list[Row] = []
    for n in sizes:
        for name, cluster, size, make_queries in _range_scenarios(
            n, bucket_memory, seed
        ):
            origins = cluster.structure.origin_hosts()
            for k_target in target_ks:
                rng = random.Random(seed + n + 31 * k_target)
                queries = make_queries(k_target, queries_per_size, rng)
                pinned = [
                    origins[index % len(origins)] for index in range(len(queries))
                ]
                single_messages = []
                k_values = []
                for query, origin in zip(queries, pinned):
                    result = cluster.range(query, origin_host=origin).result()
                    single_messages.append(result.messages)
                    k_values.append(result.count)
                batch = cluster.batch(
                    [
                        Operation("range", query, origin_host=origin)
                        for query, origin in zip(queries, pinned)
                    ]
                )
                k_mean = mean(k_values)
                denominator = math.log2(max(2, size)) + k_mean
                rows.append(
                    {
                        "structure": name,
                        "n": size,
                        "k_target": k_target,
                        "supported": "yes",
                        "k_mean": round(k_mean, 1),
                        "msgs_per_op": round(mean(single_messages), 2),
                        "batched_msgs_per_op": round(
                            batch.messages / batch.ops, 2
                        ),
                        "rounds": batch.rounds,
                        "per_logn_plus_k": round(
                            mean(single_messages) / denominator, 2
                        ),
                    }
                )

        # Chord: range queries are impossible over a hash overlay (§1.2);
        # the façade reports that as a per-handle "unsupported" status.
        keys = uniform_keys(n, seed=seed + n)
        chord = _cluster("chord", keys)
        handle = chord.range(Interval(0.0, 1.0))
        supported = "no" if handle.unsupported else "yes"
        rows.append(
            {
                "structure": "Chord DHT",
                "n": n,
                "k_target": 0,
                "supported": supported,
                "k_mean": 0.0,
                "msgs_per_op": 0.0,
                "batched_msgs_per_op": 0.0,
                "rounds": 0,
                "per_logn_plus_k": 0.0,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# §4 — update costs
# --------------------------------------------------------------------- #
def update_costs(
    sizes: Sequence[int] = (64, 128, 256),
    updates_per_size: int = 10,
    seed: int = 0,
) -> list[Row]:
    """Insertion and deletion message costs for the skip-web structures."""
    rows: list[Row] = []
    for n in sizes:
        rng = random.Random(seed + n)
        keys = uniform_keys(n, seed=seed + n)
        web = _structure("skipweb1d", keys, seed=seed)
        inserts = [web.insert(rng.uniform(0, 1_000_000)).messages for _ in range(updates_per_size)]
        deletes = [web.delete(key).messages for key in rng.sample(keys, updates_per_size // 2 or 1)]
        rows.append(
            {
                "structure": "skip-web 1-d",
                "n": n,
                "insert_mean": round(mean(inserts), 2),
                "delete_mean": round(mean(deletes), 2),
            }
        )

        points = uniform_points(n, dimension=2, seed=seed + n)
        quad_web = _structure(
            "skipquadtree", points, bounding_cube=HyperCube((0.0, 0.0), 1.0), seed=seed
        )
        quad_inserts = [
            quad_web.insert((rng.random(), rng.random())).messages
            for _ in range(max(2, updates_per_size // 2))
        ]
        quad_deletes = [
            quad_web.delete(point).messages
            for point in rng.sample(points, max(1, updates_per_size // 4))
        ]
        rows.append(
            {
                "structure": "quadtree skip-web",
                "n": n,
                "insert_mean": round(mean(quad_inserts), 2),
                "delete_mean": round(mean(quad_deletes), 2),
            }
        )

        bucket = _structure("bucket-skipweb1d", keys, memory_size=32, seed=seed)
        bucket_inserts = [
            bucket.insert(rng.uniform(0, 1_000_000)).messages
            for _ in range(max(2, updates_per_size // 2))
        ]
        rows.append(
            {
                "structure": "bucket skip-web (M=32)",
                "n": n,
                "insert_mean": round(mean(bucket_inserts), 2),
                "delete_mean": 0.0,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Ablation: blocking strategies (§2.4 vs §2.4.1)
# --------------------------------------------------------------------- #
def ablation_blocking(
    n: int = 512,
    memory_sizes: Sequence[int] = (16, 64, 256),
    queries: int = 40,
    seed: int = 0,
) -> list[Row]:
    """Compare host-assignment policies for one-dimensional skip-webs."""
    rng = random.Random(seed)
    keys = uniform_keys(n, seed=seed)
    query_points = _query_points(queries, rng)
    rows: list[Row] = []
    for blocking in ("owner", "round_robin", "hash"):
        web = _structure("skipweb1d", keys, blocking=blocking, seed=seed)
        costs = [web.nearest(q).messages for q in query_points]
        congestion = web.congestion()
        rows.append(
            {
                "policy": f"arbitrary blocking ({blocking})",
                "n": n,
                "M_max": web.max_memory_per_host(),
                "C_max": round(congestion.max_congestion, 1),
                "Q_mean": round(mean(costs), 2),
            }
        )
    for memory in memory_sizes:
        bucket = _structure("bucket-skipweb1d", keys, memory_size=memory, seed=seed)
        costs = [bucket.nearest(q, origin_key=rng.choice(keys)).messages for q in query_points]
        rows.append(
            {
                "policy": f"bucket blocking (M={memory})",
                "n": n,
                "M_max": bucket.max_memory_per_host(),
                "C_max": round(bucket.congestion().max_congestion, 1),
                "Q_mean": round(mean(costs), 2),
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Batched execution: throughput and round congestion (repro.engine)
# --------------------------------------------------------------------- #
def _congestion_bound(n: int) -> float:
    """The paper's per-host per-round congestion scale: log n / log log n."""
    if n < 4:
        return 1.0
    return math.log2(n) / math.log2(math.log2(n))


def _mixed_operations(
    searches: Sequence[Any], inserts: Sequence[Any], rng: random.Random
) -> list[Operation]:
    """Shuffle a mixed batch of search and insert operations."""
    operations = [Operation("search", query) for query in searches]
    operations += [Operation("insert", item) for item in inserts]
    rng.shuffle(operations)
    return operations


def _throughput_row(structure: str, n: int, report: BatchReport) -> Row:
    return {
        "structure": structure,
        "n": n,
        "ops": report.ops,
        "completed": report.completed,
        "rounds": report.rounds,
        "ops_per_round": round(report.ops_per_round, 2),
        "msgs_per_op": round(report.messages_per_op, 2),
        "C_round_max": report.max_round_congestion,
        "retries": report.retries,
    }


def throughput(
    sizes: Sequence[int] = (128, 256),
    ops_per_size: int = 400,
    insert_fraction: float = 0.12,
    seed: int = 0,
) -> list[Row]:
    """Batched mixed workloads (queries + inserts) through the round engine.

    For each size, three structure types (1-d, quadtree, trie skip-webs)
    each execute a shuffled batch of ``ops_per_size`` operations
    concurrently under :class:`repro.engine.executor.BatchExecutor`.
    Rows report throughput (ops per round), messages per operation and
    the directly-measured maximum per-host per-round congestion.

    Execution is two-phase: every unit's payloads are drawn serially
    from the one per-size ``rng`` (so the random streams are identical
    to the historical single-pass loop), then the independent units —
    cluster construction plus batch execution — run as forked workers
    via :func:`_run_units`.  Counters are process-local, so the rows are
    byte-identical to serial execution.
    """
    units: list[Callable[[], list[Row]]] = []
    for n in sizes:
        rng = random.Random(seed + n)
        insert_count = max(1, int(ops_per_size * insert_fraction))
        search_count = ops_per_size - insert_count

        keys = uniform_keys(n, seed=seed + n)
        web_operations = _mixed_operations(
            [rng.uniform(0.0, 1_000_000.0) for _ in range(search_count)],
            uniform_keys(insert_count, seed=seed + n + 1, low=1_000_001.0, high=2_000_000.0),
            rng,
        )

        def web_unit(n=n, keys=keys, operations=web_operations):
            web = _cluster("skipweb1d", keys, seed=seed)
            return [_throughput_row("skip-web 1-d", n, web.batch(operations))]

        units.append(web_unit)

        points = uniform_points(n, dimension=2, seed=seed + n)
        quad_operations = [
            operation
            for operation in _mixed_operations(
                [(rng.random(), rng.random()) for _ in range(search_count)],
                uniform_points(insert_count, dimension=2, seed=seed + n + 2),
                rng,
            )
            if operation.kind == "search" or operation.payload not in points
        ]

        def quad_unit(n=n, points=points, operations=quad_operations):
            quad_web = _cluster(
                "skipquadtree", points, bounding_cube=HyperCube((0.0, 0.0), 1.0), seed=seed
            )
            return [_throughput_row("quadtree skip-web", n, quad_web.batch(operations))]

        units.append(quad_unit)

        strings = random_strings(n, alphabet=LOWERCASE, seed=seed + n)
        fresh = [
            text
            for text in random_strings(2 * insert_count, alphabet=LOWERCASE, seed=seed + n + 3)
            if text not in strings
        ][:insert_count]
        trie_operations = _mixed_operations(
            prefix_queries(strings, search_count, seed=seed + n), fresh, rng
        )

        def trie_unit(n=n, strings=strings, operations=trie_operations):
            trie_web = _cluster("skiptrie", strings, alphabet=LOWERCASE, seed=seed)
            return [_throughput_row("trie skip-web", n, trie_web.batch(operations))]

        units.append(trie_unit)

    return [row for unit_rows in _run_units(units) for row in unit_rows]


def congestion_rounds(
    sizes: Sequence[int] = (64, 128, 256, 512),
    queries_per_host: int = 1,
    seed: int = 0,
) -> list[Row]:
    """Directly-measured per-host per-round congestion of concurrent queries.

    Every host originates ``queries_per_host`` simultaneous queries
    against a 1-d skip-web — the paper's concurrent-access regime — and
    the batch executor reports the worst number of messages any host had
    to absorb in any round, which Theorem 2 bounds by
    O(log n / log log n) w.h.p.  The ``ratio`` column divides the
    measurement by that scale; it should stay roughly flat as ``n`` grows.
    """
    rows: list[Row] = []
    for n in sizes:
        rng = random.Random(seed + n)
        keys = uniform_keys(n, seed=seed + n)
        web = _cluster("skipweb1d", keys, seed=seed)
        operations = [
            Operation("search", rng.uniform(0.0, 1_000_000.0), origin_host=host)
            for host in web.structure.origin_hosts()
            for _ in range(queries_per_host)
        ]
        result = web.batch(operations)
        report = result.round_congestion()
        bound = _congestion_bound(n)
        rows.append(
            {
                "n": n,
                "hosts": web.structure.host_count,
                "ops": result.ops,
                "rounds": result.rounds,
                "msgs_per_op": round(result.messages_per_op, 2),
                "max_host_round_load": report.max_host_round_load,
                "mean_round_max": round(report.mean_round_max, 2),
                "logn_loglogn": round(bound, 2),
                "ratio": round(report.max_host_round_load / bound, 2),
            }
        )
    return rows


def _churn_scenarios(n: int, seed: int, **cluster_kwargs: Any):
    """The five structures a churn schedule runs over, with query makers.

    Yields ``(name, cluster, make_query)`` where ``make_query(rng)``
    draws one search payload for the structure's domain.  Extra keyword
    arguments (e.g. ``topology=``) are forwarded to every
    :func:`_cluster` call, so other experiments can deploy the same
    scenario set under a different configuration.
    """
    keys = uniform_keys(n, seed=seed + n)
    yield (
        "skip-web 1-d",
        _cluster("skipweb1d", keys, seed=seed, **cluster_kwargs),
        lambda rng: rng.uniform(0.0, 1_000_000.0),
    )

    points = uniform_points(n, dimension=2, seed=seed + n)
    yield (
        "quadtree skip-web",
        _cluster(
            "skipquadtree",
            points,
            bounding_cube=HyperCube((0.0, 0.0), 1.0),
            seed=seed,
            **cluster_kwargs,
        ),
        lambda rng: (rng.random(), rng.random()),
    )

    strings = random_strings(n, alphabet=LOWERCASE, seed=seed + n)
    trie_queries = prefix_queries(strings, 4 * n, seed=seed + n)
    yield (
        "trie skip-web",
        _cluster("skiptrie", strings, alphabet=LOWERCASE, seed=seed, **cluster_kwargs),
        lambda rng: rng.choice(trie_queries),
    )

    segment_count = max(8, n // 8)
    segments = non_crossing_segments(segment_count, seed=seed + n)
    box = bounding_box(segments)
    yield (
        "trapezoid skip-web",
        _cluster("skiptrapezoid", segments, box=box, seed=seed, **cluster_kwargs),
        lambda rng: (rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3])),
    )

    yield (
        "Chord DHT",
        _cluster("chord", keys, seed=seed, **cluster_kwargs),
        lambda rng: rng.choice(keys),
    )


def churn(
    sizes: Sequence[int] = (64,),
    events: int = 6,
    ops_per_phase: int = 40,
    seed: int = 0,
) -> list[Row]:
    """Live join/leave/crash schedules with self-repair (beyond the paper).

    Each structure serves ``events + 1`` batched query phases through the
    round engine, with one churn event (join, graceful leave, or crash
    followed by self-repair) applied between consecutive phases.  Rows
    report the sustained query health (completed ops, post-churn messages
    per op), the repair traffic per churn event, and the worst per-host
    per-round congestion observed across *both* query and repair rounds —
    the cost of staying available while the membership moves underneath.
    """
    rows: list[Row] = []
    for n in sizes:
        for name, cluster, make_query in _churn_scenarios(n, seed):
            rng = random.Random(seed + n)
            cluster.configure_churn(rng=rng)
            schedule = churn_schedule(events, rng)
            hosts_start = len(cluster.network.alive_host_ids())

            completed = 0
            failed = 0
            congestion = 0
            batch = None
            for phase in range(events + 1):
                operations = [
                    Operation("search", make_query(rng)) for _ in range(ops_per_phase)
                ]
                batch = cluster.batch(operations)
                completed += batch.completed
                failed += batch.failed
                congestion = max(congestion, batch.max_round_congestion)
                if phase < events:
                    try:
                        event = cluster.run_churn_schedule([schedule[phase]])[0]
                    except ChurnError:
                        # The schedule drew a retirement the controller's
                        # min-hosts floor refuses (tiny --sizes); a join
                        # keeps the scenario running deterministically.
                        event = cluster.join_host()
                    congestion = max(congestion, event.max_round_congestion)

            kinds = [event.kind for event in cluster.churn_events]
            repair_messages = [event.repair_messages for event in cluster.churn_events]
            rows.append(
                {
                    "structure": name,
                    "n": n,
                    "events": events,
                    "joins": kinds.count("join"),
                    "leaves": kinds.count("leave"),
                    "crashes": kinds.count("crash"),
                    "hosts_start": hosts_start,
                    "hosts_end": len(cluster.network.alive_host_ids()),
                    "records_moved": sum(
                        event.records_moved for event in cluster.churn_events
                    ),
                    "repair_msgs_per_event": round(mean(repair_messages), 2)
                    if repair_messages
                    else 0.0,
                    "completed": completed,
                    "failed": failed,
                    "msgs_per_op": round(batch.messages_per_op, 2),
                    "C_round_max": congestion,
                }
            )
    return rows


def topology_comparison(
    sizes: Sequence[int] = (64,),
    ops: int = 48,
    seed: int = 0,
    topologies: Sequence[str] = ("flat", "clustered", "geo"),
) -> list[Row]:
    """Flat vs clustered vs geo link-cost models over identical traffic.

    Each of the five churn-scenario structures (four skip-web
    instantiations plus the Chord baseline) executes the *same* seeded
    query batch once per topology.  Routing never consults link costs,
    so the ``msgs`` column is invariant across topologies — what changes
    is what the traffic *costs*: the weighted ``latency`` (sum of link
    costs over charged hops), the worst per-link per-round load and the
    worst per-host per-round load.  Under ``flat`` every link costs 1,
    so ``latency == msgs`` is a built-in sanity check; ``clustered``
    penalises the inter-cluster hops an oblivious structure keeps
    taking, and ``geo`` prices every region pair differently from a
    seeded weight matrix.
    """
    rows: list[Row] = []
    for n in sizes:
        for topology in topologies:
            for name, cluster, make_query in _churn_scenarios(n, seed, topology=topology):
                rng = random.Random(seed + n)
                operations = [Operation("search", make_query(rng)) for _ in range(ops)]
                report = cluster.batch(operations)
                congestion = report.round_congestion()
                rows.append(
                    {
                        "structure": name,
                        "topology": topology,
                        "n": n,
                        "ops": report.ops,
                        "completed": report.completed,
                        "rounds": report.rounds,
                        "msgs": report.messages,
                        "max_host_round_load": congestion.max_host_round_load,
                        "max_link_round_load": congestion.max_link_round_load,
                        "latency": report.latency,
                        "latency_per_op": round(report.latency_per_op, 2),
                    }
                )
    rows.sort(key=lambda row: (row["n"], row["structure"], row["topology"]))
    return rows


def fault_tolerance(
    sizes: Sequence[int] = (48,),
    ops: int = 48,
    seed: int = 0,
    drop_rates: Sequence[float] = (0.0, 0.1, 0.3),
) -> list[Row]:
    """Delivered-ops ratio and retry overhead under seeded message loss.

    Each of the five churn-scenario structures (four skip-web
    instantiations plus the Chord baseline) executes the *same* seeded
    query batch once per drop rate, under a
    :class:`~repro.net.faults.FaultPlan` that drops each query delivery
    with the given probability.  The executors retry dropped operations
    with deterministic linear backoff up to ``max_retries`` times, so
    the ``delivered_ratio`` column tells the self-healing story: 1.0 at
    rate 0 (a built-in sanity check), held near 1.0 at moderate loss by
    spending ``retry_overhead`` extra attempts, and degrading into
    ``gave_up`` handles once sustained loss outruns the retry budget.
    After the batch, one seeded crash event per cluster measures the
    repair traffic; drop rules are scoped to ``message_kind="query"``,
    so repair traffic is never faulted and the ``repair_msgs`` column
    stays comparable across rates.
    """
    from repro.net.faults import FaultPlan, drop

    rows: list[Row] = []
    for n in sizes:
        for rate in drop_rates:
            for name, cluster, make_query in _churn_scenarios(
                n,
                seed,
                faults=FaultPlan(
                    [drop(probability=rate, message_kind="query")], seed=seed
                ),
            ):
                rng = random.Random(seed + n)
                operations = [Operation("search", make_query(rng)) for _ in range(ops)]
                report = cluster.batch(operations)
                log = cluster.network.message_log
                dropped = log.dropped
                event = cluster.crash_host()
                rows.append(
                    {
                        "structure": name,
                        "drop_rate": rate,
                        "n": n,
                        "ops": report.ops,
                        "delivered": report.completed,
                        "delivered_ratio": round(report.completed / report.ops, 3),
                        "retries": report.retries,
                        "retry_overhead": round(report.retries / report.ops, 3),
                        "gave_up": report.gave_up,
                        "rounds": report.rounds,
                        "msgs_per_op": round(report.messages_per_op, 2),
                        "dropped": dropped,
                        "repair_msgs": event.repair_messages,
                    }
                )
    rows.sort(key=lambda row: (row["n"], row["structure"], row["drop_rate"]))
    return rows


#: Registry used by the CLI: name -> (function, short description).
EXPERIMENTS: dict[str, tuple[Callable[..., list[Row]], str]] = {
    "table1": (table1_comparison, "Table 1: cost comparison of all methods"),
    "fig1": (fig1_skiplist, "Figure 1: classic skip list search/space"),
    "fig2": (fig2_skipweb_levels, "Figure 2: 1-d skip-web level structure"),
    "fig3": (fig3_quadtree, "Figure 3 / Lemma 3: quadtree set-halving"),
    "fig4": (fig4_trapezoid, "Figure 4 / Lemma 5: trapezoidal-map set-halving"),
    "lemma1": (lemma1_list, "Lemma 1: sorted-list set-halving"),
    "lemma4": (lemma4_trie, "Lemma 4: trie set-halving"),
    "theorem2-multidim": (theorem2_multidim, "Theorem 2: multi-dimensional query costs"),
    "theorem2-onedim": (theorem2_onedim, "Theorem 2 / §2.4.1: 1-d query costs"),
    "range-queries": (range_queries, "Output-sensitive O(log n + k) range reporting"),
    "updates": (update_costs, "§4: update message costs"),
    "ablation-blocking": (ablation_blocking, "Ablation: blocking strategies"),
    "throughput": (throughput, "Batched mixed workloads through the round engine"),
    "congestion-rounds": (congestion_rounds, "Max per-host per-round congestion"),
    "churn": (churn, "Live join/leave/crash with self-repair"),
    "topology": (topology_comparison, "Flat vs clustered vs geo link-cost models"),
    "faults": (fault_tolerance, "Delivered-ops ratio under seeded message loss"),
}
