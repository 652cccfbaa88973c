"""Throughput — batched mixed workloads through the round-based engine.

The acceptance-level claim for the batched execution engine: a mixed
batch of well over a thousand operations (queries and inserts), spread
across three different skip-web structure types, runs concurrently under
:class:`repro.engine.executor.BatchExecutor` with high completion,
throughput of several operations per round, per-operation message costs
in line with the one-at-a-time numbers, and per-host per-round
congestion on the O(log n / log log n) scale.
"""

import math

from repro.bench.experiments import throughput
from repro.bench.reporting import format_table
from repro.engine import BatchExecutor, Operation
from repro.onedim import SkipWeb1D
from repro.workloads import uniform_keys


def test_throughput_mixed_batches(capsys):
    rows = throughput(sizes=(128, 256), ops_per_size=400, seed=0)
    with capsys.disabled():
        print()
        print(format_table(rows, title="Throughput (measured): batched mixed workloads"))

    # ≥ 1000 mixed operations across at least three structure types.
    assert sum(row["ops"] for row in rows) >= 1000
    assert len({row["structure"] for row in rows}) >= 3

    for row in rows:
        # Churned batches may drop a few operations to retry exhaustion,
        # but the engine must complete the overwhelming majority.
        assert row["completed"] >= 0.97 * row["ops"], row
        # Genuine concurrency: many operations make progress per round.
        assert row["ops_per_round"] > 1.5, row
        # Message cost stays on the O(log n) scale of Theorem 2.
        assert row["msgs_per_op"] <= 4 * math.log2(row["n"]), row
        # Per-host per-round congestion stays well below the batch size.
        assert row["C_round_max"] <= row["ops"] / 4, row


def test_batched_matches_immediate_answers():
    """Round-based execution must return the same answers as one-at-a-time walks."""
    keys = uniform_keys(96, seed=5)
    web = SkipWeb1D(keys, seed=5)
    queries = uniform_keys(40, seed=6)
    result = BatchExecutor(web).run([Operation("search", q) for q in queries])
    assert result.failed == 0
    for outcome in result.outcomes:
        direct = web.nearest(outcome.operation.payload, origin_host=outcome.origin_host)
        assert direct.answer.nearest == outcome.value.answer.nearest
        assert direct.messages == outcome.value.messages


def test_benchmark_batched_queries(benchmark):
    keys = uniform_keys(256, seed=1)
    web = SkipWeb1D(keys, seed=1)
    queries = uniform_keys(200, seed=2)
    operations = [Operation("search", q) for q in queries]
    benchmark.pedantic(lambda: BatchExecutor(web).run(operations), rounds=3, iterations=1)
