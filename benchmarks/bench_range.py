"""Output-sensitive range reporting — the O(log n + k) bound (extension).

Every skip-web instantiation (and the ordered baselines) answers
reporting queries in O(log n + k) expected messages: an O(log n) locate
descent followed by forked report sub-walks that pay one message per
host crossing.  The assertions check both halves of the bound — cost is
near-constant in n for fixed output size k, and near-linear in k for
fixed n — and that running the very same queries one at a time and as
one concurrent batch charges identical message totals.  Chord's row
documents that a hash overlay cannot answer these queries at all (§1.2).
"""

import random

from repro.bench.experiments import range_queries
from repro.bench.fitting import best_growth_law
from repro.bench.reporting import format_table
from repro.core.ranges import Interval
from repro.onedim import SkipWeb1D
from repro.workloads import uniform_keys

#: Structures whose interval queries cover *exactly* k keys, so the
#: fixed-k growth fit across n is clean.
EXACT_K_STRUCTURES = ("skip-web 1-d", "bucket skip-web (M=32)", "skip graph (baseline)")


def test_range_costs_are_output_sensitive(capsys):
    rows = range_queries(
        sizes=(48, 96, 192), target_ks=(4, 16), queries_per_size=6, seed=0
    )
    with capsys.disabled():
        print()
        print(format_table(rows, title="Range reporting (measured): O(log n + k) messages"))

    supported = [row for row in rows if row["supported"] == "yes"]

    # Immediate and batched execution of the same queries from the same
    # origins must charge identical message totals (rounded identically).
    for row in supported:
        assert row["msgs_per_op"] == row["batched_msgs_per_op"], row

    # Fixed k, growing n: the cost is dominated by the O(log n) descent,
    # so it must fit a sub-linear law and stay within a small factor.
    for structure in EXACT_K_STRUCTURES:
        series = [
            row
            for row in supported
            if row["structure"] == structure and row["k_target"] == 4
        ]
        sizes = [row["n"] for row in series]
        costs = [row["msgs_per_op"] for row in series]
        fit = best_growth_law(sizes, costs, candidates=("1", "log n", "n"))
        assert fit.law != "n", (structure, sizes, costs)
        assert max(costs) <= 2.0 * min(costs) + 2.0, (structure, costs)

    # Fixed n, growing k: the extra cost is the report walk, which pays
    # at most one message per reported item — linear in k, not in n.
    for structure in EXACT_K_STRUCTURES:
        small = next(
            row
            for row in supported
            if row["structure"] == structure and row["n"] >= 96 and row["k_target"] == 4
        )
        large = next(
            row
            for row in supported
            if row["structure"] == structure
            and row["n"] == small["n"]
            and row["k_target"] == 16
        )
        extra = large["msgs_per_op"] - small["msgs_per_op"]
        assert extra <= (large["k_mean"] - small["k_mean"]) + 2.0, (structure, extra)

    # The normalised cost (messages / (log2 n + k)) stays bounded for
    # every supported structure — the O(log n + k) claim itself.
    assert all(row["per_logn_plus_k"] <= 1.6 for row in supported), [
        (row["structure"], row["per_logn_plus_k"]) for row in supported
    ]

    # Chord cannot answer range queries (the paper's point about hashing).
    chord_rows = [row for row in rows if row["structure"] == "Chord DHT"]
    assert chord_rows and all(row["supported"] == "no" for row in chord_rows)


def test_range_matches_are_exact():
    rng = random.Random(5)
    keys = uniform_keys(96, seed=5)
    web = SkipWeb1D(keys, seed=5)
    sorted_keys = sorted(set(float(key) for key in keys))
    for _ in range(10):
        start = rng.randrange(0, len(sorted_keys) - 8)
        low, high = sorted_keys[start], sorted_keys[start + 7]
        result = web.range_search(low, high)
        assert sorted(result.matches) == sorted_keys[start : start + 8]
        assert result.count == 8
        assert result.messages == result.descent_messages + result.report_messages


def test_benchmark_range_query(benchmark):
    keys = uniform_keys(256, seed=6)
    web = SkipWeb1D(keys, seed=6)
    sorted_keys = sorted(set(float(key) for key in keys))
    rng = random.Random(7)

    def run():
        start = rng.randrange(0, len(sorted_keys) - 16)
        web.range_report(Interval(sorted_keys[start], sorted_keys[start + 15]))

    benchmark(run)
