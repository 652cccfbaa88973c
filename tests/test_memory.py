"""Space per record: a skip-web record is slots and tuples, nothing more.

Theorem 2 bounds the space per host as O(log n) *records*, so the
constant that turns that bound into bytes is what one record costs.  The
budget below is traced bytes per record, measured as the whole cluster's
``tracemalloc`` total (build, after a collection, with imports already
done) divided by its ``SkipWeb.record_count()``, at n = 1,024 and seed 7.

Bytes per record, before (records were dataclasses with a ``__dict__``,
a list of hyperlink pairs and a dict neighbour table; the sorted list and
the trees stored an adjacency map) and after (``__slots__``, parallel
hyperlink tuples, one flat neighbour tuple, neighbours derived from the
key order or the tree):

=============  =================  =================  =================
family         CPython 3.10       CPython 3.11       CPython 3.12
=============  =================  =================  =================
skipweb1d      1,682 -> 899       1,602 -> 892       1,593 -> 891
skipquadtree   1,745 -> 1,170     1,630 -> 1,128     1,616 -> 1,123
skiptrie       1,736 -> 1,124     1,604 -> 1,065     1,590 -> 1,060
=============  =================  =================  =================

Queries must not grow the cluster either: the walk once cached a
key -> range dict on every record it visited.  At n = 256, 500
``Cluster.nearest`` calls grew traced memory by 1.15 % with that cache
and grow it by 0.25 % without (CPython 3.11; what remains is the
message ledger's per-round counters).
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from contextlib import contextmanager

import pytest

from repro.api import Cluster
from repro.core.skipweb import SkipWebRecord
from repro.spatial import HyperCube
from repro.workloads import random_strings, uniform_keys, uniform_points

N = 1024
SEED = 7

#: family -> (inputs, options, bytes-per-record budget)
BUDGETS = {
    "skipweb1d": (lambda: uniform_keys(N, SEED), {}, 1_100),
    "skipquadtree": (
        lambda: uniform_points(N, seed=SEED),
        {"bounding_cube": HyperCube((0.0, 0.0), 1.0)},
        1_300,
    ),
    "skiptrie": (lambda: random_strings(N, seed=SEED), {}, 1_300),
}


@contextmanager
def traced():
    """Trace allocations for the block (reusing a tracer already running)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        yield
    finally:
        if started:
            tracemalloc.stop()


def traced_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


@pytest.mark.parametrize("family", sorted(BUDGETS))
def test_bytes_per_record_within_budget(family):
    make_items, options, budget = BUDGETS[family]
    items = make_items()
    Cluster(family, items[:8], seed=SEED, **options)  # imports and registries load untraced
    with traced():
        before = traced_bytes()
        cluster = Cluster(family, items, seed=SEED, **options)
        total = traced_bytes() - before
    per_record = total / cluster.structure.record_count()
    assert per_record <= budget, f"{family}: {per_record:.0f} B per record"


def test_record_has_no_dict():
    cluster = Cluster("skipweb1d", uniform_keys(64, SEED), seed=SEED)
    web = cluster.structure
    for address in list(web._address_of.values())[:50]:
        record = web.network.load(address)
        assert type(record) is SkipWebRecord
        assert not hasattr(record, "__dict__")
        assert isinstance(record.neighbors, tuple)
        assert isinstance(record.down_units, tuple)
        assert isinstance(record.down_addresses, tuple)


def test_queries_do_not_grow_records():
    keys = uniform_keys(256, SEED)
    rng = random.Random(SEED)
    with traced():
        cluster = Cluster("skipweb1d", keys, seed=SEED)
        for _ in range(20):  # warm the executor and the root memo
            cluster.nearest(rng.uniform(0.0, 1_000_000.0))
        before = traced_bytes()
        for _ in range(500):
            assert cluster.nearest(rng.uniform(0.0, 1_000_000.0)).ok
        after = traced_bytes()
    assert abs(after - before) <= 0.01 * before, (before, after)
