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

Records per host must stay O(log n) while n changes, too.  A new item
goes to the least-loaded alive host, so after random updates, and after
growing 8x and shrinking back, the fullest host holds at most
``PER_HOST_C * ceil(log2 n) * ceil(n / H)`` records.  At H = n = 64
(seed 11) the worst ratio over the three checkpoints is 8.0 on
skipweb1d, 8.5 on skipquadtree (already at construction) and 11.0 on
skiptrie (after the shrink: deletes leave ownership uneven, and
rebalancing it is not done).  When the search origin owned every new
item, host 0 in every façade call without ``origin_host=``, the same
streams gave 166, 194 and 195.
"""

from __future__ import annotations

import gc
import math
import pickle
import random
import tracemalloc
from contextlib import contextmanager

import pytest

from repro.api import Cluster
from repro.core.skipweb import SkipWebRecord
from repro.spatial import HyperCube
from repro.storage import content_digest
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


PER_HOST_C = 12
GATE_N = 64

#: family -> (inputs, options, fresh item from an rng)
GATE_FAMILIES = {
    "skipweb1d": (
        lambda: uniform_keys(GATE_N, SEED),
        {},
        lambda rng: rng.uniform(0.0, 1_000_000.0),
    ),
    "skipquadtree": (
        lambda: uniform_points(GATE_N, seed=SEED),
        {"bounding_cube": HyperCube((0.0, 0.0), 1.0)},
        lambda rng: (rng.random(), rng.random()),
    ),
    "skiptrie": (
        lambda: random_strings(GATE_N, seed=SEED),
        {},
        lambda rng: "".join(rng.choice("abcdefgh") for _ in range(rng.randint(6, 20))),
    ),
}


class UpdateStream:
    """Façade inserts of fresh items and deletes of random live ones, no ``origin_host=``."""

    def __init__(self, family, seed=11, **cluster_options):
        make_items, options, self._fresh = GATE_FAMILIES[family]
        items = make_items()
        self.cluster = Cluster(family, items, seed=SEED, **options, **cluster_options)
        self.web = self.cluster.structure
        self.live = list(items)
        self._present = set(items)
        self._rng = random.Random(seed)

    def insert(self):
        item = self._fresh(self._rng)
        while item in self._present:
            item = self._fresh(self._rng)
        self._present.add(item)
        self.live.append(item)
        assert self.cluster.insert(item).ok
        return item

    def delete(self):
        item = self.live.pop(self._rng.randrange(len(self.live)))
        self._present.discard(item)
        assert self.cluster.delete(item).ok

    def mixed(self, count):
        for _ in range(count):
            if len(self.live) > 1 and self._rng.random() < 0.5:
                self.delete()
            else:
                self.insert()

    def per_host_ratio(self):
        web = self.web
        n = web.ground_set_size
        hosts = len(web.network.alive_host_ids())
        return web.max_memory_per_host() / (math.ceil(math.log2(n)) * math.ceil(n / hosts))

    def owners(self):
        return {item: self.web.owner_of(item) for item in self.web.items}


@pytest.mark.parametrize("family", sorted(GATE_FAMILIES))
def test_per_host_memory_stays_logarithmic(family):
    stream = UpdateStream(family)
    checkpoints = {}
    stream.mixed(10 * GATE_N)
    checkpoints["after 10n updates"] = stream.per_host_ratio()
    while len(stream.live) < 8 * GATE_N:
        stream.insert()
    checkpoints["grown 8x"] = stream.per_host_ratio()
    while len(stream.live) > GATE_N:
        stream.delete()
    checkpoints["shrunk back"] = stream.per_host_ratio()
    assert max(checkpoints.values()) <= PER_HOST_C, checkpoints
    stream.web.validate()


def test_new_items_go_to_the_least_loaded_alive_host():
    stream = UpdateStream("skipweb1d")
    web, network = stream.web, stream.cluster.network
    # H = n: every host owns one item, so host 0 owns the next one.
    assert web.owner_of(stream.insert()) == 0
    assert web.owner_of(stream.insert()) == 1
    network.fail_host(2)
    stored = [stream.insert() for _ in range(4)]
    assert [web.owner_of(item) for item in stored] == [3, 4, 5, 6]
    network.recover_host(2)
    assert web.owner_of(stream.insert()) == 2
    joined = stream.cluster.join_host().host
    assert web.owner_of(stream.insert()) == joined
    assert web.owner_of(stream.insert()) == 7


@pytest.mark.parametrize("from_snapshot", [True, False])
def test_recovery_reproduces_owners(tmp_path, from_snapshot):
    store = str(tmp_path / "log.jsonl")
    stream = UpdateStream("skipquadtree", storage=store, snapshot_every=25)
    stream.mixed(60)
    stream.cluster.join_host()
    stream.mixed(40)
    stream.cluster.crash_host()
    stream.mixed(40)
    web = stream.web
    stream.cluster.close()
    recovered = Cluster.recover(store, from_snapshot=from_snapshot)
    twin = recovered.structure
    assert content_digest(twin) == content_digest(web)
    assert {item: twin.owner_of(item) for item in twin.items} == stream.owners()
    recovered.close()
    # The next placements agree too: the index is rebuilt from the owners.
    for item in [(0.25, 0.75), (0.5, 0.125), (0.875, 0.5)]:
        web.insert(item)
        twin.insert(item)
        assert twin.owner_of(item) == web.owner_of(item)


def test_snapshot_leaves_the_load_index_out():
    stream = UpdateStream("skiptrie")
    stream.mixed(30)
    web = stream.web
    assert web._load_index is not None
    restored = pickle.loads(pickle.dumps(web))
    assert "_load_index" not in vars(restored)
    for word in ["abcabc", "hgfedcba", "aaaaaaab"]:
        web.insert(word)
        restored.insert(word)
        assert restored.owner_of(word) == web.owner_of(word)
