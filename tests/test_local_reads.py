"""The query walks read their own host's addresses in place.

A read of an address on the walk's current host is free in the paper's
cost model, so the search descent and the range report sub-walks read
such an address themselves (:func:`repro.engine.steps.read_local`) and
yield a :class:`~repro.engine.steps.Visit` only for a remote address or
for a local read that raised.  These tests record every effect the
walks yield, under the immediate driver and the batch scheduler, with a
recording charge counting the crossings the driver pays, and pin:

* every ``Visit`` is a host crossing (or a local read that raised), and
  every crossing is charged exactly once;
* the walks do read locally (the rule is not vacuous), and reading
  through the driver instead changes no answer, count or path;
* a local read that raises reaches the driver as a local ``Visit``,
  which fails the operation exactly as before.
"""

from __future__ import annotations

import pytest

from repro.api import Cluster
from repro.core import query as query_module
from repro.core.ranges import Interval
from repro.engine import BatchExecutor, Operation
from repro.engine.steps import OP_FORK, OP_VISIT, Fork, _drive
from repro.errors import AddressError
from repro.net.message import MessageKind
from repro.planar.skip_trapezoid import Window
from repro.spatial import HyperCube
from repro.spatial.geometry import Box
from repro.strings import DNA
from repro.strings.skip_trie import PrefixRange
from repro.workloads import dna_reads, non_crossing_segments, uniform_keys, uniform_points
from local_reads import driver_reads

_SEGMENTS = non_crossing_segments(24, seed=3)
_READS = dna_reads(40, seed=3)

#: (items, kwargs, searches, ranges) for the four skip-web families.
SCENARIOS = {
    "skipweb1d": (
        uniform_keys(96, seed=3),
        {},
        uniform_keys(12, seed=4),
        [Interval(0.0, 400_000.0), Interval(600_000.0, 650_000.0)],
    ),
    "skipquadtree": (
        uniform_points(96, dimension=2, seed=3),
        {"bounding_cube": HyperCube((0.0, 0.0), 1.0)},
        [tuple(point) for point in uniform_points(12, dimension=2, seed=4)],
        [Box((0.0, 0.0), (0.5, 0.5)), Box((0.2, 0.6), (0.9, 0.7))],
    ),
    "skiptrie": (
        _READS,
        {"alphabet": DNA},
        [read[: 3 + index % 5] for index, read in enumerate(_READS[:12])],
        [PrefixRange("A"), PrefixRange("CG")],
    ),
    "skiptrapezoid": (
        _SEGMENTS,
        {},
        [(segment.left[0] + 0.25, segment.left[1] + 0.25) for segment in _SEGMENTS[:12]],
        [Window(0.0, 500.0, 0.0, 500.0), Window(100.0, 900.0, 300.0, 600.0)],
    ),
}


def _cluster(name):
    items, kwargs, _searches, _ranges = SCENARIOS[name]
    return Cluster(name, items=items, seed=3, **kwargs)


def _operations(name):
    _items, _kwargs, searches, ranges = SCENARIOS[name]
    return [("search", query) for query in searches] + [("range", window) for window in ranges]


def _recording(gen, current, effects):
    """Pass ``gen``'s effects through, noting each with the host it was yielded on."""
    try:
        effect = next(gen)
        while True:
            if effect.op == OP_FORK:
                effect = Fork(
                    tuple(_recording(branch, current, effects) for branch in effect.branches)
                )
            else:
                effects.append((effect, current))
            resolution = yield effect
            current = resolution.host
            effect = gen.send(resolution)
    except StopIteration as stop:
        return stop.value


class _Recorded:
    """A structure whose search and range walks are recorded."""

    def __init__(self, structure, effects):
        self._structure = structure
        self.network = structure.network
        self.effects = effects

    def __getattr__(self, attribute):
        return getattr(self._structure, attribute)

    def search_steps(self, query, origin_host=None):
        gen = self._structure.search_steps(query, origin_host)
        return _recording(gen, origin_host, self.effects)

    def range_steps(self, query_range, origin_host=None):
        gen = self._structure.range_steps(query_range, origin_host)
        return _recording(gen, origin_host, self.effects)


def _immediate(cluster, operations):
    """Run each operation with the walk loop and a recording charge."""
    structure = cluster.structure
    network = cluster.network
    effects, charges, results = [], [], []

    def charge(src, dst, kind):
        charges.append((src, dst))
        network.send(src, dst, kind)

    origins = structure.origin_hosts()
    for index, (kind, payload) in enumerate(operations):
        origin = origins[index % len(origins)]
        steps = structure.search_steps if kind == "search" else structure.range_steps
        gen = _recording(steps(payload, origin), origin, effects)
        results.append(_drive(network, charge, gen, origin, MessageKind.QUERY, allow_fork=True))
    return effects, charges, results


def _batched(cluster, operations):
    effects = []
    executor = BatchExecutor(_Recorded(cluster.structure, effects))
    result = executor.run([Operation(kind, payload) for kind, payload in operations])
    return effects, result


def _target(effect):
    return effect.address.host if effect.op == OP_VISIT else effect.host


def _crossings(effects):
    return [(current, effect.address.host) for effect, current in effects if effect.op == OP_VISIT]


@pytest.fixture()
def local_reads(monkeypatch):
    """Counts the reads the walks make in place."""
    counted = []
    original = query_module.read_local

    def counting(load, cursor, address):
        value = original(load, cursor, address)
        if value is not None:
            counted.append(address)
        return value

    from repro.core import range_query

    monkeypatch.setattr(query_module, "read_local", counting)
    monkeypatch.setattr(range_query, "read_local", counting)
    return counted


@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestEveryVisitCrossesAHost:
    def test_immediate(self, name, local_reads):
        cluster = _cluster(name)
        effects, charges, results = _immediate(cluster, _operations(name))
        visits = _crossings(effects)
        assert visits and all(src != dst for src, dst in visits)
        # Every crossing the walks yield is charged exactly once, in order.
        crossings = [(current, _target(effect)) for effect, current in effects]
        assert charges == [(src, dst) for src, dst in crossings if src != dst]
        assert sum(result.messages for result in results) == len(charges)
        assert local_reads  # the walks did read in place

    def test_batched(self, name, local_reads):
        cluster = _cluster(name)
        effects, result = _batched(cluster, _operations(name))
        assert all(outcome.ok for outcome in result.outcomes)
        visits = _crossings(effects)
        assert visits and all(src != dst for src, dst in visits)
        assert len(visits) == result.messages
        assert local_reads

    def test_driver_reads_change_nothing_but_the_effects(self, name, monkeypatch):
        operations = _operations(name)
        local_effects, local_charges, local_results = _immediate(_cluster(name), operations)
        local_batch = _batched(_cluster(name), operations)[1]
        with monkeypatch.context() as patch:
            driver_reads(patch)
            driven_effects, driven_charges, driven_results = _immediate(_cluster(name), operations)
            driven_batch = _batched(_cluster(name), operations)[1]
        assert local_results == driven_results
        assert local_charges == driven_charges
        assert local_batch.summary() == driven_batch.summary()
        assert local_batch.round_reports == driven_batch.round_reports
        assert [outcome.value for outcome in local_batch.outcomes] == [
            outcome.value for outcome in driven_batch.outcomes
        ]
        # Through the driver, the same walks yield local Visits as well.
        local_visits = [
            (effect, current)
            for effect, current in driven_effects
            if effect.op == OP_VISIT and effect.address.host == current
        ]
        assert local_visits
        assert len(driven_effects) == len(local_effects) + len(local_visits)


class TestAFailedLocalReadReachesTheDriver:
    """A local read that raises is yielded, and the driver raises it as before."""

    QUERY = 123.0

    def _local_read(self):
        """The first address a search reads on its own host: (origin, address)."""
        cluster = _cluster("skipweb1d")
        for origin in cluster.structure.origin_hosts():
            effects = []
            gen = _recording(cluster.structure.search_steps(self.QUERY, origin), origin, effects)
            with pytest.MonkeyPatch.context() as patch:
                driver_reads(patch)
                _drive(cluster.network, cluster.network.send, gen, origin, MessageKind.QUERY, True)
            for effect, current in effects:
                if effect.op == OP_VISIT and effect.address.host == current:
                    return origin, effect.address
        raise AssertionError("no search reads an address on its own host")

    def _run(self, origin, address):
        cluster = _cluster("skipweb1d")
        cluster.network.free(address)
        effects = []
        gen = _recording(cluster.structure.search_steps(self.QUERY, origin), origin, effects)
        with pytest.raises(AddressError) as raised:
            _drive(cluster.network, cluster.network.send, gen, origin, MessageKind.QUERY, True)
        executor = BatchExecutor(cluster.structure, max_retries=1)
        outcome = executor.run([Operation("search", self.QUERY, origin_host=origin)]).outcomes[0]
        return (
            effects[-1][0].address,
            effects[-1][1],
            str(raised.value),
            repr(outcome.error),
            outcome.messages,
            outcome.retries,
        )

    def test_freed_slot(self, monkeypatch):
        origin, address = self._local_read()
        local = self._run(origin, address)
        # The failed read was yielded as a Visit on the host it lives on.
        assert local[:2] == (address, address.host)
        assert local[3].startswith("AddressError") and local[5] == 1
        with monkeypatch.context() as patch:
            driver_reads(patch)
            assert self._run(origin, address) == local
