"""The §4 rewire passes recompute only what an update's delta can change.

``repro.core.update`` no longer recomputes every record an overlap scan
reaches: it derives its rewire candidates from the delta and from the
skip-web's registry of stale copies.  These tests hold it to the scan it
replaced (kept in ``rewire_oracle``):

* after every insert, delete and crash repair, every record's unit,
  neighbour table and hyperlink list equals the scan's, and so do the
  hosts billed at every level;
* the membership test behind the candidate filter agrees with each
  structure's ``overlapping``, whose trie version is path-restricted;
* the stale copies the lazy refresh leaves behind keep their keys and
  addresses, are pinned in number, and are all in the registry where the
  update relies on it;
* a rewire compares a record's neighbour table as a map (a reordered
  table is no change and keeps its order) and its hyperlinks in order.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Cluster
from repro.core.link_structure import OverlapView
from repro.core.ranges import ranges_conflict
from repro.core.update import _apply_level_change as rewire_by_delta
from repro.onedim.linked_list import SortedListStructure
from repro.planar.segments import bounding_box
from repro.planar.skip_trapezoid import TrapezoidalMapStructure
from repro.spatial.geometry import HyperCube
from repro.spatial.skip_quadtree import QuadtreeStructure
from repro.strings import DNA
from repro.strings.skip_trie import TrieStructure
from repro.workloads import dna_reads, non_crossing_segments, uniform_keys, uniform_points
from rewire_oracle import level_changes, record_fields, scan_apply_level_change, stale_copies

SEGMENT_POOL = non_crossing_segments(10, seed=3)
UNIT_SQUARE = HyperCube((0.0, 0.0), 1.0)


def _eighths(dimension):
    """Points whose coordinates are multiples of 1/8: on cell boundaries and far faces."""
    coordinate = st.integers(0, 8).map(lambda value: value / 8)
    return st.tuples(*[coordinate] * dimension)


#: family -> (Cluster structure name, Cluster kwargs, item strategy)
FAMILIES = {
    "skipweb1d": ("skipweb1d", {}, st.integers(0, 40).map(float)),
    "skipquadtree-2d": ("skipquadtree", {"bounding_cube": UNIT_SQUARE}, _eighths(2)),
    "skipquadtree-3d": (
        "skipquadtree",
        {"bounding_cube": HyperCube((0.0, 0.0, 0.0), 1.0)},
        _eighths(3),
    ),
    "skiptrie": ("skiptrie", {"alphabet": DNA}, st.text(alphabet="ACGT", max_size=5)),
    "skiptrapezoid": (
        "skiptrapezoid",
        {"box": bounding_box(SEGMENT_POOL, margin=1.0)},
        st.sampled_from(SEGMENT_POOL),
    ),
}


class _Paired:
    """Two identical clusters: one rewires as ``src`` does, one by the overlap scan."""

    def __init__(self, name, items, kwargs):
        self.clusters = [Cluster(structure=name, items=items, seed=5, **kwargs) for _ in range(2)]
        self.check()

    def apply(self, operation, payload):
        outcomes = []
        for cluster, apply in zip(self.clusters, (rewire_by_delta, scan_apply_level_change)):
            with level_changes(apply) as per_level:
                if operation == "crash":
                    cluster.crash_host(payload)
                    messages = None
                else:
                    handle = getattr(cluster, operation)(payload)
                    assert handle.ok, handle.error
                    messages = handle.messages
            outcomes.append((messages, per_level))
        delta_side, scan_side = outcomes
        # Per-level host lists, in order -- not just their totals.
        assert delta_side == scan_side, (operation, payload)
        self.check()

    def check(self):
        delta_web, scan_web = (cluster.structure.web for cluster in self.clusters)
        assert record_fields(delta_web) == record_fields(scan_web)
        registered = {
            (level, prefix, key)
            for (level, prefix), keys in delta_web._stale.items()
            for key in keys
        }
        stale = stale_copies(delta_web)
        assert not stale.wrong_pointers
        level0 = delta_web.level_structure(0, ())
        if isinstance(level0.overlap_keys(()), OverlapView):
            # Where the update relies on the registry, it misses nothing.
            assert stale.records <= registered
        else:
            assert not registered


def _replay(data, family):
    name, kwargs, items = FAMILIES[family]
    initial = data.draw(st.lists(items, min_size=1, max_size=10, unique=True))
    paired = _Paired(name, initial, kwargs)
    live = list(initial)
    for _ in range(data.draw(st.integers(1, 20))):
        if len(live) > 1 and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(live))
            live.remove(victim)
            paired.apply("delete", victim)
        else:
            item = data.draw(items)
            if item not in live:
                live.append(item)
                paired.apply("insert", item)


class TestRewireOracle:
    """Records and billing equal the overlap scan's after every update."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_update_sequences(self, family, data):
        _replay(data, family)

    @pytest.mark.parametrize(
        "name, items, kwargs, fresh",
        [
            ("skipweb1d", uniform_keys(48, seed=2), {}, lambda rng: rng.uniform(0, 1e6)),
            (
                "skipquadtree",
                uniform_points(48, dimension=2, seed=2),
                {"bounding_cube": UNIT_SQUARE},
                lambda rng: (rng.random(), rng.random()),
            ),
            (
                "skiptrie",
                dna_reads(48, seed=2),
                {"alphabet": DNA},
                lambda rng: "".join(rng.choice("ACGT") for _ in range(rng.randint(3, 20))),
            ),
        ],
        ids=["skipweb1d", "skipquadtree", "skiptrie"],
    )
    def test_crash_and_repair_mid_stream(self, name, items, kwargs, fresh):
        paired = _Paired(name, items, kwargs)
        rng = random.Random(f"churn:{name}")
        live = list(items)
        for step in range(40):
            if step == 20:
                victim = paired.clusters[0].network.alive_host_ids()[7]
                paired.apply("crash", victim)
            elif step % 2:
                paired.apply("delete", live.pop(rng.randrange(len(live))))
            else:
                item = fresh(rng)
                live.append(item)
                paired.apply("insert", item)


def _updated_structures():
    """Every structure class, after a seeded run of in-place updates."""
    rng = random.Random(11)
    points = uniform_points(40, dimension=2, seed=11)
    cubes = uniform_points(30, dimension=3, seed=11)
    square = QuadtreeStructure(points[:30], UNIT_SQUARE)
    cube = QuadtreeStructure(cubes[:20], HyperCube((0.0, 0.0, 0.0), 1.0))
    keys = SortedListStructure([float(key) for key in uniform_keys(30, seed=11)])
    reads = dna_reads(40, seed=11)
    trie = TrieStructure.build(reads[:30], alphabet=DNA)
    segments = non_crossing_segments(12, seed=11)
    trapezoids = TrapezoidalMapStructure.build(segments[:8], box=bounding_box(segments))
    for structure, fresh in (
        (square, points[30:]),
        (cube, cubes[20:]),
        (keys, [rng.uniform(0, 1e6) for _ in range(10)]),
        (trie, reads[30:]),
        (trapezoids, segments[8:]),
    ):
        for item in fresh:
            structure = structure.with_item(item).structure
        for item in list(structure.items)[::3]:
            structure = structure.without_item(item).structure
        yield structure


UPDATED = list(_updated_structures())
STRUCTURE_IDS = ["quadtree-2d", "quadtree-3d", "sorted-list", "trie", "trapezoidal-map"]


class TestOverlapMembership:
    """``overlap_keys`` is exactly ``overlapping``, whatever its representation."""

    @pytest.mark.parametrize("structure", UPDATED, ids=STRUCTURE_IDS)
    def test_membership_agrees_with_overlapping(self, structure):
        units = structure.units()
        probes = [unit.range for unit in units]
        for probe in probes:
            scan = {unit.key for unit in structure.overlapping(probe)}
            view = structure.overlap_keys([probe])
            assert {unit.key for unit in units if unit.key in view} == scan
            assert set(view) == scan
        # Several ranges at once: the union, as one update's changed ranges are.
        for start in range(0, len(probes), 5):
            batch = probes[start : start + 5]
            union = {unit.key for probe in batch for unit in structure.overlapping(probe)}
            view = structure.overlap_keys(batch)
            assert {unit.key for unit in units if unit.key in view} == union

    @pytest.mark.parametrize("structure", UPDATED, ids=STRUCTURE_IDS)
    def test_literal_conflicts_versus_overlapping(self, structure):
        """The trie's path walk is a strict subset of the literal list; the rest are equal."""
        units = structure.units()
        strict = 0
        for probe in (unit.range for unit in units):
            literal = {unit.key for unit in units if ranges_conflict(probe, unit.range)}
            scan = {unit.key for unit in structure.overlapping(probe)}
            assert scan <= literal
            strict += scan != literal
        if isinstance(structure, TrieStructure):
            assert strict > 0
        else:
            assert strict == 0

    def test_quadtree_holders_are_the_cells_naming_the_target(self):
        """The pruned holder walk finds every child-level cell whose hyperlinks name a cell."""
        points = uniform_points(60, dimension=2, seed=12)
        parent = QuadtreeStructure(points, UNIT_SQUARE)
        child = QuadtreeStructure(points[::2], UNIT_SQUARE)
        target_of = {unit.key: parent.conflicts(unit.range)[0].key for unit in child.units()}
        for cell in parent.units():
            if not cell.is_node:
                continue
            holders = child.hyperlink_holders(
                cell.range, lambda key, target=cell.key: target_of[key] == target
            )
            expected = {key for key, target in target_of.items() if target == cell.key}
            assert set(holders) == expected


def _stale_stream(name, n, updates):
    """A seeded insert/delete stream through the façade; returns the skip-web."""
    if name == "skipquadtree":
        items = uniform_points(n, dimension=2, seed=7)
        kwargs = {"bounding_cube": UNIT_SQUARE}

        def fresh(rng):
            return (round(rng.random(), 9), round(rng.random(), 9))

    elif name == "skiptrie":
        items = dna_reads(n, seed=7)
        kwargs = {"alphabet": DNA}

        def fresh(rng):
            return "".join(rng.choice("ACGT") for _ in range(rng.randint(8, 30)))

    else:
        items = uniform_keys(n, seed=7)
        kwargs = {}

        def fresh(rng):
            return round(rng.uniform(0, 1_000_000), 6)

    cluster = Cluster(structure=name, items=items, seed=7, **kwargs)
    rng = random.Random(f"stale:{name}:{n}")
    live = list(items)
    for step in range(updates):
        if step % 2:
            assert cluster.delete(live.pop(rng.randrange(len(live)))).ok
        else:
            item = fresh(rng)
            live.append(item)
            assert cluster.insert(item).ok
    return cluster.structure.web


#: (unit copies, neighbour-range copies, hyperlink copies) left stale after
#: the seeded streams of ``_stale_stream``; the overlap scan leaves the same.
PINNED_STALE_COPIES = {
    ("skipquadtree", 256): (19, 0, 40),
    ("skiptrie", 256): (421, 448, 2634),
    ("skipweb1d", 256): (0, 0, 0),
}


class TestStaleCopies:
    """The lazy refresh leaves the overlap scan's stale copies, and only those."""

    @pytest.mark.parametrize("name, n", sorted(PINNED_STALE_COPIES))
    def test_pinned_stale_copies(self, name, n):
        web = _stale_stream(name, n, 160)
        stale = stale_copies(web)
        # Stale copies carry the right keys and addresses; only contents lag.
        assert not stale.wrong_pointers
        assert stale.counts() == PINNED_STALE_COPIES[(name, n)]
        registered = {
            (level, prefix, key) for (level, prefix), keys in web._stale.items() for key in keys
        }
        if name == "skipquadtree":
            assert stale.records and stale.records <= registered
        else:
            # Scans small enough to visit are compared whole; nothing is registered.
            assert not registered


class TestNeighbourTableComparison:
    """A rewire compares a neighbour table as a map and hyperlinks in order."""

    def _record(self):
        web = Cluster("skipweb1d", uniform_keys(64, seed=5), seed=5).structure.web
        for (level, prefix, key), address in web._address_of.items():
            record = web.network.load(address, check_alive=False)
            if len(record.neighbors) == 6 and len(record.down_units) >= 2:
                return web, (level, prefix, key), record
        raise AssertionError("no record with two neighbours and two hyperlinks")

    def test_reordered_neighbours_are_no_change(self):
        web, entry, record = self._record()
        reordered = record.neighbors[3:] + record.neighbors[:3]
        record.neighbors = reordered
        assert not web._rewire_record(*entry)
        assert record.neighbors is reordered  # the stored order is kept

    def test_a_wrong_neighbour_address_is_a_change(self):
        web, entry, record = self._record()
        fresh = record.neighbors
        key, rng, _address = fresh[:3]
        record.neighbors = fresh[3:] + (key, rng, fresh[5])
        assert web._rewire_record(*entry)
        assert record.neighbors == fresh  # the structure's order again

    def test_reordered_hyperlinks_are_a_change(self):
        web, entry, record = self._record()
        units, addresses = record.down_units, record.down_addresses
        record.down_units, record.down_addresses = units[::-1], addresses[::-1]
        assert web._rewire_record(*entry)
        assert (record.down_units, record.down_addresses) == (units, addresses)
