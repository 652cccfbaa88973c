"""Count-equivalence guarantees of the wall-clock performance layer.

The performance overhaul (counter-only delivery, walk-local reads,
bulk-load construction, incremental level-structure updates, caches)
must be invisible to the cost model: every message count, every
benchmark row, byte for byte.  These tests pin that contract:

* every gated experiment produces identical rows whether the query
  walks read addresses on their own host in place or hand every read to
  the driver as a ``Visit`` effect;
* ``build_from_sorted`` + k inserts charges exactly what the plain
  constructor + the same k inserts charges, for every structure family;
* the in-place ``with_item`` / ``without_item`` updates produce
  structures bit-identical to a from-scratch rebuild (units, order,
  adjacency), report exactly the units they added and removed, and touch
  a number of units that does not grow with the level size;
* façade delete costs for every updatable family equal the values pinned
  before the in-place updates landed, and façade insert costs the values
  pinned before updates stopped rewiring whole overlap scans;
* an update recomputes at most twice as many records as actually change;
* the network-level caches (alive hosts, round reports) change no
  observable number while bounding memory;
* the fault-injection seam (``Cluster(faults=...)``) is invisible when
  left off: ``faults=None`` — implicit or explicit —
  reproduces every observable number and records zero fault tallies,
  for every structure family.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Cluster
from repro.api.registry import structure_specs
from repro.baselines import ChordDHT, SkipGraph
from repro.core.skipweb import SkipWeb
from repro.engine import BatchExecutor
from repro.errors import StructureError
from repro.bench.experiments import (
    churn,
    congestion_rounds,
    range_queries,
    throughput,
    update_costs,
)
from repro.net.message import MessageKind
from repro.net.network import Network
from repro.onedim import BucketSkipWeb1D, SkipWeb1D
from repro.onedim import linked_list
from repro.onedim.linked_list import SortedListStructure
from repro.planar.segments import Segment, bounding_box
from repro.planar.skip_trapezoid import TrapezoidalMapStructure
from repro.spatial.geometry import HyperCube
from repro.spatial.skip_quadtree import QuadtreeStructure, SkipQuadtreeWeb
from repro.strings import DNA, LOWERCASE
from repro.strings.skip_trie import SkipTrieWeb, TrieStructure
from repro.workloads import (
    dna_reads,
    non_crossing_segments,
    uniform_keys,
    uniform_points,
)
from repro.workloads.strings import random_strings
from local_reads import driver_reads


class TestLocalReadRowEquivalence:
    """Every experiment row is byte-identical with and without walk-local reads."""

    @pytest.mark.parametrize(
        "experiment, params",
        [
            (throughput, {"sizes": (64,), "ops_per_size": 120, "seed": 0}),
            (congestion_rounds, {"sizes": (64,), "queries_per_host": 1, "seed": 0}),
            (
                range_queries,
                {"sizes": (48,), "target_ks": (4,), "queries_per_size": 3, "seed": 0},
            ),
            (update_costs, {"sizes": (64,), "updates_per_size": 4, "seed": 0}),
            (churn, {"sizes": (48,), "events": 3, "ops_per_phase": 16, "seed": 0}),
        ],
        ids=["throughput", "congestion-rounds", "range-queries", "updates", "churn"],
    )
    def test_rows_identical_with_and_without_local_reads(self, experiment, params, monkeypatch):
        local = experiment(**params)
        with monkeypatch.context() as patch:
            driver_reads(patch)
            driven = experiment(**params)
        assert local == driven

    def test_network_counts_every_remote_send(self):
        network = Network()
        network.add_hosts(4)
        with network.measure() as stats:
            network.send(0, 1, MessageKind.QUERY)
            network.send(1, 2, MessageKind.UPDATE)
            network.send(2, 2, MessageKind.QUERY)  # self-send: free
        assert stats.messages == 2
        assert stats.count(MessageKind.QUERY) == 1
        assert stats.count(MessageKind.UPDATE) == 1
        assert network.total_messages == 2
        assert network.message_log.received_by(1) == 1
        assert network.message_log.sent_by(2) == 0


class TestBulkLoadEquivalence:
    """Bulk-load + k inserts ≡ plain construction + the same k inserts."""

    def test_skipweb1d_costs_identical(self):
        keys = sorted(set(float(key) for key in uniform_keys(64, seed=3)))
        extra = [1_000_001.5 + index for index in range(5)]
        plain = SkipWeb1D(keys, seed=3)
        bulk = SkipWeb1D.build_from_sorted(keys, seed=3)
        assert bulk.construction_messages > 0
        insert_costs_plain = [plain.insert(key).messages for key in extra]
        insert_costs_bulk = [bulk.insert(key).messages for key in extra]
        assert insert_costs_plain == insert_costs_bulk
        rng = random.Random(11)
        queries = [rng.uniform(0.0, 2_000_000.0) for _ in range(30)]
        plain_costs = [plain.nearest(query).messages for query in queries]
        bulk_costs = [bulk.nearest(query).messages for query in queries]
        assert plain_costs == bulk_costs
        assert [plain.nearest(q).answer.nearest for q in queries] == [
            bulk.nearest(q).answer.nearest for q in queries
        ]

    def test_quadtree_and_trie_webs_cost_identical(self):
        points = uniform_points(48, dimension=2, seed=4)
        cube = HyperCube((0.0, 0.0), 1.0)
        plain_quad = SkipQuadtreeWeb(points, bounding_cube=cube, seed=4)
        bulk_quad = SkipQuadtreeWeb.build_from_sorted(points, bounding_cube=cube, seed=4)
        rng = random.Random(5)
        point_queries = [(rng.random(), rng.random()) for _ in range(20)]
        assert [plain_quad.locate(q).messages for q in point_queries] == [
            bulk_quad.locate(q).messages for q in point_queries
        ]

        strings = random_strings(48, alphabet=LOWERCASE, seed=4)
        plain_trie = SkipTrieWeb(strings, alphabet=LOWERCASE, seed=4)
        bulk_trie = SkipTrieWeb.build_from_sorted(strings, alphabet=LOWERCASE, seed=4)
        assert [plain_trie.locate(s).messages for s in strings[:20]] == [
            bulk_trie.locate(s).messages for s in strings[:20]
        ]

    def test_bucket_baseline_and_chord_costs_identical(self):
        keys = sorted(set(float(key) for key in uniform_keys(64, seed=6)))
        rng = random.Random(7)
        queries = [rng.uniform(0.0, 1_000_000.0) for _ in range(20)]

        plain_bucket = BucketSkipWeb1D(keys, memory_size=32, seed=6)
        bulk_bucket = BucketSkipWeb1D.build_from_sorted(keys, 32, seed=6)
        assert [plain_bucket.nearest(q).messages for q in queries] == [
            bulk_bucket.nearest(q).messages for q in queries
        ]

        plain_graph = SkipGraph(keys, seed=6)
        bulk_graph = SkipGraph.build_from_sorted(keys, seed=6)
        assert [plain_graph.search(q).messages for q in queries] == [
            bulk_graph.search(q).messages for q in queries
        ]

        plain_chord = ChordDHT(keys)
        bulk_chord = ChordDHT.build_from_sorted(keys)
        assert [plain_chord.lookup(k).messages for k in keys[:20]] == [
            bulk_chord.lookup(k).messages for k in keys[:20]
        ]

    def test_construction_traffic_is_construction_kind_only(self):
        keys = sorted(set(float(key) for key in uniform_keys(48, seed=8)))
        web = SkipWeb1D.build_from_sorted(keys, seed=8)
        log = web.network.message_log
        assert web.construction_messages == log.count(MessageKind.CONSTRUCTION) > 0
        assert log.count(MessageKind.QUERY) == 0
        assert log.count(MessageKind.UPDATE) == 0


def _apply(current, kind, item):
    """One in-place update; checks the reported delta against the unit maps."""
    before = dict(current.unit_map())
    delta = current.with_item(item) if kind == "insert" else current.without_item(item)
    after = {} if delta.structure is None else delta.structure.unit_map()
    assert {unit.key for unit in delta.added} == after.keys() - before.keys()
    assert {unit.key for unit in delta.removed} == before.keys() - after.keys()
    assert all(after[unit.key] is unit for unit in delta.added)
    assert all(before[unit.key] is unit for unit in delta.removed)
    return delta.structure


def _assert_same(incremental, rebuilt):
    incremental.validate()
    left, right = incremental.units(), rebuilt.units()
    assert [unit.key for unit in left] == [unit.key for unit in right]
    assert left == right
    assert list(incremental.items) == list(rebuilt.items)
    assert incremental.unit_map() == rebuilt.unit_map()
    assert len(incremental) == len(rebuilt)
    for unit in left:
        assert [n.key for n in incremental.neighbors(unit.key)] == [
            n.key for n in rebuilt.neighbors(unit.key)
        ]


def _replay(build, initial, operations, validate_tree=None):
    """Apply ``operations`` in place, comparing with a rebuild after each."""
    current = build(initial)
    live = list(current.items)
    for kind, item in operations:
        current = _apply(current, kind, item)
        if kind == "insert":
            live.append(item)
        else:
            live.remove(item)
        if not live:
            assert current is None
            return
        if validate_tree is not None:
            validate_tree(current)
        _assert_same(current, build(live))


class TestIncrementalStructureEquivalence:
    """In-place ``with_item`` / ``without_item`` match a rebuild exactly."""

    def test_sorted_list(self):
        rng = random.Random(1)
        keys = sorted(set(float(key) for key in uniform_keys(24, seed=1)))
        inserts = [("insert", rng.uniform(-100.0, 2_000_000.0)) for _ in range(8)]
        _replay(SortedListStructure, keys, inserts)

    def test_sorted_list_deletes(self):
        keys = [float(key) for key in range(10, 20)]
        # first key, last key, an inner key, then down to one key and out
        order = [10.0, 19.0, 14.0, 11.0, 18.0, 15.0, 12.0, 17.0, 13.0, 16.0]
        _replay(SortedListStructure, keys, [("delete", key) for key in order])

    def test_sorted_list_interleaved(self):
        rng = random.Random(5)
        live = sorted(set(float(key) for key in uniform_keys(16, seed=5)))
        operations, shadow = [], list(live)
        for _ in range(60):
            if shadow and rng.random() < 0.5:
                operations.append(("delete", shadow.pop(rng.randrange(len(shadow)))))
            else:
                key = float(rng.randrange(-50, 1_000_050))
                if key not in shadow:
                    shadow.append(key)
                    operations.append(("insert", key))
        _replay(SortedListStructure, live, operations)

    def test_sorted_list_rejects_absent_and_duplicate_items(self):
        structure = SortedListStructure([1.0, 2.0])
        with pytest.raises(Exception, match="not present"):
            structure.without_item(3.0)
        with pytest.raises(Exception, match="already present"):
            structure.with_item(2.0)

    @staticmethod
    def _trie(alphabet):
        return lambda strings: TrieStructure.build(strings, alphabet=alphabet)

    @staticmethod
    def _validate_trie(structure):
        structure.trie.validate()

    def test_trie(self):
        for alphabet in (DNA, LOWERCASE):
            strings = random_strings(20, alphabet=alphabet, seed=2)
            fresh = [
                value
                for value in dict.fromkeys(random_strings(30, alphabet=alphabet, seed=77))
                if value not in strings
            ]
            _replay(
                self._trie(alphabet),
                strings,
                [("insert", value) for value in fresh],
                self._validate_trie,
            )

    @pytest.mark.parametrize(
        "alphabet, a, c", [(DNA, "A", "C"), (LOWERCASE, "a", "c")], ids=["dna", "lowercase"]
    )
    def test_trie_deletes(self, alphabet, a, c):
        strings = ["", a, a + a, a + a + c, a + c + a, a + c + c, c + a + a, c + a + c]
        operations = [
            ("delete", a),  # a prefix of other strings: its node stays, non-terminal
            ("delete", ""),  # the root stops being terminal
            ("delete", a + c + a),  # a leaf whose parent then merges into its edge
            ("delete", a + a),  # inner terminal with one child: merged away
            ("delete", c + a + c),  # leaf under a two-leaf parent
            ("insert", a + c + a),
            ("delete", a + a + c),
            ("delete", c + a + a),
            ("delete", a + c + c),
            ("delete", a + c + a),  # the last string
        ]
        _replay(self._trie(alphabet), strings, operations, self._validate_trie)

    @staticmethod
    def _quadtree(dimension):
        cube = HyperCube(tuple(0.0 for _ in range(dimension)), 1.0)
        return lambda points: QuadtreeStructure(points, cube)

    @staticmethod
    def _validate_quadtree(structure):
        structure.tree.validate()

    def test_quadtree(self):
        rng = random.Random(3)
        for dimension in (2, 3):
            points = uniform_points(20, dimension=dimension, seed=3)
            fresh = [tuple(rng.random() for _ in range(dimension)) for _ in range(8)]
            _replay(
                self._quadtree(dimension),
                points,
                [("insert", point) for point in fresh],
                self._validate_quadtree,
            )

    def test_quadtree_compression_moves(self):
        """Clustered points followed by far points move the split cell."""
        rng = random.Random(4)
        clustered = [(0.001 + rng.random() * 0.01, 0.001 + rng.random() * 0.01) for _ in range(12)]
        far = [(0.93, 0.91), (0.5, 0.5), (0.25, 0.7), (0.0078, 0.0055)]
        operations = [("insert", point) for point in far]
        # ... and taking them away again moves it back, cell by cell.
        operations += [("delete", point) for point in far]
        _replay(self._quadtree(2), clustered, operations, self._validate_quadtree)

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_quadtree_deletes(self, dimension):
        pad = (0.0,) * (dimension - 2)
        # two tight pairs in opposite corners plus a loner in a third slot
        pair_low = [(0.1, 0.1) + pad, (0.11, 0.12) + pad]
        pair_high = [(0.9, 0.9) + pad, (0.91, 0.88) + pad]
        loner = (0.9, 0.1) + pad
        operations = [
            ("delete", loner),  # empties a child slot of the root
            ("delete", pair_high[0]),  # a split cell un-splits into a slot-filling leaf
            ("delete", pair_high[1]),  # the root is left with one child: it compresses
            ("insert", loner),
            ("delete", pair_low[0]),
            ("delete", pair_low[1]),  # down to a single point
            ("delete", loner),  # ... and out
        ]
        _replay(
            self._quadtree(dimension),
            pair_low + pair_high + [loner],
            operations,
            self._validate_quadtree,
        )

    def test_quadtree_interleaved_with_far_face_points(self):
        """Grid points sit on cell boundaries and on the cube's closed far faces."""
        rng = random.Random(9)
        live = [(0.0, 0.0), (1.0, 1.0), (0.5, 1.0)]
        operations, shadow = [], list(live)
        for _ in range(80):
            if len(shadow) > 1 and rng.random() < 0.5:
                operations.append(("delete", shadow.pop(rng.randrange(len(shadow)))))
            else:
                point = (rng.randrange(9) / 8, rng.randrange(9) / 8)
                if point not in shadow:
                    shadow.append(point)
                    operations.append(("insert", point))
        _replay(self._quadtree(2), live, operations)

    def test_rebuild_default_reports_the_same_delta(self):
        """``planar`` keeps the rebuild default: fresh structure, diffed delta."""
        segments = non_crossing_segments(6, seed=3)
        box = bounding_box(segments, margin=1.0)

        def build(items):
            return TrapezoidalMapStructure.build(items, box=box)

        grown = _apply(current := build(segments[:5]), "insert", segments[5])
        assert grown is not current
        _assert_same(grown, build(segments))
        shrunk = _apply(grown, "delete", segments[0])
        _assert_same(shrunk, build(segments[1:]))
        assert _apply(build(segments[:1]), "delete", segments[0]) is None

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_sorted_list_property(self, data):
        keys = st.integers(-20, 20).map(float)
        self._property(data, SortedListStructure, keys)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_trie_property(self, data):
        strings = st.text(alphabet="ACG", max_size=4)
        self._property(data, self._trie(DNA), strings, self._validate_trie)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_quadtree_property(self, data):
        # multiples of 1/8 land on cell boundaries and the closed far faces
        coordinate = st.integers(0, 8).map(lambda value: value / 8)
        self._property(data, self._quadtree(2), st.tuples(coordinate, coordinate))

    @staticmethod
    def _property(data, build, items, validate_tree=None):
        """A random insert/delete sequence equals a rebuild after every step."""
        initial = data.draw(st.lists(items, min_size=1, max_size=6, unique=True))
        shadow, operations = list(initial), []
        for _ in range(data.draw(st.integers(1, 25))):
            if shadow and data.draw(st.booleans()):
                victim = data.draw(st.sampled_from(shadow))
                shadow.remove(victim)
                operations.append(("delete", victim))
            else:
                item = data.draw(items)
                if item not in shadow:
                    shadow.append(item)
                    operations.append(("insert", item))
            if not shadow:
                break
        _replay(build, initial, operations, validate_tree)


class TestUpdateLocality:
    """An update's local work follows its message count, not the level size."""

    @staticmethod
    def _units_built(monkeypatch, size):
        """``RangeUnit`` constructions during one delete and one insert."""
        keys = sorted(set(float(key) for key in uniform_keys(size, seed=17)))
        web = SkipWeb1D(keys, seed=17)
        built = []
        real = linked_list.RangeUnit

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(linked_list, "RangeUnit", counting)
        counts = []
        for update, key in ((web.delete, keys[len(keys) // 2]), (web.insert, keys[3] + 0.25)):
            del built[:]
            assert update(key).messages > 0
            counts.append(len(built))
        monkeypatch.undo()
        return counts, web.height

    def test_unit_constructions_do_not_grow_with_n(self, monkeypatch):
        (small_delete, small_insert), small_height = self._units_built(monkeypatch, 512)
        (large_delete, large_insert), large_height = self._units_built(monkeypatch, 4096)
        # one merged link per level on delete; node + two links on insert
        assert 0 < small_delete <= small_height + 1
        assert 0 < large_delete <= large_height + 1
        assert 0 < small_insert <= 3 * (small_height + 1)
        assert 0 < large_insert <= 3 * (large_height + 1)
        assert large_delete < 2 * small_delete
        assert large_insert < 2 * small_insert

    @staticmethod
    def _rewires(monkeypatch, name, size):
        """``_rewire_record`` calls and changed returns over 60 seeded updates."""
        if name == "skipquadtree":
            items = uniform_points(size, dimension=2, seed=19)
            kwargs = {"bounding_cube": HyperCube((0.0, 0.0), 1.0)}

            def fresh(rng):
                return (rng.random(), rng.random())

        elif name == "skiptrie":
            items = dna_reads(size, seed=19)
            kwargs = {"alphabet": DNA}

            def fresh(rng):
                return "".join(rng.choice("ACGT") for _ in range(rng.randint(8, 30)))

        else:
            items = uniform_keys(size, seed=19)
            kwargs = {}

            def fresh(rng):
                return rng.uniform(0.0, 1_000_000.0)

        cluster = Cluster(structure=name, items=items, seed=19, **kwargs)
        calls = [0, 0]
        real = SkipWeb._rewire_record

        def counting(self, level, prefix, key):
            changed = real(self, level, prefix, key)
            calls[0] += 1
            calls[1] += changed
            return changed

        monkeypatch.setattr(SkipWeb, "_rewire_record", counting)
        rng = random.Random(f"locality:{name}:{size}")
        live = list(items)
        for step in range(60):
            if step % 2:
                assert cluster.delete(live.pop(rng.randrange(len(live)))).ok
            else:
                item = fresh(rng)
                live.append(item)
                assert cluster.insert(item).ok
        monkeypatch.undo()
        return calls

    @pytest.mark.parametrize("size", [256, 1024])
    @pytest.mark.parametrize("name", ["skipquadtree", "skiptrie", "skipweb1d"])
    def test_rewires_follow_changes(self, monkeypatch, name, size):
        """Records are recomputed where the delta can change them, not across overlap scans.

        The overlap-scan rewiring recomputed 6.5-7.5 records per changed
        one on the quadtree, whose overlap sets hold whole ancestor chains
        and subtrees.
        """
        calls, changed = self._rewires(monkeypatch, name, size)
        assert changed > 0
        assert calls <= 2 * changed


#: ``handle.messages`` of 30 seeded façade deletes per updatable family,
#: recorded at the commit before deletes became in-place (seed 13; see
#: ``TestPinnedDeleteCosts._scenario``).  A splice that is not canonical
#: moves record placement and therefore these counts.  ``skiptrapezoid``
#: was re-recorded when owner blocking stopped putting every unit with no
#: anchor segment on host 0 and hashed it over the hosts instead.
# fmt: off
PINNED_DELETE_MESSAGES = {
    "bucket-skipgraph": [3, 2, 1, 3, 2, 4, 2, 1, 1, 1, 3, 1, 2, 2, 2, 0, 3, 1, 3, 2, 2, 3, 0, 8, 2, 3, 2, 2, 0, 2],
    "bucket-skipweb1d": [3] * 30,
    "det-skipnet": [12, 18, 1, 10, 11, 8, 12, 12, 13, 11, 12, 16, 11, 13, 7, 11, 15, 13, 9, 9, 10, 10, 12, 10, 9, 8, 10, 8, 10, 9],
    "family-tree": [7, 17, 7, 11, 11, 11, 14, 16, 16, 15, 9, 6, 13, 16, 16, 15, 14, 17, 10, 12, 13, 12, 13, 14, 13, 11, 5, 6, 18, 8],
    "non-skipgraph": [44, 26, 33, 39, 35, 42, 34, 34, 38, 37, 41, 31, 31, 30, 32, 37, 43, 30, 35, 35, 21, 33, 40, 31, 25, 26, 19, 29, 31, 19],
    "skipgraph": [13, 13, 19, 10, 15, 10, 13, 13, 15, 9, 16, 14, 17, 11, 13, 16, 11, 10, 11, 13, 15, 12, 16, 14, 11, 15, 16, 15, 11, 13],
    "skipnet": [8, 18, 19, 11, 15, 10, 15, 14, 10, 16, 16, 15, 13, 14, 14, 15, 14, 12, 16, 9, 16, 13, 9, 15, 10, 18, 17, 14, 12, 8],
    "skipquadtree": [14, 29, 21, 26, 17, 18, 28, 24, 23, 27, 26, 27, 20, 22, 19, 19, 20, 19, 19, 16, 27, 24, 22, 20, 18, 21, 18, 20, 17, 22],
    "skiptrapezoid": [53, 66, 57, 52, 49, 63, 32, 59, 57, 49, 57, 38, 46, 53, 54, 36, 38, 47, 45, 44, 37, 36, 44, 40, 37, 33, 26, 32, 27, 29],
    "skiptrie": [20, 19, 19, 23, 19, 27, 19, 27, 16, 25, 15, 21, 18, 24, 11, 26, 22, 14, 17, 18, 13, 22, 17, 23, 17, 22, 20, 24, 28, 22],
    "skipweb1d": [39, 36, 37, 34, 19, 39, 38, 28, 28, 33, 33, 24, 27, 36, 31, 33, 27, 36, 37, 22, 28, 29, 26, 28, 31, 36, 30, 16, 22, 27],
}

#: ``handle.messages`` of 30 seeded façade inserts per updatable family,
#: recorded with the overlap-scan rewiring (same scenarios as the deletes,
#: fresh items from ``TestPinnedDeleteCosts._fresh_items``).  A rewire
#: set that misses a changing record moves these counts.  The four
#: skip-web rows were re-recorded when a new item went to the
#: least-loaded host instead of the search origin (host 0 here).
PINNED_INSERT_MESSAGES = {
    "bucket-skipgraph": [0, 0, 2, 0, 3, 2, 2, 0, 4, 2, 3, 3, 2, 2, 3, 0, 2, 3, 2, 2, 2, 2, 4, 4, 3, 2, 3, 2, 3, 3],
    "bucket-skipweb1d": [3] * 30,
    "det-skipnet": [11, 5, 12, 10, 9, 7, 9, 12, 9, 7, 10, 7, 8, 9, 9, 9, 11, 9, 10, 10, 9, 11, 10, 11, 11, 10, 8, 7, 10, 8],
    "family-tree": [11, 9, 18, 11, 14, 10, 16, 8, 7, 16, 15, 13, 15, 6, 9, 19, 17, 11, 9, 14, 12, 1, 15, 10, 6, 18, 13, 2, 28, 18],
    "non-skipgraph": [25, 31, 40, 35, 37, 19, 28, 31, 42, 47, 35, 32, 31, 37, 39, 34, 26, 46, 50, 56, 40, 43, 46, 37, 34, 49, 38, 47, 34, 32],
    "skipgraph": [13, 10, 14, 11, 11, 11, 8, 13, 14, 13, 12, 3, 6, 13, 16, 11, 10, 14, 15, 12, 14, 17, 11, 16, 5, 16, 16, 14, 16, 16],
    "skipnet": [16, 11, 10, 12, 16, 13, 15, 14, 8, 14, 13, 15, 17, 10, 5, 9, 11, 13, 17, 10, 15, 17, 6, 17, 13, 13, 15, 9, 13, 17],
    "skipquadtree": [23, 23, 16, 21, 15, 15, 18, 19, 19, 21, 16, 20, 21, 19, 15, 18, 19, 19, 18, 22, 15, 20, 19, 20, 15, 25, 14, 17, 16, 19],
    "skiptrapezoid": [53, 44, 38, 42, 50, 51, 45, 50, 44, 58, 47, 41, 46, 43, 45, 52, 45, 58, 57, 53, 57, 50, 43, 42, 52, 46, 33, 63, 39, 48],
    "skiptrie": [25, 11, 17, 24, 13, 18, 22, 20, 23, 24, 26, 28, 22, 20, 17, 19, 18, 31, 17, 26, 21, 24, 18, 22, 19, 22, 15, 18, 23, 19],
    "skipweb1d": [30, 32, 20, 42, 22, 24, 36, 34, 32, 31, 28, 38, 23, 38, 36, 33, 38, 25, 35, 35, 38, 36, 38, 36, 34, 32, 30, 23, 33, 33],
}
# fmt: on


class TestPinnedDeleteCosts:
    """Façade delete costs are the ones a rebuild-per-level produced, and
    façade insert costs the ones the overlap-scan rewiring produced."""

    @staticmethod
    def _scenario(name):
        if name == "skipquadtree":
            return uniform_points(96, dimension=2, seed=13), {
                "bounding_cube": HyperCube((0.0, 0.0), 1.0)
            }
        if name == "skiptrie":
            return dna_reads(96, seed=13), {"alphabet": DNA}
        if name == "skiptrapezoid":
            return non_crossing_segments(32, seed=13), {}
        if name == "bucket-skipweb1d":
            return uniform_keys(96, seed=13), {"memory_size": 16}
        return uniform_keys(96, seed=13), {}

    @staticmethod
    def _fresh_items(name, items, count=30):
        """``count`` items not in ``items``, drawn from a string-seeded rng."""
        rng = random.Random(f"pin-insert:{name}")
        present = set(items)
        fresh = []
        while len(fresh) < count:
            if name == "skipquadtree":
                item = (rng.random(), rng.random())
            elif name == "skiptrie":
                item = "".join(rng.choice("ACGT") for _ in range(rng.randint(4, 24)))
            elif name == "skiptrapezoid":
                # A short segment inside the current extent that crosses
                # nothing and shares no endpoint x (general position).
                xs = {x for segment in present for x in (segment.left[0], segment.right[0])}
                ys = [y for segment in present for y in (segment.left[1], segment.right[1])]
                x1 = rng.uniform(min(xs), max(xs) - 2.0)
                x2 = x1 + rng.uniform(0.5, 2.0)
                y1 = rng.uniform(min(ys), max(ys))
                y2 = min(max(ys), max(min(ys), y1 + rng.uniform(-1.0, 1.0)))
                item = Segment((x1, y1), (x2, y2))
                if x1 in xs or x2 in xs or any(item.crosses(other) for other in present):
                    continue
            else:
                item = float(rng.randrange(0, 1_000_000)) + 0.5
            if item not in present:
                present.add(item)
                fresh.append(item)
        return fresh

    def test_every_updatable_family_is_pinned(self):
        updatable = {name for name, spec in structure_specs().items() if spec.supports_updates}
        assert updatable == set(PINNED_DELETE_MESSAGES)
        assert updatable == set(PINNED_INSERT_MESSAGES)

    @pytest.mark.parametrize("name", sorted(PINNED_DELETE_MESSAGES))
    def test_thirty_seeded_deletes(self, name):
        items, kwargs = self._scenario(name)
        cluster = Cluster(structure=name, items=items, seed=13, **kwargs)
        victims = random.Random(f"pin:{name}").sample(list(items), 30)
        handles = [cluster.delete(victim) for victim in victims]
        assert all(handle.ok for handle in handles)
        assert [handle.messages for handle in handles] == PINNED_DELETE_MESSAGES[name]

    @pytest.mark.parametrize("name", sorted(PINNED_INSERT_MESSAGES))
    def test_thirty_seeded_inserts(self, name):
        items, kwargs = self._scenario(name)
        cluster = Cluster(structure=name, items=items, seed=13, **kwargs)
        handles = [cluster.insert(item) for item in self._fresh_items(name, items)]
        assert all(handle.ok for handle in handles)
        assert [handle.messages for handle in handles] == PINNED_INSERT_MESSAGES[name]


class TestNetworkCaches:
    """The alive-host cache and round-report bounding change no numbers."""

    def test_alive_cache_tracks_membership_changes(self):
        network = Network()
        network.add_hosts(3)
        assert network.alive_host_ids() == [0, 1, 2]
        network.fail_host(1)
        assert network.alive_host_ids() == [0, 2]
        network.recover_host(1)
        assert network.alive_host_ids() == [0, 1, 2]
        network.remove_host(2)
        assert network.alive_host_ids() == [0, 1]
        host = network.add_host()
        assert host.host_id in network.alive_host_ids()
        # The returned list is a copy: mutating it does not poison the cache.
        network.alive_host_ids().append(999)
        assert 999 not in network.alive_host_ids()

    def test_round_report_retention_keeps_aggregates(self):
        bounded = Network(round_report_retention=2)
        unbounded = Network()
        for network in (bounded, unbounded):
            network.add_hosts(4)
            with network.rounds():
                for round_index in range(5):
                    for destination in range(1, 2 + round_index % 2):
                        network.post(0, destination)
                    network.run_round()
        assert len(bounded.round_reports) == 2
        assert len(unbounded.round_reports) == 5
        # The whole-session congestion aggregates are identical regardless.
        assert bounded.round_congestion_summary() == unbounded.round_congestion_summary()
        # The kept reports are the last two, with their maxima.
        assert bounded.round_reports == unbounded.round_reports[-2:]
        for report in bounded.round_reports:
            assert report.max_host_load >= 1

    def test_ledger_round_failure_reporting_still_works(self):
        network = Network()
        network.add_hosts(3)
        with network.rounds():
            healthy = network.post(0, 1)
            network.run_round()
            assert healthy.result() is None
            network.fail_host(2)
            doomed = network.post(0, 2)
            network.run_round()
            with pytest.raises(Exception):
                doomed.result()

    def test_batched_rows_identical_with_bounded_retention(self):
        keys = uniform_keys(48, seed=9)
        queries = uniform_keys(30, seed=10)
        from repro.engine import BatchExecutor, Operation

        reference = SkipWeb1D(keys, network=Network(), seed=9)
        bounded = SkipWeb1D(keys, network=Network(round_report_retention=4), seed=9)
        operations = [Operation("search", query) for query in queries]
        result_reference = BatchExecutor(reference).run(list(operations))
        result_bounded = BatchExecutor(bounded).run(list(operations))
        assert result_reference.summary() == result_bounded.summary()
        assert (
            result_reference.round_congestion().as_dict()
            == result_bounded.round_congestion().as_dict()
        )


#: Read-only batch scenarios for every registered family: constructor
#: items, extra Cluster kwargs, a list of search payloads, and (where the
#: family answers them) one range payload.
_FAMILY_KEYS = uniform_keys(32, seed=21)
_FAMILY_POINTS = uniform_points(24, dimension=2, seed=21)
_FAMILY_READS = dna_reads(20, seed=21)
_FAMILY_SEGMENTS = non_crossing_segments(12, seed=21)

FAMILY_SCENARIOS = {
    "skipweb1d": dict(
        items=_FAMILY_KEYS,
        kwargs={},
        searches=uniform_keys(18, seed=22),
        range=(0.0, 500_000.0),
    ),
    "bucket-skipweb1d": dict(
        items=_FAMILY_KEYS,
        kwargs={"memory_size": 16},
        searches=uniform_keys(18, seed=22),
        range=(0.0, 500_000.0),
    ),
    "skipquadtree": dict(
        items=_FAMILY_POINTS,
        kwargs={"bounding_cube": HyperCube((0.0, 0.0), 1.0)},
        searches=[tuple(point) for point in uniform_points(14, dimension=2, seed=23)],
        range=None,
    ),
    "skiptrie": dict(
        items=_FAMILY_READS,
        kwargs={"alphabet": DNA},
        searches=[read[: 3 + index % 5] for index, read in enumerate(_FAMILY_READS[:14])],
        range=None,
    ),
    "skiptrapezoid": dict(
        items=_FAMILY_SEGMENTS,
        kwargs={},
        searches=[
            (segment.left[0] + 0.25, segment.left[1] + 0.25)
            for segment in _FAMILY_SEGMENTS[:10]
        ],
        range=None,
    ),
    "skipgraph": dict(
        items=_FAMILY_KEYS,
        kwargs={},
        searches=uniform_keys(18, seed=22),
        range=(0.0, 500_000.0),
    ),
    "skipnet": dict(items=_FAMILY_KEYS, kwargs={}, searches=uniform_keys(18, seed=22), range=None),
    "non-skipgraph": dict(
        items=_FAMILY_KEYS, kwargs={}, searches=uniform_keys(18, seed=22), range=None
    ),
    "family-tree": dict(
        items=_FAMILY_KEYS, kwargs={}, searches=uniform_keys(18, seed=22), range=None
    ),
    "det-skipnet": dict(
        items=_FAMILY_KEYS, kwargs={}, searches=uniform_keys(18, seed=22), range=None
    ),
    "bucket-skipgraph": dict(
        items=_FAMILY_KEYS, kwargs={}, searches=uniform_keys(18, seed=22), range=None
    ),
    "chord": dict(items=_FAMILY_KEYS, kwargs={}, searches=list(_FAMILY_KEYS[:14]), range=None),
}


class TestFaultFreeIdentity:
    """``faults=None`` changes no pre-existing number, for any family.

    The fault-injection choke point sits inside every delivery on both
    substrates, so its no-op contract is the whole subsystem's licence
    to exist: a cluster that never opted in must be byte-identical to
    one built before the subsystem landed.  The sweep pins per-operation
    stats, batch aggregates, round reports, deployment snapshots and the
    (all-zero) fault tallies across the no-kwarg and explicit
    ``faults=None`` spellings.
    """

    @staticmethod
    def _run_batch(name, **extra):
        scenario = FAMILY_SCENARIOS[name]
        cluster = Cluster(
            structure=name,
            items=scenario["items"],
            seed=21,
            **scenario["kwargs"],
            **extra,
        )
        operations = [("search", payload) for payload in scenario["searches"]]
        if scenario["range"] is not None:
            operations.append(("range", scenario["range"]))
        report = cluster.batch(operations)
        return cluster, report

    @pytest.mark.parametrize("name", sorted(FAMILY_SCENARIOS))
    def test_every_family_matches_implicit_default(self, name):
        implicit_cluster, implicit = self._run_batch(name)
        explicit_cluster, explicit = self._run_batch(name, faults=None)

        assert explicit_cluster.faults is None
        assert len(explicit) == len(implicit)
        for left, right in zip(implicit, explicit):
            assert left.status == right.status
            assert left.messages == right.messages
            assert left.rounds == right.rounds
            assert left.retries == right.retries
            assert left.value == right.value
        assert explicit.summary() == implicit.summary()
        assert explicit.rounds == implicit.rounds
        assert explicit.messages == implicit.messages
        assert explicit_cluster.stats().as_dict() == implicit_cluster.stats().as_dict()
        log = explicit_cluster.network.message_log
        assert (log.dropped, log.duplicated, log.delayed) == (0, 0, 0)
        # No fault plan ⇒ the new summary keys never materialise.
        assert "timed_out" not in implicit.summary()
        assert "gave_up" not in implicit.summary()


class TestFlatTopologyIdentity:
    """An explicit ``FlatTopology`` changes no pre-refactor counter.

    The topology seam's contract is the fault seam's: invisible until
    you opt in.  A cluster constructed with
    ``topology="flat"`` must reproduce every observable number of a
    cluster constructed without a topology — per-operation stats, batch
    aggregates, congestion reports, lifetime deployment snapshots — for
    every registered family; the only additions are the weighted
    observables (``latency`` equal to the message count, per-link and
    per-cluster aggregates with all weights 1).
    """

    @staticmethod
    def _run_batch(name, topology):
        scenario = FAMILY_SCENARIOS[name]
        cluster = Cluster(
            structure=name,
            items=scenario["items"],
            seed=21,
            topology=topology,
            **scenario["kwargs"],
        )
        operations = [("search", payload) for payload in scenario["searches"]]
        if scenario["range"] is not None:
            operations.append(("range", scenario["range"]))
        report = cluster.batch(operations)
        return cluster, report

    @pytest.mark.parametrize("name", sorted(FAMILY_SCENARIOS))
    def test_every_family_matches_implicit_default(self, name):
        default_cluster, default = self._run_batch(name, None)
        flat_cluster, flat = self._run_batch(name, "flat")

        assert len(default) == len(flat)
        for left, right in zip(default, flat):
            assert left.status == right.status
            assert left.messages == right.messages
            assert left.rounds == right.rounds
            assert left.retries == right.retries
            assert left.value == right.value
            # The weighted dimension: absent by default, messages×1 flat.
            assert left.latency == 0
            assert right.latency == right.messages

        assert default.rounds == flat.rounds
        assert default.messages == flat.messages
        assert default.max_round_congestion == flat.max_round_congestion
        assert default.latency == 0
        assert flat.latency == flat.messages

        default_congestion = default.round_congestion().as_dict()
        flat_congestion = flat.round_congestion().as_dict()
        # Every pre-refactor congestion field is identical; the explicit
        # topology only *adds* the weighted keys.
        assert {
            key: value
            for key, value in flat_congestion.items()
            if key in default_congestion
        } == default_congestion
        assert flat_congestion["weight"] == flat_congestion["messages"]

        assert default_cluster.stats().as_dict() == flat_cluster.stats().as_dict()


def _run_family_batch(name, **extra):
    """Build ``name``'s scenario cluster and run its read-only batch."""
    scenario = FAMILY_SCENARIOS[name]
    cluster = Cluster(
        structure=name,
        items=scenario["items"],
        seed=21,
        **scenario["kwargs"],
        **extra,
    )
    operations = [("search", payload) for payload in scenario["searches"]]
    if scenario["range"] is not None:
        operations.append(("range", scenario["range"]))
    return cluster, operations, cluster.batch(operations)


def _handle_fields(report):
    return [
        (
            handle.status,
            handle.kind,
            handle.origin_host,
            handle.messages,
            handle.rounds,
            handle.retries,
            handle.latency,
            handle.value,
            type(handle.error),
        )
        for handle in report
    ]


def _round_fields(report):
    return [
        (
            round_report.index,
            round_report.delivered,
            round_report.max_load,
            round_report.max_load_host,
        )
        for round_report in report.raw.round_reports
    ]


class TestSerialBatchContract:
    """The one batch executor's observable numbers, for every family.

    ``Cluster.batch`` runs through a single :class:`BatchExecutor`; the
    sweeps below pin that its per-operation stats, batch aggregates,
    per-round congestion and lifetime deployment snapshots do not depend
    on whether the walks read their own host's addresses in place, are
    reproducible from the seed alone, and that a batch answers each read
    exactly as the same read issued on its own from the same origin host
    does.
    """

    @pytest.mark.parametrize("name", sorted(FAMILY_SCENARIOS))
    def test_every_family_matches_driver_reads(self, name, monkeypatch):
        local_cluster, _, local = _run_family_batch(name)
        with monkeypatch.context() as patch:
            driver_reads(patch)
            driven_cluster, _, driven = _run_family_batch(name)

        assert _handle_fields(local) == _handle_fields(driven)
        assert local.rounds == driven.rounds
        assert local.messages == driven.messages
        assert local.max_round_congestion == driven.max_round_congestion
        assert local.summary() == driven.summary()
        assert local.round_congestion().as_dict() == driven.round_congestion().as_dict()
        assert _round_fields(local) == _round_fields(driven)
        assert local_cluster.stats().as_dict() == driven_cluster.stats().as_dict()

    @pytest.mark.parametrize("name", sorted(FAMILY_SCENARIOS))
    def test_every_family_is_reproducible_from_the_seed(self, name):
        first_cluster, _, first = _run_family_batch(name)
        second_cluster, _, second = _run_family_batch(name)

        assert all(handle.ok for handle in first)
        assert _handle_fields(first) == _handle_fields(second)
        assert first.summary() == second.summary()
        assert _round_fields(first) == _round_fields(second)
        assert first_cluster.stats().as_dict() == second_cluster.stats().as_dict()

    @pytest.mark.parametrize("name", sorted(FAMILY_SCENARIOS))
    def test_every_family_batch_values_match_single_calls(self, name):
        batch_cluster, operations, batched = _run_family_batch(name)
        scenario = FAMILY_SCENARIOS[name]
        single_cluster = Cluster(
            structure=name, items=scenario["items"], seed=21, **scenario["kwargs"]
        )
        singles = [
            (single_cluster.get if kind == "search" else single_cluster.range)(
                payload, origin_host=handle.origin_host
            )
            for (kind, payload), handle in zip(operations, batched)
        ]

        assert isinstance(batch_cluster.executor, BatchExecutor)
        assert len(batched) == len(singles)
        for batched_handle, single_handle in zip(batched, singles):
            assert batched_handle.status == single_handle.status == "ok"
            assert batched_handle.kind == single_handle.kind
            assert batched_handle.value == single_handle.value

    @pytest.mark.parametrize("topology", ["clustered", "geo"])
    def test_weighted_topology_matches_driver_reads(self, topology, monkeypatch):
        local_cluster, _, local = _run_family_batch("skipweb1d", topology=topology)
        with monkeypatch.context() as patch:
            driver_reads(patch)
            driven_cluster, _, driven = _run_family_batch("skipweb1d", topology=topology)

        assert _handle_fields(local) == _handle_fields(driven)
        assert local.latency == driven.latency > local.messages
        assert local.round_congestion().as_dict() == driven.round_congestion().as_dict()
        assert (
            local_cluster.network.topology_congestion_summary()
            == driven_cluster.network.topology_congestion_summary()
        )

    def test_mixed_batch_applies_its_updates(self):
        cluster = Cluster(structure="skipweb1d", items=_FAMILY_KEYS, seed=21)
        report = cluster.batch([("insert", 77.5), ("search", 123.0)])
        assert report[0].ok and report[1].ok
        assert 77.5 in cluster.structure.keys
        assert cluster.get(77.5).value.answer.exact
        assert cluster.delete(77.5).ok
        assert 77.5 not in cluster.structure.keys
        cluster.structure.validate()

    def test_failed_host_batch_answers_every_operation(self):
        cluster = Cluster(structure="skipweb1d", items=_FAMILY_KEYS, seed=21)
        origins = set(cluster.structure.origin_hosts()[:1])
        victim = next(host for host in cluster.network.alive_host_ids() if host not in origins)
        cluster.network.fail_host(victim)
        report = cluster.batch([("search", payload) for payload in uniform_keys(6, seed=24)])
        assert len(report) == 6
        assert all(handle.status in {"ok", "failed"} for handle in report)
        assert victim not in cluster.network.alive_host_ids()

    def test_cluster_rejects_the_retired_workers_keyword(self):
        # The executor has no worker pool: the old keyword reaches the
        # structure factory and is rejected like any unknown option.
        with pytest.raises(StructureError, match="workers"):
            Cluster(structure="skipweb1d", items=_FAMILY_KEYS, seed=21, workers=2)
