"""Tests for the ``repro.api`` façade: registry, Cluster, handles."""

import random
import warnings

import pytest

from repro.api import (
    BatchReport,
    Cluster,
    Operation,
    available_structures,
    resolve_structure,
    structure_specs,
)
from repro.baselines import ChordDHT, DistributedOrderedStructure, SkipGraph
from repro.engine import BatchExecutor, DistributedStructure
from repro.errors import StructureError
from repro.onedim import BucketSkipWeb1D, SkipWeb1D
from repro.planar import SkipTrapezoidWeb
from repro.spatial import HyperCube, SkipQuadtreeWeb
from repro.strings import DNA, SkipTrieWeb
from repro.workloads import dna_reads, non_crossing_segments, uniform_keys, uniform_points

#: Every registered family with (constructor items, extra Cluster kwargs,
#: a search payload, a range payload, and a fresh item to insert).
KEYS = uniform_keys(24, seed=3)
POINTS = uniform_points(16, dimension=2, seed=3)
READS = dna_reads(16, seed=3)
SEGMENTS = non_crossing_segments(10, seed=3)

SCENARIOS = {
    "skipweb1d": dict(items=KEYS, kwargs={}, search=123.0, range=(0.0, 500_000.0), insert=1.5),
    "bucket-skipweb1d": dict(
        items=KEYS, kwargs={"memory_size": 16}, search=123.0, range=(0.0, 500_000.0), insert=1.5
    ),
    "skipquadtree": dict(
        items=POINTS,
        kwargs={"bounding_cube": HyperCube((0.0, 0.0), 1.0)},
        search=(0.5, 0.5),
        range=None,
        insert=(0.123, 0.456),
    ),
    "skiptrie": dict(
        items=READS, kwargs={"alphabet": DNA}, search=READS[0][:6], range=None, insert=None
    ),
    "skiptrapezoid": dict(
        items=SEGMENTS,
        kwargs={},
        search=(SEGMENTS[0].left[0] + 0.5, SEGMENTS[0].left[1] + 0.5),
        range=None,
        insert=None,
    ),
    "skipgraph": dict(items=KEYS, kwargs={}, search=123.0, range=(0.0, 500_000.0), insert=1.5),
    "skipnet": dict(items=KEYS, kwargs={}, search=123.0, range=None, insert=None),
    "non-skipgraph": dict(items=KEYS, kwargs={}, search=123.0, range=None, insert=None),
    "family-tree": dict(items=KEYS, kwargs={}, search=123.0, range=None, insert=None),
    "det-skipnet": dict(items=KEYS, kwargs={}, search=123.0, range=None, insert=None),
    "bucket-skipgraph": dict(items=KEYS, kwargs={}, search=123.0, range=None, insert=None),
    "chord": dict(items=KEYS, kwargs={}, search=KEYS[1], range=None, insert=None),
}


def _cluster(name, **extra):
    scenario = SCENARIOS[name]
    kwargs = dict(scenario["kwargs"])
    kwargs.update(extra)
    return Cluster(structure=name, items=scenario["items"], seed=3, **kwargs)


class TestRegistry:
    def test_every_scenario_name_is_registered(self):
        assert sorted(SCENARIOS) == available_structures()

    def test_expected_classes(self):
        expected = {
            "skipweb1d": SkipWeb1D,
            "bucket-skipweb1d": BucketSkipWeb1D,
            "skipquadtree": SkipQuadtreeWeb,
            "skiptrie": SkipTrieWeb,
            "skiptrapezoid": SkipTrapezoidWeb,
            "skipgraph": SkipGraph,
            "chord": ChordDHT,
        }
        for name, cls in expected.items():
            assert resolve_structure(name).cls is cls

    def test_every_baseline_overlay_is_registered(self):
        """Every concrete DistributedOrderedStructure resolves by name."""
        registered = {spec.cls for spec in structure_specs().values()}
        for cls in DistributedOrderedStructure.__subclasses__():
            assert cls in registered, f"{cls.__name__} missing from the registry"

    def test_every_registered_structure_satisfies_the_protocol(self):
        for name in available_structures():
            cluster = _cluster(name)
            assert isinstance(cluster.structure, DistributedStructure), name

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(StructureError, match="skipweb1d"):
            resolve_structure("btree")

    def test_bucket_requires_memory_size(self):
        with pytest.raises(StructureError, match="memory_size"):
            Cluster(structure="bucket-skipweb1d", items=KEYS)


class TestClusterOperations:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_batch_bulk_load_and_churn_for_every_family(self, name):
        scenario = SCENARIOS[name]
        cluster = _cluster(name)
        spec = cluster.spec

        # batch: a search plus (when defined) a range, across the family
        operations = [("search", scenario["search"])]
        if scenario["range"] is not None:
            operations.append(("range", scenario["range"]))
        report = cluster.batch(operations)
        assert isinstance(report, BatchReport)
        assert len(report) == len(operations)
        assert report[0].ok
        for handle in report:
            if handle.kind == "range" and not spec.supports_range:
                assert handle.unsupported
            else:
                assert handle.ok, f"{name}: {handle.error!r}"

        # churn lifecycle: join then crash, queries keep completing
        rng = random.Random(7)
        cluster.configure_churn(rng=rng)
        alive_before = len(cluster.network.alive_host_ids())
        join = cluster.join_host()
        assert join.kind == "join"
        # At least the newcomer joined (rebalancing may register extras).
        assert len(cluster.network.alive_host_ids()) > alive_before
        crash = cluster.crash_host()
        assert crash.kind == "crash"
        assert [event.kind for event in cluster.churn_events] == ["join", "crash"]
        after = cluster.batch([("search", scenario["search"])])
        assert after[0].ok

        # bulk_load: the build_from_sorted path charges construction traffic
        empty = Cluster(structure=name, seed=3, **scenario["kwargs"])
        items = scenario["items"]
        if name in ("skipweb1d", "bucket-skipweb1d", "chord") or issubclass(
            spec.cls, DistributedOrderedStructure
        ):
            items = sorted(set(float(item) for item in items))
        loaded = empty.bulk_load(items)
        assert loaded.ok
        assert loaded.messages == empty.stats().construction_messages
        assert loaded.messages > 0

    def test_single_operations(self):
        cluster = _cluster("skipweb1d")
        found = cluster.nearest(KEYS[2])
        assert found.ok and found.value.answer.exact
        inserted = cluster.insert(17.5)
        assert inserted.ok
        window = cluster.range((0.0, 1_000_000.0))
        assert window.ok and window.value.count == len(set(KEYS)) + 1
        removed = cluster.delete(17.5)
        assert removed.ok

    @pytest.mark.parametrize("knob", ["mode", "route_cache"])
    def test_retired_knobs_are_rejected(self, knob):
        with pytest.raises(StructureError, match=f"unexpected keyword argument '{knob}'"):
            _cluster("skipweb1d", **{knob: "immediate"})

    def test_alias_kinds_and_mappings(self):
        cluster = _cluster("skipweb1d")
        report = cluster.batch(
            [
                ("get", KEYS[0]),
                {"kind": "nearest", "payload": KEYS[1]},
                Operation("search", KEYS[2]),
            ]
        )
        assert [handle.status for handle in report] == ["ok", "ok", "ok"]

    def test_unknown_kind_raises_before_running(self):
        cluster = _cluster("skipweb1d")
        with pytest.raises(ValueError, match="unknown operation kind"):
            cluster.batch([("explode", 1.0)])

    def test_session_and_context_manager(self):
        with _cluster("skipweb1d") as cluster:
            with cluster.session() as session:
                session.batch(
                    [("search", float(q)) for q in range(1000, 900_000, 111_111)]
                )
                assert session.messages > 0
                assert session.by_kind().get("query") == session.messages
        with pytest.raises(StructureError, match="closed"):
            cluster.nearest(1.0)

    def test_stats_and_congestion_snapshots(self):
        cluster = _cluster("skipweb1d")
        cluster.batch([("search", float(q)) for q in range(1000, 900_000, 111_111)])
        stats = cluster.stats()
        assert stats.structure == "skipweb1d"
        assert stats.hosts == stats.alive_hosts == len(set(KEYS))
        assert stats.ground_set_size == len(set(KEYS))
        assert stats.messages_total == sum(stats.messages_by_kind.values()) > 0
        assert cluster.congestion().max_congestion >= 0
        assert cluster.round_congestion().max_host_round_load >= 0

    def test_empty_cluster_refuses_operations(self):
        cluster = Cluster(structure="skipweb1d")
        with pytest.raises(StructureError, match="no data"):
            cluster.nearest(1.0)
        cluster.bulk_load(sorted(set(float(k) for k in KEYS)))
        with pytest.raises(StructureError, match="already holds data"):
            cluster.bulk_load([1.0])

    def test_from_structure_wraps_existing_instance(self):
        web = SkipWeb1D(KEYS, seed=3)
        cluster = Cluster.from_structure(web)
        assert cluster.structure is web
        assert cluster.spec.name == "skipweb1d"
        assert cluster.nearest(KEYS[0]).ok
        with pytest.raises(StructureError, match="not a registered"):
            Cluster.from_structure(object())

    def test_from_structure_prefers_exact_class_over_base_family(self):
        from repro.baselines import SkipNet

        cluster = Cluster.from_structure(SkipNet(KEYS, seed=3))
        assert cluster.spec.name == "skipnet"
        assert cluster.stats().structure == "skipnet"

    def test_closed_cluster_keeps_churn_history(self):
        with _cluster("skipweb1d") as cluster:
            cluster.configure_churn(rng=random.Random(2))
            cluster.join_host()
            cluster.crash_host()
        assert [event.kind for event in cluster.churn_events] == ["join", "crash"]

    def test_failed_single_still_bills_messages(self):
        cluster = _cluster("skipweb1d")
        # Find a query whose walk crosses at least two hosts, so failing
        # its final host leaves charged traffic before the failure.
        probe = next(
            handle
            for handle in (
                cluster.nearest(float(query)) for query in range(0, 1_000_000, 50_000)
            )
            if handle.messages >= 2
        )
        # Fail the host the successful walk ended on; the repeated walk
        # (deterministic) charges every crossing before the dead one.
        cluster.network.fail_host(probe.value.hosts_visited[-1])
        failed = cluster.nearest(probe.payload, origin_host=probe.origin_host)
        assert failed.status == "failed"
        assert failed.messages == probe.messages - 1 > 0


class TestErrorTaxonomy:
    def test_chord_batch_translates_unsupported_instead_of_raising(self):
        cluster = _cluster("chord")
        report = cluster.batch(
            [
                ("range", (0.0, 100.0)),
                ("insert", 5.5),
                ("delete", KEYS[0]),
                ("search", KEYS[1]),
            ]
        )
        assert [handle.status for handle in report] == [
            "unsupported",
            "unsupported",
            "unsupported",
            "ok",
        ]
        assert report.unsupported == 3 and report.completed == 1
        with pytest.raises(Exception):
            report[0].result()

    def test_domain_failures_stay_per_handle(self):
        cluster = _cluster("skipweb1d")
        duplicate = float(KEYS[0])
        report = cluster.batch(
            [("insert", duplicate), ("delete", -1.0), ("search", KEYS[1])]
        )
        assert report[0].status == "failed"  # duplicate insert
        assert report[2].ok
        assert report.failed >= 1 and report.completed >= 1


class TestFacadeEqualsDirect:
    """Construction through the façade changes no message count."""

    def test_skipweb1d_single_queries_match(self):
        keys = uniform_keys(48, seed=11)
        direct = SkipWeb1D(keys, seed=11)
        cluster = Cluster(structure="skipweb1d", items=keys, seed=11)
        origins = direct.origin_hosts()
        for index, query in enumerate(uniform_keys(12, seed=13)):
            origin = origins[index % len(origins)]
            assert (
                direct.nearest(query, origin_host=origin).messages
                == cluster.nearest(query, origin_host=origin).result().messages
            )

    def test_skipweb1d_batch_matches_direct_executor(self):
        keys = uniform_keys(48, seed=11)
        direct = SkipWeb1D(keys, seed=11)
        cluster = Cluster(structure="skipweb1d", items=keys, seed=11)
        origins = direct.origin_hosts()
        operations = [
            Operation("search", query, origin_host=origins[index % len(origins)])
            for index, query in enumerate(uniform_keys(20, seed=13))
        ]
        expected = BatchExecutor(direct).run(operations)
        actual = cluster.batch(operations)
        assert actual.messages == expected.messages
        assert actual.rounds == expected.rounds
        assert actual.max_round_congestion == expected.max_round_congestion

    def test_chord_lookup_matches(self):
        keys = uniform_keys(32, seed=11)
        direct = ChordDHT(keys)
        cluster = Cluster(structure="chord", items=keys)
        origin = direct.origin_hosts()[0]
        for key in keys[:8]:
            assert (
                direct.lookup(key, origin_host=origin).messages
                == cluster.get(key, origin_host=origin).result().messages
            )


class TestNoDeprecations:
    def test_new_code_path_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cluster = _cluster("skipweb1d")
            assert cluster.nearest(KEYS[0]).ok


class TestAliveOrigins:
    """Default origins come from one cached list that every membership change reaches."""

    ITEMS = uniform_keys(24, seed=11)

    @staticmethod
    def _expected(cluster):
        alive = set(cluster.network.alive_host_ids())
        return [host for host in cluster.structure.origin_hosts() if host in alive]

    def _assert_origins(self, cluster, step):
        expected = self._expected(cluster)
        assert expected, step
        # A single is a batch of one: it starts at the first alive origin.
        assert cluster.get(self.ITEMS[0]).origin_host == expected[0], step
        count = len(expected) + 3  # wraps around the round-robin
        report = cluster.batch([("get", key) for key in (self.ITEMS * 2)[:count]])
        assert [handle.origin_host for handle in report] == [
            expected[index % len(expected)] for index in range(count)
        ], step
        # With a failed host unrepaired, walks through it fail — but none starts there.
        assert cluster.network.failed_hosts or all(handle.ok for handle in report), step

    def test_every_membership_change_is_seen_by_the_next_call(self):
        cluster = Cluster("skipweb1d", items=self.ITEMS, seed=3)
        self._assert_origins(cluster, "fresh")
        joined = cluster.join_host().host
        assert joined in self._expected(cluster)
        self._assert_origins(cluster, "join")
        first = self._expected(cluster)[0]
        cluster.leave_host(first)
        assert first not in self._expected(cluster)
        self._assert_origins(cluster, "leave")
        # A raw crash: the structure still names the dead host as an origin.
        dead = self._expected(cluster)[0]
        cluster.network.fail_host(dead)
        assert dead in cluster.structure.origin_hosts()
        self._assert_origins(cluster, "fail")
        cluster.recover_host(dead)
        assert self._expected(cluster)[0] == dead
        self._assert_origins(cluster, "recover")
        cluster.network.fail_host(dead)
        self._assert_origins(cluster, "fail again")
        cluster.repair([dead])  # no epoch bump: the declared list changes instead
        assert dead not in cluster.structure.origin_hosts()
        self._assert_origins(cluster, "repair")
        crashed = cluster.crash_host().host
        assert crashed not in self._expected(cluster)
        self._assert_origins(cluster, "crash")
        cluster.close()

    def test_an_update_that_moves_the_declared_origins_is_seen(self):
        # A skip graph originates where keys live: deleting a host's only
        # key takes it off that list with no membership change at all.
        cluster = Cluster("skipgraph", items=[1.0, 2.0, 3.0], seed=3)
        before = list(cluster.executor.alive_origins())
        epoch = cluster.network.membership_epoch
        assert cluster.delete(1.0).ok
        assert cluster.network.membership_epoch == epoch
        assert cluster.executor.alive_origins() == self._expected(cluster) != before
        assert cluster.get(2.0).origin_host == self._expected(cluster)[0]

    def test_a_quiet_cluster_scans_the_hosts_at_most_once(self, monkeypatch):
        cluster = Cluster("skipweb1d", items=self.ITEMS, seed=3)
        calls = []
        scan = cluster.network.alive_host_ids
        monkeypatch.setattr(
            cluster.network, "alive_host_ids", lambda: calls.append(1) or scan()
        )
        for index in range(200):
            assert cluster.get(self.ITEMS[index % len(self.ITEMS)]).ok
        assert len(calls) <= 1
