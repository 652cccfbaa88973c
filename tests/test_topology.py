"""Tests for ``repro.net.topology``: the pluggable link-cost layer.

Covers the three layouts (flat, clustered, geo), the determinism
guarantees the durability layer leans on, the network-level
weighted aggregates, the façade threading (``Cluster(topology=...)``),
and the recovery guard that refuses a store whose snapshot and journal
disagree about the layout.
"""

from __future__ import annotations

import json
import os
import pickle
import random

import pytest

from repro.api import Cluster
from repro.errors import StorageError
from repro.net.network import Network, ledger_mode
from repro.net.topology import (
    TOPOLOGY_NAMES,
    ClusteredTopology,
    FlatTopology,
    GeoTopology,
    Topology,
    resolve_topology,
    topology_from_config,
)
from repro.storage import decode_record, encode_record, open_storage
from repro.workloads import (
    geo_placement,
    geo_region,
    geo_weight_matrix,
    uniform_keys,
)

KEYS = uniform_keys(32, seed=5)


class TestFlatTopology:
    def test_every_link_costs_one(self):
        flat = FlatTopology()
        assert flat.is_flat
        assert all(flat.link_cost(a, b) == 1 for a in range(4) for b in range(4))
        assert all(flat.cluster_of(host) == 0 for host in range(8))

    def test_describe_round_trips(self):
        flat = FlatTopology()
        assert flat.describe() == {"kind": "flat"}
        assert topology_from_config(flat.describe()) == flat


class TestClusteredTopology:
    def test_intra_vs_inter_cost(self):
        topology = ClusteredTopology(clusters=4, intra_cost=1, inter_cost=8)
        assert topology.link_cost(0, 4) == 1  # same rack: 0 % 4 == 4 % 4
        assert topology.link_cost(0, 1) == 8
        assert topology.cluster_of(7) == 3
        assert not topology.is_flat

    def test_cluster_assignment_is_churn_stable(self):
        topology = ClusteredTopology(clusters=3)
        before = [topology.cluster_of(host) for host in range(9)]
        topology.on_host_removed(4)
        topology.on_host_added(9)
        assert [topology.cluster_of(host) for host in range(9)] == before

    def test_describe_round_trips(self):
        topology = ClusteredTopology(clusters=5, intra_cost=2, inter_cost=11)
        rebuilt = topology_from_config(topology.describe())
        assert rebuilt == topology
        assert rebuilt.link_cost(1, 2) == 11

    def test_validation(self):
        with pytest.raises(ValueError, match="clusters"):
            ClusteredTopology(clusters=0)
        with pytest.raises(ValueError, match="link costs"):
            ClusteredTopology(intra_cost=0)


class TestGeoTopology:
    def test_placement_is_pure_and_join_order_independent(self):
        forward, backward = GeoTopology(regions=3, seed=7), GeoTopology(regions=3, seed=7)
        hosts = list(range(24))
        for host in hosts:
            forward.on_host_added(host)
        for host in reversed(hosts):
            backward.on_host_added(host)
        assert forward.placement(hosts) == backward.placement(hosts)
        assert forward.placement(hosts) == {
            host: geo_region(host, 3, seed=7) for host in hosts
        }

    def test_weights_are_seeded_and_symmetric(self):
        a, b = GeoTopology(regions=4, seed=3), GeoTopology(regions=4, seed=3)
        assert a.weights == b.weights
        assert a.weights != GeoTopology(regions=4, seed=4).weights
        for i in range(4):
            assert a.weights[i][i] == 1
            for j in range(4):
                assert a.weights[i][j] == a.weights[j][i] >= 1

    def test_membership_hooks_only_tidy_the_memo(self):
        topology = GeoTopology(regions=3, seed=1)
        region = topology.cluster_of(5)
        topology.on_host_removed(5)
        assert 5 not in topology._placement
        assert topology.cluster_of(5) == region  # re-derived, not re-rolled

    def test_describe_round_trips_with_weights(self):
        topology = GeoTopology(regions=3, seed=9)
        rebuilt = topology_from_config(topology.describe())
        assert rebuilt == topology
        assert rebuilt.weights == topology.weights
        assert rebuilt.link_cost(2, 6) == topology.link_cost(2, 6)

    def test_validation(self):
        with pytest.raises(ValueError, match="regions"):
            GeoTopology(regions=0)
        with pytest.raises(ValueError, match="matrix"):
            GeoTopology(regions=3, weights=[[1, 2], [2, 1]])
        with pytest.raises(ValueError, match=">= 1"):
            GeoTopology(regions=2, weights=[[1, 0], [0, 1]])


class TestWorkloadGenerators:
    def test_geo_region_is_deterministic_and_in_range(self):
        for host in range(40):
            region = geo_region(host, 5, seed=2)
            assert 0 <= region < 5
            assert region == geo_region(host, 5, seed=2)

    def test_geo_placement_matches_geo_region(self):
        hosts = list(range(12))
        assert geo_placement(hosts, 3, seed=4) == {
            host: geo_region(host, 3, seed=4) for host in hosts
        }

    def test_geo_weight_matrix_shape_and_bounds(self):
        matrix = geo_weight_matrix(4, seed=0, local_cost=1, min_cost=2, max_cost=12)
        assert len(matrix) == 4 and all(len(row) == 4 for row in matrix)
        for i in range(4):
            assert matrix[i][i] == 1
            for j in range(4):
                if i != j:
                    assert 2 <= matrix[i][j] == matrix[j][i] <= 12


class TestResolve:
    def test_names_and_passthrough(self):
        assert resolve_topology(None) is None
        flat = FlatTopology()
        assert resolve_topology(flat) is flat
        assert isinstance(resolve_topology("flat"), FlatTopology)
        assert isinstance(resolve_topology("clustered"), ClusteredTopology)
        geo = resolve_topology("geo", seed=13)
        assert isinstance(geo, GeoTopology) and geo.seed == 13
        assert set(TOPOLOGY_NAMES) == {"flat", "clustered", "geo"}

    def test_unknown_specs_are_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            resolve_topology("mesh")
        with pytest.raises(ValueError, match="unknown topology config"):
            topology_from_config({"kind": "mesh"})
        assert topology_from_config(None) is None


class TestNetworkIntegration:
    def test_default_network_has_no_topology_accounting(self):
        network = Network()
        network.add_hosts(3)
        assert network.topology is None
        assert network.link_cost(0, 1) == 1
        assert network.link_cost(1, 1) == 0  # self-sends are free
        with network.rounds():
            network.post(0, 1)
            network.run_round()
        assert network.topology_congestion_summary() is None

    def test_weighted_round_aggregates(self):
        network = Network()
        network.add_hosts(4)
        network.set_topology(ClusteredTopology(clusters=2, intra_cost=1, inter_cost=5))
        with network.rounds():
            network.post(0, 2)  # intra (0 % 2 == 2 % 2): cost 1
            network.post(0, 1)  # inter: cost 5
            network.run_round()
        summary = network.topology_congestion_summary()
        assert summary is not None
        assert summary["weight"] == 6
        assert summary["busiest_link"] == (0, 1)
        assert summary["busiest_link_load"] == 5
        report = network.round_reports[-1]
        assert report.weight == 6
        assert report.max_link == (0, 1)
        assert report.max_link_load == 5

    def test_set_topology_refused_mid_session(self):
        network = Network()
        network.add_hosts(2)
        with network.rounds():
            with pytest.raises(RuntimeError, match="round"):
                network.set_topology(FlatTopology())

    def test_topology_survives_pickling(self):
        network = Network()
        network.add_hosts(4)
        network.set_topology(GeoTopology(regions=2, seed=3))
        clone = pickle.loads(pickle.dumps(network))
        assert clone.topology == network.topology
        assert clone.link_cost(0, 3) == network.link_cost(0, 3)


class TestClusterThreading:
    @staticmethod
    def _batch(topology):
        with ledger_mode():
            cluster = Cluster(
                structure="skipweb1d", items=KEYS, seed=5, topology=topology
            )
            report = cluster.batch(
                [("search", payload) for payload in uniform_keys(12, seed=6)]
            )
        return cluster, report

    def test_flat_latency_equals_messages(self):
        cluster, report = self._batch("flat")
        assert isinstance(cluster.topology, FlatTopology)
        assert report.latency == report.messages > 0
        assert all(handle.latency == handle.messages for handle in report)
        congestion = report.round_congestion()
        assert congestion.topology_aware
        assert congestion.total_weight == congestion.total_messages

    def test_default_has_zero_latency_column(self):
        cluster, report = self._batch(None)
        assert cluster.topology is None
        assert report.latency == 0
        assert not report.round_congestion().topology_aware

    def test_clustered_and_geo_runs_are_deterministic(self):
        for name in ("clustered", "geo"):
            first = self._batch(name)[1]
            second = self._batch(name)[1]
            assert first.latency == second.latency > first.messages
            assert (
                first.round_congestion().as_dict()
                == second.round_congestion().as_dict()
            )
            assert [handle.latency for handle in first] == [
                handle.latency for handle in second
            ]

    def test_construction_traffic_is_not_weighted(self):
        # The topology attaches after construction, so only operation
        # traffic is priced: a fresh clustered deployment starts at the
        # same lifetime counters as a flat one.
        clustered, _ = self._batch("clustered")
        flat, _ = self._batch("flat")
        assert clustered.stats().construction_messages == flat.stats().construction_messages


class TestRecoveryGuard:
    @staticmethod
    def _journaled(tmp_path, topology, name="store.jsonl"):
        store = str(tmp_path / name)
        cluster = Cluster(
            structure="skipweb1d",
            items=KEYS,
            seed=5,
            storage=store,
            snapshot_every=1,
            topology=topology,
        )
        cluster.batch([("search", 123.0)])
        cluster.save()
        cluster.close()
        return store

    def test_recover_restores_the_topology(self, tmp_path):
        store = self._journaled(tmp_path, ClusteredTopology(clusters=2, inter_cost=5))
        recovered = Cluster.recover(store)
        assert recovered.topology == ClusteredTopology(clusters=2, inter_cost=5)
        assert recovered.network.topology == recovered.topology
        recovered.close()

    def test_recover_refuses_mismatched_create_record(self, tmp_path):
        store = self._journaled(tmp_path, ClusteredTopology(clusters=2, inter_cost=5))
        # Rewrite the journal's create record to claim a different
        # layout (re-encoded, so its checksum stays valid): the snapshot
        # and the journal now disagree.
        log = os.path.join(store, "log.jsonl")
        with open(log) as fh:
            lines = fh.readlines()
        record = decode_record(json.loads(lines[0]), expected_seq=0)
        assert record.kind == "create"
        payload = dict(record.payload)
        payload["topology"] = GeoTopology(regions=2, seed=1).describe()
        tampered = type(record)(seq=0, kind="create", payload=payload)
        lines[0] = json.dumps(encode_record(tampered)) + "\n"
        with open(log, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(StorageError, match="topology mismatch"):
            Cluster.recover(store)

    def test_restore_refuses_tampered_fingerprint(self, tmp_path):
        store = self._journaled(tmp_path, ClusteredTopology(clusters=2, inter_cost=5))
        backend = open_storage(store)
        manifest, blob = backend.latest_snapshot()
        manifest["fingerprint"]["topology"] = FlatTopology().describe()
        backend.write_snapshot(manifest, blob)
        with pytest.raises(StorageError, match="fingerprint"):
            Cluster.recover(store)

    def test_flat_default_snapshots_omit_the_topology_key(self, tmp_path):
        store = self._journaled(tmp_path, None, name="flat.jsonl")
        manifest, _blob = open_storage(store).latest_snapshot()
        assert "topology" not in manifest["fingerprint"]
        recovered = Cluster.recover(store)
        assert recovered.topology is None
        recovered.close()


def test_random_host_pairs_agree_with_link_cost():
    """Property sweep: network.link_cost always defers to the topology."""
    rng = random.Random(0)
    for topology in (
        FlatTopology(),
        ClusteredTopology(clusters=3, inter_cost=4),
        GeoTopology(regions=3, seed=2),
    ):
        network = Network()
        network.add_hosts(10)
        network.set_topology(topology)
        for _ in range(50):
            src, dst = rng.randrange(10), rng.randrange(10)
            expected = 0 if src == dst else topology.link_cost(src, dst)
            assert network.link_cost(src, dst) == expected
