"""Tests for ``repro.storage``: journaling, snapshots, recovery, corruption.

The headline guarantee — a run killed mid-flight recovers to state
byte-identical to an uninterrupted run — is pinned here for **all 12**
registered structure families (the recovery-gate CI job enforces the
same property end-to-end through the CLI with a real SIGKILL).
"""

import copyreg
import io
import json
import os
import pickle
import random
import sqlite3

import pytest

from repro.api import Cluster, available_structures
from repro.core.skipweb import SkipWebRecord
from repro.errors import StorageError
from repro.net.network import Network, ledger_mode
from repro.onedim import SkipWeb1D
from repro.spatial import HyperCube
from repro.storage import (
    FORMAT_VERSION,
    JsonlStorage,
    LogRecord,
    SqliteStorage,
    committed_prefix,
    content_digest,
    decode_record,
    encode_record,
    open_storage,
)
from repro.storage import snapshot as snapshot_module
from repro.storage.workload import (
    _run_step,
    report_json,
    resume_workload,
    run_workload,
    workload_specs,
)
from repro.workloads import random_strings, uniform_keys, uniform_points

SEED = 11
KEYS = uniform_keys(24, seed=3)


def _partial_workload(structure, store, crash_after, steps, snapshot_every=0):
    """Run the first ``crash_after`` workload steps, then abandon the cluster.

    Mirrors ``run_workload`` up to the crash point: no ``close()``, no
    ``save()`` — exactly the state a SIGKILL leaves behind, since every
    committed record was already flushed to the log.
    """
    spec = workload_specs()[structure]
    items = spec.items(SEED)
    with ledger_mode():
        cluster = Cluster(
            structure=structure,
            items=items,
            seed=SEED,
            storage=store,
            snapshot_every=snapshot_every,
            **spec.kwargs(),
        )
    cluster._workload_items = items
    cluster._durability.record_note(
        {"workload": {"structure": structure, "steps": steps, "seed": SEED}}
    )
    for step in range(crash_after):
        _run_step(cluster, spec, SEED, step)
    return cluster  # abandoned, deliberately not closed


def _journaled_cluster(tmp_path, name="log.jsonl", **extra):
    store = str(tmp_path / name)
    return Cluster(structure="skipweb1d", items=KEYS, seed=3, storage=store, **extra), store


class TestKillAndRecoverEveryFamily:
    def test_workload_covers_every_registered_family(self):
        assert sorted(workload_specs()) == available_structures()

    @pytest.mark.parametrize("structure", sorted(workload_specs()))
    def test_crash_and_recover_is_byte_identical(self, structure, tmp_path):
        steps, crash_after = 5, 2
        baseline = report_json(
            run_workload(
                structure, steps=steps, seed=SEED, storage=str(tmp_path / "a.jsonl")
            )
        )
        store = str(tmp_path / "b.jsonl")
        _partial_workload(structure, store, crash_after, steps)
        resumed = report_json(resume_workload(store))
        assert resumed == baseline

    def test_crash_and_recover_sqlite_with_snapshots(self, tmp_path):
        steps = 6
        baseline = report_json(
            run_workload(
                "skipgraph", steps=steps, seed=SEED, storage=str(tmp_path / "a.db")
            )
        )
        store = str(tmp_path / "b.db")
        _partial_workload("skipgraph", store, 4, steps, snapshot_every=2)
        resumed = report_json(resume_workload(store))
        assert resumed == baseline

    def test_crash_and_recover_jsonl_with_snapshots(self, tmp_path):
        steps = 6
        baseline = report_json(
            run_workload(
                "skipweb1d", steps=steps, seed=SEED, storage=str(tmp_path / "a.jsonl")
            )
        )
        store = str(tmp_path / "b.jsonl")
        _partial_workload("skipweb1d", store, 4, steps, snapshot_every=2)
        backend = open_storage(store)
        assert backend.latest_snapshot() is not None
        backend.close()
        resumed = report_json(resume_workload(store))
        assert resumed == baseline

    def test_recovery_after_torn_tail_trim(self, tmp_path):
        steps = 5
        baseline = report_json(
            run_workload(
                "skipweb1d", steps=steps, seed=SEED, storage=str(tmp_path / "a.jsonl")
            )
        )
        store = str(tmp_path / "b.jsonl")
        _partial_workload("skipweb1d", store, 2, steps)
        with open(os.path.join(store, "log.jsonl"), "a") as fh:
            fh.write('{"seq": 99, "kind": "bat')  # torn mid-record write
        with pytest.raises(StorageError, match="torn"):
            resume_workload(store)
        resumed = report_json(resume_workload(store, trim_torn_tail=True))
        assert resumed == baseline


class TestRetiredConfigKeys:
    """Stores written with the retired ``workers`` key still recover.

    Older builds recorded a ``workers`` count in the journal's create
    record and in every snapshot's config.  Recovery must ignore the key
    and land on the state a store without it recovers to.
    """

    @staticmethod
    def _run(store):
        cluster = Cluster(
            structure="skipweb1d", items=KEYS, seed=3, storage=store, snapshot_every=2
        )
        cluster.batch([("search", float(i)) for i in range(8)])
        cluster.batch([("insert", 1.5)])
        cluster.batch([("delete", KEYS[0])])
        cluster.close()

    @pytest.mark.parametrize("from_snapshot", [False, True], ids=["genesis", "snapshot"])
    def test_workers_key_is_ignored(self, tmp_path, monkeypatch, from_snapshot):
        plain, legacy = str(tmp_path / "plain.jsonl"), str(tmp_path / "legacy.jsonl")
        self._run(plain)
        create, config = Cluster._create_payload, Cluster._snapshot_config
        monkeypatch.setattr(
            Cluster, "_create_payload", lambda self, items: {**create(self, items), "workers": 2}
        )
        monkeypatch.setattr(
            Cluster, "_snapshot_config", lambda self: {**config(self), "workers": 2}
        )
        self._run(legacy)
        monkeypatch.undo()
        backend = open_storage(legacy)
        assert backend.records()[0].payload["workers"] == 2
        assert backend.latest_snapshot() is not None
        backend.close()
        if not from_snapshot:
            for store in (plain, legacy):
                for name in os.listdir(store):
                    if name != "log.jsonl":
                        os.remove(os.path.join(store, name))
        expected = Cluster.recover(plain)
        recovered = Cluster.recover(legacy)
        assert content_digest(recovered.structure) == content_digest(expected.structure)
        assert recovered.stats().as_dict() == expected.stats().as_dict()
        expected.close()
        recovered.close()


class TestSaveAndLoad:
    def test_save_then_load_restores_state(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.batch([("search", 123.0), ("insert", 1.5)])
        cluster.join_host()
        cluster.save()
        digest = content_digest(cluster.structure)
        stats = cluster.stats().as_dict()
        cluster.close()

        loaded = Cluster.load(store)
        assert content_digest(loaded.structure) == digest
        assert loaded.stats().as_dict() == stats
        assert loaded.storage is None  # detached: load() gives a read-only copy

    def test_load_refuses_stale_tail(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.save()
        cluster.batch([("search", 123.0)])  # journaled after the snapshot
        cluster.close()
        with pytest.raises(StorageError, match="recover"):
            Cluster.load(store)

    def test_recover_replays_tail_after_snapshot(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.batch([("search", 123.0)])
        cluster.save()
        cluster.batch([("insert", 1.5)])
        cluster.crash_host()
        digest = content_digest(cluster.structure)
        stats = cluster.stats().as_dict()
        applied = cluster.applied_operations
        cluster.close()

        recovered = Cluster.recover(store)
        assert content_digest(recovered.structure) == digest
        assert recovered.stats().as_dict() == stats
        assert recovered.applied_operations == applied
        recovered.close()

    def test_recover_from_genesis_without_snapshot(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.batch([("search", 123.0), ("range", (0.0, 500_000.0))])
        cluster.leave_host()
        digest = content_digest(cluster.structure)
        stats = cluster.stats().as_dict()
        cluster.close()

        recovered = Cluster.recover(store)
        assert content_digest(recovered.structure) == digest
        assert recovered.stats().as_dict() == stats
        recovered.close()

    def test_snapshot_cadence_writes_snapshots(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path, snapshot_every=2)
        for _ in range(3):
            cluster.batch([("search", 123.0)])
        cluster.close()
        backend = open_storage(store)
        manifest, _blob = backend.latest_snapshot()
        assert manifest["upto"] > 0
        backend.close()
        recovered = Cluster.recover(store)
        assert recovered.applied_operations == 4  # create + 3 batches
        recovered.close()


class _DataclassRecordPickler(pickle.Pickler):
    """Pickles skip-web records as they pickled while they were dataclasses.

    That state is the record's ``__dict__``: a list of (unit, address)
    hyperlinks, a dict of key -> (range, address) neighbours and the
    query walk's key -> range cache, which visited records carried.
    """

    def reducer_override(self, obj):
        if type(obj) is not SkipWebRecord:
            return NotImplemented
        table = obj.neighbors
        neighbors = {
            key: (rng, address) for key, rng, address in zip(table[::3], table[1::3], table[2::3])
        }
        cached = {key: rng for key, (rng, _address) in neighbors.items()}
        state = {
            "level": obj.level,
            "prefix": obj.prefix,
            "unit": obj.unit,
            "down_links": list(zip(obj.down_units, obj.down_addresses)),
            "neighbors": neighbors,
            "neighbor_ranges": cached if obj.level % 2 else None,
        }
        return copyreg.__newobj__, (SkipWebRecord,), state


class _DataclassRecordPickle:
    """The ``pickle`` module as the snapshot codec sees it, with old-style records."""

    HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL
    loads = staticmethod(pickle.loads)

    @staticmethod
    def dumps(obj, protocol=None):
        buffer = io.BytesIO()
        _DataclassRecordPickler(buffer, protocol).dump(obj)
        return buffer.getvalue()


def _legacy_inputs():
    cube = {"bounding_cube": HyperCube((0.0, 0.0), 1.0)}
    return {
        "skipweb1d": (uniform_keys(48, seed=5), {}, lambda rng: round(rng.uniform(0, 1e6), 6)),
        "skipquadtree": (
            uniform_points(48, seed=5),
            cube,
            lambda rng: (round(rng.random(), 9), round(rng.random(), 9)),
        ),
        "skiptrie": (
            random_strings(48, seed=5),
            {},
            lambda rng: "".join(rng.choice("abcdef") for _ in range(rng.randint(3, 8))),
        ),
    }


def _operation_stream(items, draw, seed, count):
    """A seeded search/insert/delete stream over the live item set."""
    rng = random.Random(seed)
    live = list(items)
    operations = []
    for _ in range(count):
        kind = rng.choice(("search", "search", "insert", "delete"))
        if kind == "insert":
            item = draw(rng)
            while item in live:
                item = draw(rng)
            live.append(item)
        elif kind == "delete":
            item = live.pop(rng.randrange(len(live)))
        else:
            item = draw(rng)
        operations.append((kind, item))
    return operations


def _run_stream(cluster, operations):
    calls = {"search": cluster.nearest, "insert": cluster.insert, "delete": cluster.delete}
    handles = [calls[kind](item) for kind, item in operations]
    return [(h.kind, h.status, h.value, h.messages, h.rounds) for h in handles]


def _records(cluster):
    web = cluster.structure.web
    fields = {}
    for entry, address in web._address_of.items():
        record = web.network.load(address, check_alive=False)
        fields[entry] = (
            address,
            record.unit,
            record.neighbors,
            record.down_units,
            record.down_addresses,
        )
    return fields


class TestDataclassRecordSnapshot:
    """A snapshot pickled while records were dataclasses still restores."""

    @pytest.mark.parametrize("family", ["skipquadtree", "skiptrie", "skipweb1d"])
    def test_restores_like_a_never_snapshotted_twin(self, family, tmp_path, monkeypatch):
        items, options, draw = _legacy_inputs()[family]
        store = str(tmp_path / "legacy.jsonl")
        legacy = Cluster(family, items, seed=SEED, storage=store, **options)
        twin = Cluster(family, items, seed=SEED, storage=str(tmp_path / "twin.jsonl"), **options)
        operations = _operation_stream(items, draw, seed=SEED, count=60)
        warm_up, stream = operations[:20], operations[20:]
        assert _run_stream(legacy, warm_up) == _run_stream(twin, warm_up)

        monkeypatch.setattr(snapshot_module, "pickle", _DataclassRecordPickle)
        legacy.save()
        monkeypatch.undo()
        backend = open_storage(store)
        _manifest, blob = backend.latest_snapshot()
        backend.close()
        assert b"down_links" in blob and b"neighbor_ranges" in blob
        legacy.close()

        restored = Cluster.recover(store)
        web = restored.structure.web
        record = web.network.load(next(iter(web._address_of.values())))
        assert type(record) is SkipWebRecord and not hasattr(record, "__dict__")
        assert _records(restored) == _records(twin)
        assert content_digest(restored.structure) == content_digest(twin.structure)
        assert _run_stream(restored, stream) == _run_stream(twin, stream)
        assert content_digest(restored.structure) == content_digest(twin.structure)
        restored.close()
        twin.close()


class TestCorruption:
    def _stored_run(self, tmp_path, name="log.jsonl"):
        cluster, store = _journaled_cluster(tmp_path, name=name)
        cluster.batch([("search", 123.0)])
        cluster.batch([("insert", 1.5)])
        cluster.close()
        return store

    def test_torn_tail_is_typed_and_trimmable(self, tmp_path):
        store = self._stored_run(tmp_path)
        log = os.path.join(store, "log.jsonl")
        with open(log, "a") as fh:
            fh.write('{"half a record')
        backend = open_storage(store)
        with pytest.raises(StorageError) as excinfo:
            backend.records()
        assert excinfo.value.torn_tail
        assert excinfo.value.recoverable_records is not None
        kept = backend.trim_torn_tail()
        assert kept == excinfo.value.recoverable_records
        assert len(backend.records()) == kept  # intact after the trim
        backend.close()

    def test_mid_log_corruption_is_never_trimmed(self, tmp_path):
        store = self._stored_run(tmp_path)
        log = os.path.join(store, "log.jsonl")
        lines = open(log).read().splitlines()
        record = json.loads(lines[1])
        record["crc"] = (record["crc"] + 1) % (1 << 32)
        lines[1] = json.dumps(record)
        with open(log, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        backend = open_storage(store)
        with pytest.raises(StorageError) as excinfo:
            backend.records()
        assert not excinfo.value.torn_tail
        with pytest.raises(StorageError):
            backend.trim_torn_tail()  # corruption, not a torn tail: refuse
        backend.close()
        with pytest.raises(StorageError):
            Cluster.recover(store, trim_torn_tail=True)

    def test_record_version_skew_is_rejected(self, tmp_path):
        store = self._stored_run(tmp_path, name="log.db")
        conn = sqlite3.connect(store)
        with conn:
            conn.execute("UPDATE log SET v = ? WHERE seq = 0", (FORMAT_VERSION + 1,))
        conn.close()
        backend = SqliteStorage(store)
        with pytest.raises(StorageError, match="version"):
            backend.records()
        backend.close()

    def test_snapshot_version_skew_is_rejected(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.batch([("search", 123.0)])
        cluster.save()
        cluster.close()
        snapshots = [f for f in os.listdir(store) if f.startswith("snapshot-")]
        path = os.path.join(store, snapshots[0])
        document = json.loads(open(path).read())
        document["manifest"]["format_version"] = FORMAT_VERSION + 1
        with open(path, "w") as fh:
            fh.write(json.dumps(document))
        with pytest.raises(StorageError, match="version"):
            Cluster.recover(store)

    def test_snapshot_blob_corruption_is_rejected(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.batch([("search", 123.0)])
        cluster.save()
        cluster.close()
        snapshots = [f for f in os.listdir(store) if f.startswith("snapshot-")]
        path = os.path.join(store, snapshots[0])
        document = json.loads(open(path).read())
        document["blob"] = document["blob"][:-8] + "AAAAAAAA"
        with open(path, "w") as fh:
            fh.write(json.dumps(document))
        with pytest.raises(StorageError):
            Cluster.recover(store)
        # the log itself is intact: genesis replay still recovers the run
        recovered = Cluster.recover(store, from_snapshot=False)
        assert recovered.applied_operations == 2
        recovered.close()

    def test_empty_store_is_an_error(self, tmp_path):
        backend = JsonlStorage(str(tmp_path / "empty.jsonl"))
        backend.close()
        with pytest.raises(StorageError, match="no records|empty"):
            Cluster.recover(str(tmp_path / "empty.jsonl"))


class TestRecordCodec:
    def test_round_trip(self):
        original = LogRecord(3, "batch", {"operations": [("search", 1.0, None)]})
        record = decode_record(encode_record(original), expected_seq=3)
        assert record == original
        assert record.is_action

    def test_sequence_gap_is_detected(self):
        encoded = encode_record(LogRecord(3, "note", {}))
        with pytest.raises(StorageError, match="seq"):
            decode_record(encoded, expected_seq=4)

    def test_committed_prefix_strips_trailing_membership(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.join_host()
        cluster.close()
        backend = open_storage(store)
        records = backend.records()
        assert committed_prefix(records) == len(records)
        # a crash between the membership mutation and the action append
        # leaves a dangling membership record; the prefix excludes it
        backend2 = JsonlStorage(store)
        backend2.append("membership", {"event": "add", "host": 99})
        dangling = backend2.records()
        assert committed_prefix(dangling) == len(dangling) - 1
        backend2.close()
        backend.close()


class TestGuards:
    def test_storage_refuses_external_network(self):
        with pytest.raises(StorageError, match="network"):
            Cluster(
                structure="skipweb1d",
                items=KEYS,
                seed=3,
                storage="unused.jsonl",
                network=Network(),
            )

    def test_storage_refuses_external_churn_rng(self, tmp_path):
        import random

        with pytest.raises(StorageError, match="rng"):
            Cluster(
                structure="skipweb1d",
                items=KEYS,
                seed=3,
                storage=str(tmp_path / "log.jsonl"),
                churn_rng=random.Random(0),
            )

    def test_storage_refuses_route_cache(self, tmp_path):
        with pytest.raises(StorageError, match="route_cache"):
            Cluster(
                structure="skipweb1d",
                items=KEYS,
                seed=3,
                storage=str(tmp_path / "log.jsonl"),
                route_cache=True,
            )

    def test_configure_churn_refuses_rng_override(self, tmp_path):
        import random

        cluster, _store = _journaled_cluster(tmp_path)
        with pytest.raises(StorageError, match="rng"):
            cluster.configure_churn(rng=random.Random(0))
        cluster.close()

    def test_save_requires_storage(self):
        cluster = Cluster(structure="skipweb1d", items=KEYS, seed=3)
        with pytest.raises(StorageError, match="storage"):
            cluster.save()
        cluster.close()

    def test_save_refuses_open_measure_session(self, tmp_path):
        cluster, _store = _journaled_cluster(tmp_path)
        with cluster.session():
            with pytest.raises(StorageError, match="measure"):
                cluster.save()
        cluster.close()

    def test_kill_after_requires_storage(self):
        with pytest.raises(StorageError, match="storage"):
            run_workload("skipweb1d", steps=2, kill_after=1)

    def test_unknown_workload_structure(self):
        with pytest.raises(StorageError, match="btree"):
            run_workload("btree", steps=1)


class TestCommitHooks:
    def test_serial_executor_fires_once_per_batch(self):
        from repro.engine import BatchExecutor, Operation

        web = SkipWeb1D(uniform_keys(16, seed=1), seed=1)
        calls = []
        executor = BatchExecutor(web, on_commit=lambda ops, result: calls.append((ops, result)))
        operations = [Operation("search", 1.0), Operation("search", 2.0)]
        result = executor.run(operations)
        assert len(calls) == 1
        ops, committed = calls[0]
        assert ops == tuple(operations)
        assert committed is result

    def test_serial_executor_fires_for_read_only_and_mutating_batches(self):
        from repro.engine import BatchExecutor, Operation

        web = SkipWeb1D(uniform_keys(32, seed=2), seed=2)
        calls = []
        executor = BatchExecutor(web, on_commit=lambda ops, result: calls.append(ops))
        read_only = [Operation("search", float(i)) for i in range(8)]
        executor.run(read_only)
        assert calls == [tuple(read_only)]
        executor.run([Operation("insert", 1.5)])
        assert len(calls) == 2
        assert calls[1] == (Operation("insert", 1.5),)
        assert 1.5 in web.keys

    def test_cluster_executor_commits_to_the_journal(self, tmp_path):
        from repro.engine import BatchExecutor

        cluster, _ = _journaled_cluster(tmp_path)
        executor = cluster.executor
        assert type(executor) is BatchExecutor
        assert executor.on_commit == cluster._durability.on_batch_commit

    def test_recover_restores_digest_and_counted_traffic(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.batch([("search", float(i)) for i in range(8)])
        cluster.batch([("insert", 1.5)])
        digest = content_digest(cluster.structure)
        messages = cluster.network.total_messages
        cluster.close()
        recovered = Cluster.recover(store)
        assert content_digest(recovered.structure) == digest
        assert recovered.network.total_messages == messages
        recovered.close()

    def test_journaled_batches_replay_through_executor(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.batch([("search", 123.0), ("insert", 1.5), ("delete", KEYS[0])])
        digest = content_digest(cluster.structure)
        cluster.close()
        recovered = Cluster.recover(store)
        assert content_digest(recovered.structure) == digest
        recovered.close()
