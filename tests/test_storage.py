"""Tests for ``repro.storage``: journaling, snapshots, recovery, corruption.

The headline guarantee — a run killed mid-flight recovers to state
byte-identical to an uninterrupted run — is pinned here for **all 12**
registered structure families (the recovery-gate CI job enforces the
same property end-to-end through the CLI with a real SIGKILL).
"""

import base64
import fractions
import hashlib
import json
import math
import operator
import os
import pickle
import random
import sqlite3
import zlib

import pytest

from repro.api import Cluster, available_structures
from repro.core.ranges import Interval
from repro.errors import ChurnError, StorageError
from repro.net.network import Network
from repro.onedim import SkipWeb1D
from repro.planar.segments import Segment, bounding_box
from repro.planar.skip_trapezoid import Window
from repro.spatial import Box, HyperCube
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
from repro.strings.alphabet import Alphabet
from repro.strings.skip_trie import PrefixRange
from repro.storage.workload import (
    _run_step,
    report_json,
    resume_workload,
    run_workload,
    workload_specs,
)
from repro.workloads import random_strings, uniform_keys, uniform_points, x_disjoint_segments

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


def _draw_key(rng):
    return round(rng.uniform(0, 1e6), 6)


def _draw_point(rng):
    return (round(rng.random(), 9), round(rng.random(), 9))


def _draw_word(rng):
    return "".join(rng.choice("abcdef") for _ in range(rng.randint(3, 8)))


def _family_inputs():
    """(items, options, draw an item or None for search-only, draw a query) per skip-web family."""
    segments = x_disjoint_segments(24, seed=5)
    x_low, x_high, y_low, y_high = bounding_box(segments, margin=1.0)
    return {
        "skipweb1d": (uniform_keys(48, seed=5), {}, _draw_key, _draw_key),
        "skipquadtree": (
            uniform_points(48, seed=5),
            {"bounding_cube": HyperCube((0.0, 0.0), 1.0)},
            _draw_point,
            _draw_point,
        ),
        "skiptrie": (random_strings(48, seed=5), {}, _draw_word, _draw_word),
        "skiptrapezoid": (
            segments,
            {},
            None,
            lambda rng: (rng.uniform(x_low, x_high), rng.uniform(y_low, y_high)),
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
    web = cluster.structure
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


class TestSaveAndLoad:
    @pytest.mark.parametrize("family", ["skipquadtree", "skiptrapezoid", "skiptrie", "skipweb1d"])
    def test_recovers_like_a_never_snapshotted_twin(self, family, tmp_path):
        items, options, draw_item, draw_query = _family_inputs()[family]
        store = str(tmp_path / "saved.jsonl")
        saved = Cluster(family, items, seed=SEED, storage=store, **options)
        twin = Cluster(family, items, seed=SEED, **options)
        if draw_item is None:
            rng = random.Random(SEED)
            operations = [("search", draw_query(rng)) for _ in range(40)]
        else:
            operations = _operation_stream(items, draw_item, seed=SEED, count=40)
        warm_up, stream = operations[:20], operations[20:]
        assert _run_stream(saved, warm_up) == _run_stream(twin, warm_up)
        saved.save()
        saved.close()

        restored = Cluster.recover(store)
        assert type(restored.structure) is type(twin.structure)
        restored.structure.validate()
        assert _records(restored) == _records(twin)
        assert restored.stats().as_dict() == twin.stats().as_dict()
        assert _run_stream(restored, stream) == _run_stream(twin, stream)
        assert _records(restored) == _records(twin)
        assert content_digest(restored.structure) == content_digest(twin.structure)
        restored.close()
        twin.close()

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

    def test_close_stops_journaling_membership(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        network = cluster.network
        cluster.close()
        network.fail_host(2)  # after close: not part of the closed run
        backend = open_storage(store)
        assert [record.kind for record in backend.records()] == ["create"]
        backend.close()

        recovered = Cluster.recover(store)
        assert recovered.insert(1.5).ok
        digest = content_digest(recovered.structure)
        stats = recovered.stats().as_dict()
        recovered.close()
        again = Cluster.recover(store)
        assert content_digest(again.structure) == digest
        assert again.stats().as_dict() == stats
        again.close()

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


def _sealed(seq, kind, payload, version=FORMAT_VERSION):
    """An encoded log record around a raw JSON ``payload``, with a valid checksum."""
    text = json.dumps(payload, separators=(",", ":"))
    crc = zlib.crc32(f"{version}:{seq}:{kind}:{text}".encode("ascii"))
    return {"v": version, "seq": seq, "kind": kind, "payload": payload, "crc": crc}


class _RaisesWhenUnpickled:
    def __reduce__(self):
        return operator.truediv, (1, 0)


#: A version-1 payload: loading it would raise, so a refusal proves it came first.
_V1_PICKLE = pickle.dumps(_RaisesWhenUnpickled())
_V1_SKEW = rf"version 1\b.*version {FORMAT_VERSION}\b"


class TestRecordCodec:
    def test_round_trip(self):
        payload = {
            "operations": [["search", 1.0, None], ["insert", (0.25, 0.5), 3]],
            "nested": ((1, (2.5, ("x", ()))), [(), [()]]),
            "scalars": [math.inf, -math.inf, -0.0, 0, 1, True, None, "", "ünï"],
            "types": [
                Interval(-math.inf, math.inf),
                Box((0.0, 0.0), (1.0, 2.0)),
                HyperCube((0.0, -0.0), 1.0),
                Segment((0.0, 0.0), (1.0, 1.0)),
                Window(0.0, 1.0, -2.0, 2.0),
                PrefixRange("ab"),
                Alphabet("ab", ("a", "b")),
            ],
            "config": {"topology": None, "faults": {"rules": [{"window": [1, 2]}]}},
        }
        original = LogRecord(3, "batch", payload)
        written = json.loads(json.dumps(encode_record(original)))
        record = decode_record(written, expected_seq=3)
        assert record == original
        assert record.is_action
        decoded = record.payload
        assert [type(value) for value in decoded["scalars"]] == [
            type(value) for value in payload["scalars"]
        ]
        assert [type(value) for value in decoded["types"]] == [
            type(value) for value in payload["types"]
        ]
        assert math.copysign(1.0, decoded["scalars"][2]) == -1.0
        assert math.copysign(1.0, decoded["types"][2].lower[1]) == -1.0

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"x": {"$Sphere": [1.0]}}, "unknown tag"),
            ({"x": {"$Interval": [0.0]}}, "1 field"),
            ({"x": {"$Interval": [0.0, 1.0, 2.0]}}, "3 field"),
            ({"x": {"$Interval": [2.0, 1.0]}}, "invalid"),
            ({"x": {"$tuple": 5}}, "not a list"),
            ({"x": {"$tuple": [], "y": 1}}, "shares its object"),
            ({"$tuple": []}, "not an object"),
        ],
    )
    def test_malformed_tagged_payload_is_refused(self, payload, message):
        with pytest.raises(StorageError, match=message):
            decode_record(_sealed(0, "note", payload), expected_seq=0)

    def test_a_kind_that_is_not_a_string_is_refused(self):
        with pytest.raises(StorageError, match="not a string"):
            decode_record(_sealed(0, ["batch"], {}), expected_seq=0)

    def test_non_json_line_is_refused(self, tmp_path):
        backend = JsonlStorage(str(tmp_path / "log"))
        backend.append("note", {})
        backend.close()
        with open(os.path.join(backend.path, "log.jsonl"), "a") as fh:
            fh.write("not json\n" + json.dumps(_sealed(2, "note", {})) + "\n")
        with pytest.raises(StorageError, match="corruption.*unparseable") as excinfo:
            backend.records()
        assert excinfo.value.recoverable_records == 1

    def test_an_unjournalable_operation_is_refused_before_it_runs(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        with pytest.raises(StorageError, match="cannot journal"):
            cluster.batch([("search", 123.0), ("insert", fractions.Fraction(5, 2))])
        assert sorted(cluster.structure.keys) == sorted(KEYS)
        digest = content_digest(cluster.structure)
        stats = cluster.stats().as_dict()
        cluster.close()
        recovered = Cluster.recover(store)
        assert content_digest(recovered.structure) == digest
        assert recovered.stats().as_dict() == stats
        recovered.close()

    def test_an_unjournalable_bulk_load_is_refused_before_it_runs(self, tmp_path):
        cluster = Cluster("skipweb1d", seed=3, storage=str(tmp_path / "log.jsonl"))
        with pytest.raises(StorageError, match="cannot journal"):
            cluster.bulk_load([1.0, fractions.Fraction(5, 2), 3.0])
        assert cluster.bulk_load([1.0, 2.0, 3.0]).ok
        cluster.close()

    def test_unjournalable_values_are_refused_at_append(self, tmp_path):
        backend = JsonlStorage(str(tmp_path / "log"))
        for payload in ({"x": object()}, {"x": {1.5}}, {1: "key"}, {"$tuple": []}):
            with pytest.raises(StorageError, match="cannot journal"):
                backend.append("note", payload)
        with pytest.raises(StorageError, match="must be a dict"):
            backend.append("note", [1])
        assert backend.record_count == 0
        assert backend.records() == []
        backend.close()

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


def _edit_newest_manifest(store, edit):
    """Apply ``edit`` to the stored manifest of the newest snapshot, in place."""
    if store.endswith(".db"):
        conn = sqlite3.connect(store)
        with conn:
            upto, text = conn.execute(
                "SELECT upto, manifest FROM snapshots ORDER BY upto DESC LIMIT 1"
            ).fetchone()
            manifest = json.loads(text)
            edit(manifest)
            conn.execute(
                "UPDATE snapshots SET manifest = ? WHERE upto = ?", (json.dumps(manifest), upto)
            )
        conn.close()
        return
    path = os.path.join(store, max(f for f in os.listdir(store) if f.startswith("snapshot-")))
    with open(path) as fh:
        document = json.load(fh)
    edit(document["manifest"])
    with open(path, "w") as fh:
        json.dump(document, fh)


class TestVersionOneRefusal:
    """Stores written by format 1 are refused, typed, before any payload is decoded."""

    def test_v1_payload_would_raise_if_loaded(self):
        with pytest.raises(ZeroDivisionError):
            pickle.loads(_V1_PICKLE)

    @pytest.mark.parametrize("trim_torn_tail", [False, True])
    def test_v1_log_line_is_refused(self, tmp_path, trim_torn_tail):
        store = tmp_path / "v1"
        store.mkdir()
        blob = base64.b64encode(_V1_PICKLE).decode("ascii")
        line = {
            "v": 1,
            "seq": 0,
            "kind": "create",
            "payload": blob,
            "crc": zlib.crc32(f"1:0:create:{blob}".encode("ascii")),
        }
        (store / "log.jsonl").write_text(json.dumps(line) + "\n")
        with pytest.raises(StorageError, match=_V1_SKEW) as excinfo:
            Cluster.recover(str(store), trim_torn_tail=trim_torn_tail)
        assert not excinfo.value.torn_tail
        assert (store / "log.jsonl").read_text() == json.dumps(line) + "\n"

    def test_v1_sqlite_store_is_refused(self, tmp_path):
        store = str(tmp_path / "v1.sqlite")
        conn = sqlite3.connect(store)
        with conn:
            conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
            conn.execute(
                "CREATE TABLE log (seq INTEGER PRIMARY KEY, v INTEGER, kind TEXT, "
                "payload TEXT, crc INTEGER)"
            )
            conn.execute("INSERT INTO meta VALUES ('format_version', '1')")
            blob = base64.b64encode(_V1_PICKLE).decode("ascii")
            crc = zlib.crc32(f"1:0:create:{blob}".encode("ascii"))
            conn.execute("INSERT INTO log VALUES (0, 1, 'create', ?, ?)", (blob, crc))
        conn.close()
        with pytest.raises(StorageError, match=_V1_SKEW):
            Cluster.recover(store)

    def test_v1_snapshot_manifest_is_refused(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.close()
        manifest = {
            "format_version": 1,
            "structure": "skipweb1d",
            "upto": 1,
            "actions": 1,
            "blob_sha256": hashlib.sha256(_V1_PICKLE).hexdigest(),
            "fingerprint": {},
        }
        backend = open_storage(store)
        backend.write_snapshot(manifest, _V1_PICKLE)
        backend.close()
        with pytest.raises(StorageError, match=_V1_SKEW):
            Cluster.recover(store)
        with pytest.raises(StorageError, match=_V1_SKEW):
            Cluster.load(store)


class TestVersionTwoRefusal:
    """Stores written by format 2 are refused: their logs replay to another layout.

    Format 2 gave a new item to its search origin and put every planar
    unit with no anchor segment on host 0, so replaying its log with this
    build would rebuild the same items on other hosts, silently.
    """

    def test_v2_log_is_refused(self, tmp_path):
        store = tmp_path / "v2"
        store.mkdir()
        line = _sealed(0, "create", {"structure": "skipweb1d"}, version=2)
        (store / "log.jsonl").write_text(json.dumps(line) + "\n")
        with pytest.raises(StorageError, match=rf"version 2\b.*version {FORMAT_VERSION}\b"):
            Cluster.recover(str(store))


_DELETE = object()


class TestHostileStoreInput:
    """Malformed manifests and CRC-valid but malformed records fail typed."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("upto", _DELETE),
            ("upto", "x"),
            ("upto", -1),
            ("upto", True),
            ("actions", _DELETE),
            ("actions", 1.5),
            ("structure", _DELETE),
            ("structure", 7),
            ("blob_sha256", None),
            ("fingerprint", []),
        ],
    )
    @pytest.mark.parametrize("name", ["log.jsonl", "log.db"])
    def test_malformed_manifest_is_refused(self, tmp_path, name, field, value):
        cluster, store = _journaled_cluster(tmp_path, name=name)
        cluster.batch([("search", 123.0)])
        cluster.save()
        cluster.close()

        def edit(manifest):
            if value is _DELETE:
                del manifest[field]
            else:
                manifest[field] = value

        _edit_newest_manifest(store, edit)
        with pytest.raises(StorageError, match=field):
            Cluster.recover(store)
        with pytest.raises(StorageError, match=field):
            Cluster.load(store)

    @pytest.mark.parametrize(
        "kind, payload, field",
        [
            ("batch", {}, "operations"),
            ("batch", {"operations": 5}, "operations"),
            ("batch", {"operations": [["search"]]}, r"operations\[0\]"),
            ("batch", {"operations": [[1, 2.0, None]]}, r"operations\[0\]"),
            ("churn", {"host": None}, "action"),
            ("churn", {"action": "crash", "host": "h"}, "host"),
            ("repair", {"host_ids": None}, "host_ids"),
            ("membership", {"host": 3}, "event"),
            ("bulk_load", {"items": 5}, "items"),
            ("configure_churn", {"join_fraction": "x", "min_hosts": 2}, "join_fraction"),
        ],
    )
    @pytest.mark.parametrize("name", ["log.jsonl", "log.db"])
    def test_malformed_record_is_refused(self, tmp_path, name, kind, payload, field):
        cluster, store = _journaled_cluster(tmp_path, name=name)
        cluster.close()
        backend = open_storage(store)
        backend.append(kind, payload)
        backend.append("note", {})  # keeps a trailing membership record committed
        backend.close()
        with pytest.raises(StorageError, match=rf"log record 1 \('{kind}'\).*{field}"):
            Cluster.recover(store)

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("batch", {"operations": [["bogus", 1.0, None]]}),
            ("batch", {"operations": [["delete", {"a": 1}, None]]}),
            ("batch", {"operations": [["search", [1], None]]}),
        ],
    )
    def test_a_record_the_cluster_refuses_fails_typed(self, tmp_path, kind, payload):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.close()
        backend = open_storage(store)
        backend.append(kind, payload)
        backend.close()
        with pytest.raises(StorageError, match=rf"log record 1 \('{kind}'\) failed"):
            Cluster.recover(store)

    def test_a_create_record_the_cluster_refuses_fails_typed(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.close()
        backend = open_storage(store)
        (create,) = backend.records()
        backend.close()
        backend = open_storage(str(tmp_path / "bad.jsonl"))
        backend.append("create", {**create.payload, "topology": {"kind": "moebius"}})
        backend.close()
        with pytest.raises(StorageError, match=r"log record 0 \('create'\) failed"):
            Cluster.recover(str(tmp_path / "bad.jsonl"))

    def test_a_negative_snapshot_every_is_refused_typed(self, tmp_path):
        with pytest.raises(StorageError, match="snapshot_every"):
            _journaled_cluster(tmp_path, snapshot_every=-1)
        cluster, store = _journaled_cluster(tmp_path, name="good.jsonl")
        cluster.close()
        backend = open_storage(store)
        (create,) = backend.records()
        backend.close()
        backend = open_storage(str(tmp_path / "bad.jsonl"))
        backend.append("create", {**create.payload, "snapshot_every": -1})
        backend.close()
        with pytest.raises(StorageError, match="snapshot_every"):
            Cluster.recover(str(tmp_path / "bad.jsonl"))

    def test_malformed_create_record_is_refused(self, tmp_path):
        backend = open_storage(str(tmp_path / "log.jsonl"))
        backend.append("create", {"structure": "skipweb1d"})
        backend.close()
        with pytest.raises(StorageError, match=r"log record 0 \('create'\).*'items'"):
            Cluster.recover(str(tmp_path / "log.jsonl"))

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

    def test_configure_churn_refuses_rng_override(self, tmp_path):
        import random

        cluster, _store = _journaled_cluster(tmp_path)
        with pytest.raises(StorageError, match="rng"):
            cluster.configure_churn(rng=random.Random(0))
        cluster.close()

    @pytest.mark.parametrize("journaled", [False, True], ids=["plain", "storage"])
    @pytest.mark.parametrize(
        "settings",
        [{"min_hosts": -1}, {"min_hosts": 0}, {"join_fraction": 0.0}, {"join_fraction": 1.5}],
    )
    def test_configure_churn_refuses_bad_settings_before_journaling(
        self, tmp_path, journaled, settings
    ):
        if journaled:
            cluster, store = _journaled_cluster(tmp_path)
        else:
            cluster, store = Cluster(structure="skipweb1d", items=KEYS, seed=3), None
        with pytest.raises(ChurnError, match=next(iter(settings))):
            cluster.configure_churn(**settings)
        assert cluster.join_host().kind == "join"
        cluster.close()
        if store is not None:
            backend = open_storage(store)
            kinds = [record.kind for record in backend.records()]
            backend.close()
            assert "configure_churn" not in kinds and "churn" in kinds

    def test_constructor_refuses_bad_churn_settings(self):
        with pytest.raises(ChurnError, match="min_hosts"):
            Cluster(structure="skipweb1d", items=KEYS, seed=3, min_hosts=0)

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
