"""Same-key updates racing in one batch fail typed at their commit point.

An update checks its precondition when its walk starts, searches, and
then applies.  Two updates of one item in one batch can both pass the
first check before either applies, so each update checks again at its
commit point, after the search and before the apply, and the loser
fails with :class:`~repro.errors.UpdateError` like a sequential
duplicate does.  These tests turn the races into regression tests:

* ``[get x, insert x, insert x]`` returns one handle per operation, with
  exactly one insert failed typed, instead of raising out of the batch;
* ordered baselines keep one copy of the key (65 keys, not 66);
* the static Chord DHT reports every update ``unsupported``;
* a journaled cluster recovers to the state the live one holds, also
  when a bucket skip graph's walk loses the key it stands on;
* ``POST /batch`` answers 200 with the typed per-handle failure.

Each race asserts that the losing update paid for its search, i.e. that
it failed at the commit point and the race really happened.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.api import Cluster
from repro.errors import UpdateError
from repro.server import create_app
from repro.storage.snapshot import content_digest
from repro.workloads import random_strings, uniform_keys, uniform_points

KEYS = uniform_keys(64, seed=1)
ABSENT = 0.123456789

#: (items, a key that is absent, Cluster kwargs) per family.
SCENARIOS = {
    "skipweb1d": (KEYS, ABSENT, {}),
    "skipquadtree": (uniform_points(64, seed=1), (0.6229, 0.7418), {}),
    "skiptrie": (random_strings(64, seed=1), "zzqqxy", {}),
    "bucket-skipweb1d": (KEYS, ABSENT, {"memory_size": 16}),
    "skipgraph": (KEYS, ABSENT, {}),
    "skipnet": (KEYS, ABSENT, {}),
    "non-skipgraph": (KEYS, ABSENT, {}),
    "family-tree": (KEYS, ABSENT, {}),
    "det-skipnet": (KEYS, ABSENT, {}),
    "bucket-skipgraph": (KEYS, ABSENT, {}),
}
SKIP_WEBS = ["skipweb1d", "skipquadtree", "skiptrie", "bucket-skipweb1d"]
BASELINES = ["skipgraph", "skipnet", "non-skipgraph", "family-tree", "det-skipnet"]


def _cluster(name, **extra):
    items, _absent, kwargs = SCENARIOS[name]
    return Cluster(name, items=items, seed=1, **kwargs, **extra)


def _stored(cluster, name):
    """How many times the structure stores each key (ordered families)."""
    keys = list(cluster.structure.keys)
    return len(keys), len(set(keys))


def _assert_one_loser(handles, racing):
    """Exactly one of the ``racing`` handles failed, typed, after its search."""
    losers = [handles[index] for index in racing if not handles[index].ok]
    assert len(losers) == 1, [(handle.status, handle.error) for handle in handles]
    (loser,) = losers
    assert loser.status == "failed"
    assert isinstance(loser.error, UpdateError)
    assert loser.messages > 0  # it searched: the commit-point check caught it


class TestSkipWebRaces:
    @pytest.mark.parametrize("name", SKIP_WEBS)
    def test_get_insert_insert(self, name):
        cluster = _cluster(name)
        _items, absent, _kwargs = SCENARIOS[name]
        handles = list(cluster.batch([("get", absent), ("insert", absent), ("insert", absent)]))
        assert len(handles) == 3
        assert handles[0].ok
        _assert_one_loser(handles, (1, 2))
        assert cluster.get(absent).ok
        if name != "bucket-skipweb1d":
            cluster.structure.validate()

    @pytest.mark.parametrize("name", SKIP_WEBS)
    def test_delete_insert_insert(self, name):
        cluster = _cluster(name)
        _items, absent, _kwargs = SCENARIOS[name]
        handles = list(cluster.batch([("delete", absent), ("insert", absent), ("insert", absent)]))
        assert len(handles) == 3
        assert isinstance(handles[0].error, UpdateError)  # absent: fails up front
        assert handles[0].messages == 0
        _assert_one_loser(handles, (1, 2))

    @pytest.mark.parametrize("name", SKIP_WEBS)
    def test_get_delete_delete(self, name):
        cluster = _cluster(name)
        items, _absent, _kwargs = SCENARIOS[name]
        present = items[5]
        handles = list(cluster.batch([("get", present), ("delete", present), ("delete", present)]))
        assert handles[0].ok
        _assert_one_loser(handles, (1, 2))
        if name != "bucket-skipweb1d":
            cluster.structure.validate()

    def test_the_last_item_guard_holds_at_the_commit_point(self):
        cluster = Cluster("skipweb1d", items=[1.0, 2.0], seed=1)
        handles = list(cluster.batch([("get", 1.0), ("delete", 1.0), ("delete", 2.0)]))
        _assert_one_loser(handles, (1, 2))
        assert "last item" in str(next(h.error for h in handles if not h.ok))
        assert cluster.structure.ground_set_size == 1


class TestBaselinesKeepOneCopy:
    @pytest.mark.parametrize("name", BASELINES)
    def test_get_insert_insert(self, name):
        cluster = _cluster(name)
        handles = list(cluster.batch([("get", ABSENT), ("insert", ABSENT), ("insert", ABSENT)]))
        assert handles[0].ok
        _assert_one_loser(handles, (1, 2))
        assert _stored(cluster, name) == (65, 65)

    @pytest.mark.parametrize("name", BASELINES)
    def test_get_delete_delete(self, name):
        cluster = _cluster(name)
        handles = list(cluster.batch([("get", KEYS[5]), ("delete", KEYS[5]), ("delete", KEYS[5])]))
        _assert_one_loser(handles, (1, 2))
        assert _stored(cluster, name) == (63, 63)


class TestBucketSkipGraph:
    def test_get_insert_insert(self):
        cluster = _cluster("bucket-skipgraph")
        handles = list(cluster.batch([("get", ABSENT), ("insert", ABSENT), ("insert", ABSENT)]))
        assert handles[0].ok
        _assert_one_loser(handles, (1, 2))
        assert _stored(cluster, "bucket-skipgraph") == (65, 65)

    def test_get_delete_delete(self):
        # The winner's search never leaves its host, so it applies in its
        # first step and the loser fails its up-front check, unsearched.
        cluster = _cluster("bucket-skipgraph")
        handles = list(cluster.batch([("get", KEYS[5]), ("delete", KEYS[5]), ("delete", KEYS[5])]))
        assert [handle.status for handle in handles] == ["ok", "ok", "failed"]
        assert isinstance(handles[2].error, UpdateError)
        assert _stored(cluster, "bucket-skipgraph") == (63, 63)

    @pytest.mark.parametrize("journaled", [False, True], ids=["plain", "storage"])
    def test_delete_delete_when_the_key_goes_mid_walk(self, tmp_path, journaled):
        # The winner deletes the key the loser's walk stands on; the walk
        # retries and the loser fails its commit-point check, typed.
        keys = uniform_keys(32, seed=30)
        doomed = 641578.153775
        assert doomed in keys
        store = str(tmp_path / "race.jsonl") if journaled else None
        cluster = Cluster("bucket-skipgraph", items=keys, seed=30, storage=store)
        handles = list(cluster.batch([("delete", doomed), ("delete", doomed)]))
        _assert_one_loser(handles, (0, 1))
        assert _stored(cluster, "bucket-skipgraph") == (31, 31)
        if journaled:
            live = content_digest(cluster.structure)
            stats = cluster.stats().as_dict()
            cluster.close()
            recovered = Cluster.recover(store)
            assert content_digest(recovered.structure) == live
            assert recovered.stats().as_dict() == stats
            recovered.close()


class TestStaticChord:
    @pytest.mark.parametrize(
        "operations",
        [
            [("get", KEYS[1]), ("insert", ABSENT), ("insert", ABSENT)],
            [("get", KEYS[5]), ("delete", KEYS[5]), ("delete", KEYS[5])],
        ],
        ids=["insert", "delete"],
    )
    def test_every_update_is_unsupported(self, operations):
        cluster = Cluster("chord", items=KEYS, seed=1)
        handles = list(cluster.batch(operations))
        assert [handle.status for handle in handles] == ["ok", "unsupported", "unsupported"]
        assert all(isinstance(handle.error, UpdateError) for handle in handles[1:])
        assert _stored(cluster, "chord") == (64, 64)


class TestJournalAgrees:
    @pytest.mark.parametrize("name", ["skipweb1d", "skipquadtree", "skiptrie"])
    def test_recovery_matches_the_live_cluster(self, tmp_path, name):
        store = str(tmp_path / f"{name}.jsonl")
        _items, absent, _kwargs = SCENARIOS[name]
        cluster = _cluster(name, storage=store)
        handles = list(cluster.batch([("get", absent), ("insert", absent), ("insert", absent)]))
        _assert_one_loser(handles, (1, 2))
        live = content_digest(cluster.structure)
        stats = cluster.stats().as_dict()
        cluster.close()
        recovered = Cluster.recover(store)
        assert content_digest(recovered.structure) == live
        assert recovered.stats().as_dict() == stats
        recovered.close()


class TestServedBatch:
    def test_post_batch_answers_200_with_the_typed_failure(self):
        app = create_app(
            initial=[{"name": "default", "structure": "skipweb1d", "items": KEYS, "seed": 1}]
        )
        operations = [
            {"kind": "get", "payload": ABSENT},
            {"kind": "insert", "payload": ABSENT},
            {"kind": "insert", "payload": ABSENT},
        ]
        raw = json.dumps({"operations": operations}).encode("utf-8")
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/batch",
            "QUERY_STRING": "",
            "CONTENT_LENGTH": str(len(raw)),
            "wsgi.input": io.BytesIO(raw),
        }
        statuses = []
        body = json.loads(b"".join(app(environ, lambda status, headers: statuses.append(status))))
        app.manager.close()
        assert statuses[0].startswith("200")
        handles = body["handles"]
        assert [handle["status"] for handle in handles].count("failed") == 1
        (loser,) = [handle for handle in handles if handle["status"] == "failed"]
        assert loser["error"] == "UpdateError"
