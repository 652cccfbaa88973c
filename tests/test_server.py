"""The HTTP/JSON service layer: routes, taxonomy, sessions, determinism.

Most tests drive the WSGI app directly (no sockets) through a small
in-process client; the end-to-end tests bind a real ``ThreadingWSGIServer``
on an OS-assigned port and run the seeded hammer against it twice,
asserting the byte-identity property the CI serve-gate enforces.
"""

import http.client
import io
import json
import socket
import sys
import threading
import time

import pytest

from repro.api.cluster import Cluster
from repro.api.results import OperationHandle
from repro.errors import ReproError, StructureError
from repro.server import (
    ERROR_HTTP,
    STATUS_HTTP,
    create_app,
    http_status_for,
    http_status_for_error,
    run_hammer,
    serve_background,
)
from repro.server import runner
from repro.server.dashboard import DASHBOARD_HTML, collect_stats
from repro.server.hammer import JsonClient
from repro.server.wsgi import MAX_BODY_BYTES
from repro.workloads import uniform_keys

KEYS = uniform_keys(48, seed=7)


def call(app, method, path, body=None, query="", raw=None, length=None):
    """Invoke the WSGI app in-process; returns (status, body, headers)."""
    if raw is None:
        raw = json.dumps(body).encode("utf-8") if body is not None else b""
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(raw)) if length is None else length,
        "wsgi.input": io.BytesIO(raw),
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split()[0])
        captured["headers"] = dict(headers)

    text = b"".join(app(environ, start_response)).decode("utf-8")
    if captured["headers"]["Content-Type"].startswith("application/json"):
        return captured["status"], json.loads(text), captured["headers"]
    return captured["status"], text, captured["headers"]


@pytest.fixture()
def app():
    application = create_app(
        initial=[
            {
                "name": "default",
                "structure": "skipweb1d",
                "items": list(KEYS),
                "seed": 7,
            }
        ]
    )
    yield application
    application.manager.close()


class TestRoutesAndTransport:
    def test_healthz(self, app):
        code, body, _ = call(app, "GET", "/healthz")
        assert code == 200
        assert body == {"status": "ok", "clusters": 1}

    def test_dashboard_pages_are_self_contained_html(self, app):
        for path in ("/", "/dashboard"):
            code, text, headers = call(app, "GET", path)
            assert code == 200
            assert headers["Content-Type"].startswith("text/html")
            assert text == DASHBOARD_HTML
        assert "/dashboard/stats" in DASHBOARD_HTML
        assert "<script" in DASHBOARD_HTML and "http://" not in DASHBOARD_HTML

    def test_unknown_route_is_404(self, app):
        code, body, _ = call(app, "GET", "/nope")
        assert code == 404 and body["error"] == "NotFound"
        code, body, _ = call(app, "POST", "/ops/frobnicate", body={"payload": 1})
        assert code == 404

    def test_wrong_method_is_405_with_allow(self, app):
        code, body, headers = call(app, "DELETE", "/batch")
        assert code == 405
        assert headers["Allow"] == "POST"
        code, _, headers = call(app, "PUT", "/clusters")
        assert code == 405
        assert headers["Allow"] == "GET, POST"

    def test_malformed_json_is_400(self, app):
        code, body, _ = call(app, "POST", "/ops/get", raw=b"{not json")
        assert code == 400 and "JSON" in body["message"]
        code, body, _ = call(app, "POST", "/batch", raw=b"[1, 2]")
        assert code == 400 and "object" in body["message"]

    def test_body_length_is_capped_and_validated(self, app):
        body = {"payload": KEYS[0]}
        code, answer, _ = call(app, "POST", "/ops/get", body, length=str(MAX_BODY_BYTES + 1))
        assert (code, answer["error"], answer["status"]) == (413, "PayloadTooLarge", 413)
        for bad in ("-1", "1e3", "0x10", "1_0", "\u0663"):
            code, answer, _ = call(app, "POST", "/ops/get", body, length=bad)
            assert (code, answer["error"]) == (400, "BadRequest"), bad
        # Exactly at the cap is read; an absent or empty length is no body.
        code, _, _ = call(app, "POST", "/ops/get", body, length=str(MAX_BODY_BYTES))
        assert code == 200
        code, answer, _ = call(app, "POST", "/ops/get", body, length="")
        assert code == 400 and "payload" in answer["message"]

    def test_missing_payload_is_400(self, app):
        code, body, _ = call(app, "POST", "/ops/get", body={})
        assert code == 400 and "payload" in body["message"]


class TestClusters:
    def test_list_and_inspect(self, app):
        code, body, _ = call(app, "GET", "/clusters")
        assert code == 200
        assert [c["name"] for c in body["clusters"]] == ["default"]
        code, body, _ = call(app, "GET", "/clusters/default")
        assert code == 200
        assert body["structure"] == "skipweb1d"
        assert body["items_loaded"] == len(KEYS)
        assert body["operations"]["total"] == 0

    def test_create_run_delete(self, app):
        spec = {
            "name": "strings",
            "structure": "skiptrie",
            "items": ["alpha", "beta", "gamma"],
            "seed": 1,
        }
        code, body, _ = call(app, "POST", "/clusters", body=spec)
        assert code == 201 and body["name"] == "strings"
        code, body, _ = call(
            app, "POST", "/ops/get", body={"cluster": "strings", "payload": "beta"}
        )
        assert code == 200 and body["status"] == "ok"
        code, body, _ = call(
            app,
            "POST",
            "/ops/range",
            body={"cluster": "strings", "payload": {"prefix": "a"}},
        )
        assert code == 200 and body["status"] == "ok"
        code, body, _ = call(app, "DELETE", "/clusters/strings")
        assert code == 200 and body["closed"] == "strings"
        code, _, _ = call(app, "GET", "/clusters/strings")
        assert code == 404

    def test_generated_ground_set_and_unknown_keys(self, app):
        spec = {
            "name": "gen",
            "generate": {"kind": "uniform", "count": 32},
            "seed": 5,
        }
        code, body, _ = call(app, "POST", "/clusters", body=spec)
        assert code == 201 and body["items_loaded"] == 32
        key = uniform_keys(32, seed=5)[4]
        code, body, _ = call(app, "POST", "/ops/get", body={"cluster": "gen", "payload": key})
        assert code == 200 and body["status"] == "ok"
        code, body, _ = call(app, "POST", "/clusters", body={"name": "x", "bogus": 1})
        assert code == 400 and "bogus" in body["message"]
        code, body, _ = call(app, "POST", "/clusters", body={"name": "x"})
        assert code == 400 and "items" in body["message"]

    def test_retired_workers_key_is_an_unknown_spec_key(self, app):
        spec = {"name": "w", "items": [1.0, 2.0], "workers": 2}
        code, body, _ = call(app, "POST", "/clusters", body=spec)
        assert (code, body["error"]) == (400, "ValueError")
        assert body["message"].startswith("unknown cluster spec key(s) ['workers']")
        code, _, _ = call(app, "GET", "/clusters/w")
        assert code == 404

    @pytest.mark.parametrize("mode", ["immediate", "batched"])
    def test_retired_mode_key_is_an_unknown_spec_key(self, app, mode):
        spec = {"name": "m", "items": [1.0, 2.0], "mode": mode}
        code, body, _ = call(app, "POST", "/clusters", body=spec)
        assert (code, body["error"]) == (400, "ValueError")
        assert body["message"].startswith("unknown cluster spec key(s) ['mode']")
        code, _, _ = call(app, "GET", "/clusters/m")
        assert code == 404
        code, body, _ = call(app, "GET", "/clusters/default")
        assert code == 200 and "mode" not in body

    def test_duplicate_name_is_rejected(self, app):
        code, body, _ = call(app, "POST", "/clusters", body={"name": "default", "items": [1.0]})
        assert code == 400 and "already exists" in body["message"]

    def test_unknown_cluster_is_404(self, app):
        code, body, _ = call(app, "POST", "/ops/get", body={"cluster": "ghost", "payload": 1.0})
        assert code == 404 and body["error"] == "UnknownResourceError"


class TestOperations:
    def test_get_known_key_is_ok(self, app):
        code, body, _ = call(app, "POST", "/ops/get", body={"payload": KEYS[3]})
        assert code == 200
        assert body["status"] == "ok"
        assert body["messages"] > 0 and body["rounds"] > 0
        assert body["cluster"] == "default"

    def test_get_via_query_string(self, app):
        code, body, _ = call(app, "GET", "/ops/get", query=f"payload={KEYS[3]!r}")
        assert code == 200 and body["status"] == "ok"

    def test_range_returns_sorted_hits(self, app):
        low, high = sorted(KEYS)[10], sorted(KEYS)[20]
        code, body, _ = call(app, "POST", "/ops/range", body={"payload": [low, high]})
        assert code == 200 and body["status"] == "ok"

    def test_insert_then_delete_round_trip(self, app):
        code, body, _ = call(app, "POST", "/ops/insert", body={"payload": 123.25})
        assert code == 200 and body["status"] == "ok"
        code, body, _ = call(app, "POST", "/ops/delete", body={"payload": 123.25})
        assert code == 200 and body["status"] == "ok"

    def test_bad_range_payload_is_400(self, app):
        code, body, _ = call(app, "POST", "/ops/range", body={"payload": "wat"})
        assert code == 400

    def test_batch_reports_all_handles(self, app):
        operations = [
            {"kind": "get", "payload": KEYS[0]},
            {"kind": "get", "payload": KEYS[1]},
            {"kind": "range", "payload": [KEYS[0], KEYS[0] + 1000.0]},
        ]
        code, body, _ = call(app, "POST", "/batch", body={"operations": operations})
        assert code == 200
        assert body["ops"] == 3
        assert len(body["handles"]) == 3
        assert all(handle["status"] == "ok" for handle in body["handles"])
        assert body["summary"]["messages"] > 0
        code, body, _ = call(app, "POST", "/batch", body={"operations": []})
        assert code == 400


class TestErrorTaxonomy:
    """Satellite: every handle status and typed error -> HTTP code + body."""

    def test_status_table_is_total(self):
        assert set(STATUS_HTTP) == {"ok", "unsupported", "failed", "timed_out", "gave_up"}
        assert STATUS_HTTP["ok"] == 200
        assert STATUS_HTTP["unsupported"] == 422
        assert STATUS_HTTP["failed"] == 409
        assert STATUS_HTTP["timed_out"] == 503
        assert STATUS_HTTP["gave_up"] == 503
        with pytest.raises(ValueError):
            http_status_for("never_heard_of_it")

    @pytest.mark.parametrize("cls,code", ERROR_HTTP)
    def test_every_typed_error_maps(self, cls, code):
        try:
            error = cls("boom")
        except TypeError:
            error = cls.__new__(cls)
        assert http_status_for_error(error) == code

    def test_subclasses_shadow_bases(self):
        # UnsupportedOperationError subclasses the 409 family but must
        # keep its own 422; unknown exception types fall back to 500.
        from repro.errors import UnsupportedOperationError

        assert issubclass(UnsupportedOperationError, ReproError)
        assert http_status_for_error(UnsupportedOperationError("x")) == 422
        assert http_status_for_error(RuntimeError("x")) == 500

    def test_failed_on_the_wire(self, app):
        code, body, _ = call(app, "POST", "/ops/delete", body={"payload": -1.0})
        assert code == 409
        assert body["status"] == "failed"
        assert body["error"] == "UpdateError"
        assert body["error_message"]

    def test_unsupported_on_the_wire(self, app):
        call(
            app,
            "POST",
            "/clusters",
            body={"name": "ring", "structure": "chord", "items": list(KEYS[:16])},
        )
        code, body, _ = call(
            app,
            "POST",
            "/ops/range",
            body={"cluster": "ring", "payload": [KEYS[0], KEYS[1]]},
        )
        assert code == 422
        assert body["status"] == "unsupported"
        assert body["error"] == "UnsupportedOperationError"

    def test_timed_out_on_the_wire(self, app):
        call(
            app,
            "POST",
            "/clusters",
            body={
                "name": "tight",
                "items": list(KEYS),
                "seed": 7,
                "round_budget": 1,
            },
        )
        # KEYS[3] deterministically needs more than one round as the
        # cluster's first operation, so a round_budget of 1 abandons it.
        code, body, _ = call(app, "POST", "/ops/get", body={"cluster": "tight", "payload": KEYS[3]})
        assert code == 503
        assert body["status"] == "timed_out"
        assert body["error"] == "OperationTimedOutError"

    def test_gave_up_on_the_wire(self, app):
        call(
            app,
            "POST",
            "/clusters",
            body={
                "name": "dark",
                "items": list(KEYS),
                "seed": 7,
                "max_retries": 2,
                "faults": {"rules": [{"kind": "drop", "probability": 1.0}]},
            },
        )
        code, body, _ = call(app, "POST", "/ops/get", body={"cluster": "dark", "payload": KEYS[2]})
        assert code == 503
        assert body["status"] == "gave_up"
        assert body["error"] == "FaultInjectedError"

    def test_churn_error_is_409(self, app):
        call(
            app,
            "POST",
            "/clusters",
            body={"name": "tiny", "items": list(KEYS[:8]), "hosts": 2},
        )
        code, body, _ = call(app, "POST", "/churn/leave", body={"cluster": "tiny"})
        assert code == 409
        assert body["error"] == "ChurnError"


class TestSessions:
    def test_lifecycle_and_accounting(self, app):
        code, first, _ = call(app, "POST", "/sessions", body={})
        assert code == 201 and first["session"] == "s1"
        code, second, _ = call(app, "POST", "/sessions", body={})
        assert code == 201 and second["session"] == "s2"

        for key in KEYS[:3]:
            code, body, _ = call(app, "POST", "/ops/get", body={"payload": key, "session": "s1"})
            assert code == 200 and body["session"] == "s1"
        call(
            app,
            "POST",
            "/batch",
            body={
                "operations": [{"kind": "get", "payload": KEYS[5]}],
                "session": "s2",
            },
        )

        code, body, _ = call(app, "GET", "/sessions")
        assert code == 200
        by_id = {row["session"]: row for row in body["sessions"]}
        assert by_id["s1"]["ops"] == 3 and by_id["s1"]["messages"] > 0
        assert by_id["s2"]["ops"] == 1 and by_id["s2"]["batches"] == 1

        code, final = call(app, "DELETE", "/sessions/s1")[:2]
        assert code == 200 and final["open"] is False and final["ops"] == 3
        code, body, _ = call(app, "GET", "/sessions/s1")
        assert code == 404
        # Billing a closed session is a 404, not silent misaccounting.
        code, _, _ = call(app, "POST", "/ops/get", body={"payload": KEYS[0], "session": "s1"})
        assert code == 404

    def test_session_is_bound_to_its_cluster(self, app):
        call(app, "POST", "/clusters", body={"name": "other", "items": [1.0, 2.0]})
        code, body, _ = call(app, "POST", "/sessions", body={"cluster": "other"})
        sid = body["session"]
        code, body, _ = call(app, "POST", "/ops/get", body={"payload": KEYS[0], "session": sid})
        assert code == 400 and "belongs to cluster" in body["message"]

    def test_open_session_on_missing_cluster_is_404(self, app):
        code, _, _ = call(app, "POST", "/sessions", body={"cluster": "ghost"})
        assert code == 404


class TestChurnEndpoints:
    def test_full_lifecycle(self, app):
        code, event, _ = call(app, "POST", "/churn/join", body={})
        assert code == 200 and event["kind"] == "join"
        code, event, _ = call(app, "POST", "/churn/crash", body={})
        assert code == 200 and event["kind"] == "crash"
        crashed = event["host"]
        # A churn crash self-repairs and *removes* the host, so recovering
        # it is a lifecycle conflict — 409 with the typed ChurnError.
        code, body, _ = call(app, "POST", "/churn/recover", body={"host": crashed})
        assert code == 409 and body["error"] == "ChurnError"
        code, event, _ = call(app, "POST", "/churn/leave", body={})
        assert code == 200 and event["kind"] == "leave"
        assert event["repair_messages"] >= 0
        code, report, _ = call(app, "POST", "/churn/repair", body={"hosts": [crashed]})
        assert code == 200 and report["kind"] == "repair"
        code, body, _ = call(app, "POST", "/churn/repair", body={})
        assert code == 400
        code, body, _ = call(app, "POST", "/churn/explode", body={})
        assert code == 404


class TestDashboard:
    def test_stats_shape(self, app):
        operations = [{"kind": "get", "payload": key} for key in KEYS[:4]] + [
            {"kind": "range", "payload": [min(KEYS), max(KEYS)]}
        ]
        call(app, "POST", "/batch", body={"operations": operations})
        code, body, _ = call(app, "GET", "/dashboard/stats")
        assert code == 200
        row = body["clusters"][0]
        assert row["cluster"] == "default"
        assert row["ops"]["total"] == 5
        assert row["ops"]["by_status"] == {"ok": 5}
        assert row["congestion"]["messages"] > 0
        assert row["stats"]["alive_hosts"] > 0
        assert row["ops_per_sec"] >= 0
        code, body, _ = call(app, "GET", "/dashboard/stats", query="cluster=ghost")
        assert code == 404

    def test_congestion_matches_facade_exactly(self):
        """Acceptance: /dashboard/stats == cluster.round_congestion()."""
        items = uniform_keys(40, seed=11)
        operations = [{"kind": "get", "payload": key} for key in items[:12]] + [
            {"kind": "range", "payload": [items[0], items[0] + 250_000.0]}
        ]
        app = create_app(initial=[{"name": "p", "items": list(items), "seed": 11}])
        code, _, _ = call(app, "POST", "/batch", body={"cluster": "p", "operations": operations})
        assert code == 200
        code, stats, _ = call(app, "GET", "/dashboard/stats", query="cluster=p")
        served_congestion = stats["clusters"][0]["congestion"]

        direct = Cluster(structure="skipweb1d", items=list(items), seed=11)
        direct.batch(
            [
                {
                    "kind": op["kind"],
                    "payload": tuple(op["payload"])
                    if isinstance(op["payload"], list)
                    else op["payload"],
                }
                for op in operations
            ]
        )
        expected = direct.round_congestion().as_dict()
        assert served_congestion == expected
        assert expected["messages"] > 0
        app.manager.close()
        direct.close()

    def test_collect_stats_reads_under_the_lock(self, app):
        # Taking the lock in another thread must block collection, not
        # tear it: release and assert the poll then completes.
        served = app.manager.get_cluster("default")
        acquired = served.lock.acquire()
        assert acquired
        result = {}

        def poll():
            result["stats"] = collect_stats(app.manager)

        thread = threading.Thread(target=poll)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive()  # blocked on the cluster lock
        served.lock.release()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert result["stats"]["clusters"][0]["cluster"] == "default"


class TestWireFormats:
    def test_handle_to_dict_is_json_ready(self, app):
        code, body, _ = call(app, "POST", "/ops/get", body={"payload": KEYS[0]})
        json.dumps(body)  # must not raise
        assert set(body) >= {
            "index",
            "kind",
            "payload",
            "origin_host",
            "status",
            "messages",
            "rounds",
            "retries",
            "latency",
            "value",
        }
        assert "cache_hits" not in body

    def test_to_dict_round_trips_without_server(self):
        cluster = Cluster(items=list(KEYS), seed=7)
        handle = cluster.get(KEYS[0])
        data = handle.to_dict()
        json.dumps(data)
        assert data["status"] == "ok" and data["kind"] == "search"
        assert handle.to_dict(include_value=False).get("value") is None
        report = cluster.batch([{"kind": "get", "payload": KEYS[1]}])
        batch_data = report.to_dict()
        json.dumps(batch_data)
        assert batch_data["ops"] == 1
        assert batch_data["handles"][0]["status"] == "ok"
        assert "handles" in report.to_dict(include_values=False)
        cluster.close()

    def test_error_handles_carry_typed_names(self):
        cluster = Cluster(items=list(KEYS), seed=7)
        handle = cluster.delete(-5.0)
        data = handle.to_dict()
        assert data["status"] == "failed"
        assert data["error"] == "UpdateError"
        assert isinstance(data["error_message"], str)
        cluster.close()


class TestClusterClose:
    """Satellite: Cluster.close() is idempotent and thread-safe."""

    def test_double_close_is_a_no_op(self):
        cluster = Cluster(items=list(KEYS[:16]), seed=1)
        cluster.close()
        cluster.close()
        with pytest.raises(StructureError):
            cluster.get(KEYS[0])

    def test_concurrent_close_from_many_threads(self):
        cluster = Cluster(items=list(KEYS[:16]), seed=1)
        errors = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            try:
                cluster.close()
            except Exception as exc:  # noqa: BLE001 - the assertion target
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


@pytest.fixture(scope="class")
def served():
    """One app on a real socket for the whole class: ``(server, port)``.

    Shared because ``server.shutdown()`` waits out a 0.5 s poll; tests
    therefore compare ``connections_accepted`` before and after.
    """
    application = create_app(
        initial=[{"name": "default", "structure": "skipweb1d", "items": list(KEYS), "seed": 7}]
    )
    server, _thread = serve_background(application, "127.0.0.1", 0)
    yield server, server.server_address[1]
    server.shutdown()
    server.server_close()
    application.manager.close()


def exchange(port, request, timeout=5.0):
    """Send raw bytes; return ``(everything the server wrote, closed_by_server)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request)
        received = b""
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except TimeoutError:
            return received, False
        return received, True


class TestPersistentConnections:
    """The connection model of DESIGN.md §12, over a real socket."""

    GET_KEY = f"/ops/get?payload={KEYS[3]}"

    def test_fifty_requests_ride_one_accepted_connection(self, served):
        server, port = served
        accepted = server.connections_accepted
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        for index in range(50):
            connection.request("GET", f"/ops/get?payload={KEYS[index % len(KEYS)]}")
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 200 and response.version == 11
            assert not response.will_close
            assert body["status"] == "ok"
        connection.close()
        assert server.connections_accepted == accepted + 1

    def test_connection_close_is_honoured(self, served):
        _server, port = served
        request = f"GET {self.GET_KEY} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        reply, closed = exchange(port, request.encode("ascii"))
        assert closed
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"\r\nConnection: close\r\n" in reply
        assert json.loads(reply.split(b"\r\n\r\n", 1)[1])["status"] == "ok"

    def test_http_10_client_gets_its_reply_and_a_closed_socket(self, served):
        _server, port = served
        reply, closed = exchange(port, f"GET {self.GET_KEY} HTTP/1.0\r\n\r\n".encode("ascii"))
        assert closed
        assert b" 200 OK\r\n" in reply.split(b"\r\n\r\n", 1)[0]
        assert json.loads(reply.split(b"\r\n\r\n", 1)[1])["status"] == "ok"

    def test_error_replies_keep_the_connection_usable(self, served):
        server, port = served
        accepted = server.connections_accepted
        client = JsonClient(f"http://127.0.0.1:{port}")
        assert client.request("GET", "/no/such/route")[0] == 404
        assert client.request("DELETE", "/healthz")[0] == 405
        assert client.request("POST", "/ops/delete", {"payload": -1.0})[0] == 409
        code, body = client.request(
            "POST", "/clusters", {"name": "ring", "structure": "chord", "items": [1, 2, 3]}
        )
        assert code == 201, body
        code, body = client.request("POST", "/ops/range", {"cluster": "ring", "payload": [1, 2]})
        assert (code, body["status"]) == (422, "unsupported")
        assert client.request("GET", "/healthz")[0] == 200
        client.close()
        assert client.opened == 1
        assert server.connections_accepted == accepted + 1

    def test_a_body_the_route_never_reads_does_not_corrupt_the_next_request(self, served):
        server, port = served
        accepted = server.connections_accepted
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        # 405 before any body read; the body looks like a request line.
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        connection.request("POST", "/healthz", body=smuggled)
        response = connection.getresponse()
        assert response.status == 405
        response.read()
        for _ in range(2):
            connection.request("POST", "/ops/get", body=json.dumps({"payload": KEYS[3]}))
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["payload"] == KEYS[3]
        connection.close()
        assert server.connections_accepted == accepted + 1

    def test_head_reply_carries_no_body(self, served):
        _server, port = served
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        connection.request("HEAD", "/healthz")
        response = connection.getresponse()
        assert response.status == 405 and response.read() == b""
        connection.request("GET", "/healthz")
        assert connection.getresponse().status == 200
        connection.close()

    @pytest.mark.parametrize(
        ("length", "code", "error"),
        [
            (str(MAX_BODY_BYTES + 1), 413, "PayloadTooLarge"),
            ("-5", 400, "BadRequest"),
            ("twelve", 400, "BadRequest"),
        ],
    )
    def test_unframeable_bodies_get_a_typed_reply_and_a_closed_socket(
        self, served, length, code, error
    ):
        _server, port = served
        request = (
            f"POST /ops/get HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n"
            '{"payload": 1.0}'
        )
        reply, closed = exchange(port, request.encode("ascii"))
        assert closed
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {code} ".encode("ascii"))
        assert b"Connection: close" in head
        answer = json.loads(body)
        assert (answer["error"], answer["status"]) == (error, code)

    @pytest.mark.parametrize(
        ("head", "code"),
        [
            # The stdlib answers these two HTTP/0.9 style: a page, no status line.
            (b"NOT-HTTP\r\n\r\n", b"Error code: 400"),
            (b"GET /healthz HTTP/9.9\r\n\r\n", b"Error code: 505"),
            (b"GET /a /b HTTP/1.1\r\n\r\n", b"HTTP/1.1 400 "),
            (b"GET /healthz HTTP/1.1\r\n" + b"X: y\r\n" * 200 + b"\r\n", b"HTTP/1.1 431 "),
        ],
        ids=["one-word", "version-9.9", "four-words", "200-headers"],
    )
    def test_a_head_that_does_not_parse_closes_the_connection(self, served, head, code):
        _server, port = served
        # A well-formed request behind the broken one must not be answered.
        reply, closed = exchange(port, head + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert closed
        assert code in reply
        assert b'"clusters"' not in reply

    def test_an_idle_connection_is_dropped_after_the_timeout(self, served, monkeypatch):
        _server, port = served
        monkeypatch.setattr(runner, "IDLE_TIMEOUT_S", 0.2)
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 OK")
            started = time.monotonic()
            assert sock.recv(65536) == b""  # EOF: the server hung up
            assert 0.1 < time.monotonic() - started < 3.0

    def test_client_reopens_a_dropped_connection_once(self, served, monkeypatch):
        server, port = served
        accepted = server.connections_accepted
        monkeypatch.setattr(runner, "IDLE_TIMEOUT_S", 0.2)
        client = JsonClient(f"http://127.0.0.1:{port}")
        assert client.request("GET", "/healthz")[0] == 200
        time.sleep(0.5)
        assert client.request("GET", "/healthz")[0] == 200
        client.close()
        assert client.opened == 2 == server.connections_accepted - accepted

    def test_connection_registry_survives_concurrent_connects_and_closes(self, served):
        server, port = served
        accepted = server.connections_accepted
        failures = []

        def churn():
            try:
                for _ in range(15):
                    client = JsonClient(f"http://127.0.0.1:{port}")
                    assert client.request("GET", "/healthz")[0] == 200
                    client.close()
            except Exception as exc:  # noqa: BLE001 - the assertion target
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert failures == [] and not any(thread.is_alive() for thread in threads)
        assert server.connections_accepted == accepted + 8 * 15
        deadline = time.monotonic() + 5
        while server._open and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server._open == set()  # every connection thread took its socket back out

    def test_shutdown_does_not_wait_for_idle_kept_alive_connections(self, app):
        server, thread = serve_background(app, "127.0.0.1", 0)
        port = server.server_address[1]
        idle = [http.client.HTTPConnection("127.0.0.1", port, timeout=5) for _ in range(2)]
        for connection in idle:
            connection.request("GET", "/healthz")
            assert connection.getresponse().read()
        started = time.monotonic()
        server.shutdown()
        server.server_close()
        assert time.monotonic() - started < 2.0
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        # The kept-alive connections were hung up on, not left serving.
        for connection in idle:
            with pytest.raises((http.client.HTTPException, OSError)):
                connection.request("GET", "/healthz")
                connection.getresponse()
            connection.close()


class TestEndToEnd:
    def test_real_socket_serve_and_hammer_determinism(self):
        """Acceptance: two seeded hammer runs are byte-identical."""
        app = create_app(
            initial=[
                {
                    "name": "default",
                    "generate": {"kind": "uniform", "count": 48},
                    "seed": 7,
                }
            ]
        )
        server, _thread = serve_background(app, "127.0.0.1", 0)
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            kwargs = dict(cluster="default", sessions=3, ops=8, seed=5, items=48, key_seed=7)
            first = run_hammer(url, **kwargs)
            second = run_hammer(url, **kwargs)
            assert first.all_ok and second.all_ok
            blob_a = json.dumps(first.deterministic_report(), sort_keys=True)
            blob_b = json.dumps(second.deterministic_report(), sort_keys=True)
            assert blob_a == blob_b
            assert first.requests == 3 * 8
            assert first.by_http_status == {200: 24}
            # The wall-clock half really is measured, just not compared.
            assert first.requests_per_sec > 0
            assert first.latency_p99_ms >= first.latency_p50_ms >= 0
            # One connection per session, for the session's whole life.
            assert first.connections_opened == second.connections_opened == 3
            assert first.summary_rows()[0]["connections_opened"] == 3
            assert "connections_opened" not in json.dumps(first.deterministic_report())
            assert "| connections opened | 3 |" in first.markdown()
        finally:
            server.shutdown()
            server.server_close()
            app.manager.close()

    def test_hammer_rejects_unknown_mix(self):
        with pytest.raises(ValueError):
            run_hammer("http://127.0.0.1:1", mix="chaotic")


class TestOperationHandleDict:
    def test_plain_handle_without_error(self):
        handle = OperationHandle(kind="search", payload=1.5, origin_host=3, status="ok", value=None)
        data = handle.to_dict()
        assert "error" not in data
        assert data["payload"] == 1.5 and data["origin_host"] == 3
