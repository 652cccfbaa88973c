"""The WSGI application: the full façade surface as JSON over HTTP.

Pure stdlib (the app is a plain WSGI callable; :mod:`repro.server.runner`
hosts it on ``wsgiref``).  The route table:

====================================  =============================================
``GET /`` / ``GET /dashboard``        the live dashboard page (self-contained HTML)
``GET /healthz``                      liveness probe (also the ready gate)
``GET /dashboard/stats``              congestion aggregates (``?cluster=`` to pick)
``GET|POST /clusters``                list / create named clusters
``GET|DELETE /clusters/{name}``       inspect / close one cluster
``GET|POST /ops/{op}``                run one operation; op in get, nearest,
                                      insert, delete, range
``POST /batch``                       run one concurrent batch
``POST /churn/{verb}``                join, leave, crash, recover, repair
``GET|POST /sessions``                list / open client sessions
``GET|DELETE /sessions/{id}``         snapshot / close one session
====================================  =============================================

Status discipline (the HTTP half of the error taxonomy):

* a *completed* operation answers with the code of its handle status —
  200 ``ok``, 422 ``unsupported``, 409 ``failed``, 503 ``timed_out`` /
  ``gave_up`` — and the handle dict (typed error name included) as body;
* a raised :mod:`repro.errors` exception answers via
  :func:`~repro.server.taxonomy.http_status_for_error` with an
  ``{"error", "message", "status"}`` body;
* transport-level mistakes are plain HTTP: unknown path 404, wrong
  method 405 (with ``Allow``), malformed JSON, payload or
  ``Content-Length`` 400, a body over :data:`MAX_BODY_BYTES` 413 (the
  last two also cost the client its connection — see
  :mod:`repro.server.runner`).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, Mapping
from urllib.parse import parse_qs

from repro.server.dashboard import DASHBOARD_HTML, collect_stats
from repro.server.manager import (
    CHURN_VERBS,
    OP_NAMES,
    ClusterManager,
    UnknownResourceError,
    describe_handle,
)
from repro.server.taxonomy import (
    error_body,
    http_status_for,
    http_status_for_error,
    reason_phrase,
)

_JSON = [("Content-Type", "application/json; charset=utf-8")]
_HTML = [("Content-Type", "text/html; charset=utf-8")]

#: Largest request body the service reads (1 MiB; a 64-op batch is ~4 KB).
MAX_BODY_BYTES = 1 << 20


def declared_body_length(raw: str | None) -> int:
    """``Content-Length`` as a byte count; ``ValueError`` unless it is all digits."""
    raw = (raw or "0").strip()
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"Content-Length {raw!r} is not a non-negative integer")
    return int(raw)


class _HttpAnswer(Exception):
    """Internal shortcut: abort request handling with a finished response."""

    def __init__(self, code: int, body: dict[str, Any], headers=None) -> None:
        super().__init__(str(code))
        self.code = code
        self.body = body
        self.headers = headers or []


def _bad_request(message: str) -> _HttpAnswer:
    return _HttpAnswer(400, {"error": "BadRequest", "message": message, "status": 400})


class ReproApp:
    """The service: one :class:`ClusterManager` behind a WSGI callable."""

    def __init__(self, manager: ClusterManager | None = None) -> None:
        self.manager = manager if manager is not None else ClusterManager()

    # -- WSGI entry point ------------------------------------------------- #
    def __call__(self, environ: dict[str, Any], start_response: Callable) -> list[bytes]:
        method = environ.get("REQUEST_METHOD", "GET").upper()
        path = environ.get("PATH_INFO") or "/"
        query = {
            key: values[-1]
            for key, values in parse_qs(environ.get("QUERY_STRING", "")).items()
        }
        try:
            code, body, headers = self._dispatch(method, path, query, environ)
        except _HttpAnswer as answer:
            code, body, headers = answer.code, answer.body, answer.headers
        except UnknownResourceError as exc:
            code, body, headers = 404, error_body(exc, 404), []
        except Exception as exc:  # noqa: BLE001 - total: every error is typed
            code = http_status_for_error(exc)
            body = error_body(exc, code)
            headers = []
        if isinstance(body, str):
            payload = body.encode("utf-8")
            response_headers = list(_HTML)
        else:
            payload = json.dumps(body).encode("utf-8")
            response_headers = list(_JSON)
        response_headers.append(("Content-Length", str(len(payload))))
        response_headers.extend(headers)
        start_response(f"{code} {reason_phrase(code)}", response_headers)
        return [payload]

    # -- routing ---------------------------------------------------------- #
    def _dispatch(
        self,
        method: str,
        path: str,
        query: Mapping[str, str],
        environ: dict[str, Any],
    ) -> tuple[int, Any, list]:
        segments = [segment for segment in path.split("/") if segment]
        if not segments or segments == ["dashboard"]:
            self._require(method, ("GET",))
            return 200, DASHBOARD_HTML, []
        head = segments[0]
        if head == "healthz" and len(segments) == 1:
            self._require(method, ("GET",))
            return 200, {"status": "ok", "clusters": len(self.manager.clusters())}, []
        if segments == ["dashboard", "stats"]:
            self._require(method, ("GET",))
            return 200, collect_stats(self.manager, query.get("cluster")), []
        if head == "clusters" and len(segments) <= 2:
            return self._clusters(method, segments, environ)
        if head == "ops" and len(segments) == 2:
            return self._operation(method, segments[1], query, environ)
        if head == "batch" and len(segments) == 1:
            self._require(method, ("POST",))
            return self._batch(environ)
        if head == "churn" and len(segments) == 2:
            self._require(method, ("POST",))
            return self._churn(segments[1], environ)
        if head == "sessions" and len(segments) <= 2:
            return self._sessions(method, segments, query, environ)
        raise _HttpAnswer(
            404,
            {"error": "NotFound", "message": f"no route for {path!r}", "status": 404},
        )

    @staticmethod
    def _require(method: str, allowed: tuple[str, ...]) -> None:
        if method not in allowed:
            raise _HttpAnswer(
                405,
                {
                    "error": "MethodNotAllowed",
                    "message": f"use {' or '.join(allowed)}",
                    "status": 405,
                },
                [("Allow", ", ".join(allowed))],
            )

    @staticmethod
    def _read_json(environ: dict[str, Any]) -> dict[str, Any]:
        try:
            length = declared_body_length(environ.get("CONTENT_LENGTH"))
        except ValueError as exc:
            raise _bad_request(str(exc)) from exc
        if length > MAX_BODY_BYTES:
            raise _HttpAnswer(
                413,
                {
                    "error": "PayloadTooLarge",
                    "message": f"request body of {length} bytes exceeds {MAX_BODY_BYTES}",
                    "status": 413,
                },
            )
        if length == 0:
            return {}
        raw = environ["wsgi.input"].read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _bad_request(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise _bad_request(f"request body must be a JSON object, got {type(body).__name__}")
        return body

    # -- /clusters -------------------------------------------------------- #
    def _clusters(
        self, method: str, segments: list[str], environ: dict[str, Any]
    ) -> tuple[int, Any, list]:
        if len(segments) == 1:
            self._require(method, ("GET", "POST"))
            if method == "GET":
                return 200, {
                    "clusters": [served.describe() for served in self.manager.clusters()]
                }, []
            spec = self._read_json(environ)
            served = self.manager.create_cluster(spec)
            return 201, served.describe(), []
        name = segments[1]
        self._require(method, ("GET", "DELETE"))
        if method == "GET":
            served = self.manager.get_cluster(name)
            description = served.describe()
            description["operations"] = served.operations_snapshot()
            return 200, description, []
        return 200, self.manager.remove_cluster(name), []

    # -- /ops/{op} -------------------------------------------------------- #
    def _operation(
        self,
        method: str,
        op: str,
        query: Mapping[str, str],
        environ: dict[str, Any],
    ) -> tuple[int, Any, list]:
        if op not in OP_NAMES:
            raise _HttpAnswer(
                404,
                {
                    "error": "NotFound",
                    "message": f"unknown operation {op!r}; expected one of {OP_NAMES}",
                    "status": 404,
                },
            )
        self._require(method, ("GET", "POST"))
        if method == "POST":
            body = self._read_json(environ)
        else:
            body = dict(query)
            if "payload" in body:
                try:
                    body["payload"] = json.loads(body["payload"])
                except json.JSONDecodeError:
                    pass  # a bare scalar like ?payload=carol stays a string
        if "payload" not in body:
            raise _bad_request(f"operation {op!r} needs a 'payload' field")
        origin_host = body.get("origin_host")
        if origin_host is not None:
            origin_host = int(origin_host)
        cluster_name = str(body.get("cluster", "default"))
        served = self.manager.get_cluster(cluster_name)
        session = None
        if body.get("session") is not None:
            session = self.manager.get_session(str(body["session"]))
            if session.cluster != cluster_name:
                raise _bad_request(
                    f"session {session.id!r} belongs to cluster "
                    f"{session.cluster!r}, not {cluster_name!r}"
                )
        handle = served.run_operation(op, body["payload"], origin_host=origin_host, session=session)
        answer = describe_handle(handle, cluster=cluster_name)
        if session is not None:
            answer["session"] = session.id
        return http_status_for(handle.status), answer, []

    # -- /batch ----------------------------------------------------------- #
    def _batch(self, environ: dict[str, Any]) -> tuple[int, Any, list]:
        body = self._read_json(environ)
        operations = body.get("operations")
        if not isinstance(operations, list) or not operations:
            raise _bad_request("batch needs a non-empty 'operations' array")
        cluster_name = str(body.get("cluster", "default"))
        served = self.manager.get_cluster(cluster_name)
        session = None
        if body.get("session") is not None:
            session = self.manager.get_session(str(body["session"]))
            if session.cluster != cluster_name:
                raise _bad_request(
                    f"session {session.id!r} belongs to cluster "
                    f"{session.cluster!r}, not {cluster_name!r}"
                )
        report = served.run_batch(operations, session=session)
        answer = report.to_dict(include_values=bool(body.get("include_values", True)))
        answer["cluster"] = cluster_name
        if session is not None:
            answer["session"] = session.id
        return 200, answer, []

    # -- /churn/{verb} ---------------------------------------------------- #
    def _churn(self, verb: str, environ: dict[str, Any]) -> tuple[int, Any, list]:
        if verb not in CHURN_VERBS:
            raise _HttpAnswer(
                404,
                {
                    "error": "NotFound",
                    "message": f"unknown churn verb {verb!r}; "
                    f"expected one of {CHURN_VERBS}",
                    "status": 404,
                },
            )
        body = self._read_json(environ)
        cluster_name = str(body.get("cluster", "default"))
        served = self.manager.get_cluster(cluster_name)
        host = body.get("host")
        event = served.run_churn(
            verb,
            host=int(host) if host is not None else None,
            hosts=body.get("hosts"),
        )
        event["cluster"] = cluster_name
        return 200, event, []

    # -- /sessions -------------------------------------------------------- #
    def _sessions(
        self,
        method: str,
        segments: list[str],
        query: Mapping[str, str],
        environ: dict[str, Any],
    ) -> tuple[int, Any, list]:
        if len(segments) == 1:
            self._require(method, ("GET", "POST"))
            if method == "GET":
                return 200, {"sessions": self.manager.sessions(query.get("cluster"))}, []
            body = self._read_json(environ)
            cluster_name = str(body.get("cluster", "default"))
            session = self.manager.open_session(cluster_name)
            return 201, session.snapshot(), []
        session_id = segments[1]
        self._require(method, ("GET", "DELETE"))
        if method == "GET":
            return 200, self.manager.get_session(session_id).snapshot(), []
        return 200, self.manager.close_session(session_id), []


def create_app(
    manager: ClusterManager | None = None,
    initial: Iterable[Mapping[str, Any]] | None = None,
) -> ReproApp:
    """Build the WSGI app, optionally pre-creating clusters from specs."""
    app = ReproApp(manager)
    for spec in initial or ():
        app.manager.create_cluster(spec)
    return app
