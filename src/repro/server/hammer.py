"""The seeded load generator: concurrent sessions over ``http.client``.

``run_hammer`` opens N server sessions, drives each from its own thread
with a per-session ``random.Random(f"{seed}:{index}")`` stream over one
persistent connection per session (:class:`JsonClient`), and returns a
:class:`HammerReport` with two disjoint views:

* **timing** — requests/sec, p50/p99 request latency, per-HTTP-status
  counts, connections opened.  Wall-clock, different every run, for
  humans and job summaries.
* **determinism** — per-session operation facts (kind, payload, handle
  status, message/round/retry/latency counters, a SHA-256 digest over
  the per-operation results) keyed by the *client-side* session index.
  With a read-only mix these are independent of thread interleaving and
  of the server-assigned session ids, so two hammer runs with the same
  seed against the same seeded cluster must be **byte-identical** — the
  CI serve-gate writes both to files and ``cmp``s them.

The default mix is read-only (70% ``get`` on known ground-set keys,
30% small ``range``) precisely so that property holds; ``mix="write"``
adds inserts/deletes for soak-testing, at the documented cost of
cross-session interleaving sensitivity.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import urlsplit

from repro.workloads import uniform_keys

_JSON_HEADERS = {"Content-Type": "application/json"}


class JsonClient:
    """One persistent HTTP/1.1 connection speaking JSON to one server.

    The connection opens on first use and is reused for every later
    request; when the server has dropped it in the meantime (idle
    timeout, restart) it is reopened once and the request resent.
    ``opened`` counts the connections made, so a caller can tell reuse
    from connect-per-request.
    """

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        parts = urlsplit(base_url)
        self._address = (parts.hostname or "127.0.0.1", parts.port or 80)
        self._prefix = parts.path.rstrip("/")
        self._timeout = timeout
        self._connection: http.client.HTTPConnection | None = None
        self.opened = 0

    def request(self, method: str, path: str, body: Any = None) -> tuple[int, dict[str, Any]]:
        """One JSON request; HTTP error codes return normally (code, body)."""
        data = json.dumps(body).encode("utf-8") if body is not None else None
        while True:
            reused = self._connection is not None
            if not reused:
                connection = http.client.HTTPConnection(*self._address, timeout=self._timeout)
                connection.connect()
                self._connection = connection
                self.opened += 1
            try:
                self._connection.request(
                    method, self._prefix + path, body=data, headers=_JSON_HEADERS
                )
                response = self._connection.getresponse()
                raw = response.read()
            except (http.client.HTTPException, OSError) as exc:
                self.close()
                if reused and isinstance(exc, ConnectionError):
                    continue
                raise
            if response.will_close:
                self.close()
            try:
                return response.status, json.loads(raw.decode("utf-8"))
            except ValueError:
                message = raw.decode("utf-8", errors="replace")
                return response.status, {
                    "error": "NonJsonBody",
                    "message": message,
                    "status": response.status,
                }

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def wait_until_ready(self, timeout: float = 10.0) -> None:
        """Poll ``/healthz`` until the server answers (or raise TimeoutError)."""
        deadline = time.monotonic() + timeout
        last_error: Exception | None = None
        while time.monotonic() < deadline:
            try:
                code, _ = self.request("GET", "/healthz")
                if code == 200:
                    return
            except (http.client.HTTPException, OSError) as exc:
                last_error = exc
            time.sleep(0.05)
        raise TimeoutError(
            f"server at {self._address[0]}:{self._address[1]} not ready "
            f"after {timeout:.1f}s: {last_error}"
        )


@dataclass
class _SessionRun:
    """One worker thread's accumulated facts."""

    index: int
    session_id: str = ""
    facts: list[dict[str, Any]] = field(default_factory=list)
    http_counts: dict[int, int] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    transport_errors: int = 0
    final_snapshot: dict[str, Any] | None = None


@dataclass
class HammerReport:
    """Everything one hammer run measured, split timing vs deterministic."""

    url: str
    cluster: str
    sessions: int
    ops_per_session: int
    seed: int
    mix: str
    elapsed_secs: float
    requests: int
    requests_per_sec: float
    latency_p50_ms: float
    latency_p99_ms: float
    by_http_status: dict[int, int]
    by_op_status: dict[str, int]
    transport_errors: int
    #: TCP connections the run made; equals ``sessions`` while the server
    #: keeps connections alive (timing view only — never compared).
    connections_opened: int
    session_rows: list[dict[str, Any]]
    digest: str

    @property
    def all_ok(self) -> bool:
        """No transport errors and every operation handle came back ok."""
        bad = sum(count for status, count in self.by_op_status.items() if status != "ok")
        return self.transport_errors == 0 and bad == 0

    def deterministic_report(self) -> dict[str, Any]:
        """The byte-identity view: no wall-clock, no server session ids."""
        return {
            "cluster": self.cluster,
            "sessions": self.sessions,
            "ops_per_session": self.ops_per_session,
            "seed": self.seed,
            "mix": self.mix,
            "by_op_status": {
                status: self.by_op_status[status]
                for status in sorted(self.by_op_status)
            },
            "session_rows": self.session_rows,
            "digest": self.digest,
        }

    def summary_rows(self) -> list[dict[str, Any]]:
        """Human-facing table rows (CLI ``--format table|json|csv``)."""
        return [
            {
                "sessions": self.sessions,
                "ops": self.requests,
                "requests_per_sec": round(self.requests_per_sec, 1),
                "p50_ms": round(self.latency_p50_ms, 2),
                "p99_ms": round(self.latency_p99_ms, 2),
                "ok": self.by_op_status.get("ok", 0),
                "degraded": sum(
                    count
                    for status, count in self.by_op_status.items()
                    if status != "ok"
                ),
                "transport_errors": self.transport_errors,
                "connections_opened": self.connections_opened,
                "digest": self.digest[:12],
            }
        ]

    def markdown(self) -> str:
        """A GitHub job-summary table for the serve-gate."""
        lines = [
            "### serve-gate hammer",
            "",
            "| metric | value |",
            "| --- | --- |",
            f"| sessions x ops | {self.sessions} x {self.ops_per_session} |",
            f"| requests | {self.requests} |",
            f"| requests/sec | {self.requests_per_sec:.1f} |",
            f"| p50 latency | {self.latency_p50_ms:.2f} ms |",
            f"| p99 latency | {self.latency_p99_ms:.2f} ms |",
            f"| transport errors | {self.transport_errors} |",
            f"| connections opened | {self.connections_opened} |",
            f"| result digest | `{self.digest[:16]}` |",
        ]
        for status in sorted(self.by_op_status):
            lines.append(f"| status `{status}` | {self.by_op_status[status]} |")
        return "\n".join(lines) + "\n"


def _percentile(samples: list[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _drive_session(
    client: JsonClient,
    cluster: str,
    run: _SessionRun,
    ops: int,
    seed: int,
    mix: str,
    keys: list[float],
    low: float,
    high: float,
) -> None:
    rng = random.Random(f"{seed}:{run.index}")
    for _ in range(ops):
        roll = rng.random()
        if mix == "write" and roll < 0.2:
            op = "insert" if roll < 0.1 else "delete"
            payload: Any = rng.choice(keys) if op == "delete" else rng.uniform(low, high)
        elif roll < 0.7:
            op, payload = "get", rng.choice(keys)
        else:
            a = rng.uniform(low, high)
            b = a + rng.uniform(0.0, (high - low) * 0.01)
            op, payload = "range", [a, min(b, high)]
        body = {"cluster": cluster, "payload": payload, "session": run.session_id}
        started = time.monotonic()
        try:
            code, answer = client.request("POST", f"/ops/{op}", body)
        except (http.client.HTTPException, OSError):
            run.transport_errors += 1
            continue
        run.latencies.append((time.monotonic() - started) * 1000.0)
        run.http_counts[code] = run.http_counts.get(code, 0) + 1
        run.facts.append(
            {
                "op": op,
                "payload": payload,
                "status": answer.get("status"),
                "messages": answer.get("messages"),
                "rounds": answer.get("rounds"),
                "retries": answer.get("retries"),
                "latency": answer.get("latency"),
                "value": answer.get("value"),
            }
        )


def run_hammer(
    url: str,
    *,
    cluster: str = "default",
    sessions: int = 4,
    ops: int = 25,
    seed: int = 0,
    mix: str = "read",
    items: int = 128,
    key_seed: int = 0,
    low: float = 0.0,
    high: float = 1_000_000.0,
    timeout: float = 10.0,
    warmup: float = 10.0,
) -> HammerReport:
    """Drive ``sessions`` concurrent seeded sessions; see module docstring.

    ``items``/``key_seed`` regenerate the served ground set client-side
    (the same :func:`repro.workloads.uniform_keys` call the ``serve``
    command uses), so read-mix ``get`` operations target known keys and a
    healthy deployment answers every one ``ok``.
    """
    if mix not in ("read", "write"):
        raise ValueError(f"unknown mix {mix!r}; expected 'read' or 'write'")
    keys = uniform_keys(items, seed=key_seed, low=low, high=high)
    runs = [_SessionRun(index=index) for index in range(sessions)]
    # One connection per session carries its whole life: open, every
    # operation, close.  The readiness poll rides on the first one.
    clients = [JsonClient(url, timeout) for _ in runs]
    try:
        if clients:
            clients[0].wait_until_ready(warmup)
        for run, client in zip(runs, clients):
            code, body = client.request("POST", "/sessions", {"cluster": cluster})
            if code != 201:
                raise RuntimeError(f"could not open session: HTTP {code} {body}")
            run.session_id = body["session"]
        started = time.monotonic()
        threads = [
            threading.Thread(
                target=_drive_session,
                args=(client, cluster, run, ops, seed, mix, keys, low, high),
                name=f"hammer-{run.index}",
            )
            for run, client in zip(runs, clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = max(time.monotonic() - started, 1e-9)
        for run, client in zip(runs, clients):
            code, snapshot = client.request("DELETE", f"/sessions/{run.session_id}")
            run.final_snapshot = snapshot if code == 200 else {"error": code}
    finally:
        for client in clients:
            client.close()

    session_rows = []
    by_op_status: dict[str, int] = {}
    by_http: dict[int, int] = {}
    latencies: list[float] = []
    transport_errors = 0
    overall = hashlib.sha256()
    for run in runs:
        for fact in run.facts:
            status = str(fact["status"])
            by_op_status[status] = by_op_status.get(status, 0) + 1
        for code, count in run.http_counts.items():
            by_http[code] = by_http.get(code, 0) + count
        latencies.extend(run.latencies)
        transport_errors += run.transport_errors
        digest = hashlib.sha256(json.dumps(run.facts, sort_keys=True).encode("utf-8")).hexdigest()
        overall.update(digest.encode("ascii"))
        snapshot = dict(run.final_snapshot or {})
        # Server-assigned ids and open-flags are interleaving-dependent;
        # the deterministic row is keyed by the client-side index.
        snapshot.pop("session", None)
        snapshot.pop("open", None)
        session_rows.append({"session_index": run.index, "digest": digest, "window": snapshot})
    requests_made = sum(by_http.values())
    return HammerReport(
        url=url,
        cluster=cluster,
        sessions=sessions,
        ops_per_session=ops,
        seed=seed,
        mix=mix,
        elapsed_secs=elapsed,
        requests=requests_made,
        requests_per_sec=requests_made / elapsed,
        latency_p50_ms=_percentile(latencies, 0.50),
        latency_p99_ms=_percentile(latencies, 0.99),
        by_http_status={code: by_http[code] for code in sorted(by_http)},
        by_op_status={status: by_op_status[status] for status in sorted(by_op_status)},
        transport_errors=transport_errors,
        connections_opened=sum(client.opened for client in clients),
        session_rows=session_rows,
        digest=overall.hexdigest(),
    )
