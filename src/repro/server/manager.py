"""Served state: named clusters, client sessions, and the serialization lock.

The service layer is a thin, honest shell around :class:`repro.api.Cluster`:

* :class:`ClusterManager` owns a name -> :class:`ServedCluster` map and a
  flat session table.  Cluster specs arrive as JSON dicts (the body of
  ``POST /clusters``) and build ordinary façade clusters — same registry,
  same knobs (``structure`` / ``topology`` / ``faults`` / ``storage`` by
  path / ``round_budget``), so a served deployment is
  byte-identical to a locally constructed one.
* :class:`ServedCluster` wraps one cluster behind a **serialization
  lock**: every operation, batch, churn verb and dashboard read acquires
  it, so concurrent HTTP workers interleave at *operation* granularity —
  each request maps onto one :class:`~repro.engine.executor.BatchExecutor`
  batch, never onto a torn half-operation.  (The engine measures
  concurrency *inside* a batch, via rounds; the lock only orders whole
  batches, exactly like the façade's own single-threaded contract.)
* :class:`ServedSession` is a client-scoped measurement window: handle
  counters (messages, latency, rounds, retries, per-status counts) are
  accumulated from each operation the session runs, so per-session
  accounting is independent of how other sessions interleave — the
  property the load generator's byte-identity gate relies on.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Any, Mapping, Sequence

from repro.api.cluster import Cluster
from repro.api.results import BatchReport, OperationHandle, jsonable
from repro.net.faults import FaultPlan, faults_from_config, rule_from_config
from repro.server.codec import decode_payload
from repro.workloads import random_strings, uniform_keys, uniform_points


class UnknownResourceError(LookupError):
    """A named cluster or session does not exist (HTTP 404)."""


#: The spec keys ``POST /clusters`` accepts (anything else is a 400).
_SPEC_KEYS = frozenset(
    {
        "name",
        "structure",
        "items",
        "generate",
        "seed",
        "hosts",
        "memory_size",
        "topology",
        "faults",
        "round_budget",
        "max_retries",
        "storage",
        "snapshot_every",
        "options",
    }
)

#: Wire names of the single-operation endpoints -> façade methods.
OP_NAMES = ("get", "nearest", "insert", "delete", "range")

#: Churn verbs served under ``POST /churn/{verb}``.
CHURN_VERBS = ("join", "leave", "crash", "recover", "repair")


def _generate_items(generate: Mapping[str, Any], default_seed: int) -> list[Any]:
    """Build a ground set server-side from a seeded generator spec."""
    kind = generate.get("kind", "uniform")
    count = int(generate.get("count", 128))
    seed = int(generate.get("seed", default_seed))
    if count <= 0:
        raise ValueError(f"generate.count must be positive, got {count}")
    if kind == "uniform":
        return uniform_keys(
            count,
            seed=seed,
            low=float(generate.get("low", 0.0)),
            high=float(generate.get("high", 1_000_000.0)),
        )
    if kind == "strings":
        return random_strings(count, seed=seed)
    if kind == "points":
        return uniform_points(count, dimension=int(generate.get("dimension", 2)), seed=seed)
    raise ValueError(f"unknown generate.kind {kind!r}; expected 'uniform', 'strings' or 'points'")


def _resolve_fault_spec(faults: Any, seed: int) -> "FaultPlan | str | None":
    """Translate the wire ``faults`` field into what the façade accepts."""
    if faults is None or isinstance(faults, (str, FaultPlan)):
        return faults
    if isinstance(faults, Mapping):
        if faults.get("kind") == "plan":
            return faults_from_config(faults)
        rules = tuple(rule_from_config(rule) for rule in faults.get("rules", ()))
        if not rules:
            raise ValueError(f"fault spec {faults!r} contains no rules")
        return FaultPlan(rules, seed=int(faults.get("seed", seed)))
    raise ValueError(f"cannot interpret {faults!r} as a fault plan")


class ServedSession:
    """One client session: a measurement window over its own operations."""

    def __init__(self, session_id: str, cluster_name: str) -> None:
        self.id = session_id
        self.cluster = cluster_name
        self.open = True
        self.ops = 0
        self.batches = 0
        self.by_status: Counter[str] = Counter()
        self.messages = 0
        self.latency = 0
        self.rounds = 0
        self.retries = 0

    def record(self, handles: Sequence[OperationHandle]) -> None:
        for handle in handles:
            self.ops += 1
            self.by_status[handle.status] += 1
            self.messages += handle.messages
            self.latency += handle.latency
            self.rounds += handle.rounds
            self.retries += handle.retries

    def snapshot(self) -> dict[str, Any]:
        """Deterministic session report (no wall-clock fields)."""
        return {
            "session": self.id,
            "cluster": self.cluster,
            "open": self.open,
            "ops": self.ops,
            "batches": self.batches,
            "by_status": {status: self.by_status[status] for status in sorted(self.by_status)},
            "messages": self.messages,
            "latency": self.latency,
            "rounds": self.rounds,
            "retries": self.retries,
        }


class ServedCluster:
    """One named deployment behind its per-cluster serialization lock."""

    def __init__(self, name: str, cluster: Cluster, items_loaded: int) -> None:
        self.name = name
        self.cluster = cluster
        self.items_loaded = items_loaded
        self.lock = threading.RLock()
        self.started = time.monotonic()
        self.ops_total = 0
        self.batches_total = 0
        self.by_status: Counter[str] = Counter()
        self.messages_total = 0
        self.latency_total = 0
        self.retries_total = 0
        self.churn_events_total = 0
        self.repair_messages_total = 0
        self.repair_rounds_total = 0

    # -- operations ----------------------------------------------------- #
    def _record(self, handles: Sequence[OperationHandle]) -> None:
        for handle in handles:
            self.ops_total += 1
            self.by_status[handle.status] += 1
            self.messages_total += handle.messages
            self.latency_total += handle.latency
            self.retries_total += handle.retries

    def run_operation(
        self,
        op: str,
        payload: Any,
        origin_host: int | None = None,
        session: ServedSession | None = None,
    ) -> OperationHandle:
        """Run one wire operation under the cluster lock; record counters."""
        if op not in OP_NAMES:
            raise ValueError(f"unknown operation {op!r}; expected one of {OP_NAMES}")
        with self.lock:
            decoded = decode_payload(self.cluster.spec.name, op, payload)
            method = getattr(self.cluster, op)
            handle = method(decoded, origin_host=origin_host)
            self._record([handle])
            if session is not None:
                session.record([handle])
            return handle

    def run_batch(
        self,
        operations: Sequence[Mapping[str, Any]],
        session: ServedSession | None = None,
    ) -> BatchReport:
        """Run one wire batch as a single concurrent executor batch."""
        normalized = []
        for index, operation in enumerate(operations):
            if not isinstance(operation, Mapping) or "kind" not in operation:
                raise ValueError(
                    f"batch operation #{index} must be an object with 'kind' "
                    f"and 'payload', got {operation!r}"
                )
            kind = operation["kind"]
            payload = decode_payload(self.cluster.spec.name, kind, operation.get("payload"))
            normalized.append(
                {
                    "kind": kind,
                    "payload": payload,
                    "origin_host": operation.get("origin_host"),
                }
            )
        with self.lock:
            report = self.cluster.batch(normalized)
            self._record(report.handles)
            self.batches_total += 1
            if session is not None:
                session.record(report.handles)
                session.batches += 1
            return report

    # -- churn lifecycle ------------------------------------------------- #
    def run_churn(
        self, verb: str, host: int | None = None, hosts: Sequence[int] | None = None
    ) -> dict[str, Any]:
        """Apply one churn verb; returns a JSON-ready event/repair report."""
        if verb not in CHURN_VERBS:
            raise ValueError(f"unknown churn verb {verb!r}; expected one of {CHURN_VERBS}")
        with self.lock:
            if verb == "repair":
                if not hosts:
                    raise ValueError("repair needs a non-empty 'hosts' list")
                result = self.cluster.repair([int(h) for h in hosts])
                self.repair_messages_total += result.messages
                self.repair_rounds_total += result.rounds
                return {
                    "kind": "repair",
                    "hosts": list(hosts),
                    "records_moved": result.summary.records_moved,
                    "messages": result.messages,
                    "rounds": result.rounds,
                    "max_round_congestion": result.max_round_congestion,
                }
            if verb == "join":
                event = self.cluster.join_host()
            elif verb == "leave":
                event = self.cluster.leave_host(host)
            elif verb == "crash":
                event = self.cluster.crash_host(host)
            else:
                event = self.cluster.recover_host(host)
            self.churn_events_total += 1
            self.repair_messages_total += event.repair_messages
            self.repair_rounds_total += event.repair_rounds
            return {
                "kind": event.kind,
                "host": event.host,
                "records_moved": event.records_moved,
                "pointers_rewired": event.pointers_rewired,
                "repair_messages": event.repair_messages,
                "repair_rounds": event.repair_rounds,
            }

    # -- snapshots -------------------------------------------------------- #
    def describe(self) -> dict[str, Any]:
        """Deployment description for cluster listings (costs no messages)."""
        with self.lock:
            stats = self.cluster.stats().as_dict()
        return {
            "name": self.name,
            "structure": stats["structure"],
            "seed": self.cluster.seed,
            "items_loaded": self.items_loaded,
            "topology": (
                self.cluster.topology.describe()
                if self.cluster.topology is not None
                else None
            ),
            "faults": (
                self.cluster.faults.describe()
                if self.cluster.faults is not None
                else None
            ),
            "stats": stats,
        }

    def operations_snapshot(self) -> dict[str, Any]:
        """Lifetime operation counters (deterministic; no wall-clock)."""
        return {
            "total": self.ops_total,
            "batches": self.batches_total,
            "by_status": {
                status: self.by_status[status] for status in sorted(self.by_status)
            },
            "messages": self.messages_total,
            "latency": self.latency_total,
            "retries": self.retries_total,
        }

    def close(self) -> None:
        with self.lock:
            self.cluster.close()


class ClusterManager:
    """Every served cluster and session, behind one registry lock.

    The registry lock only guards the *maps* (create / lookup / remove);
    operation traffic serializes on each cluster's own lock, so requests
    against different clusters never contend.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._clusters: dict[str, ServedCluster] = {}
        self._sessions: dict[str, ServedSession] = {}
        self._session_seq = 0
        self._sessions_closed = 0

    # -- clusters --------------------------------------------------------- #
    def create_cluster(self, spec: Mapping[str, Any]) -> ServedCluster:
        """Build and register one cluster from a wire spec dict."""
        unknown = set(spec) - _SPEC_KEYS
        if unknown:
            raise ValueError(
                f"unknown cluster spec key(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(_SPEC_KEYS)}"
            )
        name = str(spec.get("name", "default"))
        seed = int(spec.get("seed", 0))
        items = spec.get("items")
        if items is None and "generate" in spec:
            items = _generate_items(spec["generate"], seed)
        if items is None:
            raise ValueError(
                "cluster spec needs 'items' (a JSON array) or 'generate' "
                '(e.g. {"kind": "uniform", "count": 128})'
            )
        kwargs: dict[str, Any] = {
            "structure": spec.get("structure", "skipweb1d"),
            "items": [
                tuple(item) if isinstance(item, list) else item for item in items
            ],
            "seed": seed,
            "faults": _resolve_fault_spec(spec.get("faults"), seed),
            "topology": spec.get("topology"),
            "round_budget": spec.get("round_budget"),
        }
        for key in ("hosts", "memory_size", "max_retries", "storage", "snapshot_every"):
            if spec.get(key) is not None:
                kwargs[key] = spec[key]
        kwargs.update(spec.get("options") or {})
        with self._lock:
            if name in self._clusters:
                raise ValueError(f"cluster {name!r} already exists")
            served = ServedCluster(name, Cluster(**kwargs), len(items))
            self._clusters[name] = served
            return served

    def get_cluster(self, name: str) -> ServedCluster:
        with self._lock:
            try:
                return self._clusters[name]
            except KeyError:
                raise UnknownResourceError(f"no cluster named {name!r}") from None

    def remove_cluster(self, name: str) -> dict[str, Any]:
        """Close and unregister one cluster (and its open sessions)."""
        with self._lock:
            try:
                served = self._clusters.pop(name)
            except KeyError:
                raise UnknownResourceError(f"no cluster named {name!r}") from None
            orphaned = [sid for sid, session in self._sessions.items() if session.cluster == name]
            for sid in orphaned:
                self._sessions.pop(sid).open = False
                self._sessions_closed += 1
        served.close()
        return {"closed": name, "sessions_closed": len(orphaned)}

    def clusters(self) -> list[ServedCluster]:
        with self._lock:
            return [self._clusters[name] for name in sorted(self._clusters)]

    # -- sessions --------------------------------------------------------- #
    def open_session(self, cluster_name: str) -> ServedSession:
        self.get_cluster(cluster_name)  # 404 before allocating an id
        with self._lock:
            self._session_seq += 1
            session = ServedSession(f"s{self._session_seq}", cluster_name)
            self._sessions[session.id] = session
            return session

    def get_session(self, session_id: str) -> ServedSession:
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise UnknownResourceError(f"no open session {session_id!r}") from None

    def close_session(self, session_id: str) -> dict[str, Any]:
        with self._lock:
            try:
                session = self._sessions.pop(session_id)
            except KeyError:
                raise UnknownResourceError(f"no open session {session_id!r}") from None
            self._sessions_closed += 1
        session.open = False
        return session.snapshot()

    def sessions(self, cluster_name: str | None = None) -> list[dict[str, Any]]:
        with self._lock:
            sessions = [
                session.snapshot()
                for session in self._sessions.values()
                if cluster_name is None or session.cluster == cluster_name
            ]
        return sorted(sessions, key=lambda s: int(s["session"][1:]))

    def session_counts(self, cluster_name: str | None = None) -> dict[str, int]:
        with self._lock:
            open_count = sum(
                1
                for session in self._sessions.values()
                if cluster_name is None or session.cluster == cluster_name
            )
            return {"open": open_count, "closed": self._sessions_closed}

    def close(self) -> None:
        """Close every served cluster (idempotent, like ``Cluster.close``)."""
        with self._lock:
            served = list(self._clusters.values())
            self._clusters.clear()
            self._sessions.clear()
        for cluster in served:
            cluster.close()


def describe_handle(handle: OperationHandle, **extra: Any) -> dict[str, Any]:
    """One wire-ready handle dict with endpoint context merged in."""
    data = handle.to_dict()
    data.update({key: jsonable(value) for key, value in extra.items()})
    return data
