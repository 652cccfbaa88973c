"""Uniform result objects returned by the :class:`repro.api.cluster.Cluster` façade.

Every operation — single or batched, on any registered structure — comes
back as an :class:`OperationHandle`: one object carrying the operation's
identity, its *status*, its domain-level value and its measured cost.
The statuses translate the internal error taxonomy
(:mod:`repro.errors`) into three client-facing outcomes:

``"ok"``
    The operation completed; ``value`` holds the structure's result
    object (a ``QueryResult``, ``RangeQueryResult``, ``UpdateResult``,
    ``ChordLookup``, ...).
``"unsupported"``
    The structure can *never* perform this operation
    (:class:`~repro.errors.UnsupportedOperationError` — e.g. a range
    query on the Chord baseline, §1.2).  Retrying is pointless.
``"failed"``
    The operation failed on this attempt: a retryable conflict that
    exhausted its retries, a dead host, a duplicate insert, an update on
    a static structure.  ``error`` holds the underlying exception.
``"timed_out"``
    The operation outlived the cluster's per-operation ``round_budget``
    and was abandoned (:class:`~repro.errors.OperationTimedOutError`).
``"gave_up"``
    Every fault-injection retry was consumed by injected drops
    (:class:`~repro.errors.FaultInjectedError`); the operation itself was
    healthy, the (simulated) network was not.

A batch returns a :class:`BatchReport` — a sequence of handles (one per
submitted operation, in submission order) that also exposes the
round-engine aggregates (rounds, messages, per-host per-round congestion)
the benchmarks are built on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.engine.executor import BatchResult, OpOutcome
from repro.errors import UnsupportedOperationError
from repro.net.congestion import RoundCongestionReport
from repro.net.naming import HostId


def jsonable(value: Any) -> Any:
    """Best-effort portable rendering of any result value.

    The shared serialization rule of the server, the CLI and the
    dashboard: JSON scalars pass through, containers recurse, dataclasses
    (the structures' ``QueryResult`` / ``RangeQueryResult`` /
    ``UpdateResult`` / ``ChordLookup`` families, plus range payloads like
    ``Interval`` and ``Box``) become ``{"type": <class>, <field>: ...}``
    dicts, ``as_dict()`` objects use their own summary, and anything else
    falls back to ``repr`` — so serialization never raises, whatever a
    structure puts in a handle.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        rendered = {"type": type(value).__name__}
        for f in dataclasses.fields(value):
            rendered[f.name] = jsonable(getattr(value, f.name))
        return rendered
    if isinstance(value, Mapping):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return [jsonable(item) for item in sorted(value, key=repr)]
    as_dict = getattr(value, "as_dict", None)
    if callable(as_dict):
        return jsonable(as_dict())
    return repr(value)

#: The operation kinds a cluster accepts (aliases resolved in the façade).
OPERATION_KINDS = ("search", "range", "insert", "delete")

#: The statuses an :class:`OperationHandle` can carry.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_UNSUPPORTED = "unsupported"
STATUS_TIMED_OUT = "timed_out"
STATUS_GAVE_UP = "gave_up"


@dataclass
class OperationHandle:
    """One operation's identity, status, value and measured cost."""

    kind: str
    payload: Any
    origin_host: HostId | None
    status: str
    value: Any = None
    error: Exception | None = None
    messages: int = 0
    rounds: int = 0
    retries: int = 0
    index: int = 0
    #: Sum of link costs of the operation's charged hops.  0 without an
    #: explicit topology; equals ``messages`` under ``FlatTopology``.
    latency: int = 0

    @property
    def ok(self) -> bool:
        """Whether the operation completed without error."""
        return self.status == STATUS_OK

    @property
    def unsupported(self) -> bool:
        """Whether the structure can never perform this operation."""
        return self.status == STATUS_UNSUPPORTED

    def result(self) -> Any:
        """The operation's value, re-raising its error if it did not complete."""
        if self.error is not None:
            raise self.error
        return self.value

    def to_dict(self, include_value: bool = True) -> dict[str, Any]:
        """JSON-serializable rendering of the handle (the wire format).

        Everything `json.dumps` accepts directly: the payload and value
        are rendered through :func:`jsonable`, and a non-``None`` error
        contributes its *typed name* (``"UpdateError"``,
        ``"FaultInjectedError"``, ...) plus message — so the three-valued
        status taxonomy and the error types survive HTTP.  Shared by the
        server, the CLI load generator and the dashboard.
        """
        data: dict[str, Any] = {
            "index": self.index,
            "kind": self.kind,
            "payload": jsonable(self.payload),
            "origin_host": self.origin_host,
            "status": self.status,
            "messages": self.messages,
            "rounds": self.rounds,
            "retries": self.retries,
            "latency": self.latency,
        }
        if self.error is not None:
            data["error"] = type(self.error).__name__
            data["error_message"] = str(self.error)
        if include_value:
            data["value"] = jsonable(self.value)
        return data

    @classmethod
    def from_outcome(cls, outcome: OpOutcome, index: int = 0) -> "OperationHandle":
        """Wrap one executor outcome, translating errors into statuses."""
        if outcome.terminal == "timed_out":
            status = STATUS_TIMED_OUT
        elif outcome.terminal == "gave_up":
            status = STATUS_GAVE_UP
        elif outcome.error is None:
            status = STATUS_OK
        elif isinstance(outcome.error, UnsupportedOperationError):
            status = STATUS_UNSUPPORTED
        else:
            status = STATUS_FAILED
        return cls(
            kind=outcome.operation.kind,
            payload=outcome.operation.payload,
            origin_host=outcome.origin_host,
            status=status,
            value=outcome.value,
            error=outcome.error,
            messages=outcome.messages,
            rounds=outcome.rounds,
            retries=outcome.retries,
            index=index,
            latency=outcome.latency,
        )


class BatchReport:
    """Outcome of one :meth:`repro.api.cluster.Cluster.batch` call.

    Behaves as a sequence of :class:`OperationHandle` (submission order)
    and exposes the round-engine aggregates of the underlying
    :class:`~repro.engine.executor.BatchResult` (kept as ``raw``).
    """

    def __init__(self, handles: list[OperationHandle], raw: BatchResult) -> None:
        self.handles = handles
        self.raw = raw

    # -- sequence protocol ---------------------------------------------- #
    def __len__(self) -> int:
        return len(self.handles)

    def __iter__(self) -> Iterator[OperationHandle]:
        return iter(self.handles)

    def __getitem__(self, index: int) -> OperationHandle:
        return self.handles[index]

    # -- aggregates ------------------------------------------------------ #
    @property
    def ops(self) -> int:
        return len(self.handles)

    @property
    def completed(self) -> int:
        return sum(1 for handle in self.handles if handle.ok)

    @property
    def failed(self) -> int:
        return sum(1 for handle in self.handles if handle.status == STATUS_FAILED)

    @property
    def unsupported(self) -> int:
        return sum(1 for handle in self.handles if handle.unsupported)

    @property
    def timed_out(self) -> int:
        """Operations abandoned by the per-operation round budget."""
        return sum(1 for handle in self.handles if handle.status == STATUS_TIMED_OUT)

    @property
    def gave_up(self) -> int:
        """Operations whose fault-injection retries were exhausted."""
        return sum(1 for handle in self.handles if handle.status == STATUS_GAVE_UP)

    @property
    def rounds(self) -> int:
        return self.raw.rounds

    @property
    def messages(self) -> int:
        return self.raw.messages

    @property
    def messages_per_op(self) -> float:
        return self.raw.messages_per_op

    @property
    def latency(self) -> int:
        """Weighted latency of the batch (0 without an explicit topology)."""
        return self.raw.latency

    @property
    def latency_per_op(self) -> float:
        return self.raw.latency_per_op

    @property
    def ops_per_round(self) -> float:
        return self.raw.ops_per_round

    @property
    def max_round_congestion(self) -> int:
        return self.raw.max_round_congestion

    @property
    def retries(self) -> int:
        return sum(handle.retries for handle in self.handles)

    def round_congestion(self) -> RoundCongestionReport:
        """Full round-level congestion summary of the batch."""
        return self.raw.round_congestion()

    def summary(self) -> dict[str, Any]:
        """One benchmark-table row worth of aggregate numbers."""
        summary = self.raw.summary()
        summary["unsupported"] = self.unsupported
        # Degradation keys appear only when the batch actually degraded,
        # so fault-free summaries stay byte-identical to older versions.
        if self.timed_out:
            summary["timed_out"] = self.timed_out
        if self.gave_up:
            summary["gave_up"] = self.gave_up
        return summary

    def to_dict(self, include_values: bool = True) -> dict[str, Any]:
        """JSON-serializable rendering of the whole batch (the wire format).

        ``summary`` carries the aggregate row (:meth:`summary`, including
        the nonzero-only degradation keys) and ``handles`` one
        :meth:`OperationHandle.to_dict` per submitted operation in
        submission order.  ``include_values=False`` drops the per-handle
        domain values for a counts-only report.
        """
        return {
            "ops": self.ops,
            "summary": self.summary(),
            "handles": [
                handle.to_dict(include_value=include_values)
                for handle in self.handles
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchReport(ops={self.ops}, completed={self.completed}, "
            f"failed={self.failed}, unsupported={self.unsupported}, "
            f"rounds={self.rounds}, messages={self.messages})"
        )


@dataclass(frozen=True)
class ClusterStats:
    """Point-in-time snapshot of a cluster's deployment and traffic.

    Built on the network's lifetime ledger counters and membership state
    (the PR-4 aggregates), so taking a snapshot costs no messages.
    """

    structure: str
    hosts: int
    alive_hosts: int
    failed_hosts: int
    ground_set_size: int | None
    max_memory_per_host: int
    membership_epoch: int
    messages_total: int
    messages_by_kind: dict[str, int] = field(default_factory=dict)
    construction_messages: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "structure": self.structure,
            "hosts": self.hosts,
            "alive_hosts": self.alive_hosts,
            "failed_hosts": self.failed_hosts,
            "ground_set_size": self.ground_set_size,
            "max_memory_per_host": self.max_memory_per_host,
            "membership_epoch": self.membership_epoch,
            "messages_total": self.messages_total,
            "messages_by_kind": dict(self.messages_by_kind),
            "construction_messages": self.construction_messages,
        }
