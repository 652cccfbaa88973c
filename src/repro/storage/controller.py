"""The durability controller: journaling on the way in, replay on the way out.

One :class:`DurabilityController` sits between a ``Cluster`` façade and
a :class:`~repro.storage.backends.StorageBackend`.  In normal operation
it is write-only: every *committed* action — construction, bulk-load,
batch (a single operation is a batch of one), churn event, repair,
churn re-configuration — is appended to the log **after** it has fully
applied in memory, and every network membership mutation is appended
as an audit record the moment it happens.  Because the append is post-commit, a crash at any
instant leaves the log describing exactly the committed prefix of the
run: the worst a SIGKILL can do is lose the action that was in flight
(plus its already-flushed audit records, which recovery discards as an
uncommitted suffix).

During **replay** the controller flips to verify-only: re-executing the
logged actions on a restored (or freshly re-constructed) deployment
regenerates the same membership events, and the controller checks them
off against the audit records in the log — any divergence between what
the journal says happened and what the replayed deployment actually
does raises :class:`~repro.errors.StorageError` instead of continuing
from a silently different state.  All simulation randomness is seeded
and journaled requests record the *request* (e.g. "crash a random
host"), not the outcome, so the seeded streams evolve identically and
replayed accounting — ``MessageLog.tally`` counters, round-congestion
aggregates, churn victim choices — is byte-identical.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.errors import ReproError, StorageError
from repro.net.faults import HOST_FAULTS
from repro.storage.backends import StorageBackend
from repro.storage.record import LogRecord

#: Churn record actions mapped to the façade methods that replay them.
_CHURN_ACTIONS = ("join", "leave", "crash", "recover")


def committed_prefix(records: Sequence[LogRecord]) -> int:
    """Length of the committed prefix of a verified record list.

    Audit (``membership``) records trailing the final action record
    belong to an action that never committed — the crash interrupted it
    after its network mutations but before its post-commit append — so
    recovery replays up to the last action and truncates the dangles.
    ``note`` records are kept (they carry workload metadata, not state).
    """
    count = len(records)
    while count > 0 and records[count - 1].kind == "membership":
        count -= 1
    return count


def refuse_unreplayable_singles(create: Mapping[str, Any], records: Sequence[LogRecord]) -> None:
    """Refuse a retired ``mode: "immediate"`` journal whose singles could diverge.

    Older builds had a ``Cluster`` ``mode`` whose ``"immediate"`` setting
    ran single operations off the round clock and journaled them as
    ``single`` records.  Those records now replay as one-op batches,
    which lands on the same state except where the old path differed:
    it applied no round budget, its fault plan decided each send with no round index
    (a burst ``window`` never matched, a host rule never fired inside a
    single), and a range report walked its sub-walks back to back, so a
    drop cut it short at a different point.  When ``records`` (the tail
    to replay) holds a ``single`` and the ``create`` record makes one of
    those differences possible, recovery raises here, before replaying
    anything, instead of replaying onto a silently different state.
    """
    if create.get("mode") != "immediate":
        return
    singles = [record for record in records if record.kind == "single"]
    if not singles:
        return
    rules = (create.get("faults") or {}).get("rules", ())
    if create.get("round_budget") is not None:
        reason = "a round budget"
    elif any("window" in rule or rule["kind"] in HOST_FAULTS for rule in rules):
        reason = "a fault plan that reads the round clock"
    elif rules and any(record.payload["kind"] == "range" for record in singles):
        reason = "range singles under a fault plan"
    else:
        return
    raise StorageError(
        f"journal was written in the retired mode 'immediate' with {reason}; "
        "its single operations now replay as one-op batches and could diverge "
        "from the recorded run, so recovery refuses it"
    )


class DurabilityController:
    """Journals one cluster's committed actions; verifies them on replay."""

    def __init__(self, backend: StorageBackend, snapshot_every: int = 0) -> None:
        if snapshot_every < 0:
            raise ValueError(f"snapshot_every must be >= 0, got {snapshot_every}")
        self.backend = backend
        self.snapshot_every = snapshot_every
        self.replaying = False
        #: Action records journaled or replayed over this controller's life.
        self.applied_actions = 0
        self._actions_since_snapshot = 0
        #: Set by the cluster: writes a snapshot of the current state.
        self.snapshot_hook: Callable[[], None] | None = None
        #: Membership events observed while replaying one action.
        self._observed: list[tuple[str, Any]] | None = None

    # ------------------------------------------------------------------ #
    # journaling (normal operation)
    # ------------------------------------------------------------------ #
    def record_action(self, kind: str, payload: dict[str, Any]) -> None:
        """Append one committed action; honours the snapshot cadence."""
        if self.replaying:
            return
        self.backend.append(kind, payload)
        self.applied_actions += 1
        self._actions_since_snapshot += 1
        if (
            self.snapshot_every
            and self._actions_since_snapshot >= self.snapshot_every
            and self.snapshot_hook is not None
        ):
            self.snapshot_hook()

    def record_note(self, payload: dict[str, Any]) -> None:
        """Append replay-inert metadata (workload parameters, markers)."""
        if not self.replaying:
            self.backend.append("note", payload)

    def on_batch_commit(self, operations: tuple[Any, ...], result: Any) -> None:
        """Executor commit hook: journal a batch as its normalized ops."""
        if self.replaying:
            return
        self.record_action(
            "batch",
            {
                "operations": [
                    (op.kind, op.payload, op.origin_host) for op in operations
                ]
            },
        )

    def membership_listener(self, event: str, host_id: Any) -> None:
        """Network hook: audit membership changes, or collect them on replay."""
        if self._observed is not None:
            self._observed.append((event, host_id))
        elif not self.replaying:
            self.backend.append("membership", {"event": event, "host": host_id})

    def note_snapshot(self) -> None:
        """Reset the cadence counter (a snapshot was just written)."""
        self._actions_since_snapshot = 0

    # ------------------------------------------------------------------ #
    # replay (recovery)
    # ------------------------------------------------------------------ #
    def replay(self, cluster: Any, records: Sequence[LogRecord]) -> int:
        """Re-execute ``records`` on ``cluster``, verifying audit records.

        ``records`` must be the committed log tail (no ``create`` record
        — construction is the caller's job — and no trailing dangles;
        see :func:`committed_prefix`).  Returns the number of action
        records applied.  Raises :class:`~repro.errors.StorageError` on
        any divergence between the journal and the replayed run.
        """
        self.replaying = True
        applied = 0
        pending: list[tuple[str, Any]] = []
        try:
            for record in records:
                if record.kind == "membership":
                    pending.append(
                        (record.payload["event"], record.payload["host"])
                    )
                    continue
                if record.kind == "note":
                    continue
                self._observed = []
                try:
                    self._apply(cluster, record)
                except StorageError:
                    raise
                except ReproError as exc:
                    raise StorageError(
                        f"replay of log record {record.seq} "
                        f"({record.kind!r}) failed: {exc} — the journal and "
                        "the replayed deployment have diverged"
                    ) from exc
                observed = self._observed
                self._observed = None
                if observed != pending:
                    raise StorageError(
                        f"replay divergence at log record {record.seq} "
                        f"({record.kind!r}): journal records membership "
                        f"events {pending!r}, replay produced {observed!r}"
                    )
                pending = []
                applied += 1
                self.applied_actions += 1
            if pending:
                raise StorageError(
                    f"log ends with {len(pending)} membership record(s) not "
                    "owned by any committed action; recovery should have "
                    "truncated them (inconsistent store)"
                )
        finally:
            self._observed = None
            self.replaying = False
        return applied

    def _apply(self, cluster: Any, record: LogRecord) -> None:
        kind = record.kind
        payload = record.payload
        if kind == "bulk_load":
            cluster.bulk_load(payload["items"])
        elif kind == "batch":
            cluster.batch(
                [tuple(operation) for operation in payload["operations"]]
            )
        elif kind == "single":
            # Retired immediate mode: replays as a one-op batch (see
            # refuse_unreplayable_singles for when that could diverge).
            cluster._run_single(
                payload["kind"], payload["payload"], payload["origin_host"]
            )
        elif kind == "churn":
            action = payload["action"]
            if action == "join":
                cluster.join_host()
            elif action == "leave":
                cluster.leave_host(payload["host"])
            elif action == "crash":
                cluster.crash_host(payload["host"])
            elif action == "recover":
                cluster.recover_host(payload["host"])
            else:
                raise StorageError(
                    f"log record {record.seq} requests unknown churn "
                    f"action {action!r} (expected one of {_CHURN_ACTIONS})"
                )
        elif kind == "repair":
            cluster.repair(payload["host_ids"])
        elif kind == "configure_churn":
            cluster.configure_churn(
                join_fraction=payload.get("join_fraction"),
                min_hosts=payload.get("min_hosts"),
            )
        elif kind == "create":
            raise StorageError(
                f"unexpected 'create' record at log position {record.seq}; "
                "construction records are only valid at position 0"
            )
        else:
            raise StorageError(
                f"log record {record.seq} has unknown kind {kind!r} "
                "(written by a newer build?)"
            )
