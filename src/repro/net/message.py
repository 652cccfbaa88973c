"""Message kinds and the ledger that counts them.

Messages are the unit of cost in the paper: the query cost ``Q(n)`` and
update cost ``U(n)`` are both defined as *numbers of messages* (§1.1).
The simulator counts every delivery on a :class:`MessageLog` — per kind
and per host, sent and received — tagged with a :class:`MessageKind` so
benchmarks can break costs down by purpose (query routing, update
propagation, structure construction, ...).  A delivery is a tally, not
an object: nothing in the cost model reads a message's contents.
"""

from __future__ import annotations

import enum
from typing import Iterable

from repro.net.naming import HostId


class MessageKind(enum.Enum):
    """Why a message was sent.

    The paper only distinguishes query messages from update messages; the
    extra kinds let benchmarks exclude one-time construction traffic and
    let tests assert that, e.g., a pure query never generates update
    traffic.
    """

    QUERY = "query"
    """Routing a query between hosts (contributes to ``Q(n)``)."""

    UPDATE = "update"
    """Propagating an insertion or deletion (contributes to ``U(n)``)."""

    CONSTRUCTION = "construction"
    """One-time traffic while building a structure; not part of ``Q``/``U``."""

    CONTROL = "control"
    """Anything else (membership, maintenance, failure probes)."""


class MessageLog:
    """Counters of every delivered message: per kind, per host, per fault verb."""

    def __init__(self) -> None:
        self._counts: dict[MessageKind, int] = {kind: 0 for kind in MessageKind}
        self._per_host_received: dict[HostId, int] = {}
        self._per_host_sent: dict[HostId, int] = {}
        # Fault-injection tallies (repro.net.faults).  Dropped/delayed
        # deliveries are *not* counted as messages — they never reached
        # their destination this round — so they get their own counters.
        self._dropped = 0
        self._duplicated = 0
        self._delayed = 0

    def tally(self, src: HostId, dst: HostId, kind: MessageKind) -> None:
        """Count one message from ``src`` to ``dst``."""
        self._counts[kind] += 1
        self._per_host_received[dst] = self._per_host_received.get(dst, 0) + 1
        self._per_host_sent[src] = self._per_host_sent.get(src, 0) + 1

    def __len__(self) -> int:
        return sum(self._counts.values())

    def count(self, kind: MessageKind | None = None) -> int:
        """Total number of messages, optionally restricted to one kind."""
        if kind is None:
            return len(self)
        return self._counts[kind]

    def counts_by_kind(self) -> dict[MessageKind, int]:
        """A copy of the per-kind counters."""
        return dict(self._counts)

    def received_by(self, host: HostId) -> int:
        """Number of messages delivered to ``host`` (query-load congestion)."""
        return self._per_host_received.get(host, 0)

    def sent_by(self, host: HostId) -> int:
        """Number of messages originated by ``host``."""
        return self._per_host_sent.get(host, 0)

    @property
    def dropped(self) -> int:
        """Deliveries dropped by an installed fault plan."""
        return self._dropped

    @property
    def duplicated(self) -> int:
        """Deliveries duplicated by an installed fault plan."""
        return self._duplicated

    @property
    def delayed(self) -> int:
        """Deliveries deferred to a later round by an installed fault plan."""
        return self._delayed

    def note_drop(self) -> None:
        """Tally one fault-injected drop (no message is recorded)."""
        self._dropped += 1

    def note_duplicate(self) -> None:
        """Tally one fault-injected duplication (the copy is recorded too)."""
        self._duplicated += 1

    def note_delay(self) -> None:
        """Tally one fault-injected delivery deferral."""
        self._delayed += 1

    def busiest_hosts(self, top: int = 5) -> list[tuple[HostId, int]]:
        """The ``top`` hosts by received-message count, most loaded first."""
        ranked = sorted(self._per_host_received.items(), key=lambda item: item[1], reverse=True)
        return ranked[:top]

    def clear(self) -> None:
        """Reset every counter."""
        self._counts = {kind: 0 for kind in MessageKind}
        self._per_host_received.clear()
        self._per_host_sent.clear()
        self._dropped = 0
        self._duplicated = 0
        self._delayed = 0

    def extend_counts(self, other: "MessageLog") -> None:
        """Merge another log's counters into this one (used by harnesses)."""
        for kind, value in other._counts.items():
            self._counts[kind] += value
        for host, value in other._per_host_received.items():
            self._per_host_received[host] = self._per_host_received.get(host, 0) + value
        for host, value in other._per_host_sent.items():
            self._per_host_sent[host] = self._per_host_sent.get(host, 0) + value
        self._dropped += other._dropped
        self._duplicated += other._duplicated
        self._delayed += other._delayed


def total_messages(logs: Iterable[MessageLog], kind: MessageKind | None = None) -> int:
    """Sum message counts across several logs."""
    return sum(log.count(kind) for log in logs)
