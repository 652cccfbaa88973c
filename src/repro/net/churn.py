"""Live churn: hosts joining, leaving gracefully, and crashing.

The paper assumes a frozen host set (§1.1); real peer-to-peer
deployments do not.  :class:`ChurnController` drives membership change on
a running :class:`~repro.net.network.Network`:

* **join** — a fresh host is registered and load is rebalanced onto it by
  migrating a share of records from the most loaded live host;
* **leave** — a host retires gracefully: its records are handed off to
  the remaining hosts first, then it is removed from the network;
* **crash** — a host fails without warning; the structure's self-repair
  re-homes the records it orphaned, after which the dead host is removed.

Data migration itself is structure-specific, so the controller delegates
it to a *repairer*: any object exposing ``migrate(host_id, targets=None,
fraction=...)`` and ``repair(host_ids)`` returning an object with
``summary`` (a ``MigrationSummary``), ``messages``, ``rounds`` and
``max_round_congestion`` attributes.  In practice that is a
:class:`repro.engine.repair.RepairEngine`; the controller takes it by
duck type so this module stays free of engine imports (the engine layer
builds on ``repro.net``, not the other way around).

Victim and schedule choices are drawn from a seeded ``random.Random``,
so a churn scenario is exactly reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import ChurnError
from repro.net.naming import HostId
from repro.net.network import Network

#: Event kinds a churn schedule may contain.
EVENT_KINDS = ("join", "leave", "crash", "recover")


@dataclass(frozen=True)
class ChurnEvent:
    """One completed membership change, with its measured repair cost."""

    kind: str
    """``"join"``, ``"leave"``, ``"crash"`` or ``"recover"``."""

    host: HostId
    """The host that joined, left, crashed or recovered."""

    records_moved: int
    """Records handed off (join/leave) or reconstructed (crash)."""

    pointers_rewired: int
    """Records elsewhere whose stored pointers were repaired."""

    repair_messages: int
    """Messages the migration/repair traffic cost."""

    repair_rounds: int
    """Network rounds the migration/repair traffic spanned."""

    max_round_congestion: int
    """Worst per-host per-round load during the repair."""

    hosts_after: int
    """Live hosts once the event completed."""


def churn_schedule(
    events: int,
    rng: random.Random,
    join_weight: float = 2.0,
    leave_weight: float = 1.0,
    crash_weight: float = 1.0,
    recover_weight: float = 0.0,
) -> list[str]:
    """A seeded random sequence of churn event kinds.

    Joins are weighted higher by default so sustained schedules grow the
    network slightly instead of draining it below the controller's
    ``min_hosts`` floor.  ``recover`` events default to weight 0: a
    zero-weight trailing entry never changes ``rng.choices``'s draws (the
    cumulative-weight table gains one repeated tail value the bisection
    can never land on), so pre-existing seeded schedules stay
    byte-identical.
    """
    if events < 0:
        raise ValueError(f"events must be non-negative, got {events}")
    weights = (join_weight, leave_weight, crash_weight, recover_weight)
    if min(weights) < 0 or sum(weights) <= 0:
        raise ValueError(f"weights must be non-negative and not all zero: {weights}")
    return rng.choices(EVENT_KINDS, weights=weights, k=events)


class ChurnController:
    """Joins, retires and crashes hosts of a running network.

    Parameters
    ----------
    network:
        The network whose membership is being churned.
    repairer:
        Structure-aware migration/repair driver (see module docstring).
    rng:
        Seeded randomness for victim selection and schedules.
    join_fraction:
        Share of the donor host's records migrated onto a newly joined
        host.
    min_hosts:
        Leaves and crashes are refused once the live host count would
        drop below this floor.
    """

    def __init__(
        self,
        network: Network,
        repairer: Any,
        rng: random.Random | None = None,
        join_fraction: float = 0.5,
        min_hosts: int = 2,
    ) -> None:
        if not 0.0 < join_fraction <= 1.0:
            raise ValueError(f"join_fraction must be in (0, 1], got {join_fraction}")
        if min_hosts < 1:
            raise ValueError(f"min_hosts must be at least 1, got {min_hosts}")
        self.network = network
        self.repairer = repairer
        self.rng = rng or random.Random(0)
        self.join_fraction = join_fraction
        self.min_hosts = min_hosts
        self.events: list[ChurnEvent] = []

    # ------------------------------------------------------------------ #
    # event primitives
    # ------------------------------------------------------------------ #
    def join(self) -> ChurnEvent:
        """Register a fresh host and rebalance load onto it."""
        donor = self._donor_host()
        newcomer = self.network.add_host()
        result = self.repairer.migrate(
            donor, targets=[newcomer.host_id], fraction=self.join_fraction
        )
        return self._record("join", newcomer.host_id, result)

    def leave(self, host_id: HostId | None = None) -> ChurnEvent:
        """Gracefully retire a host: hand its records off, then remove it."""
        victim = self._victim_host(host_id, "leave")
        result = self.repairer.migrate(victim, targets=None, fraction=1.0)
        # No force: a graceful leave must have handed every record off.
        self.network.remove_host(victim)
        return self._record("leave", victim, result)

    def crash(self, host_id: HostId | None = None) -> ChurnEvent:
        """Fail a host without warning, then self-repair and remove it."""
        victim = self._victim_host(host_id, "crash")
        self.network.fail_host(victim)
        result = self.repairer.repair([victim])
        self.network.remove_host(victim, force=True)
        return self._record("crash", victim, result)

    def recover(self, host_id: HostId | None = None) -> ChurnEvent:
        """Bring a failed host back online with its records intact.

        The inverse of a crash *fault* (a crash-stopped host whose state
        survived), not of a crash *event* (which repairs the records away
        and removes the host).  No data moves and no repair traffic is
        charged; the membership epoch bump is what downstream layers
        (the executor's origin list, repair engines) react to.
        """
        failed = sorted(self.network.failed_hosts)
        if host_id is not None:
            if host_id not in failed:
                raise ChurnError(f"cannot recover host {host_id}: not a failed host")
            victim = host_id
        else:
            if not failed:
                raise ChurnError("cannot recover: the network has no failed hosts")
            victim = self.rng.choice(failed)
        self.network.recover_host(victim)
        event = ChurnEvent(
            kind="recover",
            host=victim,
            records_moved=0,
            pointers_rewired=0,
            repair_messages=0,
            repair_rounds=0,
            max_round_congestion=0,
            hosts_after=len(self._live_hosts()),
        )
        self.events.append(event)
        return event

    def run_schedule(self, kinds: Iterable[str]) -> list[ChurnEvent]:
        """Apply a sequence of ``"join"`` / ``"leave"`` / ``"crash"`` /
        ``"recover"`` events."""
        applied: list[ChurnEvent] = []
        for kind in kinds:
            if kind == "join":
                applied.append(self.join())
            elif kind == "leave":
                applied.append(self.leave())
            elif kind == "crash":
                applied.append(self.crash())
            elif kind == "recover":
                applied.append(self.recover())
            else:
                raise ValueError(f"unknown churn event kind {kind!r}")
        return applied

    # ------------------------------------------------------------------ #
    # selection and bookkeeping
    # ------------------------------------------------------------------ #
    def _live_hosts(self) -> list[HostId]:
        return self.network.alive_host_ids()

    def _donor_host(self) -> HostId:
        """The most loaded live host (ties break on the lower id)."""
        live = self._live_hosts()
        if not live:
            raise ChurnError("cannot join: the network has no live hosts")
        return max(live, key=lambda host_id: (self.network.host(host_id).memory_used, -host_id))

    def _victim_host(self, host_id: HostId | None, kind: str) -> HostId:
        live = self._live_hosts()
        if len(live) <= self.min_hosts:
            raise ChurnError(
                f"cannot {kind}: only {len(live)} live host(s) left "
                f"(min_hosts={self.min_hosts})"
            )
        if host_id is not None:
            if host_id not in live:
                raise ChurnError(f"cannot {kind} host {host_id}: not a live host")
            return host_id
        return self.rng.choice(live)

    def _record(self, kind: str, host: HostId, result: Any) -> ChurnEvent:
        event = ChurnEvent(
            kind=kind,
            host=host,
            records_moved=result.summary.records_moved,
            pointers_rewired=result.summary.pointers_rewired,
            repair_messages=result.messages,
            repair_rounds=result.rounds,
            max_round_congestion=result.max_round_congestion,
            hosts_after=len(self._live_hosts()),
        )
        self.events.append(event)
        return event
