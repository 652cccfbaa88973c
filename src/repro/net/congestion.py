"""Congestion accounting.

Section 1.1 of the paper defines the congestion of a host as

    "the sum of the number of references to items stored at the host, the
    number of references to items stored at other hosts, and the number
    n/H (which measures the expected number of queries likely to begin at
    any host, based on the number of items in the set S)."

:func:`congestion_report` computes exactly that quantity per host from
the reference counters maintained by :class:`repro.net.host.Host`, plus
summary statistics (max, mean) that the Table 1 benchmark reports.

That static measure is a *proxy*: it counts pointers that could carry
traffic.  When the network runs in round-based mode (see
:meth:`repro.net.network.Network.rounds` and :mod:`repro.engine`), the
congestion each host actually absorbs is measured directly —
:func:`round_congestion_report` summarises the per-host per-round
delivery counts of a batch, the quantity Theorem 2 bounds by
O(log n / log log n) per host per round w.h.p.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from repro.net.naming import HostId


@dataclass(frozen=True, slots=True)
class CongestionReport:
    """Per-host and aggregate congestion of a distributed structure."""

    per_host: dict[HostId, float]
    ground_set_size: int
    host_count: int

    @property
    def max_congestion(self) -> float:
        """The worst per-host congestion — the quantity ``C(n)`` bounds."""
        if not self.per_host:
            return 0.0
        return max(self.per_host.values())

    @property
    def mean_congestion(self) -> float:
        """Average per-host congestion (load-balance indicator)."""
        if not self.per_host:
            return 0.0
        return mean(self.per_host.values())

    @property
    def imbalance(self) -> float:
        """Ratio of max to mean congestion (1.0 means perfectly balanced)."""
        avg = self.mean_congestion
        if avg == 0:
            return 1.0
        return self.max_congestion / avg

    def as_dict(self) -> dict[str, float]:
        """Summary suitable for benchmark tables."""
        return {
            "hosts": float(self.host_count),
            "items": float(self.ground_set_size),
            "max_congestion": self.max_congestion,
            "mean_congestion": self.mean_congestion,
            "imbalance": self.imbalance,
        }


def congestion_report(network, ground_set_size: int) -> CongestionReport:
    """Compute the §1.1 congestion measure for every host of ``network``.

    A single pass over the alive hosts: the reference counters live on
    the hosts themselves, so no intermediate per-host dictionaries are
    rebuilt along the way.

    Parameters
    ----------
    network:
        A :class:`repro.net.network.Network` whose hosts carry reference
        counters populated by the structure under measurement.
    ground_set_size:
        ``n``, the number of items stored in the structure.  The ``n/H``
        term uses the network's *alive* host count for ``H``: queries can
        only begin at (and load can only be absorbed by) hosts that are
        actually up, so after churn a failed host neither dilutes the
        per-host base load nor contributes a per-host row of its own.
    """
    alive = network.alive_host_ids()
    host_count = len(alive)
    if host_count == 0:
        return CongestionReport(per_host={}, ground_set_size=ground_set_size, host_count=0)
    base_load = ground_set_size / host_count
    per_host: dict[HostId, float] = {}
    for host_id in alive:
        host = network.host(host_id)
        per_host[host_id] = host.in_references + host.out_references + base_load
    return CongestionReport(
        per_host=per_host,
        ground_set_size=ground_set_size,
        host_count=host_count,
    )


@dataclass(frozen=True, slots=True)
class RoundCongestionReport:
    """Directly-measured congestion of a round-based batch execution.

    ``per_round_max`` holds, for every round, the largest number of
    messages any single host received in that round; ``busiest_host`` /
    ``busiest_round`` identify where the overall maximum occurred.

    On a network with an explicit :class:`~repro.net.topology.Topology`
    the weighted dimension is populated as well: ``total_weight`` (sum of
    link costs of every delivery), the per-round maximum *link* and
    *cluster* loads, and the busiest link / cluster overall.  Without a
    topology these keep their empty defaults and ``as_dict()`` omits
    them, so flat summaries are byte-identical to the pre-topology ones.
    """

    rounds: int
    total_messages: int
    per_round_max: tuple[int, ...]
    busiest_host: HostId | None
    busiest_round: int | None
    total_weight: int = 0
    per_round_max_link: tuple[int, ...] = ()
    per_round_max_cluster: tuple[int, ...] = ()
    busiest_link: tuple[HostId, HostId] | None = None
    busiest_cluster: int | None = None
    topology_aware: bool = False

    @property
    def max_host_round_load(self) -> int:
        """Worst per-host per-round load — what Theorem 2 bounds w.h.p."""
        return max(self.per_round_max, default=0)

    @property
    def mean_round_max(self) -> float:
        """Average (over rounds) of the per-round maximum host load."""
        if not self.per_round_max:
            return 0.0
        return mean(self.per_round_max)

    @property
    def max_link_round_load(self) -> int:
        """Worst weighted per-link per-round load (0 without a topology)."""
        return max(self.per_round_max_link, default=0)

    @property
    def max_cluster_round_load(self) -> int:
        """Worst weighted per-cluster per-round load (0 without a topology)."""
        return max(self.per_round_max_cluster, default=0)

    def as_dict(self) -> dict[str, float]:
        """Summary suitable for benchmark tables."""
        summary = {
            "rounds": float(self.rounds),
            "messages": float(self.total_messages),
            "max_host_round_load": float(self.max_host_round_load),
            "mean_round_max": self.mean_round_max,
        }
        if self.topology_aware:
            summary["weight"] = float(self.total_weight)
            summary["max_link_round_load"] = float(self.max_link_round_load)
            summary["max_cluster_round_load"] = float(self.max_cluster_round_load)
        return summary


def round_congestion_report(network) -> RoundCongestionReport:
    """Summarise the per-host per-round deliveries of the last round session.

    Reads the running aggregates the network maintains as each round
    closes (see :meth:`repro.net.network.Network.round_congestion_summary`),
    so the summary is O(rounds) even when ``round_report_retention``
    truncated the stored report list.  Empty when the network has only
    ever run in immediate mode.
    """
    rounds, delivered, per_round_max, busiest_host, busiest_round = (
        network.round_congestion_summary()
    )
    weighted = network.topology_congestion_summary()
    if weighted is None:
        return RoundCongestionReport(
            rounds=rounds,
            total_messages=delivered,
            per_round_max=per_round_max,
            busiest_host=busiest_host,
            busiest_round=busiest_round,
        )
    return RoundCongestionReport(
        rounds=rounds,
        total_messages=delivered,
        per_round_max=per_round_max,
        busiest_host=busiest_host,
        busiest_round=busiest_round,
        total_weight=weighted["weight"],
        per_round_max_link=weighted["per_round_max_link"],
        per_round_max_cluster=weighted["per_round_max_cluster"],
        busiest_link=weighted["busiest_link"],
        busiest_cluster=weighted["busiest_cluster"],
        topology_aware=True,
    )
