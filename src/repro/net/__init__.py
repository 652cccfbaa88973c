"""Peer-to-peer network simulator substrate.

The paper assumes ``n`` hosts that can each send a message to any other
host, with per-host memory bounded by ``M`` and no host failures (§1.1).
This subpackage provides exactly that model as a deterministic,
single-process simulator:

* :class:`~repro.net.host.Host` — a host with a slot-addressed local store
  and a memory budget.
* :class:`~repro.net.naming.Address` — a ``(host, slot)`` pair, the unit of
  "hyperlink pointer" used throughout the paper (§2.3: "a pointer consists
  of a pair (h, a)").
* :class:`~repro.net.network.Network` — the host registry and the message
  accounting boundary.  Every remote pointer dereference costs one message;
  local dereferences are free, matching the paper's cost model.
* :class:`~repro.net.rpc.Traversal` — a cursor that walks a distributed
  structure, automatically charging messages when it crosses hosts.
* :class:`~repro.net.congestion.CongestionReport` — the congestion measure
  ``C(n)`` of §1.1.
* :mod:`repro.net.churn` — live membership change: hosts joining,
  leaving gracefully (with record hand-off) or crashing (followed by
  structure self-repair); also an extension beyond the paper.
* :mod:`repro.net.topology` — pluggable link-cost models (flat,
  clustered, geo-distributed): per-hop weights, host clustering and the
  weighted congestion/latency dimension they unlock; the paper's flat
  model is the default and costs nothing when left implicit.
* :mod:`repro.net.faults` — deterministic fault injection: seeded
  :class:`~repro.net.faults.FaultPlan` rules drop / duplicate / delay
  deliveries and crash (or cluster-wide blackout) hosts at one choke
  point in delivery; ``faults=None`` costs nothing and stays
  byte-identical to a fault-free network.
"""

from repro.net.naming import Address, HostId, fresh_host_ids
from repro.net.message import MessageKind, MessageLog
from repro.net.host import Host
from repro.net.network import Network, OperationStats, PendingDelivery, RoundReport
from repro.net.topology import (
    ClusteredTopology,
    FlatTopology,
    GeoTopology,
    Topology,
    TOPOLOGY_NAMES,
    resolve_topology,
    topology_from_config,
)
from repro.net.rpc import Traversal, RemoteRef
from repro.net.congestion import (
    CongestionReport,
    RoundCongestionReport,
    congestion_report,
    round_congestion_report,
    summarize_round_reports,
)
from repro.net.faults import (
    FAULT_NAMES,
    FaultPlan,
    FaultRule,
    faults_from_config,
    inject_host_faults,
    resolve_faults,
)
from repro.net.churn import ChurnController, ChurnEvent, churn_schedule

__all__ = [
    "ChurnController",
    "ChurnEvent",
    "churn_schedule",
    "Address",
    "HostId",
    "fresh_host_ids",
    "MessageKind",
    "MessageLog",
    "Host",
    "Network",
    "OperationStats",
    "PendingDelivery",
    "RoundReport",
    "Topology",
    "FlatTopology",
    "ClusteredTopology",
    "GeoTopology",
    "TOPOLOGY_NAMES",
    "resolve_topology",
    "topology_from_config",
    "Traversal",
    "RemoteRef",
    "CongestionReport",
    "RoundCongestionReport",
    "congestion_report",
    "round_congestion_report",
    "summarize_round_reports",
    "FaultPlan",
    "FaultRule",
    "FAULT_NAMES",
    "faults_from_config",
    "inject_host_faults",
    "resolve_faults",
]
