"""``repro.api`` — the supported public surface of the reproduction.

One import gives a client everything the paper's framework promises:

* :class:`~repro.api.cluster.Cluster` — the façade composing network,
  structure family, execution mode, churn control and accounting behind
  one constructor; every operation returns a uniform
  :class:`~repro.api.results.OperationHandle`.
* The **structure registry** — every deployable structure family (the
  four skip-web instantiations, the bucket variant, the Table 1 baseline
  overlays and the Chord DHT) resolvable by string name; see
  :func:`~repro.api.registry.available_structures`.
* :class:`~repro.api.results.BatchReport` /
  :class:`~repro.api.results.ClusterStats` — typed aggregates for
  batches and deployment snapshots.

Stability policy: the names in ``__all__`` below *are* the supported
API.  They are locked by ``tests/test_api_surface.py`` (run in CI), so
any signature change is an explicit, reviewed event.  Everything outside
``repro.api`` — the structure classes, the engine, the network simulator
— remains importable for research use but may change shape between
releases.
"""

from repro.api.cluster import Cluster, ClusterSession
from repro.api.registry import (
    StructureSpec,
    available_structures,
    register_structure,
    resolve_structure,
    structure_specs,
)
from repro.api.results import BatchReport, ClusterStats, OperationHandle
from repro.engine.executor import Operation
from repro.net.faults import FaultPlan, FaultRule, resolve_faults
from repro.net.topology import (
    ClusteredTopology,
    FlatTopology,
    GeoTopology,
    Topology,
    resolve_topology,
)

__all__ = [
    "Cluster",
    "ClusterSession",
    "Operation",
    "OperationHandle",
    "BatchReport",
    "ClusterStats",
    "StructureSpec",
    "register_structure",
    "resolve_structure",
    "available_structures",
    "structure_specs",
    "Topology",
    "FlatTopology",
    "ClusteredTopology",
    "GeoTopology",
    "resolve_topology",
    "FaultPlan",
    "FaultRule",
    "resolve_faults",
]
