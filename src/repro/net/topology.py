"""Pluggable network topologies: link costs and host clustering.

Every experiment before this module ran on an implicitly *flat* network:
:class:`~repro.net.network.Network` charged every cross-host hop cost 1
and tallied congestion per host only.  This module extracts that
assumption into one seam — the :class:`Topology` ABC — so the same
structures and experiments can run over non-uniform layouts:

* :class:`FlatTopology` — the paper's model and the default: every link
  costs 1, one cluster.  A network constructed *without* a topology is
  byte-identical (on every counter) to one constructed before this seam
  existed; a network given an explicit ``FlatTopology`` additionally
  grows per-link / per-cluster aggregates whose weights are all 1.
* :class:`ClusteredTopology` — the data-center layout: hosts are
  assigned to ``clusters`` racks by id (``host % clusters``, stable
  under churn), intra-cluster links are cheap and inter-cluster links
  carry one uniform weight.
* :class:`GeoTopology` — the geo-distributed layout: hosts are placed
  into regions by a seeded generator
  (:func:`repro.workloads.geo_region`), and a per-region-pair weight
  matrix prices every link.  Placement is a pure function of
  ``(seed, host, regions)``, so hosts that join later land in a
  deterministic region and a recovered run re-derives the same map.

Topologies never change *routing* — which hosts a walk visits is the
structure's business — only the **cost model**: what each hop is worth
(``link_cost``), and how delivered load aggregates (``cluster_of``).
Message counts are therefore identical across topologies; the new
observables are weighted latency and per-link / per-cluster congestion.

A topology is pickled with its network (snapshots restore it), and
:func:`topology_from_config` reconstructs one from the portable
``describe()`` dict the durability layer journals, so
``Cluster.recover()`` can refuse a store whose snapshot and journal
disagree about the layout.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Mapping, Sequence

from repro.net.naming import HostId


class Topology(ABC):
    """Link-cost and clustering policy of a simulated network.

    Implementations must be deterministic pure functions of their
    construction parameters (plus the host id), picklable, and cheap:
    :meth:`link_cost` sits on the per-delivery hot path.
    """

    #: Portable name of the layout family (``describe()['kind']``).
    kind: str = "abstract"

    @abstractmethod
    def link_cost(self, src: HostId, dst: HostId) -> int:
        """Weight of one message crossing the ``src -> dst`` link (>= 1)."""

    @abstractmethod
    def cluster_of(self, host: HostId) -> int:
        """The cluster (rack, region) the host belongs to."""

    @abstractmethod
    def describe(self) -> dict[str, Any]:
        """Portable JSON-able construction record (see
        :func:`topology_from_config`)."""

    @property
    def is_flat(self) -> bool:
        """Whether every link costs 1 (lets hot paths skip the lookup)."""
        return False

    # -- membership hooks ------------------------------------------------ #
    def on_host_added(self, host_id: HostId) -> None:
        """Called by the network after ``host_id`` joined."""

    def on_host_removed(self, host_id: HostId) -> None:
        """Called by the network after ``host_id`` left."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fields = ", ".join(
            f"{key}={value!r}"
            for key, value in self.describe().items()
            if key != "kind"
        )
        return f"{type(self).__name__}({fields})"


class FlatTopology(Topology):
    """The paper's model: every inter-host link costs 1, one cluster."""

    kind = "flat"

    def link_cost(self, src: HostId, dst: HostId) -> int:
        return 1

    def cluster_of(self, host: HostId) -> int:
        return 0

    @property
    def is_flat(self) -> bool:
        return True

    def describe(self) -> dict[str, Any]:
        return {"kind": "flat"}

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, FlatTopology)

    def __hash__(self) -> int:  # pragma: no cover - trivial
        return hash(FlatTopology)


class ClusteredTopology(Topology):
    """Data-center layout: cheap intra-cluster, weighted inter-cluster links.

    Hosts are assigned round-robin by id (``host % clusters``), which is
    stable under churn: a host's cluster never depends on who joined or
    left before it, so live and recovered runs agree.
    """

    kind = "clustered"

    def __init__(
        self, clusters: int = 4, intra_cost: int = 1, inter_cost: int = 8
    ) -> None:
        if clusters < 1:
            raise ValueError(f"clusters must be >= 1, got {clusters}")
        if intra_cost < 1 or inter_cost < 1:
            raise ValueError(
                f"link costs must be >= 1, got intra={intra_cost}, inter={inter_cost}"
            )
        self.clusters = clusters
        self.intra_cost = intra_cost
        self.inter_cost = inter_cost

    def link_cost(self, src: HostId, dst: HostId) -> int:
        if src % self.clusters == dst % self.clusters:
            return self.intra_cost
        return self.inter_cost

    def cluster_of(self, host: HostId) -> int:
        return host % self.clusters

    def describe(self) -> dict[str, Any]:
        return {
            "kind": "clustered",
            "clusters": self.clusters,
            "intra_cost": self.intra_cost,
            "inter_cost": self.inter_cost,
        }

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, ClusteredTopology)
            and self.describe() == other.describe()
        )

    def __hash__(self) -> int:  # pragma: no cover - trivial
        return hash((self.clusters, self.intra_cost, self.inter_cost))


class GeoTopology(Topology):
    """Geo-distributed layout: seeded region placement, per-link weight matrix.

    ``weights[i][j]`` prices a message from region ``i`` to region ``j``;
    omitted, a seeded matrix is generated via
    :func:`repro.workloads.geo_weight_matrix`.  Host placement is the
    pure function :func:`repro.workloads.geo_region` of
    ``(seed, host, regions)`` — independent of join order — memoized per
    host; the membership hooks keep the memo tidy, never change it.
    """

    kind = "geo"

    def __init__(
        self,
        regions: int = 3,
        seed: int = 0,
        weights: Sequence[Sequence[int]] | None = None,
    ) -> None:
        if regions < 1:
            raise ValueError(f"regions must be >= 1, got {regions}")
        from repro.workloads import geo_weight_matrix

        if weights is None:
            weights = geo_weight_matrix(regions, seed=seed)
        matrix = tuple(tuple(int(cost) for cost in row) for row in weights)
        if len(matrix) != regions or any(len(row) != regions for row in matrix):
            raise ValueError(
                f"weights must be a {regions}x{regions} matrix, got "
                f"{len(matrix)} row(s)"
            )
        if any(cost < 1 for row in matrix for cost in row):
            raise ValueError("every link weight must be >= 1")
        self.regions = regions
        self.seed = seed
        self.weights = matrix
        self._placement: dict[HostId, int] = {}

    def cluster_of(self, host: HostId) -> int:
        region = self._placement.get(host)
        if region is None:
            from repro.workloads import geo_region

            region = geo_region(host, self.regions, seed=self.seed)
            self._placement[host] = region
        return region

    def link_cost(self, src: HostId, dst: HostId) -> int:
        return self.weights[self.cluster_of(src)][self.cluster_of(dst)]

    def on_host_added(self, host_id: HostId) -> None:
        self.cluster_of(host_id)  # warm the memo deterministically

    def on_host_removed(self, host_id: HostId) -> None:
        self._placement.pop(host_id, None)

    def placement(self, host_ids: Sequence[HostId]) -> dict[HostId, int]:
        """The region of every listed host (for tables and examples)."""
        return {host: self.cluster_of(host) for host in host_ids}

    def describe(self) -> dict[str, Any]:
        return {
            "kind": "geo",
            "regions": self.regions,
            "seed": self.seed,
            "weights": [list(row) for row in self.weights],
        }

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, GeoTopology) and self.describe() == other.describe()

    def __hash__(self) -> int:  # pragma: no cover - trivial
        return hash((self.regions, self.seed, self.weights))


#: Names accepted by :func:`resolve_topology` (and the CLI's --topology).
TOPOLOGY_NAMES = ("flat", "clustered", "geo")


def resolve_topology(
    spec: "str | Topology | None", seed: int = 0
) -> Topology | None:
    """Resolve a topology argument: ``None``, a name, or an instance.

    ``None`` stays ``None`` — the network's implicit flat default, with
    no per-link accounting.  A name constructs that layout's default
    parameterisation (``"geo"`` seeds its placement and weight matrix
    from ``seed``); an instance passes through.
    """
    if spec is None or isinstance(spec, Topology):
        return spec
    if spec == "flat":
        return FlatTopology()
    if spec == "clustered":
        return ClusteredTopology()
    if spec == "geo":
        return GeoTopology(seed=seed)
    raise ValueError(
        f"unknown topology {spec!r}; expected one of {TOPOLOGY_NAMES} "
        "or a Topology instance"
    )


def topology_from_config(config: "Mapping[str, Any] | None") -> Topology | None:
    """Rebuild a topology from a journaled ``describe()`` dict.

    The inverse of :meth:`Topology.describe`: the durability layer
    stores the portable dict in the cluster's create record and snapshot
    config, and recovery reconstructs the layout from it (``None`` means
    the implicit flat default).
    """
    if config is None:
        return None
    kind = config.get("kind")
    if kind == "flat":
        return FlatTopology()
    if kind == "clustered":
        return ClusteredTopology(
            clusters=config["clusters"],
            intra_cost=config["intra_cost"],
            inter_cost=config["inter_cost"],
        )
    if kind == "geo":
        return GeoTopology(
            regions=config["regions"],
            seed=config["seed"],
            weights=config["weights"],
        )
    raise ValueError(f"unknown topology config kind {kind!r}")
