"""The :class:`Cluster` façade: one typed entry point for every structure.

Before this module, every consumer of the reproduction wired the stack
by hand: build a :class:`~repro.net.network.Network`, construct one of
eleven structure classes, wrap a
:class:`~repro.engine.executor.BatchExecutor` for concurrency, a
:class:`~repro.engine.repair.RepairEngine` +
:class:`~repro.net.churn.ChurnController` for membership change, and
journal it for recovery.  ``Cluster`` composes all of that
behind one constructor::

    from repro.api import Cluster

    with Cluster(structure="skipweb1d", items=keys, seed=7) as cluster:
        handle = cluster.nearest(421337.0)        # OperationHandle
        report = cluster.batch([("search", q) for q in queries])
        cluster.join_host(); cluster.crash_host()
        print(cluster.stats().as_dict())

Operation methods return :class:`~repro.api.results.OperationHandle`
objects with a uniform ``status`` (``"ok"`` / ``"failed"`` /
``"unsupported"``); a batch isolates per-operation failures instead of
raising mid-flight.  Every operation runs through the round-based
engine: a single operation is a batch of one, so its rounds and
congestion are measured and it is journaled as a ``batch`` record.  A
lone search, insert or delete is one walk, one round per crossing, and
costs the messages of the paper's one-at-a-time cost model.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Sequence

from repro.api.registry import StructureSpec, resolve_structure, structure_specs
from repro.api.results import (
    BatchReport,
    ClusterStats,
    OPERATION_KINDS,
    OperationHandle,
    STATUS_FAILED,
    STATUS_UNSUPPORTED,
)
from repro.engine.executor import BatchExecutor, Operation
from repro.engine.repair import RepairEngine, RepairResult
from repro.errors import StorageError, StructureError
from repro.net.churn import ChurnController, ChurnEvent
from repro.net.congestion import RoundCongestionReport, round_congestion_report
from repro.net.faults import FaultPlan, faults_from_config, resolve_faults
from repro.net.naming import HostId
from repro.net.network import Network, OperationStats
from repro.net.topology import Topology, resolve_topology, topology_from_config
from repro.storage import (
    DurabilityController,
    StorageBackend,
    capture_snapshot,
    committed_prefix,
    open_storage,
    restore_snapshot,
)
from repro.storage.controller import refuse_unreplayable_singles

#: Convenience aliases accepted wherever an operation kind is named.
_KIND_ALIASES = {
    "get": "search",
    "lookup": "search",
    "nearest": "search",
    "query": "search",
    "locate": "search",
    "range_search": "range",
    "report": "range",
}


def _canonical_kind(kind: str) -> str:
    resolved = _KIND_ALIASES.get(kind, kind)
    if resolved not in OPERATION_KINDS:
        raise ValueError(
            f"unknown operation kind {kind!r}; expected one of "
            f"{OPERATION_KINDS} (or an alias {tuple(_KIND_ALIASES)})"
        )
    return resolved


class ClusterSession:
    """Operations scoped to one measurement window (see :meth:`Cluster.session`).

    Forwards the operation surface to its cluster; ``messages`` /
    ``rounds`` / ``by_kind`` read the live
    :class:`~repro.net.network.OperationStats` of the window.
    """

    def __init__(self, cluster: "Cluster", stats: OperationStats) -> None:
        self.cluster = cluster
        self._stats = stats

    # -- the operation surface, forwarded ------------------------------- #
    def get(self, key: Any, origin_host: HostId | None = None) -> OperationHandle:
        return self.cluster.get(key, origin_host=origin_host)

    def nearest(self, query: Any, origin_host: HostId | None = None) -> OperationHandle:
        return self.cluster.nearest(query, origin_host=origin_host)

    def range(self, query_range: Any, origin_host: HostId | None = None) -> OperationHandle:
        return self.cluster.range(query_range, origin_host=origin_host)

    def insert(self, item: Any, origin_host: HostId | None = None) -> OperationHandle:
        return self.cluster.insert(item, origin_host=origin_host)

    def delete(self, item: Any, origin_host: HostId | None = None) -> OperationHandle:
        return self.cluster.delete(item, origin_host=origin_host)

    def batch(self, operations: Sequence[Any]) -> BatchReport:
        return self.cluster.batch(operations)

    # -- window accounting ----------------------------------------------- #
    @property
    def messages(self) -> int:
        """Messages charged inside this session so far."""
        return self._stats.messages

    @property
    def rounds(self) -> int:
        """Distinct network rounds this session's messages spanned."""
        return self._stats.rounds

    def by_kind(self) -> dict[str, int]:
        """Per-kind message counts of this session so far."""
        return {kind.value: count for kind, count in self._stats.by_kind.items()}


class Cluster:
    """A deployed distributed structure with its full operation surface.

    Parameters
    ----------
    structure:
        Registry name (see :func:`repro.api.registry.available_structures`),
        e.g. ``"skipweb1d"``, ``"skipquadtree"``, ``"chord"``.
    items:
        The ground set to build over.  Omit it to configure a cluster
        first and load data later via :meth:`bulk_load`.
    hosts:
        Host budget (structures that take ``host_count``); default one
        host per item where the structure supports it.
    memory_size:
        The paper's ``M`` for bucketed structures (``bucket-skipweb1d``).
    seed:
        Seed for membership words / promotions; also seeds the churn
        controller unless ``churn_rng`` is given.
    network:
        Pre-existing :class:`~repro.net.network.Network` to deploy into.
    topology:
        Link-cost model of the deployment: a
        :class:`~repro.net.topology.Topology` instance or one of the
        names ``"flat"`` / ``"clustered"`` / ``"geo"`` (``"geo"`` seeds
        its placement and weight matrix from ``seed``).  The default
        ``None`` keeps the implicit flat model — every counter
        byte-identical to a pre-topology cluster.  An explicit topology
        is installed on the structure's network right after
        construction, so operation traffic (not the build) accrues the
        weighted latency and per-link / per-cluster congestion
        dimension.
    faults:
        Deterministic fault plan of the deployment: a
        :class:`~repro.net.faults.FaultPlan` instance, one of the named
        chaos plans (``"lossy"`` / ``"flaky"`` / ``"blackout"``, seeded
        from ``seed``), or a spec dict.  Installed on the structure's
        network right *after* construction — build traffic is never
        faulted — so operation traffic is subject to seeded message
        drops / duplications / delays and scheduled host crashes.  The
        default ``None`` injects nothing and keeps every counter
        byte-identical to a fault-free cluster.
    round_budget:
        Optional per-operation timeout in delivery rounds for batched
        execution; an over-budget operation's handle reports
        ``timed_out`` instead of the batch stalling on it.
    max_retries:
        Forwarded to the :class:`~repro.engine.executor.BatchExecutor`:
        bounds conflict restarts and fault-induced restarts, whose
        exhaustion reports ``gave_up``.
    churn_rng / join_fraction / min_hosts:
        Churn-controller configuration (see
        :class:`~repro.net.churn.ChurnController`).
    storage:
        A path (``.sqlite``/``.db`` file or a jsonl directory) or a
        :class:`~repro.storage.backends.StorageBackend`: every committed
        action is journaled so the run survives a crash and is
        recoverable byte-identically via :meth:`Cluster.recover`.
        Journaled runs must be replayable, so ``storage=`` refuses an
        external ``network=`` and an external ``churn_rng=``.
    snapshot_every:
        With ``storage=``, write a full-state snapshot every N committed
        actions (0 = only on explicit :meth:`save`); recovery replays
        the log tail past the newest snapshot.
    options:
        Structure-specific keywords passed through to the factory
        (``alphabet=``, ``bounding_cube=``, ``box=``, ``blocking=``,
        ``bits=``, ...).
    """

    def __init__(
        self,
        structure: str = "skipweb1d",
        items: Sequence[Any] | None = None,
        *,
        hosts: int | None = None,
        memory_size: int | None = None,
        seed: int = 0,
        network: Network | None = None,
        topology: "Topology | str | None" = None,
        faults: "FaultPlan | str | Mapping[str, Any] | None" = None,
        round_budget: int | None = None,
        max_retries: int = 5,
        churn_rng: random.Random | None = None,
        join_fraction: float = 0.5,
        min_hosts: int = 2,
        storage: "str | StorageBackend | None" = None,
        snapshot_every: int = 0,
        **options: Any,
    ) -> None:
        self.spec: StructureSpec = resolve_structure(structure)
        self.seed = seed
        self._hosts = hosts
        self._memory_size = memory_size
        self._options = dict(options)
        self._network = network
        self._topology = resolve_topology(topology, seed=seed)
        self._faults = resolve_faults(faults, seed=seed)
        self._round_budget = round_budget
        self._max_retries = max_retries
        self._churn_rng = churn_rng
        self._join_fraction = join_fraction
        self._min_hosts = min_hosts
        self._structure: Any = None
        self._executor: BatchExecutor | None = None
        self._churn: ChurnController | None = None
        self._repair_engine: RepairEngine | None = None
        self._closed = False
        self._close_lock = threading.Lock()
        self._durability: DurabilityController | None = None
        self._snapshot_every = snapshot_every
        if storage is not None:
            self._check_storage_config()
            self._attach_durability(
                DurabilityController(open_storage(storage), snapshot_every=snapshot_every)
            )
        if items is not None:
            self._structure = self._construct(self.spec.factory, items)
            if self._topology is not None:
                self.network.set_topology(self._topology)
            if self._faults is not None:
                self.network.set_faults(self._faults)
        if self._durability is not None:
            # Journal construction (post-commit) so recovery can rebuild
            # from genesis even before the first snapshot exists.  The
            # network's membership listener only attaches once the
            # structure exists: construction-time add_host events are
            # implied by the create record, not journaled individually.
            self._durability.record_action("create", self._create_payload(items))
            if self._structure is not None:
                self.network.add_membership_listener(
                    self._durability.membership_listener
                )

    def _check_storage_config(self) -> None:
        if not self.spec.durable:
            raise StorageError(
                f"structure {self.spec.name!r} is registered durable=False; "
                "its runs cannot be journaled for byte-identical replay"
            )
        if self._network is not None:
            raise StorageError(
                "storage= requires the cluster to own its network: an "
                "externally built network's construction history is not in "
                "the log, so recovery could not rebuild it"
            )
        if self._churn_rng is not None:
            raise StorageError(
                "storage= refuses an external churn_rng: recovery re-seeds "
                "churn from the recorded seed, so an external stream would "
                "diverge on replay (drop churn_rng= or storage=)"
            )

    def _create_payload(self, items: Sequence[Any] | None) -> dict[str, Any]:
        return {
            "structure": self.spec.name,
            "items": tuple(items) if items is not None else None,
            "hosts": self._hosts,
            "memory_size": self._memory_size,
            "seed": self.seed,
            "max_retries": self._max_retries,
            "join_fraction": self._join_fraction,
            "min_hosts": self._min_hosts,
            "snapshot_every": self._snapshot_every,
            "topology": (
                self._topology.describe() if self._topology is not None else None
            ),
            "faults": (
                self._faults.describe() if self._faults is not None else None
            ),
            "round_budget": self._round_budget,
            "options": dict(self._options),
        }

    def _attach_durability(self, controller: DurabilityController) -> None:
        self._durability = controller
        controller.snapshot_hook = self._maybe_snapshot

    # ------------------------------------------------------------------ #
    # construction paths
    # ------------------------------------------------------------------ #
    def _factory_kwargs(self) -> dict[str, Any]:
        kwargs: dict[str, Any] = {"network": self._network, "seed": self.seed}
        kwargs.update(self._options)
        if self._hosts is not None:
            kwargs["hosts"] = self._hosts
        if self._memory_size is not None:
            kwargs["memory_size"] = self._memory_size
        return kwargs

    def _construct(self, factory: Any, items: Sequence[Any]) -> Any:
        try:
            return factory(items, **self._factory_kwargs())
        except TypeError as exc:
            raise StructureError(
                f"structure {self.spec.name!r} rejected its configuration: {exc}"
            ) from exc

    @classmethod
    def from_structure(
        cls,
        structure: Any,
        *,
        max_retries: int = 5,
        churn_rng: random.Random | None = None,
        join_fraction: float = 0.5,
        min_hosts: int = 2,
    ) -> "Cluster":
        """Wrap an already-built structure instance in a façade.

        The structure must be registered (its class resolvable by name)
        so the cluster knows its capabilities.
        """
        specs = list(structure_specs().values())
        # Exact class match first: subclass families (SkipNet under
        # SkipGraph, ...) must not resolve to their base family's spec.
        exact = [spec for spec in specs if type(structure) is spec.cls]
        for spec in exact or specs:
            if isinstance(structure, spec.cls):
                cluster = cls.__new__(cls)
                cluster.spec = spec
                cluster.seed = 0
                cluster._hosts = None
                cluster._memory_size = None
                cluster._options = {}
                cluster._network = structure.network
                cluster._topology = structure.network.topology
                cluster._faults = structure.network.faults
                cluster._round_budget = None
                cluster._max_retries = max_retries
                cluster._churn_rng = churn_rng
                cluster._join_fraction = join_fraction
                cluster._min_hosts = min_hosts
                cluster._structure = structure
                cluster._executor = None
                cluster._churn = None
                cluster._repair_engine = None
                cluster._closed = False
                cluster._close_lock = threading.Lock()
                cluster._durability = None
                cluster._snapshot_every = 0
                return cluster
        raise StructureError(
            f"{type(structure).__name__} is not a registered structure family"
        )

    def bulk_load(self, sorted_items: Sequence[Any]) -> OperationHandle:
        """Build the structure from pre-sorted, deduplicated items.

        Maps to the structure's ``build_from_sorted`` bulk-load
        constructor: the O(n log n) defensive sort is skipped (sortedness
        is verified in O(n)) and one CONSTRUCTION ledger message is
        charged per record placed off the coordinator host.  Only legal
        on a cluster constructed without ``items``.
        """
        self._check_open()
        if self._structure is not None:
            raise StructureError(
                "cluster already holds data; bulk_load only applies to a "
                "cluster constructed without items"
            )
        if self.spec.bulk_factory is None:
            raise StructureError(
                f"structure {self.spec.name!r} has no bulk-load constructor"
            )
        self._structure = self._construct(self.spec.bulk_factory, sorted_items)
        if self._topology is not None:
            self.network.set_topology(self._topology)
        if self._faults is not None:
            self.network.set_faults(self._faults)
        if self._durability is not None:
            self._durability.record_action(
                "bulk_load", {"items": tuple(sorted_items)}
            )
            self.network.add_membership_listener(
                self._durability.membership_listener
            )
        return OperationHandle(
            kind="bulk_load",
            payload=len(sorted_items),
            origin_host=None,
            status="ok",
            value=self._structure,
            messages=getattr(self._structure, "construction_messages", 0),
        )

    # ------------------------------------------------------------------ #
    # composed components
    # ------------------------------------------------------------------ #
    @property
    def structure(self) -> Any:
        """The underlying structure instance (escape hatch for domain APIs)."""
        self._check_open()
        if self._structure is None:
            raise StructureError(
                "cluster holds no data yet; pass items= at construction "
                "or call bulk_load()"
            )
        return self._structure

    @property
    def network(self) -> Network:
        """The simulated network the structure is deployed on."""
        return self.structure.network

    @property
    def topology(self) -> "Topology | None":
        """The deployment's link-cost model (``None`` = implicit flat)."""
        if self._structure is not None:
            return self.network.topology
        return self._topology

    @property
    def faults(self) -> "FaultPlan | None":
        """The deployment's fault plan (``None`` = nothing injected)."""
        if self._structure is not None:
            return self.network.faults
        return self._faults

    @property
    def executor(self) -> BatchExecutor:
        """The round-based batch executor (created on first use)."""
        if self._executor is None:
            on_commit = (
                self._durability.on_batch_commit
                if self._durability is not None
                else None
            )
            self._executor = BatchExecutor(
                self.structure,
                max_retries=self._max_retries,
                on_commit=on_commit,
                round_budget=self._round_budget,
            )
        return self._executor

    @property
    def churn(self) -> ChurnController:
        """The churn controller driving membership change (created on first use)."""
        if self._churn is None:
            self._repair_engine = RepairEngine(self.structure)
            self._churn = ChurnController(
                self.network,
                self._repair_engine,
                rng=self._churn_rng or random.Random(self.seed),
                join_fraction=self._join_fraction,
                min_hosts=self._min_hosts,
            )
        return self._churn

    # ------------------------------------------------------------------ #
    # the operation surface
    # ------------------------------------------------------------------ #
    def get(self, key: Any, origin_host: HostId | None = None) -> OperationHandle:
        """Exact-match / nearest lookup of ``key``."""
        return self._run_single("search", key, origin_host)

    def nearest(self, query: Any, origin_host: HostId | None = None) -> OperationHandle:
        """Nearest-neighbour (point-location) query."""
        return self._run_single("search", query, origin_host)

    def range(self, query_range: Any, origin_host: HostId | None = None) -> OperationHandle:
        """Output-sensitive range reporting (``status="unsupported"`` on DHTs)."""
        return self._run_single("range", query_range, origin_host)

    def insert(self, item: Any, origin_host: HostId | None = None) -> OperationHandle:
        """Insert one item."""
        return self._run_single("insert", item, origin_host)

    def delete(self, item: Any, origin_host: HostId | None = None) -> OperationHandle:
        """Delete one item."""
        return self._run_single("delete", item, origin_host)

    def batch(self, operations: Sequence[Any]) -> BatchReport:
        """Run a mixed batch concurrently through the round-based engine.

        ``operations`` may mix :class:`~repro.engine.executor.Operation`
        objects, ``(kind, payload)`` / ``(kind, payload, origin_host)``
        tuples and ``{"kind": ..., "payload": ..., "origin_host": ...}``
        mappings; kind aliases (``"get"``, ``"nearest"``, ...) resolve to
        the canonical four.  Per-operation trouble — retryable conflicts
        that exhaust their retries, dead hosts, unsupported operations —
        comes back as per-handle statuses; the call itself only raises
        for caller errors (unknown kinds, an empty cluster).
        """
        self._check_open()
        return self._run_batch([self._normalize(operation) for operation in operations])

    def _run_batch(self, operations: list[Operation]) -> BatchReport:
        """Run already-normalized operations through the executor."""
        result = self.executor.run(operations)
        handles = [
            self._classify(OperationHandle.from_outcome(outcome, index))
            for index, outcome in enumerate(result.outcomes)
        ]
        return BatchReport(handles, result)

    def _normalize(self, operation: Any) -> Operation:
        if isinstance(operation, Operation):
            return Operation(
                kind=_canonical_kind(operation.kind),
                payload=operation.payload,
                origin_host=operation.origin_host,
            )
        if isinstance(operation, Mapping):
            return Operation(
                kind=_canonical_kind(operation["kind"]),
                payload=operation["payload"],
                origin_host=operation.get("origin_host"),
            )
        if isinstance(operation, tuple) and 2 <= len(operation) <= 3:
            kind, payload = operation[0], operation[1]
            origin = operation[2] if len(operation) == 3 else None
            return Operation(
                kind=_canonical_kind(kind), payload=payload, origin_host=origin
            )
        raise ValueError(
            f"cannot interpret {operation!r} as an operation; pass an "
            "Operation, a (kind, payload[, origin_host]) tuple, or a mapping"
        )

    def _classify(self, handle: OperationHandle) -> OperationHandle:
        """Promote capability-level failures to the ``unsupported`` status.

        The executor reports what the structure raised; the spec knows
        whether that operation could *ever* succeed on this family (e.g.
        updates on the static Chord baseline).
        """
        if handle.status == STATUS_FAILED:
            if handle.kind == "range" and not self.spec.supports_range:
                handle.status = STATUS_UNSUPPORTED
            elif handle.kind in ("insert", "delete") and not self.spec.supports_updates:
                handle.status = STATUS_UNSUPPORTED
        return handle

    def _run_single(
        self, kind: str, payload: Any, origin_host: HostId | None
    ) -> OperationHandle:
        """Run one operation as a batch of one (journaled as a ``batch``)."""
        self._check_open()
        operation = Operation(_canonical_kind(kind), payload, origin_host=origin_host)
        return self._run_batch([operation])[0]

    # ------------------------------------------------------------------ #
    # lifecycle: churn, repair, sessions
    # ------------------------------------------------------------------ #
    def configure_churn(
        self,
        rng: random.Random | None = None,
        join_fraction: float | None = None,
        min_hosts: int | None = None,
    ) -> None:
        """Override churn-controller settings before the first lifecycle call.

        Accepting an external ``rng`` lets a harness share one seeded
        stream between victim selection and its own workload draws.
        """
        if self._churn is not None:
            raise StructureError(
                "churn controller already materialised; configure before the "
                "first lifecycle call"
            )
        if rng is not None and self._durability is not None:
            raise StorageError(
                "storage= refuses an external churn rng: recovery re-seeds "
                "churn from the recorded seed, so an external stream would "
                "diverge on replay"
            )
        if rng is not None:
            self._churn_rng = rng
        if join_fraction is not None:
            self._join_fraction = join_fraction
        if min_hosts is not None:
            self._min_hosts = min_hosts
        if self._durability is not None:
            self._durability.record_action(
                "configure_churn",
                {"join_fraction": join_fraction, "min_hosts": min_hosts},
            )

    def _journal_churn(self, action: str, host_id: HostId | None) -> None:
        # Journal the *request* (the victim may be None = "pick one"): the
        # churn controller's seeded rng is part of snapshots, so replaying
        # the request re-draws the same victim and the rng stream evolves
        # identically for later events.
        if self._durability is not None:
            self._durability.record_action(
                "churn", {"action": action, "host": host_id}
            )

    def join_host(self) -> ChurnEvent:
        """Register a fresh host and rebalance load onto it."""
        self._check_open()
        event = self.churn.join()
        self._journal_churn("join", None)
        return event

    def leave_host(self, host_id: HostId | None = None) -> ChurnEvent:
        """Gracefully retire a host (records handed off first)."""
        self._check_open()
        event = self.churn.leave(host_id)
        self._journal_churn("leave", host_id)
        return event

    def crash_host(self, host_id: HostId | None = None) -> ChurnEvent:
        """Fail a host without warning, then self-repair and remove it."""
        self._check_open()
        event = self.churn.crash(host_id)
        self._journal_churn("crash", host_id)
        return event

    def recover_host(self, host_id: HostId | None = None) -> ChurnEvent:
        """Bring a failed host back online (the inverse of a crash fault).

        Recovery is the self-healing half of fault injection: a host a
        fault plan (or :func:`~repro.net.faults.inject_host_faults`)
        crash-stopped rejoins with its records intact — no repair traffic,
        just a membership-epoch bump.
        """
        self._check_open()
        event = self.churn.recover(host_id)
        self._journal_churn("recover", host_id)
        return event

    def run_churn_schedule(self, kinds: Sequence[str]) -> list[ChurnEvent]:
        """Apply ``"join"`` / ``"leave"`` / ``"crash"`` / ``"recover"`` events.

        Each event runs through the façade's own lifecycle methods, so a
        journaled cluster logs every event individually — a crash midway
        through a schedule keeps the committed prefix.
        """
        self._check_open()
        applied: list[ChurnEvent] = []
        for kind in kinds:
            if kind == "join":
                applied.append(self.join_host())
            elif kind == "leave":
                applied.append(self.leave_host())
            elif kind == "crash":
                applied.append(self.crash_host())
            elif kind == "recover":
                applied.append(self.recover_host())
            else:
                raise ValueError(f"unknown churn event kind {kind!r}")
        return applied

    @property
    def churn_events(self) -> list[ChurnEvent]:
        """Every membership change applied so far, with measured repair cost."""
        return list(self._churn.events) if self._churn is not None else []

    def repair(self, host_ids: Sequence[HostId]) -> RepairResult:
        """Re-home the records orphaned by crashed ``host_ids``."""
        self._check_open()
        self.churn  # materialise the repair engine
        assert self._repair_engine is not None
        result = self._repair_engine.repair(list(host_ids))
        if self._durability is not None:
            self._durability.record_action("repair", {"host_ids": list(host_ids)})
        return result

    @contextmanager
    def session(self) -> Iterator[ClusterSession]:
        """Scope a measurement window: ``with cluster.session() as s: ...``."""
        self._check_open()
        with self.network.measure() as stats:
            yield ClusterSession(self, stats)

    def __enter__(self) -> "Cluster":
        self._check_open()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut the façade down; further operations raise ``StructureError``.

        Idempotent and thread-safe: a second (or concurrent) ``close()``
        — a double-close from a server worker, a context manager exiting
        while an HTTP handler tears the cluster down — is a no-op rather
        than a race on the storage handles.  The churn controller is kept
        so ``churn_events`` — the measured history of a run — stays
        readable after the context manager exits.  A journaled cluster's
        storage is flushed to stable storage and its handles released
        (the store stays reopenable).
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            self._executor = None
            if self._durability is not None:
                self._durability.backend.close()

    def _check_open(self) -> None:
        if self._closed:
            raise StructureError("cluster is closed")

    # ------------------------------------------------------------------ #
    # durability: save / load / recover (repro.storage)
    # ------------------------------------------------------------------ #
    @property
    def storage(self) -> StorageBackend | None:
        """The attached durability backend, if any."""
        return self._durability.backend if self._durability is not None else None

    @property
    def applied_operations(self) -> int:
        """Committed actions journaled or replayed by this cluster."""
        return self._durability.applied_actions if self._durability is not None else 0

    def save(self) -> None:
        """Write a full-state snapshot at the current log position and fsync.

        Recovery from a freshly saved store restores the snapshot and
        replays an empty tail; :meth:`load` requires exactly this state.
        """
        self._check_open()
        if self._durability is None:
            raise StorageError(
                "cluster has no storage attached; construct with storage="
            )
        self._write_snapshot()
        self._durability.backend.sync()

    def _maybe_snapshot(self) -> None:
        # Cadence-triggered: defer rather than fail while a measurement
        # window is open (the snapshot lands after the next action).
        if not self.network._measure_stack:
            self._write_snapshot()

    def _write_snapshot(self) -> None:
        assert self._durability is not None
        if self.network._measure_stack:
            raise StorageError(
                "cannot snapshot inside an open measure session: the "
                "restored state would hold a phantom half-open window"
            )
        manifest, blob = capture_snapshot(
            self.structure,
            self._churn,
            self._repair_engine,
            self._snapshot_config(),
            upto=self._durability.backend.record_count,
            actions=self._durability.applied_actions,
            structure_name=self.spec.name,
        )
        self._durability.backend.write_snapshot(manifest, blob)
        self._durability.note_snapshot()

    def _snapshot_config(self) -> dict[str, Any]:
        return {
            "structure": self.spec.name,
            "seed": self.seed,
            "hosts": self._hosts,
            "memory_size": self._memory_size,
            "max_retries": self._max_retries,
            "join_fraction": self._join_fraction,
            "min_hosts": self._min_hosts,
            "snapshot_every": self._snapshot_every,
            "topology": (
                self.network.topology.describe()
                if self.network.topology is not None
                else None
            ),
            "faults": (
                self.network.faults.describe()
                if self.network.faults is not None
                else None
            ),
            "round_budget": self._round_budget,
            "options": dict(self._options),
        }

    @classmethod
    def _from_restored_state(
        cls, state: Mapping[str, Any], structure_name: str
    ) -> "Cluster":
        config = state["config"]
        cluster = cls.__new__(cls)
        cluster.spec = resolve_structure(structure_name)
        cluster.seed = config["seed"]
        cluster._hosts = config["hosts"]
        cluster._memory_size = config["memory_size"]
        cluster._options = dict(config["options"])
        cluster._network = None
        # The unpickled network carries the live topology instance; the
        # config's portable dict is only kept for the facade's own record
        # (and for the journal cross-check in recover()).
        cluster._topology = topology_from_config(config.get("topology"))
        # The live fault plan — mid-stream RNG state included — travels
        # inside the pickled network, so replayed tails consume the same
        # decision stream the pre-crash run would have.
        cluster._faults = state["structure"].network.faults
        cluster._round_budget = config.get("round_budget")
        cluster._max_retries = config["max_retries"]
        cluster._churn_rng = None
        cluster._join_fraction = config["join_fraction"]
        cluster._min_hosts = config["min_hosts"]
        cluster._structure = state["structure"]
        cluster._executor = None
        cluster._churn = state["churn"]
        cluster._repair_engine = state["repair_engine"]
        cluster._closed = False
        cluster._close_lock = threading.Lock()
        cluster._durability = None
        cluster._snapshot_every = config.get("snapshot_every", 0)
        return cluster

    @classmethod
    def load(cls, path: "str | StorageBackend") -> "Cluster":
        """Restore a cluster from the newest snapshot of a saved store.

        Snapshot-only: the store must have been :meth:`save`-d at its
        current log position (no unreplayed tail) — otherwise this
        raises and :meth:`recover` is the right call.  The returned
        cluster is *detached* from the store: it operates normally but
        journals nothing further.
        """
        backend = open_storage(path)
        snapshot = backend.latest_snapshot()
        if snapshot is None:
            raise StorageError(
                f"no snapshot in {backend.path!r}; use Cluster.recover() to "
                "replay the operation log instead"
            )
        manifest, blob = snapshot
        tail = backend.record_count - manifest["upto"]
        if tail > 0:
            raise StorageError(
                f"snapshot in {backend.path!r} is {tail} log record(s) stale; "
                "use Cluster.recover() to replay the tail"
            )
        state = restore_snapshot(manifest, blob)
        backend.close()
        return cls._from_restored_state(state, manifest["structure"])

    @classmethod
    def recover(
        cls,
        path: "str | StorageBackend",
        *,
        trim_torn_tail: bool = False,
        from_snapshot: bool = True,
    ) -> "Cluster":
        """Rebuild the exact pre-crash state and reattach the journal.

        Loads the newest snapshot (if any; ``from_snapshot=False`` forces
        a full from-genesis replay) and re-executes the committed log
        tail through the ordinary engine, verifying the journal's audit
        records along the way.  Uncommitted dangles a crash left behind
        — trailing membership records whose action never committed —
        are truncated; a *torn* final record is only trimmed when
        ``trim_torn_tail=True`` (corruption elsewhere always raises).
        The returned cluster keeps journaling to the same store, so a
        recovered run continues exactly where the committed prefix ended.
        """
        backend = open_storage(path)
        try:
            records = backend.records()
        except StorageError as exc:
            if not (trim_torn_tail and exc.torn_tail):
                raise
            backend.trim_torn_tail()
            records = backend.records()
        if not records:
            raise StorageError(f"{backend.path!r} holds no log records to recover")
        committed = committed_prefix(records)
        if committed < len(records):
            backend.truncate(committed)
            records = records[:committed]
        if not records or records[0].kind != "create":
            raise StorageError(
                f"log in {backend.path!r} does not begin with a 'create' "
                "record; not a cluster journal"
            )
        create = records[0].payload
        controller = DurabilityController(
            backend, snapshot_every=create.get("snapshot_every", 0)
        )
        snapshot = backend.latest_snapshot() if from_snapshot else None
        if snapshot is not None and snapshot[0]["upto"] > len(records):
            raise StorageError(
                f"snapshot in {backend.path!r} covers {snapshot[0]['upto']} "
                f"log records but only {len(records)} committed; the store "
                "is inconsistent"
            )
        # The tail to replay: past the snapshot, or all but the create record.
        tail = records[snapshot[0]["upto"] if snapshot is not None else 1 :]
        refuse_unreplayable_singles(create, tail)
        if snapshot is not None:
            manifest, blob = snapshot
            state = restore_snapshot(manifest, blob)
            snapshot_topology = state["config"].get("topology")
            create_topology = create.get("topology")
            if snapshot_topology != create_topology:
                raise StorageError(
                    f"topology mismatch in {backend.path!r}: the journal's "
                    f"create record says {create_topology!r} but the snapshot "
                    f"was taken under {snapshot_topology!r}; refusing to "
                    "recover onto a different network layout"
                )
            snapshot_faults = state["config"].get("faults")
            create_faults = create.get("faults")
            if snapshot_faults != create_faults:
                raise StorageError(
                    f"fault-plan mismatch in {backend.path!r}: the journal's "
                    f"create record says {create_faults!r} but the snapshot "
                    f"was taken under {snapshot_faults!r}; refusing to replay "
                    "a tail against a different chaos schedule"
                )
            cluster = cls._from_restored_state(state, manifest["structure"])
            cluster._attach_durability(controller)
            controller.applied_actions = manifest["actions"]
            cluster.network.add_membership_listener(controller.membership_listener)
            controller.replay(cluster, tail)
            return cluster
        # Full from-genesis replay: re-run construction, then re-execute
        # every committed action.  Keys no longer read (``trace``,
        # ``workers``, ``mode``) are ignored.
        cluster = cls(
            structure=create["structure"],
            items=create["items"],
            hosts=create["hosts"],
            memory_size=create["memory_size"],
            seed=create["seed"],
            topology=topology_from_config(create.get("topology")),
            faults=faults_from_config(create.get("faults")),
            round_budget=create.get("round_budget"),
            max_retries=create["max_retries"],
            join_fraction=create["join_fraction"],
            min_hosts=create["min_hosts"],
            **create["options"],
        )
        cluster._snapshot_every = create.get("snapshot_every", 0)
        cluster._attach_durability(controller)
        controller.applied_actions = 1  # the create record
        if cluster._structure is not None:
            cluster.network.add_membership_listener(controller.membership_listener)
        controller.replay(cluster, tail)
        return cluster

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #
    def _ground_set_size(self) -> int | None:
        structure = self._structure
        for candidate in (structure, getattr(structure, "web", None)):
            if candidate is None:
                continue
            size = getattr(candidate, "ground_set_size", None)
            if size is not None:
                return size
        keys = getattr(structure, "keys", None)
        return len(keys) if keys is not None else None

    def stats(self) -> ClusterStats:
        """Deployment + lifetime-traffic snapshot (costs no messages)."""
        network = self.network
        log = network.message_log
        return ClusterStats(
            structure=self.spec.name,
            hosts=network.host_count,
            alive_hosts=len(network.alive_host_ids()),
            failed_hosts=len(network.failed_hosts),
            ground_set_size=self._ground_set_size(),
            max_memory_per_host=(
                self.structure.max_memory_per_host()
                if hasattr(self.structure, "max_memory_per_host")
                else network.max_memory_used()
            ),
            membership_epoch=network.membership_epoch,
            messages_total=network.total_messages,
            messages_by_kind={
                kind.value: count
                for kind, count in log.counts_by_kind().items()
                if count
            },
            construction_messages=getattr(self.structure, "construction_messages", 0),
        )

    def congestion(self) -> Any:
        """The structure-level congestion report ``C(n)`` of §1.1."""
        structure = self.structure
        if hasattr(structure, "congestion"):
            return structure.congestion()
        return structure.web.congestion()

    def round_congestion(self) -> RoundCongestionReport:
        """Whole-session per-round congestion aggregates (PR-4 ledger)."""
        return round_congestion_report(self.network)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        loaded = self._structure is not None
        return (
            f"Cluster(structure={self.spec.name!r}, "
            f"loaded={loaded}, hosts={self.network.host_count if loaded else 0})"
        )
