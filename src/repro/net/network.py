"""The simulated peer-to-peer network.

The :class:`Network` is the single accounting boundary of the simulator.
Structures never talk to each other directly; they

* create hosts via :meth:`Network.add_host` / :meth:`Network.add_hosts`,
* store items on hosts and obtain :class:`~repro.net.naming.Address`
  pointers,
* dereference remote pointers by yielding step-generator effects
  (:mod:`repro.engine.steps`), whose drivers charge one message per host
  crossing through :meth:`Network.send` or the round-based delivery.

Message counting for a single logical operation (one query, one insert)
is done with :meth:`Network.measure`, a context manager that snapshots
the counters::

    with network.measure() as op:
        structure.search(origin, key)
    assert op.messages <= expected

Two delivery modes are supported.  The default *immediate* mode charges
and delivers each message synchronously, which is what every
single-operation code path uses.  The *round-based* mode — entered with
:meth:`Network.rounds` — queues messages via :meth:`Network.post` and
delivers a whole round of them at once via :meth:`Network.run_round` /
:meth:`Network.run_rounds`, recording how many messages each host had to
absorb in each round.  This is the substrate under
:class:`repro.engine.executor.BatchExecutor`, which interleaves many
logical operations so that the paper's per-host congestion bounds
(O(log n / log log n) w.h.p., Theorem 2) can be *measured per round*
rather than inferred from pointer counts; see :mod:`repro.engine`.

There is one delivery path.  A delivery is a tally on the ledger —
integer counters per kind, per host, per round and per open
:meth:`measure` block — and never a message object: the cost model
counts messages and reads nothing else about them.  In round mode every
:meth:`post` queues one :class:`PendingDelivery` ticket, which
:meth:`run_round` resolves or fails on its own, so a host that fails
between posting and delivery fails only the tickets that touch it (see
DESIGN.md §6).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.errors import (
    FaultInjectedError,
    HostFailedError,
    StructureError,
    UnknownHostError,
)
from repro.net.faults import FaultPlan, resolve_faults
from repro.net.host import Host
from repro.net.message import MessageKind, MessageLog
from repro.net.naming import Address, HostId
from repro.net.topology import Topology, resolve_topology

@dataclass
class OperationStats:
    """Message counts observed during one :meth:`Network.measure` block.

    ``by_round`` and ``rounds`` are only populated while the network runs
    in round-based mode: they record how many of the measured messages
    were delivered in each network round, and how many distinct rounds the
    measured block spanned.
    """

    messages: int = 0
    by_kind: dict[MessageKind, int] = field(default_factory=dict)
    hosts_touched: set[HostId] = field(default_factory=set)
    by_round: dict[int, int] = field(default_factory=dict)
    #: Sum of link costs of the measured messages.  Stays 0 on a network
    #: without an explicit topology (the implicit flat default tracks
    #: message counts only); under ``FlatTopology`` it equals ``messages``.
    latency: int = 0

    @property
    def rounds(self) -> int:
        """Number of distinct network rounds the measured messages spanned."""
        return len(self.by_round)

    def count(self, kind: MessageKind) -> int:
        """Messages of one kind sent during the measured operation."""
        return self.by_kind.get(kind, 0)


@dataclass(slots=True)
class RoundReport:
    """Delivery summary of one network round.

    ``max_load`` is the largest number of messages any one host received
    during the round — the directly-measured per-host per-round
    congestion — and ``max_load_host`` that host (the first to reach the
    maximum; ``None`` when nothing was delivered).  ``dropped`` counts
    messages whose destination (or source) host had failed; those
    deliveries carry a :class:`HostFailedError` on their ticket instead
    of reaching the log.

    The topology-aware fields (``weight``, ``max_link_load`` /
    ``max_link``, ``max_cluster_load`` / ``max_cluster``) are only
    populated on a network with an explicit
    :class:`~repro.net.topology.Topology`; on the implicit flat default
    they keep their zero values and ``max_link`` / ``max_cluster`` stay
    ``None``.

    Not frozen: every round of every batch builds one, and a frozen
    dataclass pays an ``object.__setattr__`` per field (about 4x the
    construction cost).  Treat reports as read-only all the same.
    """

    index: int
    delivered: int
    dropped: int = 0
    max_load: int = 0
    max_load_host: HostId | None = None
    weight: int = 0
    max_link_load: int = 0
    max_link: tuple[HostId, HostId] | None = None
    max_cluster_load: int = 0
    max_cluster: int | None = None
    #: Fault-injection tallies of the round (repro.net.faults); all stay
    #: zero on a network without an installed plan.
    injected_drops: int = 0
    duplicated: int = 0
    delayed: int = 0

    @property
    def max_host_load(self) -> int:
        """Largest number of messages any single host received this round."""
        return self.max_load


class PendingDelivery:
    """A queued message awaiting the next :meth:`Network.run_round`.

    After the round runs, ``error`` is set when the delivery failed;
    :meth:`result` re-raises it in the caller's context (the
    :class:`~repro.engine.executor.BatchExecutor` uses this to fail only
    the one in-flight operation that touched a dead host) and returns
    ``None`` for a delivered ticket.
    """

    __slots__ = ("src", "dst", "kind", "error", "deferred")

    def __init__(self, src: HostId, dst: HostId, kind: MessageKind) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.error: Exception | None = None
        # Set by a fault plan's "delay" verb: the ticket is parked for a
        # later round and is not yet resolved.
        self.deferred = False

    def result(self) -> None:
        """Return once delivered, or raise the delivery error."""
        if self.error is not None:
            raise self.error


class Network:
    """Registry of hosts plus message accounting.

    Parameters
    ----------
    default_memory_limit:
        Memory budget given to hosts created through :meth:`add_host` when
        no explicit limit is provided.  ``None`` (the default) leaves
        hosts unbounded, which is appropriate when memory usage is being
        measured rather than enforced.
    round_report_retention:
        Keep at most this many full :class:`RoundReport` entries per round
        session (oldest dropped first); ``None`` keeps them all.  The
        running congestion aggregates (:meth:`round_congestion_summary`)
        cover the whole session regardless.
    topology:
        Link-cost model: a :class:`~repro.net.topology.Topology`
        instance, one of the names ``"flat"`` / ``"clustered"`` /
        ``"geo"``, or ``None`` (the default).  ``None`` is the implicit
        flat model — every counter is byte-identical to the pre-topology
        network and no per-link accounting runs.  Any explicit topology
        (including ``FlatTopology``) additionally charges
        ``link_cost(src, dst)`` per delivery into weighted per-link /
        per-cluster congestion aggregates and the ``latency`` counters.
    """

    def __init__(
        self,
        default_memory_limit: int | None = None,
        round_report_retention: int | None = None,
        topology: Topology | str | None = None,
        faults: FaultPlan | str | None = None,
    ) -> None:
        self.default_memory_limit = default_memory_limit
        self._hosts: dict[HostId, Host] = {}
        self._log = MessageLog()
        self._next_host_id = 0
        self._measure_stack: list[OperationStats] = []
        self._failed_hosts: set[HostId] = set()
        # Bumped on every membership change (join, leave, failure,
        # recovery) so that caches keyed on host layout — e.g. the
        # BatchExecutor's alive-origin list — can cheaply detect that
        # their entries may now point at dead or departed hosts.
        self._membership_epoch = 0
        # Callables invoked on every membership event ("add" / "remove" /
        # "fail" / "recover", host_id).  The durability layer subscribes
        # here so membership changes land in the operation log; empty by
        # default and deliberately excluded from pickled snapshots.
        self._membership_listeners: list[Callable[[str, HostId], None]] = []
        # alive_host_ids() cache, invalidated by membership-epoch bumps.
        self._alive_cache: list[HostId] = []
        self._alive_cache_epoch = -1
        # Round-based delivery state (inactive in the default immediate mode).
        self._round_mode = False
        self._pending: list[PendingDelivery] = []
        self._round_index = 0
        self._round_per_host: dict[HostId, int] = {}
        self._round_delivered = 0
        self._round_reports: list[RoundReport] = []
        self._round_report_retention = round_report_retention
        # Whole-session congestion aggregates, maintained round by round so
        # summaries never have to re-scan the stored reports.
        self._session_per_round_max: list[int] = []
        self._session_delivered = 0
        self._session_busiest_host: HostId | None = None
        self._session_busiest_round: int | None = None
        self._session_busiest_load = 0
        # Topology-aware accounting.  ``None`` means the implicit flat
        # model: link_cost() answers 1 and none of the weighted state
        # below is ever touched, keeping the default hot paths (and their
        # counters) byte-identical to the pre-topology network.
        self._topology = resolve_topology(topology)
        self._round_per_link: dict[tuple[HostId, HostId], int] = {}
        self._round_per_cluster: dict[int, int] = {}
        self._round_weight = 0
        self._session_weight = 0
        self._session_per_round_max_link: list[int] = []
        self._session_per_round_max_cluster: list[int] = []
        self._session_busiest_link: tuple[HostId, HostId] | None = None
        self._session_busiest_link_load = 0
        self._session_busiest_link_round: int | None = None
        self._session_busiest_cluster: int | None = None
        self._session_busiest_cluster_load = 0
        # Fault injection (repro.net.faults).  ``None`` means no plan:
        # every counter is byte-identical to a network built before the
        # subsystem existed.
        self._faults = resolve_faults(faults)
        self._delayed: list[tuple[int, PendingDelivery]] = []
        self._round_injected_drops = 0
        self._round_duplicated = 0
        self._round_delayed = 0

    @property
    def topology(self) -> Topology | None:
        """The explicit link-cost model, or ``None`` for the implicit flat one."""
        return self._topology

    def set_topology(self, topology: Topology | str | None) -> None:
        """Install (or clear) the link-cost model.

        Must happen outside a round session: per-link aggregates of a
        session in flight would silently mix cost models otherwise.
        Already-registered hosts are announced to the new topology.
        """
        if self._round_mode:
            raise RuntimeError("cannot change topology during a round session")
        self._topology = resolve_topology(topology)
        if self._topology is not None:
            for host_id in self._hosts:
                self._topology.on_host_added(host_id)

    @property
    def faults(self) -> FaultPlan | None:
        """The installed fault plan, or ``None`` (the fault-free default)."""
        return self._faults

    def set_faults(self, faults: FaultPlan | str | None) -> None:
        """Install (or clear) the fault plan.

        Must happen outside a round session: the session's rounds so far
        ran under the old plan's clock.
        """
        if self._round_mode:
            raise RuntimeError("cannot change the fault plan during a round session")
        self._faults = resolve_faults(faults)

    def link_cost(self, src: HostId, dst: HostId) -> int:
        """Cost of one ``src -> dst`` message under the current topology.

        Self-sends are free (cost 0) as in the paper's model; without an
        explicit topology every inter-host link costs 1.
        """
        if src == dst:
            return 0
        if self._topology is None:
            return 1
        return self._topology.link_cost(src, dst)

    def __getstate__(self) -> dict[str, Any]:
        # Membership listeners are live observers (typically the storage
        # controller holding open file handles); a pickled snapshot must
        # capture the network's *state*, not its subscribers.
        state = self.__dict__.copy()
        state["_membership_listeners"] = []
        return state

    # ------------------------------------------------------------------ #
    # membership event listeners
    # ------------------------------------------------------------------ #
    def add_membership_listener(self, listener: Callable[[str, HostId], None]) -> None:
        """Subscribe to membership events.

        ``listener(event, host_id)`` is called synchronously on every
        ``"add"`` / ``"remove"`` / ``"fail"`` / ``"recover"``, after the
        change (and its epoch bump) has been applied.  The durability
        layer uses this to journal membership changes; listeners are not
        part of pickled network state.
        """
        self._membership_listeners.append(listener)

    def remove_membership_listener(self, listener: Callable[[str, HostId], None]) -> None:
        """Unsubscribe a previously added membership listener."""
        self._membership_listeners.remove(listener)

    def _notify_membership(self, event: str, host_id: HostId) -> None:
        for listener in self._membership_listeners:
            listener(event, host_id)

    # ------------------------------------------------------------------ #
    # host management
    # ------------------------------------------------------------------ #
    def add_host(self, memory_limit: int | None = None, host_id: HostId | None = None) -> Host:
        """Create and register a new host, returning it.

        ``host_id`` may be provided for deterministic layouts; otherwise
        ids are assigned sequentially.
        """
        if host_id is None:
            host_id = self._next_host_id
            self._next_host_id += 1
        elif host_id in self._hosts:
            raise ValueError(f"host id {host_id} already registered")
        else:
            self._next_host_id = max(self._next_host_id, host_id + 1)
        limit = memory_limit if memory_limit is not None else self.default_memory_limit
        host = Host(host_id=host_id, memory_limit=limit)
        self._hosts[host_id] = host
        self._membership_epoch += 1
        if self._topology is not None:
            self._topology.on_host_added(host_id)
        if self._membership_listeners:
            self._notify_membership("add", host_id)
        return host

    def remove_host(self, host_id: HostId, force: bool = False) -> Host:
        """Retire a host from the network (a graceful or post-repair leave).

        The host must be empty — its records handed off or repaired away —
        unless ``force`` is given, in which case any remaining slots are
        abandoned (their addresses become permanently unresolvable).
        Returns the removed :class:`Host` for inspection.
        """
        host = self.host(host_id)
        if host.memory_used and not force:
            raise StructureError(
                f"host {host_id} still stores {host.memory_used} item(s); "
                "migrate its records before removing it (or pass force=True)"
            )
        del self._hosts[host_id]
        self._failed_hosts.discard(host_id)
        self._membership_epoch += 1
        if self._topology is not None:
            self._topology.on_host_removed(host_id)
        if self._membership_listeners:
            self._notify_membership("remove", host_id)
        return host

    def add_hosts(self, count: int, memory_limit: int | None = None) -> list[Host]:
        """Create ``count`` hosts at once."""
        return [self.add_host(memory_limit=memory_limit) for _ in range(count)]

    def host(self, host_id: HostId) -> Host:
        """Return the host with the given id."""
        try:
            return self._hosts[host_id]
        except KeyError as exc:
            raise UnknownHostError(f"unknown host {host_id}") from exc

    def hosts(self) -> Iterator[Host]:
        """Iterate over all registered hosts."""
        return iter(self._hosts.values())

    def alive_host_ids(self) -> list[HostId]:
        """Ids of every registered host that has not failed, in id order.

        Cached between membership changes (joins, leaves, failures and
        recoveries all bump :attr:`membership_epoch`), so the per-batch
        and per-repair callers no longer pay a linear scan each time.
        Returns a fresh copy; the cache itself is never handed out.
        """
        if self._alive_cache_epoch != self._membership_epoch:
            self._alive_cache = [
                host_id for host_id in self._hosts if host_id not in self._failed_hosts
            ]
            self._alive_cache_epoch = self._membership_epoch
        return list(self._alive_cache)

    @property
    def membership_epoch(self) -> int:
        """Counter bumped on every join, leave, failure or recovery.

        Consumers holding host-layout-dependent caches compare this
        against the epoch they cached at and invalidate on mismatch.
        """
        return self._membership_epoch

    @property
    def host_count(self) -> int:
        """The paper's ``H``."""
        return len(self._hosts)

    def __contains__(self, host_id: HostId) -> bool:
        return host_id in self._hosts

    # ------------------------------------------------------------------ #
    # storage helpers
    # ------------------------------------------------------------------ #
    def store(self, host_id: HostId, item: Any) -> Address:
        """Store ``item`` on host ``host_id`` and return its address."""
        return self.host(host_id).store(item)

    def load(self, address: Address, check_alive: bool = True) -> Any:
        """Dereference ``address`` *without* charging a message.

        Structures must only call this for local dereferences, or after
        having charged the hop through a step driver
        (:mod:`repro.engine.steps`).  ``check_alive=False`` skips
        the failure-injection liveness check; it is reserved for
        structural bookkeeping that must apply atomically (update
        propagation, reference recounts) and must therefore not be
        interruptible halfway by an injected failure — operation *routing*
        always keeps the check on.
        """
        if check_alive and address.host in self._failed_hosts:
            raise HostFailedError(f"host {address.host} has failed")
        return self.host(address.host).load(address)

    def free(self, address: Address) -> Any:
        """Remove the item stored at ``address`` and return it."""
        return self.host(address.host).free(address)

    def replace(self, address: Address, item: Any) -> None:
        """Overwrite the item stored at ``address``."""
        self.host(address.host).replace(address, item)

    # ------------------------------------------------------------------ #
    # messaging
    # ------------------------------------------------------------------ #
    def send(
        self,
        src: HostId,
        dst: HostId,
        kind: MessageKind = MessageKind.QUERY,
    ) -> None:
        """Charge one message from ``src`` to ``dst``.

        Sending a message to oneself is free — the paper only charges for
        *inter-host* communication.

        With a fault plan installed (and outside a round session, whose
        deliveries are decided in :meth:`run_round`), the plan decides
        each remote send: a drop raises :class:`FaultInjectedError`
        uncharged, a duplicate charges the delivery twice, and a delay
        degenerates to an immediate delivery — immediate mode has no
        round clock to defer to — but is still tallied as delayed.
        """
        if src not in self._hosts:
            raise UnknownHostError(f"unknown source host {src}")
        if dst not in self._hosts:
            raise UnknownHostError(f"unknown destination host {dst}")
        self._check_alive(dst)
        if src == dst:
            return
        faults = self._faults
        if faults is not None and not self._round_mode:
            action = faults.decide(self, None, src, dst, kind)
            if action is not None:
                verb = action[0]
                if verb == "drop":
                    self._log.note_drop()
                    raise FaultInjectedError(
                        f"message {src} -> {dst} dropped by the fault plan"
                    )
                if verb == "duplicate":
                    self._log.note_duplicate()
                    self._record_delivery(src, dst, kind)
                else:
                    self._log.note_delay()
        self._record_delivery(src, dst, kind)

    def _record_delivery(self, src: HostId, dst: HostId, kind: MessageKind) -> None:
        """Tally one inter-host message and update measurement/round counters."""
        self._log.tally(src, dst, kind)
        topology = self._topology
        cost = 0 if topology is None else topology.link_cost(src, dst)
        round_mode = self._round_mode
        index = self._round_index
        for stats in self._measure_stack:
            stats.messages += 1
            stats.by_kind[kind] = stats.by_kind.get(kind, 0) + 1
            stats.hosts_touched.add(src)
            stats.hosts_touched.add(dst)
            stats.latency += cost
            if round_mode:
                by_round = stats.by_round
                by_round[index] = by_round.get(index, 0) + 1
        if round_mode:
            per_host = self._round_per_host
            per_host[dst] = per_host.get(dst, 0) + 1
            self._round_delivered += 1
            if topology is not None:
                link = (src, dst)
                self._round_per_link[link] = self._round_per_link.get(link, 0) + cost
                cluster = topology.cluster_of(dst)
                self._round_per_cluster[cluster] = (
                    self._round_per_cluster.get(cluster, 0) + cost
                )
                self._round_weight += cost

    @property
    def message_log(self) -> MessageLog:
        """The global message log (lifetime counters)."""
        return self._log

    @property
    def total_messages(self) -> int:
        """Total messages ever sent on this network."""
        return len(self._log)

    @contextmanager
    def measure(self) -> Iterator[OperationStats]:
        """Measure the messages sent while the ``with`` body runs.

        Measurements nest: an outer harness can measure a whole workload
        while individual operations are measured inside it.
        """
        stats = OperationStats()
        self._measure_stack.append(stats)
        try:
            yield stats
        finally:
            self._measure_stack.pop()

    # ------------------------------------------------------------------ #
    # round-based delivery (batched execution mode)
    # ------------------------------------------------------------------ #
    @property
    def in_round_mode(self) -> bool:
        """Whether the network currently queues messages into rounds."""
        return self._round_mode

    @property
    def rounds_completed(self) -> int:
        """Number of rounds delivered since the last :meth:`rounds` entry."""
        return self._round_index

    @property
    def round_reports(self) -> list[RoundReport]:
        """Per-round delivery reports of the current / most recent round session.

        Subject to ``round_report_retention``; the whole-session
        aggregates live in :meth:`round_congestion_summary` either way.
        """
        return list(self._round_reports)

    def round_congestion_summary(
        self,
    ) -> tuple[int, int, tuple[int, ...], HostId | None, int | None]:
        """Whole-session congestion aggregates, maintained incrementally.

        Returns ``(rounds, delivered, per_round_max, busiest_host,
        busiest_round)`` for the current / most recent round session —
        the raw material of
        :func:`repro.net.congestion.round_congestion_report`, computed in
        a single pass as rounds close instead of re-scanning the stored
        reports (which ``round_report_retention`` may have truncated).
        """
        return (
            len(self._session_per_round_max),
            self._session_delivered,
            tuple(self._session_per_round_max),
            self._session_busiest_host,
            self._session_busiest_round,
        )

    def topology_congestion_summary(self) -> dict[str, Any] | None:
        """Weighted (topology-aware) session aggregates, or ``None``.

        ``None`` on a network without an explicit topology — the
        per-link / per-cluster dimension is only tracked when a
        :class:`~repro.net.topology.Topology` is installed.  Otherwise a
        dict of whole-session aggregates mirroring
        :meth:`round_congestion_summary` in the weighted dimension:
        total delivered ``weight``, per-round maxima and the busiest
        link / cluster with their loads.
        """
        if self._topology is None:
            return None
        return {
            "rounds": len(self._session_per_round_max_link),
            "weight": self._session_weight,
            "per_round_max_link": tuple(self._session_per_round_max_link),
            "per_round_max_cluster": tuple(self._session_per_round_max_cluster),
            "busiest_link": self._session_busiest_link,
            "busiest_link_load": self._session_busiest_link_load,
            "busiest_link_round": self._session_busiest_link_round,
            "busiest_cluster": self._session_busiest_cluster,
            "busiest_cluster_load": self._session_busiest_cluster_load,
        }

    @contextmanager
    def rounds(self) -> Iterator["Network"]:
        """Enter round-based delivery mode for the ``with`` body.

        Messages posted with :meth:`post` are queued and only delivered
        (and charged) by :meth:`run_round`.  Direct :meth:`send` calls
        remain legal inside the block — they are charged immediately,
        attributed to the round currently being assembled, and counted in
        that round's report exactly like queued deliveries (a trailing
        send after the final :meth:`run_round` gets a closing report of
        its own on exit).  Round counters are reset on entry so that each
        batch measures its own congestion.
        """
        if self._round_mode:
            raise RuntimeError("network is already in round-based mode")
        # The assembling-round state (queues, per-host / per-link loads,
        # fault tallies) is already clean: it starts empty and every exit
        # below clears it.  Only the session's own record starts afresh.
        self._round_mode = True
        self._round_index = 0
        self._round_reports = []
        self._session_per_round_max = []
        self._session_delivered = 0
        self._session_busiest_host = None
        self._session_busiest_round = None
        self._session_busiest_load = 0
        self._session_weight = 0
        self._session_per_round_max_link = []
        self._session_per_round_max_cluster = []
        self._session_busiest_link = None
        self._session_busiest_link_load = 0
        self._session_busiest_link_round = None
        self._session_busiest_cluster = None
        self._session_busiest_cluster_load = 0
        try:
            yield self
        finally:
            if self._round_per_host:
                # Direct sends charged after the last run_round: close
                # them out so no delivered traffic is missing from the
                # session's reports.
                self._close_round(dropped=0)
            self._round_mode = False
            self._pending = []
            self._delayed = []
            self._round_per_host = {}
            self._round_delivered = 0
            self._round_per_link = {}
            self._round_per_cluster = {}
            self._round_weight = 0
            self._round_injected_drops = 0
            self._round_duplicated = 0
            self._round_delayed = 0

    def post(
        self,
        src: HostId,
        dst: HostId,
        kind: MessageKind = MessageKind.QUERY,
    ) -> PendingDelivery:
        """Queue one message for the next round; returns its delivery ticket.

        Host existence is validated immediately; host *liveness* is only
        checked at delivery time (a host may fail between posting and the
        round running), in which case the ticket carries the
        :class:`HostFailedError` instead of the whole round failing.
        """
        if not self._round_mode:
            raise RuntimeError("post() requires round-based mode; see Network.rounds()")
        hosts = self._hosts
        if src not in hosts:
            raise UnknownHostError(f"unknown source host {src}")
        if dst not in hosts:
            raise UnknownHostError(f"unknown destination host {dst}")
        ticket = PendingDelivery(src, dst, kind)
        self._pending.append(ticket)
        return ticket

    def run_round(self) -> RoundReport:
        """Deliver every queued message, closing out one round.

        Deliveries to (or from) failed hosts are dropped and recorded on
        their tickets; all other queued messages are charged and logged.
        Self-sends deliver for free, as in immediate mode.

        With a fault plan installed, the plan's host rules are applied
        first (:meth:`FaultPlan.begin_round` — crash-stop semantics: a
        delivery queued to a host that crashes this round fails on its
        ticket), deliveries deferred by earlier "delay" verbs come due,
        and each fresh delivery is decided once: drop (ticket fails with
        :class:`FaultInjectedError`, uncharged), duplicate (charged
        twice) or delay (parked ``delay_rounds`` rounds).
        """
        if not self._round_mode:
            raise RuntimeError("run_round() requires round-based mode; see Network.rounds()")
        faults = self._faults
        if faults is not None:
            faults.begin_round(self, self._round_index)
        pending, self._pending = self._pending, []
        if self._delayed:
            due = [ticket for when, ticket in self._delayed if when <= self._round_index]
            if due:
                self._delayed = [
                    (when, ticket)
                    for when, ticket in self._delayed
                    if when > self._round_index
                ]
                # Deferred deliveries were posted earlier: they deliver
                # ahead of this round's fresh posts, in original order.
                pending = due + pending
        dropped = 0
        failed = self._failed_hosts
        record = self._record_delivery
        for ticket in pending:
            src = ticket.src
            dst = ticket.dst
            if failed and (src in failed or dst in failed):
                ticket.deferred = False
                ticket.error = HostFailedError(f"host {src if src in failed else dst} has failed")
                dropped += 1
                continue
            if src == dst:
                # Self-delivery is free in the cost model: resolved, but
                # neither logged nor counted as a delivered message.
                ticket.deferred = False
                continue
            if faults is not None and not ticket.deferred:
                action = faults.decide(self, self._round_index, src, dst, ticket.kind)
                if action is not None:
                    verb = action[0]
                    if verb == "drop":
                        ticket.error = FaultInjectedError(
                            f"delivery {src} -> {dst} dropped by the fault plan"
                        )
                        self._log.note_drop()
                        self._round_injected_drops += 1
                        continue
                    if verb == "delay":
                        ticket.deferred = True
                        self._delayed.append((self._round_index + action[1], ticket))
                        self._log.note_delay()
                        self._round_delayed += 1
                        continue
                    # duplicate: the delivery is charged twice.
                    record(src, dst, ticket.kind)
                    record(src, dst, ticket.kind)
                    self._log.note_duplicate()
                    self._round_duplicated += 1
                    continue
            ticket.deferred = False
            record(src, dst, ticket.kind)
        # ``_round_delivered`` counts every charged message attributed to
        # this round — queued deliveries and direct send() calls alike —
        # so the report stays consistent with its per-host maximum.
        return self._close_round(dropped=dropped)

    def deliver(self, src: HostId, dst: HostId, kind: MessageKind = MessageKind.QUERY) -> None:
        """Deliver one message as a round of its own.

        Observably ``ticket = post(src, dst, kind); run_round();
        ticket.result()``: the same round report, session aggregates,
        measured counters and log tallies, and the same
        :class:`HostFailedError` when either end has failed.  When
        nothing else is queued or assembling and no fault plan is
        installed this costs O(1) — no ticket, no pending list, no scan
        of the round's per-host loads.  Otherwise it is that triple, so
        a fault plan still applies its round-start host rules and
        decides the delivery.  Drivers that run one walk at a time (a
        lone operation, a repair) charge their crossings through it.
        """
        if self._faults is not None or self._pending or self._round_per_host:
            ticket = self.post(src, dst, kind=kind)
            self.run_round()
            ticket.result()
            return
        if not self._round_mode:
            raise RuntimeError("deliver() requires round-based mode; see Network.rounds()")
        hosts = self._hosts
        if src not in hosts:
            raise UnknownHostError(f"unknown source host {src}")
        if dst not in hosts:
            raise UnknownHostError(f"unknown destination host {dst}")
        failed = self._failed_hosts
        if failed and (src in failed or dst in failed):
            self._close_round(1)
            raise HostFailedError(f"host {src if src in failed else dst} has failed")
        if src == dst:
            self._close_round(0)
            return
        self._record_delivery(src, dst, kind)
        self._close_round(0, dst)

    def _close_round(self, dropped: int, busiest: HostId | None = None) -> RoundReport:
        """Fold the assembling round into a report and the session aggregates.

        ``busiest`` names the one host that received this round's
        deliveries, when the caller knows it, and skips the scan for it.
        """
        per_host = self._round_per_host
        if busiest is not None:
            max_load = per_host[busiest]
            max_load_host: HostId | None = busiest
        else:
            max_load = 0
            max_load_host = None
            for host_id, load in per_host.items():
                if load > max_load:
                    max_load = load
                    max_load_host = host_id
        index = self._round_index
        delivered = self._round_delivered
        topology = self._topology
        weight = 0
        max_link_load = 0
        max_link: tuple[HostId, HostId] | None = None
        max_cluster_load = 0
        max_cluster: int | None = None
        if topology is not None:
            weight = self._round_weight
            for link, load in self._round_per_link.items():
                if load > max_link_load:
                    max_link_load = load
                    max_link = link
            for cluster, load in self._round_per_cluster.items():
                if load > max_cluster_load:
                    max_cluster_load = load
                    max_cluster = cluster
        # Positional: one report per round of every batch, so this is hot.
        report = RoundReport(
            index,
            delivered,
            dropped,
            max_load,
            max_load_host,
            weight,
            max_link_load,
            max_link,
            max_cluster_load,
            max_cluster,
            self._round_injected_drops,
            self._round_duplicated,
            self._round_delayed,
        )
        reports = self._round_reports
        reports.append(report)
        retention = self._round_report_retention
        if retention is not None and len(reports) > retention:
            del reports[: len(reports) - retention]
        self._session_per_round_max.append(max_load)
        self._session_delivered += delivered
        if max_load > self._session_busiest_load:
            self._session_busiest_load = max_load
            self._session_busiest_host = max_load_host
            self._session_busiest_round = index
        if topology is not None:
            self._session_weight += weight
            self._session_per_round_max_link.append(max_link_load)
            self._session_per_round_max_cluster.append(max_cluster_load)
            if max_link_load > self._session_busiest_link_load:
                self._session_busiest_link_load = max_link_load
                self._session_busiest_link = max_link
                self._session_busiest_link_round = index
            if max_cluster_load > self._session_busiest_cluster_load:
                self._session_busiest_cluster_load = max_cluster_load
                self._session_busiest_cluster = max_cluster
            self._round_per_link = {}
            self._round_per_cluster = {}
            self._round_weight = 0
        self._round_index = index + 1
        self._round_per_host = {}
        self._round_delivered = 0
        self._round_injected_drops = 0
        self._round_duplicated = 0
        self._round_delayed = 0
        return report

    def run_rounds(
        self,
        steppers: Iterable[Callable[[], bool]],
        max_rounds: int = 1_000_000,
        on_round: Callable[[RoundReport], None] | None = None,
    ) -> list[RoundReport]:
        """Drive a set of concurrent step functions to completion, round by round.

        Each *stepper* represents one in-flight logical operation: when
        called it does its local work, posts at most a few messages for
        the upcoming round, and returns ``True`` while it wants to keep
        running.  One call to every live stepper plus one
        :meth:`run_round` is one network round.  ``on_round`` (if given)
        runs after each round — failure-injection tests use it to kill
        hosts mid-batch.  Returns the reports of every round that actually
        delivered messages.
        """
        if not self._round_mode:
            raise RuntimeError("run_rounds() requires round-based mode; see Network.rounds()")
        reports: list[RoundReport] = []
        active = list(steppers)
        passes = 0
        while active:
            # Guard on scheduler passes, not delivered rounds: a stepper
            # that stays active without ever posting must still trip the
            # bound instead of spinning forever.
            if passes >= max_rounds:
                raise RuntimeError(f"round-based execution exceeded {max_rounds} rounds")
            passes += 1
            active = [stepper for stepper in active if stepper()]
            # With a fault plan installed, a pass with live steppers always
            # closes a round even when nothing was posted: deferred
            # deliveries and backoff timers are keyed to the round clock,
            # so the clock must advance while operations sit idle.  Without
            # a plan the condition is unchanged (faults=None identity).
            if self._pending or (self._faults is not None and (active or self._delayed)):
                report = self.run_round()
                reports.append(report)
                if on_round is not None:
                    on_round(report)
        return reports

    # ------------------------------------------------------------------ #
    # failure injection hooks (extension; the paper assumes no failures)
    # ------------------------------------------------------------------ #
    def fail_host(self, host_id: HostId) -> None:
        """Mark a host as failed; any traffic to it raises :class:`HostFailedError`."""
        self.host(host_id).failed = True
        self._failed_hosts.add(host_id)
        self._membership_epoch += 1
        if self._membership_listeners:
            self._notify_membership("fail", host_id)

    def recover_host(self, host_id: HostId) -> None:
        """Bring a failed host back."""
        self.host(host_id).failed = False
        self._failed_hosts.discard(host_id)
        self._membership_epoch += 1
        if self._membership_listeners:
            self._notify_membership("recover", host_id)

    @property
    def failed_hosts(self) -> set[HostId]:
        return set(self._failed_hosts)

    def _check_alive(self, host_id: HostId) -> None:
        if host_id in self._failed_hosts:
            raise HostFailedError(f"host {host_id} has failed")

    # ------------------------------------------------------------------ #
    # measurement summaries
    # ------------------------------------------------------------------ #
    def memory_profile(self) -> dict[HostId, int]:
        """Items stored per host — the measured per-host memory ``M``."""
        return {host.host_id: host.memory_used for host in self.hosts()}

    def max_memory_used(self) -> int:
        """Largest number of items stored on any single host."""
        profile = self.memory_profile()
        return max(profile.values()) if profile else 0

    def reset_counters(self) -> None:
        """Clear the message log and per-host reference counters.

        Structures call this after construction so that benchmarks measure
        only query/update traffic, matching the paper's per-operation cost
        definitions.
        """
        self._log.clear()
        for host in self.hosts():
            host.reset_reference_counts()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Network(hosts={self.host_count}, messages={self.total_messages})"
