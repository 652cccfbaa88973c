"""Shared machinery for the Table 1 baseline structures.

Every baseline is a *distributed ordered dictionary*: keys live on hosts,
each host keeps a routing table (its neighbours at various levels,
fingers, tree pointers, ...), and a search routes greedily from an origin
host to the host responsible for the query, one message per hop.

To keep the eight baselines small and uniform they share this pattern:

* routing tables are *computed* centrally from the global key set (the
  simulator knows everything), but *stored* on the hosts through the
  network's slot store, so per-host memory ``M`` is measured rather than
  asserted;
* searches run exclusively over the stored tables as step generators
  (:mod:`repro.engine.steps`), so query messages ``Q(n)`` are counted
  exactly;
* updates recompute the affected tables and charge one message per host
  whose stored table actually changed (plus the search that locates the
  update position), mirroring how the skip-web update protocol is
  accounted — see :mod:`repro.core.update`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from statistics import mean
from typing import Any, Iterable, Sequence

from repro.core.bulkload import charge_construction, is_strictly_increasing
from repro.core.range_query import (
    DEFAULT_FAN_OUT,
    RangeBranchReport,
    RangeQueryResult,
    assemble_range_result,
    partition_walks,
)
from repro.core.ranges import coerce_interval, interval_anchor
from repro.engine.repair import MigrationSummary
from repro.engine.steps import StepCursor, StepGenerator, local_steps, run_immediate
from repro.errors import ChurnError, QueryError, UpdateError
from repro.net.congestion import CongestionReport, congestion_report
from repro.net.message import MessageKind
from repro.net.naming import Address, HostId
from repro.net.network import Network


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one search on a baseline structure."""

    query: float
    nearest: float
    predecessor: float | None
    successor: float | None
    exact: bool
    messages: int
    hosts_visited: tuple[HostId, ...]


@dataclass(frozen=True)
class BaselineUpdateOutcome:
    """Result of one insert/delete on a baseline structure."""

    key: float
    kind: str
    messages: int
    search_messages: int
    propagate_messages: int
    hosts_touched: int


class DistributedOrderedStructure(abc.ABC):
    """Base class: a set of numeric keys spread over hosts with routing tables.

    Subclasses implement :meth:`_routing_tables` (the full routing state,
    host by host) and :meth:`_route` (one greedy routing step).  Everything
    else — storage, measurement, the update accounting — is shared.
    """

    #: Row label used in Table 1 output.
    name: str = "baseline"

    def __init__(
        self,
        keys: Sequence[float],
        network: Network | None = None,
        seed: int = 0,
    ) -> None:
        converted = [float(key) for key in keys]
        if is_strictly_increasing(converted):
            self._keys = converted  # O(n) bulk-load fast path
        else:
            self._keys = sorted(set(converted))
        if not self._keys:
            raise QueryError(f"{self.name}: needs at least one key")
        self.seed = seed
        self.network = network if network is not None else Network()
        self._table_addresses: dict[HostId, Address] = {}
        self._host_of_key: dict[float, HostId] = {}
        # Lazily-built views of _host_of_key, dropped together by
        # _owners_changed(): the inverse (host -> one resident key), which
        # resolves batch origins in O(1), and origin_hosts()'s tuple.
        self._origin_index: dict[HostId, float] | None = None
        self._origins: tuple[HostId, ...] | None = None
        #: CONSTRUCTION messages charged by a bulk-load build (0 otherwise).
        self.construction_messages = 0
        self._setup_hosts()
        self._install_tables(charge_messages=False)

    @classmethod
    def build_from_sorted(
        cls, keys: Sequence[float], **kwargs: Any
    ) -> "DistributedOrderedStructure":
        """Bulk-load constructor over pre-sorted, deduplicated ``keys``.

        The constructor verifies sortedness in O(n) and skips its
        defensive sort; one CONSTRUCTION ledger message is then charged
        per routing table installed on a host other than the coordinator
        (the first key's home), making the bulk-load traffic measurable.
        """
        structure = cls(keys, **kwargs)
        coordinator = structure._host_of_key[structure._keys[0]]
        structure.construction_messages = charge_construction(
            structure.network, coordinator, structure._table_addresses
        )
        return structure

    # ------------------------------------------------------------------ #
    # host layout
    # ------------------------------------------------------------------ #
    def _setup_hosts(self) -> None:
        """Create one host per key (subclasses with ``H < n`` override)."""
        existing = [host.host_id for host in self.network.hosts()]
        needed = len(self._keys) - len(existing)
        if needed > 0:
            self.network.add_hosts(needed)
        host_ids = [host.host_id for host in self.network.hosts()]
        for index, key in enumerate(self._keys):
            self._host_of_key[key] = host_ids[index % len(host_ids)]

    def host_of(self, key: float) -> HostId:
        """The home host of a stored key."""
        return self._host_of_key[key]

    # ------------------------------------------------------------------ #
    # routing tables
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _routing_tables(self) -> dict[HostId, Any]:
        """Compute the complete routing table of every host.

        A table is any picklable value; its *size in stored entries* is
        what :meth:`_table_size` reports for memory accounting.
        """

    @abc.abstractmethod
    def _route(self, table: Any, current_key: float, query: float) -> float | None:
        """One greedy routing step.

        Given the routing table stored at the host responsible for
        ``current_key``, return the key whose host the search should visit
        next, or ``None`` when ``current_key``'s host is the final
        destination for ``query``.
        """

    def _table_size(self, table: Any) -> int:
        """Number of stored entries in a routing table (for ``M`` accounting)."""
        if isinstance(table, dict):
            return sum(self._table_size(value) for value in table.values())
        if isinstance(table, (list, tuple, set)):
            return sum(self._table_size(value) for value in table)
        return 1

    def _install_tables(self, charge_messages: bool) -> tuple[int, set[HostId]]:
        """(Re)store every host's routing table; returns (changed hosts, set).

        Tables that did not change keep their slots untouched; changed
        tables are replaced in place.  The caller decides whether the
        changes should be charged as update messages.
        """
        tables = self._routing_tables()
        changed: set[HostId] = set()
        for host_id, table in tables.items():
            address = self._table_addresses.get(host_id)
            if address is None:
                self._table_addresses[host_id] = self.network.store(host_id, table)
                changed.add(host_id)
                continue
            # Bookkeeping access: table repair applies atomically and must
            # not be interruptible by an injected host failure mid-update.
            if self.network.load(address, check_alive=False) != table:
                self.network.replace(address, table)
                changed.add(host_id)
        # Drop tables of hosts that no longer have one (rare: shrinking).
        for host_id in list(self._table_addresses):
            if host_id not in tables:
                self.network.free(self._table_addresses.pop(host_id))
                changed.add(host_id)
        # Memory accounting: the slot count is one per table, so expose the
        # entry count via per-host owned-item bookkeeping instead.
        for host in self.network.hosts():
            host.reset_reference_counts()
        for host_id, table in tables.items():
            self.network.host(host_id).note_owned_items(0)
        return len(changed), changed

    # ------------------------------------------------------------------ #
    # searching
    # ------------------------------------------------------------------ #
    def _origin_key_for(
        self, origin_host: HostId | None, origin_key: float | None
    ) -> float:
        """Resolve the key a search starts from (protocol passes hosts, not keys)."""
        if origin_key is not None:
            return float(origin_key)
        if origin_host is not None:
            key = self._origin_index_lookup(origin_host)
            if key is not None:
                return key
        return self._keys[0]

    def _owners_changed(self) -> None:
        """Drop the views derived from ``_host_of_key``.

        Called in the same uninterrupted step as every ``_host_of_key``
        mutation (insert, delete, churn re-homing), so no view is stale.
        """
        self._origin_index = None
        self._origins = None

    def _origin_index_lookup(self, origin_host: HostId) -> float | None:
        """A key stored at ``origin_host``, via the cached inverse map."""
        if self._origin_index is None:
            index: dict[HostId, float] = {}
            for key, host in self._host_of_key.items():
                index.setdefault(host, key)
            self._origin_index = index
        return self._origin_index.get(origin_host)

    def search_steps(
        self,
        query: float,
        origin_host: HostId | None = None,
        origin_key: float | None = None,
    ) -> StepGenerator:
        """The greedy routing walk as a resumable step generator."""
        query = float(query)
        origin_key = self._origin_key_for(origin_host, origin_key)
        if origin_key not in self._host_of_key:
            raise QueryError(f"{self.name}: origin key {origin_key!r} is not stored")
        cursor = StepCursor(self._host_of_key[origin_key])
        current_key = origin_key
        safety = 4 * len(self._keys) + 16
        for _ in range(safety):
            host = self._host_of_key.get(current_key)
            if host is None:
                # A delete of the same batch removed the key this walk stands
                # on: a conflict, which the executor retries from scratch.
                raise QueryError(f"{self.name}: key {current_key!r} was deleted mid-walk")
            table = self.network.load(self._table_addresses[host])
            next_key = self._route(table, current_key, query)
            if next_key is None:
                return self._finish(query, current_key, cursor)
            yield from cursor.hop_to(self._host_of_key[next_key])
            current_key = next_key
        raise QueryError(f"{self.name}: routing did not converge for query {query!r}")

    def search(
        self,
        query: float,
        origin_key: float | None = None,
        kind: MessageKind = MessageKind.QUERY,
    ) -> SearchOutcome:
        """Route a nearest-neighbour search for ``query`` through the overlay."""
        resolved = self._origin_key_for(None, origin_key)
        origin = self._host_of_key.get(resolved)
        gen = self.search_steps(query, origin_key=resolved)
        return run_immediate(self.network, gen, origin, kind=kind)

    def _finish(
        self, query: float, final_key: float, traversal: StepCursor
    ) -> SearchOutcome:
        index = self._keys.index(final_key)
        predecessor = None
        successor = None
        if final_key <= query:
            predecessor = final_key
            successor = self._keys[index + 1] if index + 1 < len(self._keys) else None
        else:
            successor = final_key
            predecessor = self._keys[index - 1] if index > 0 else None
        candidates = [value for value in (predecessor, successor) if value is not None]
        nearest = min(candidates, key=lambda value: abs(value - query))
        return SearchOutcome(
            query=query,
            nearest=nearest,
            predecessor=predecessor,
            successor=successor,
            exact=(query in self._host_of_key),
            messages=traversal.hops,
            hosts_visited=traversal.path_tuple(),
        )

    # ------------------------------------------------------------------ #
    # range reporting (output-sensitive; ordered overlays support it)
    # ------------------------------------------------------------------ #
    def _range_report_walk(
        self,
        keys: Sequence[float],
        start_host: HostId,
    ) -> StepGenerator:
        """One report sub-walk: hop through the home hosts of ``keys`` in order."""
        cursor = StepCursor(start_host)
        for key in keys:
            yield from cursor.hop_to(self._host_of_key[key])
        return RangeBranchReport(
            values=tuple(keys),
            messages=cursor.hops,
            hosts_visited=cursor.path_tuple(),
        )

    def range_steps(
        self,
        query_range: Any,
        origin_host: HostId | None = None,
        origin_key: float | None = None,
        fan_out: int = DEFAULT_FAN_OUT,
    ) -> StepGenerator:
        """Output-sensitive key-range reporting over the ordered overlay.

        Orderedness is what makes this possible at all (the point §1.2
        makes against plain DHTs): the search locates the low endpoint in
        the overlay's usual O(log n) messages, then forked sub-walks hop
        successor by successor through the matched keys' home hosts —
        one message per key in these one-key-per-host designs, so
        O(log n + k) total.
        """
        interval = coerce_interval(query_range)
        anchor = interval_anchor(interval, self._keys[0])
        search = yield from self.search_steps(
            anchor, origin_host=origin_host, origin_key=origin_key
        )
        matched = [key for key in self._keys if interval.contains(key)]
        start_host = (
            search.hosts_visited[-1]
            if search.hosts_visited
            else self._host_of_key[self._origin_key_for(origin_host, origin_key)]
        )
        chunks = partition_walks(matched, fan_out)
        cursor = StepCursor(start_host)
        reports = yield from cursor.fork(
            [self._range_report_walk(chunk, start_host) for chunk in chunks]
        )
        return assemble_range_result(
            interval,
            reports,
            descent_messages=search.messages,
            descent_hosts=search.hosts_visited,
            origin_host=search.hosts_visited[0] if search.hosts_visited else start_host,
            levels_descended=0,
        )

    def range_search(
        self,
        low: float,
        high: float,
        origin_key: float | None = None,
        fan_out: int = DEFAULT_FAN_OUT,
    ) -> RangeQueryResult:
        """Immediate-mode key-range reporting; see :meth:`range_steps`."""
        resolved = self._origin_key_for(None, origin_key)
        origin = self._host_of_key.get(resolved)
        gen = self.range_steps(
            (low, high), origin_key=resolved, fan_out=fan_out
        )
        return run_immediate(self.network, gen, origin, kind=MessageKind.QUERY)

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert_steps(
        self,
        key: float,
        origin_host: HostId | None = None,
        origin_key: float | None = None,
    ) -> StepGenerator:
        """Insertion as a resumable step generator (search, then table repair).

        The precondition is checked again after the search, at the commit
        point: a same-key insert of the same batch may have committed
        while this one searched, and a second copy of the key must not be
        stored.
        """
        key = float(key)
        self._check_insert(key)
        search = yield from self.search_steps(
            key, origin_host=origin_host, origin_key=origin_key
        )
        self._check_insert(key)
        self._keys = sorted(self._keys + [key])
        self._assign_new_key(key)
        self._after_ground_set_change()
        self._owners_changed()
        changed_count, changed_hosts = self._install_tables(charge_messages=True)
        messages = yield from self._charge_update(search, changed_hosts)
        return BaselineUpdateOutcome(
            key=key,
            kind="insert",
            messages=search.messages + messages,
            search_messages=search.messages,
            propagate_messages=messages,
            hosts_touched=changed_count,
        )

    def insert(self, key: float, origin_key: float | None = None) -> BaselineUpdateOutcome:
        """Insert ``key``: search for its position, then repair routing tables."""
        resolved = self._origin_key_for(None, origin_key)
        origin = self._host_of_key.get(resolved)
        gen = self.insert_steps(key, origin_key=resolved)
        return run_immediate(self.network, gen, origin, kind=MessageKind.UPDATE)

    def delete_steps(
        self,
        key: float,
        origin_host: HostId | None = None,
        origin_key: float | None = None,
    ) -> StepGenerator:
        """Deletion as a resumable step generator (search, then table repair).

        The precondition is checked again after the search, at the commit
        point.
        """
        key = float(key)
        self._check_delete(key)
        origin_key = self._delete_origin_key(key, origin_key)
        search = yield from self.search_steps(
            key, origin_host=origin_host, origin_key=origin_key
        )
        self._check_delete(key)
        self._keys = [existing for existing in self._keys if existing != key]
        self._host_of_key.pop(key)
        self._after_ground_set_change()
        self._owners_changed()
        changed_count, changed_hosts = self._install_tables(charge_messages=True)
        messages = yield from self._charge_update(search, changed_hosts)
        return BaselineUpdateOutcome(
            key=key,
            kind="delete",
            messages=search.messages + messages,
            search_messages=search.messages,
            propagate_messages=messages,
            hosts_touched=changed_count,
        )

    def _check_insert(self, key: float) -> None:
        if key in self._host_of_key:
            raise UpdateError(f"{self.name}: key {key!r} already stored")

    def _check_delete(self, key: float) -> None:
        if key not in self._host_of_key:
            raise UpdateError(f"{self.name}: key {key!r} is not stored")
        if len(self._keys) == 1:
            raise UpdateError(f"{self.name}: cannot delete the last key")

    def _delete_origin_key(self, key: float, origin_key: float | None) -> float:
        """Origin key for a delete's search: never the key being deleted.

        Shared by :meth:`delete` (which needs the origin *host* for the
        immediate driver) and :meth:`delete_steps` (which seeds its cursor
        from the same key), so the two can never diverge.
        """
        if origin_key is None or float(origin_key) == key:
            return next(
                (existing for existing in self._keys if existing != key), self._keys[0]
            )
        return float(origin_key)

    def delete(self, key: float, origin_key: float | None = None) -> BaselineUpdateOutcome:
        """Delete ``key`` and repair routing tables."""
        key = float(key)
        effective = self._delete_origin_key(key, origin_key)
        origin = self._host_of_key.get(effective)
        gen = self.delete_steps(key, origin_key=origin_key)
        return run_immediate(self.network, gen, origin, kind=MessageKind.UPDATE)

    def _assign_new_key(self, key: float) -> None:
        """Give a newly inserted key a home host (default: a fresh host)."""
        host = self.network.add_host()
        self._host_of_key[key] = host.host_id

    def _after_ground_set_change(self) -> None:
        """Hook for subclasses that keep derived state (membership vectors, ...)."""

    def _charge_update(
        self, search: SearchOutcome, changed_hosts: set[HostId]
    ) -> StepGenerator:
        """Charge one update message per host whose routing table changed."""
        start = search.hosts_visited[-1] if search.hosts_visited else 0
        cursor = StepCursor(start)
        for host in sorted(changed_hosts):
            yield from cursor.hop_to(host)
        return cursor.hops

    # ------------------------------------------------------------------ #
    # churn: migration and self-repair (see repro.engine.repair)
    # ------------------------------------------------------------------ #
    def _churn_pool(self, exclude: set[HostId]) -> list[HostId]:
        """Live hosts that can take over keys, excluding departing ones."""
        pool = [
            host_id
            for host_id in self.network.alive_host_ids()
            if host_id not in exclude
        ]
        if not pool:
            raise ChurnError(f"{self.name}: no live hosts left to hold keys")
        return pool

    def _rehome_keys(
        self, cursor: StepCursor, keys: list[float], pool: list[HostId], origin: HostId
    ) -> StepGenerator:
        """Hand each key over to a vacant host (≥ 1 message per hand-off).

        These overlays are one-key-per-host designs: a host's stored
        routing table belongs to *its* key, so re-homing preserves the
        invariant by preferring vacant pool hosts and otherwise
        registering a fresh host — exactly what :meth:`_assign_new_key`
        does for inserts.
        """
        moving = set(keys)
        occupied = {
            host for key, host in self._host_of_key.items() if key not in moving
        }
        for key in keys:
            destination = next(
                (candidate for candidate in pool if candidate not in occupied), None
            )
            if destination is None:
                destination = self.network.add_host().host_id
            occupied.add(destination)
            yield from cursor.hand_off(destination, origin)
            self._host_of_key[key] = destination
        return None

    def _finish_churn(
        self,
        cursor: StepCursor,
        kind: str,
        hosts: tuple[HostId, ...],
        moved: int,
    ) -> StepGenerator:
        """Repair the routing tables and assemble the churn summary."""
        self._owners_changed()
        self._after_ground_set_change()
        changed_count, changed_hosts = self._install_tables(charge_messages=True)
        # Dropping a dead (or departed) host's table is pure bookkeeping —
        # there is nobody left to message — so only live hosts are billed.
        failed = self.network.failed_hosts
        for host in sorted(changed_hosts):
            if host in failed or host not in self.network:
                continue
            yield from cursor.hop_to(host)
        return MigrationSummary(
            kind=kind,
            hosts=hosts,
            records_moved=moved,
            pointers_rewired=changed_count,
            hosts_touched=cursor.distinct_hosts(),
        )

    def migrate_host(
        self,
        host_id: HostId,
        targets: Sequence[HostId] | None = None,
        fraction: float = 1.0,
    ) -> StepGenerator:
        """Hand keys off ``host_id``, then repair every changed routing table.

        A full evacuation prepares a graceful leave; a partial migration
        toward explicit ``targets`` rebalances keys onto a newly joined
        host.  One message is charged per key hand-off and per host whose
        stored routing table changed.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.network.host(host_id)  # validate early
        if targets is not None:
            pool = [target for target in targets if target != host_id]
        else:
            pool = self._churn_pool({host_id})
        if not pool:
            raise ChurnError(f"{self.name}: no live hosts to migrate keys to")
        resident = [key for key in self._keys if self._host_of_key[key] == host_id]
        moving = resident[: math.ceil(fraction * len(resident))]
        cursor = StepCursor(host_id)
        yield from cursor.hop_to(host_id)  # announce the coordinator (free)
        yield from self._rehome_keys(cursor, moving, pool, host_id)
        summary = yield from self._finish_churn(
            cursor, "migrate", (host_id,), len(moving)
        )
        return summary

    def repair(self, host_ids: Sequence[HostId]) -> StepGenerator:
        """Re-home the keys orphaned by crashed ``host_ids``; repair tables.

        The keys themselves are reconstructed from the global key registry
        (the stand-in for the replicated metadata a real deployment would
        keep); placements and changed routing tables are charged one
        message each.
        """
        dead = set(host_ids)
        if not dead:
            raise ChurnError(f"{self.name}: repair needs at least one crashed host")
        pool = self._churn_pool(dead)
        coordinator = pool[0]
        orphaned = [key for key in self._keys if self._host_of_key[key] in dead]
        cursor = StepCursor(coordinator)
        yield from cursor.hop_to(coordinator)  # announce the coordinator (free)
        yield from self._rehome_keys(cursor, orphaned, pool, coordinator)
        summary = yield from self._finish_churn(
            cursor, "repair", tuple(sorted(dead)), len(orphaned)
        )
        return summary

    # ------------------------------------------------------------------ #
    # DistributedStructure protocol (batched execution; see repro.engine)
    # ------------------------------------------------------------------ #
    def origin_hosts(self) -> tuple[HostId, ...]:
        """Hosts that store at least one key (every search starts at a key).

        The same tuple until an update or churn step moves a key.
        """
        if self._origins is None:
            self._origins = tuple(sorted(set(self._host_of_key.values())))
        return self._origins

    def seed_roots(self, origin_host: HostId) -> StepGenerator:
        """Step generator returning ``origin_host``'s locally stored routing table."""
        address = self._table_addresses.get(origin_host)
        return local_steps(self.network.load(address) if address is not None else None)

    # ------------------------------------------------------------------ #
    # measurement
    # ------------------------------------------------------------------ #
    @property
    def keys(self) -> list[float]:
        return list(self._keys)

    @property
    def ground_set_size(self) -> int:
        return len(self._keys)

    @property
    def host_count(self) -> int:
        return self.network.host_count

    def max_memory_per_host(self) -> int:
        """Largest routing-table size (in entries) on any host."""
        profile = self.memory_profile()
        return max(profile.values()) if profile else 0

    def memory_profile(self) -> dict[HostId, int]:
        """Routing-table entries per host, plus one per stored key."""
        profile: dict[HostId, int] = {host.host_id: 0 for host in self.network.hosts()}
        for host_id, address in self._table_addresses.items():
            profile[host_id] = profile.get(host_id, 0) + self._table_size(
                self.network.load(address)
            )
        for key, host_id in self._host_of_key.items():
            profile[host_id] = profile.get(host_id, 0) + 1
        return profile

    def congestion(self) -> CongestionReport:
        """Congestion per §1.1 based on cross-host routing-table references."""
        for host in self.network.hosts():
            host.reset_reference_counts()
        for key, host_id in self._host_of_key.items():
            self.network.host(host_id).note_owned_items(1)
        for host_id, address in self._table_addresses.items():
            table = self.network.load(address)
            for referenced_key in self._referenced_keys(table):
                target = self._host_of_key.get(referenced_key)
                if target is not None and target != host_id:
                    self.network.host(host_id).note_out_reference(1)
                    self.network.host(target).note_in_reference(1)
        return congestion_report(self.network, self.ground_set_size)

    def _referenced_keys(self, table: Any) -> Iterable[float]:
        """Keys a routing table points at (for congestion accounting)."""
        if isinstance(table, dict):
            for value in table.values():
                yield from self._referenced_keys(value)
        elif isinstance(table, (list, tuple, set)):
            for value in table:
                yield from self._referenced_keys(value)
        elif isinstance(table, float):
            yield table

    def mean_search_messages(self, queries: Sequence[float]) -> float:
        """Convenience: average ``Q(n)`` over a query workload."""
        return mean(self.search(query).messages for query in queries)
