"""One-dimensional skip-webs, with and without the §2.4.1 bucket blocking.

Two structures are provided:

* :class:`SkipWeb1D` — the generic skip-web of §2.3–§2.5 instantiated
  with the sorted linked list.  With one host per key and owner blocking
  this matches the deployment of skip graphs / SkipNet: ``O(log n)``
  memory and congestion, ``O(log n)`` expected query and update messages.

* :class:`BucketSkipWeb1D` — the improved blocking strategy of §2.4.1.
  Levels that are multiples of ``L = ⌈log₂ M⌉`` are *basic*; each basic
  level's list is cut into contiguous blocks of about ``M / L`` ranges,
  one block per host, and every host additionally stores copies of the
  ranges of the non-basic levels above its block that conflict with what
  it already stores (the cascade described in the paper).  A query then
  only pays messages when it crosses from one basic level's blocks to the
  next, giving ``O(log n / log M)`` expected messages — the paper's
  headline improvement over skip graphs, and ``O(log_M H)`` for the
  bucket skip-web row of Table 1.

Implementation note.  The bucket structure stores every copy explicitly
on the simulated hosts (so memory and congestion are measured, not
assumed), but intra-host navigation is elided during queries: the query
walks the chain of per-level targets and charges one message whenever the
next target's copies all live on hosts other than the current one, which
is exactly the paper's cost model (local processing is free).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Hashable, Sequence

from repro.core.bulkload import charge_construction, is_strictly_increasing
from repro.core.levels import BitPrefix, MembershipAssignment
from repro.core.link_structure import RangeUnit
from repro.core.query import QueryResult
from repro.core.range_query import (
    DEFAULT_FAN_OUT,
    RangeBranchReport,
    RangeQueryResult,
    assemble_range_result,
    partition_walks,
)
from repro.core.ranges import Interval, coerce_interval, interval_anchor
from repro.core.skipweb import SkipWeb, SkipWebConfig, SkipWebStructureAdapter
from repro.core.update import UpdateResult
from repro.engine.repair import MigrationSummary
from repro.engine.steps import StepCursor, StepGenerator, local_steps, run_immediate
from repro.errors import ChurnError, QueryError, StructureError, UpdateError
from repro.net.congestion import CongestionReport, congestion_report
from repro.net.message import MessageKind
from repro.net.naming import Address, HostId
from repro.net.network import Network
from repro.onedim.linked_list import SortedListStructure


class SkipWeb1D(SkipWebStructureAdapter):
    """A skip-web over sorted numeric keys (arbitrary blocking, §2.4).

    This is a thin convenience wrapper around the generic
    :class:`repro.core.skipweb.SkipWeb` that fixes the link structure to
    :class:`SortedListStructure` and exposes one-dimensional query names.
    """

    def _coerce_query(self, query: Any) -> float:
        return float(query)

    def _coerce_item(self, item: Any) -> float:
        return float(item)

    def _coerce_range(self, query_range: Any) -> Interval:
        return coerce_interval(query_range)

    def __init__(
        self,
        keys: Sequence[float],
        network: Network | None = None,
        host_count: int | None = None,
        blocking: str = "owner",
        seed: int = 0,
        height: int | None = None,
    ) -> None:
        config = SkipWebConfig(
            host_count=host_count, blocking=blocking, seed=seed, height=height
        )
        self.web = SkipWeb(
            SortedListStructure,
            [float(key) for key in keys],
            network=network,
            config=config,
        )

    # -- queries -------------------------------------------------------- #
    def nearest(self, query: float, origin_host: HostId | None = None) -> QueryResult:
        """One-dimensional nearest-neighbour query (≡ point location in ``D(S)``)."""
        return self.web.query(float(query), origin_host=origin_host)

    def contains(self, key: float, origin_host: HostId | None = None) -> bool:
        """Exact-membership query."""
        result = self.nearest(key, origin_host=origin_host)
        return bool(result.answer.exact)

    def range_search(
        self, low: float, high: float, origin_host: HostId | None = None
    ) -> RangeQueryResult:
        """All stored keys in ``[low, high]``: O(log n + k) expected messages."""
        return self.range_report((low, high), origin_host=origin_host)

    # -- updates -------------------------------------------------------- #
    def insert(self, key: float, origin_host: HostId | None = None) -> UpdateResult:
        return self.web.insert(float(key), origin_host=origin_host)

    def delete(self, key: float, origin_host: HostId | None = None) -> UpdateResult:
        return self.web.delete(float(key), origin_host=origin_host)

    # -- accounting ------------------------------------------------------ #
    @property
    def network(self) -> Network:
        return self.web.network

    @property
    def keys(self) -> list[float]:
        return sorted(self.web.items)

    @property
    def host_count(self) -> int:
        return self.web.host_count

    def max_memory_per_host(self) -> int:
        return self.web.max_memory_per_host()

    def congestion(self) -> CongestionReport:
        return self.web.congestion()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SkipWeb1D(n={len(self.web.items)}, hosts={self.host_count})"


@dataclass(frozen=True)
class _Copy:
    """One stored copy of a level unit (what a bucket host keeps in a slot)."""

    level: int
    prefix: BitPrefix
    unit: RangeUnit


def _unit_position(unit: RangeUnit) -> tuple[float, int]:
    """Total order of a sorted list's units along the line (for contiguous blocks)."""
    if unit.is_node:
        return (float(unit.payload), 0)
    low, high = unit.payload
    if low is None:
        return (-math.inf, 1)
    return (float(low), 1)


class BucketSkipWeb1D:
    """The bucket skip-web of §2.4.1 for one-dimensional keys.

    Parameters
    ----------
    keys:
        The ground set of numeric keys.
    memory_size:
        The paper's ``M`` — the number of items a host may store.  The
        number of hosts follows from it (``H = O(n log n / M)``).
    seed:
        Seed for the membership words.
    network:
        Optional pre-existing network; hosts are always created by this
        class (one per block), so normally omit it.
    """

    def __init__(
        self,
        keys: Sequence[float],
        memory_size: int,
        seed: int = 0,
        network: Network | None = None,
    ) -> None:
        converted = [float(key) for key in keys]
        if is_strictly_increasing(converted):
            unique_keys = converted  # O(n) bulk-load fast path
        else:
            unique_keys = sorted(set(converted))
        if not unique_keys:
            raise StructureError("bucket skip-web requires at least one key")
        if memory_size < 4:
            raise ValueError(f"memory_size must be at least 4, got {memory_size}")
        self._keys = unique_keys
        self.memory_size = memory_size
        self._rng = random.Random(seed)
        self.network = network if network is not None else Network()

        self._membership = MembershipAssignment(unique_keys, rng=self._rng)
        self.height = self._membership.height
        self.level_gap = max(1, math.ceil(math.log2(memory_size)))
        self.basic_levels = list(range(0, self.height + 1, self.level_gap))
        self.block_capacity = max(2, memory_size // self.level_gap)

        # Hosts that left (or crashed) and must not receive blocks again.
        self._retired_hosts: set[HostId] = set()
        # origin_hosts() memo and the membership epoch it was built at;
        # -1 forces a rebuild (set whenever _retired_hosts changes).
        self._origins: tuple[HostId, ...] = ()
        self._origins_epoch = -1
        # (level, prefix) -> SortedListStructure
        self._structures: dict[tuple[int, BitPrefix], SortedListStructure] = {}
        # (level, prefix, unit key) -> hosts storing a copy
        self._stored_at: dict[tuple[int, BitPrefix, Hashable], set[HostId]] = {}
        # (basic level, prefix, unit key) -> the block host (unique home)
        self._block_host: dict[tuple[int, BitPrefix, Hashable], HostId] = {}
        # addresses of every stored copy, for memory accounting / teardown
        self._copy_addresses: list[Address] = []

        #: CONSTRUCTION messages charged by a bulk-load build (0 otherwise).
        self.construction_messages = 0

        self._rebuild_layout()

    @classmethod
    def build_from_sorted(
        cls, keys: Sequence[float], memory_size: int, **kwargs: Any
    ) -> "BucketSkipWeb1D":
        """Bulk-load constructor over pre-sorted, deduplicated ``keys``.

        Skips the defensive O(n log n) sort (the constructor verifies
        sortedness in O(n)) and charges one CONSTRUCTION ledger message
        per copy placed on a host other than the coordinator, mirroring
        :meth:`repro.core.skipweb.SkipWeb.build_from_sorted`.
        """
        structure = cls(keys, memory_size, **kwargs)
        coordinator = structure._pool_hosts()[0]
        structure.construction_messages = charge_construction(
            structure.network,
            coordinator,
            (address.host for address in structure._copy_addresses),
        )
        return structure

    # ------------------------------------------------------------------ #
    # layout construction
    # ------------------------------------------------------------------ #
    def _pool_hosts(self) -> list[HostId]:
        """Hosts eligible to hold blocks: alive and never retired by churn."""
        return [
            host_id
            for host_id in self.network.alive_host_ids()
            if host_id not in self._retired_hosts
        ]

    def _rebuild_layout(self) -> None:
        """(Re)compute level structures, blocks and copies from scratch."""
        for address in self._copy_addresses:
            self.network.free(address)
        self._copy_addresses.clear()
        self._structures.clear()
        self._stored_at.clear()
        self._block_host.clear()

        for level in range(self.height + 1):
            for prefix, members in self._membership.level_sets(level).items():
                self._structures[(level, prefix)] = SortedListStructure(members)

        # The paper's host budget: H ≤ c · n · log n / M (§2.4.1).  Blocks
        # are dealt to this pool round-robin, so small level sets share
        # hosts instead of each grabbing their own.
        n = len(self._keys)
        target_hosts = max(1, math.ceil(2 * n * (self.height + 1) / self.memory_size))
        host_pool = self._pool_hosts()
        while len(host_pool) < target_hosts:
            host_pool.append(self.network.add_host().host_id)
        block_cycle = 0

        # 1. blocks at basic levels
        for level in self.basic_levels:
            for prefix, structure in self._level_structures(level):
                ordered_units = sorted(structure.units(), key=_unit_position)
                for start in range(0, len(ordered_units), self.block_capacity):
                    block_units = ordered_units[start : start + self.block_capacity]
                    host_id = host_pool[block_cycle % len(host_pool)]
                    block_cycle += 1
                    for unit in block_units:
                        self._store_copy(level, prefix, unit, host_id)
                        self._block_host[(level, prefix, unit.key)] = host_id

        # 2. cascading copies at non-basic levels: a unit is stored on every
        #    host that stores a conflicting unit one level below.
        for level in range(1, self.height + 1):
            if level in self.basic_levels:
                continue
            for prefix, structure in self._level_structures(level):
                parent_prefix = prefix[:-1]
                parent_structure = self._structures.get((level - 1, parent_prefix))
                if parent_structure is None:
                    continue
                for unit in structure.units():
                    hosts: set[HostId] = set()
                    for conflicting in parent_structure.conflicts(unit.range):
                        hosts |= self._stored_at.get(
                            (level - 1, parent_prefix, conflicting.key), set()
                        )
                    for host_id in hosts:
                        self._store_copy(level, prefix, unit, host_id)

    def _level_structures(self, level: int):
        for (lvl, prefix), structure in self._structures.items():
            if lvl == level:
                yield prefix, structure

    def _store_copy(
        self, level: int, prefix: BitPrefix, unit: RangeUnit, host_id: HostId
    ) -> None:
        stored = self._stored_at.setdefault((level, prefix, unit.key), set())
        if host_id in stored:
            return
        address = self.network.store(
            host_id, _Copy(level=level, prefix=prefix, unit=unit)
        )
        self._copy_addresses.append(address)
        stored.add(host_id)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def _basic_level_at_or_below(self, level: int) -> int:
        return (level // self.level_gap) * self.level_gap

    def _target_chain(
        self, query: float, word: BitPrefix
    ) -> list[tuple[int, BitPrefix, RangeUnit]]:
        """The per-level target units for ``query`` along the word's prefix chain."""
        chain: list[tuple[int, BitPrefix, RangeUnit]] = []
        for level in range(self.height, -1, -1):
            prefix = word[:level]
            structure = self._structures.get((level, prefix))
            if structure is None:
                continue
            chain.append((level, prefix, structure.locate(query)))
        return chain

    def _root_host_for_key(self, origin_key: float, word: BitPrefix) -> HostId:
        """The block host responsible for ``origin_key`` at the top basic level."""
        top_basic = self.basic_levels[-1]
        basic_prefix = word[:top_basic]
        basic_structure = self._structures[(top_basic, basic_prefix)]
        origin_unit = basic_structure.locate(origin_key)
        return self._block_host[(top_basic, basic_prefix, origin_unit.key)]

    def _origin_for_key(self, origin_key: float | None) -> HostId | None:
        """Default origin host: the root (block host) of ``origin_key``.

        Returns ``None`` for unknown keys; the step generators then raise
        the same :class:`QueryError` the eager API used to raise.
        """
        key = float(origin_key) if origin_key is not None else self._keys[0]
        if key not in self._membership:
            return None
        return self._root_host_for_key(key, self._membership.word(key))

    def search_steps(
        self,
        query: float,
        origin_host: HostId | None = None,
        origin_key: float | None = None,
    ) -> StepGenerator:
        """The nearest-neighbour descent as a resumable step generator.

        The search starts from ``origin_host`` (default: the block host
        responsible for ``origin_key``, i.e. that key's "root"), descends
        the chain of per-level targets along the origin key's membership
        word, and hops to the responsible block host whenever the next
        target is not already stored locally.
        """
        point = float(query)
        if origin_key is None:
            origin_key = self._keys[0]
        origin_key = float(origin_key)
        if origin_key not in self._membership:
            raise QueryError(f"origin key {origin_key!r} is not stored")
        word = self._membership.word(origin_key)
        chain = self._target_chain(point, word)
        if not chain:
            raise QueryError("bucket skip-web has no level structures")

        if origin_host is None:
            origin_host = self._root_host_for_key(origin_key, word)

        cursor = StepCursor(origin_host)
        per_level_messages: list[int] = []
        for level, prefix, unit in chain:
            hops_before = cursor.hops
            stored = self._stored_at.get((level, prefix, unit.key), set())
            if cursor.current_host not in stored:
                if not stored:
                    # A concurrent insert/delete re-dealt the layout and
                    # this walk's target chain no longer exists; raising a
                    # retryable error restarts the operation from fresh
                    # state (the batch executor's ordinary conflict path).
                    raise QueryError(
                        f"unit {unit.key!r} at level {level} has no stored copies "
                        "(layout re-dealt concurrently)"
                    )
                target_host = self._preferred_host(point, level, word)
                if target_host not in stored:
                    # Block-boundary corner case: fall back to any holder.
                    target_host = next(iter(stored))
                yield from cursor.hop_to(target_host)
            per_level_messages.append(cursor.hops - hops_before)

        level0 = self._structures[(0, ())]
        final_unit = chain[-1][2]
        answer = level0.answer(point, final_unit)
        return QueryResult(
            query=point,
            answer=answer,
            messages=cursor.hops,
            origin_host=origin_host,
            hosts_visited=cursor.path_tuple(),
            levels_descended=len(chain) - 1,
            target_key=final_unit.key,
            per_level_messages=tuple(per_level_messages),
        )

    def nearest(
        self,
        query: float,
        origin_key: float | None = None,
        origin_host: HostId | None = None,
    ) -> QueryResult:
        """Nearest-neighbour query; messages are charged per host crossing."""
        if origin_host is None:
            origin_host = self._origin_for_key(origin_key)
        gen = self.search_steps(query, origin_host=origin_host, origin_key=origin_key)
        return run_immediate(self.network, gen, origin_host, kind=MessageKind.QUERY)

    def _preferred_host(self, query: float, level: int, word: BitPrefix) -> HostId:
        """The block host that covers ``query`` from ``level`` down to its basic level."""
        basic = self._basic_level_at_or_below(level)
        prefix = word[:basic]
        structure = self._structures[(basic, prefix)]
        unit = structure.locate(query)
        return self._block_host[(basic, prefix, unit.key)]

    def contains(self, key: float, origin_key: float | None = None) -> bool:
        """Exact-membership query."""
        return bool(self.nearest(key, origin_key=origin_key).answer.exact)

    # ------------------------------------------------------------------ #
    # range reporting (output-sensitive; block-host walks)
    # ------------------------------------------------------------------ #
    def _bucket_report_walk(
        self,
        interval: Interval,
        entries: Sequence[tuple[RangeUnit, HostId]],
        start_host: HostId,
    ) -> StepGenerator:
        """One report sub-walk over (unit, block host) pairs in key order.

        Consecutive keys of the same block share a host, so a whole block
        of matches costs a single crossing — this is where the bucket
        blocking's advantage shows up in the k term (≈ k / block size
        messages instead of ≈ k).
        """
        level0 = self._structures[(0, ())]
        cursor = StepCursor(start_host)
        values: list[Any] = []
        for unit, host in entries:
            yield from cursor.hop_to(host)
            values.extend(level0.report_values(interval, unit))
        return RangeBranchReport(
            values=tuple(values),
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
        """Output-sensitive 1-d range reporting as a resumable step generator.

        Locates the low endpoint through the ordinary bucket descent
        (``O(log n / log M)`` messages), then forks block-host sub-walks
        over the matching level-0 units.
        """
        interval = coerce_interval(query_range)
        anchor = interval_anchor(interval, self._keys[0])
        search = yield from self.search_steps(
            anchor, origin_host=origin_host, origin_key=origin_key
        )
        level0 = self._structures[(0, ())]
        matched_units = level0.report_units(interval)
        entries = [
            (unit, self._block_host[(0, (), unit.key)]) for unit in matched_units
        ]
        start_host = (
            search.hosts_visited[-1] if search.hosts_visited else search.origin_host
        )
        chunks = partition_walks(entries, fan_out)
        cursor = StepCursor(start_host)
        reports = yield from cursor.fork(
            [self._bucket_report_walk(interval, chunk, start_host) for chunk in chunks]
        )
        return assemble_range_result(
            interval,
            reports,
            descent_messages=search.messages,
            descent_hosts=search.hosts_visited,
            origin_host=search.origin_host,
            levels_descended=search.levels_descended,
        )

    def range_report(
        self,
        query_range: Any,
        origin_key: float | None = None,
        origin_host: HostId | None = None,
        fan_out: int = DEFAULT_FAN_OUT,
    ) -> RangeQueryResult:
        """Immediate-mode range reporting; see :meth:`range_steps`."""
        if origin_host is None:
            origin_host = self._origin_for_key(origin_key)
        gen = self.range_steps(
            query_range, origin_host=origin_host, origin_key=origin_key, fan_out=fan_out
        )
        return run_immediate(self.network, gen, origin_host, kind=MessageKind.QUERY)

    def range_search(
        self, low: float, high: float, origin_key: float | None = None
    ) -> RangeQueryResult:
        """All stored keys in ``[low, high]``; see :meth:`range_steps`."""
        return self.range_report((low, high), origin_key=origin_key)

    # ------------------------------------------------------------------ #
    # updates (§4: messages only reach basic levels; block splits amortised)
    # ------------------------------------------------------------------ #
    def insert_steps(
        self,
        key: float,
        origin_host: HostId | None = None,
        origin_key: float | None = None,
    ) -> StepGenerator:
        """Insertion as a resumable step generator; ``O(log n / log M)`` messages.

        The precondition is checked again after the search, at the commit
        point (see :func:`repro.core.update.insert_steps`).
        """
        point = float(key)
        self._check_insert(point)
        search = yield from self.search_steps(
            point, origin_host=origin_host, origin_key=origin_key
        )
        self._check_insert(point)
        word = self._membership.assign(point)
        # Determine the responsible block hosts from the pre-update layout,
        # apply the whole structural change atomically, then charge — an
        # operation interrupted mid-charge leaves the structure consistent.
        targets = self._basic_level_hosts(point, word)
        self._keys = sorted(self._keys + [point])
        self._rebuild_layout()
        messages, hosts_touched = yield from self._charge_hosts(search, targets)
        return UpdateResult(
            item=point,
            kind="insert",
            messages=search.messages + messages,
            search_messages=search.messages,
            propagate_messages=messages,
            levels_touched=len(self.basic_levels),
            records_added=0,
            records_removed=0,
            hosts_touched=hosts_touched,
        )

    def insert(self, key: float, origin_key: float | None = None) -> UpdateResult:
        """Insert ``key``; expected ``O(log n / log M)`` messages."""
        origin_host = self._origin_for_key(origin_key)
        gen = self.insert_steps(key, origin_host=origin_host, origin_key=origin_key)
        return run_immediate(self.network, gen, origin_host, kind=MessageKind.UPDATE)

    def delete_steps(
        self,
        key: float,
        origin_host: HostId | None = None,
        origin_key: float | None = None,
    ) -> StepGenerator:
        """Deletion as a resumable step generator; ``O(log n / log M)`` messages.

        The precondition is checked again after the search, at the commit
        point.
        """
        point = float(key)
        self._check_delete(point)
        origin_key = self._delete_origin_key(point, origin_key)
        search = yield from self.search_steps(
            point, origin_host=origin_host, origin_key=origin_key
        )
        self._check_delete(point)
        word = self._membership.word(point)
        targets = self._basic_level_hosts(point, word)
        self._membership.forget(point)
        self._keys = [existing for existing in self._keys if existing != point]
        self._rebuild_layout()
        messages, hosts_touched = yield from self._charge_hosts(search, targets)
        return UpdateResult(
            item=point,
            kind="delete",
            messages=search.messages + messages,
            search_messages=search.messages,
            propagate_messages=messages,
            levels_touched=len(self.basic_levels),
            records_added=0,
            records_removed=0,
            hosts_touched=hosts_touched,
        )

    def _check_insert(self, point: float) -> None:
        if point in self._membership:
            raise UpdateError(f"key {point!r} is already stored")

    def _check_delete(self, point: float) -> None:
        if point not in self._membership:
            raise UpdateError(f"key {point!r} is not stored")
        if len(self._keys) == 1:
            raise UpdateError("cannot delete the last key")

    def _delete_origin_key(self, point: float, origin_key: float | None) -> float | None:
        """Origin key for a delete's search: never the key being deleted.

        Shared by :meth:`delete` (which resolves the driver's origin host
        from it) and :meth:`delete_steps` (which seeds its search from the
        same key), so the two can never diverge.
        """
        if origin_key is None or float(origin_key) == point:
            return next((existing for existing in self._keys if existing != point), None)
        return float(origin_key)

    def delete(self, key: float, origin_key: float | None = None) -> UpdateResult:
        """Delete ``key``; expected ``O(log n / log M)`` messages."""
        point = float(key)
        origin_host = self._origin_for_key(self._delete_origin_key(point, origin_key))
        gen = self.delete_steps(point, origin_host=origin_host, origin_key=origin_key)
        return run_immediate(self.network, gen, origin_host, kind=MessageKind.UPDATE)

    def _basic_level_hosts(self, key: float, word: BitPrefix) -> list[HostId]:
        """The responsible block host per basic level (in descent order).

        Non-basic levels live on the same hosts as the basic blocks below
        them (the cascade), so one message per basic level covers them —
        this is the reason the paper's one-dimensional update bound
        improves to ``O(log n / log log n)``.
        """
        hosts: list[HostId] = []
        for level in self.basic_levels:
            prefix = word[:level]
            structure = self._structures.get((level, prefix))
            if structure is None:
                continue
            unit = structure.locate(key)
            host = self._block_host.get((level, prefix, unit.key))
            if host is not None:
                hosts.append(host)
        return hosts

    def _charge_hosts(
        self, search: QueryResult, targets: Sequence[HostId]
    ) -> StepGenerator:
        """Charge one update message per responsible block host."""
        start_host = search.hosts_visited[-1] if search.hosts_visited else 0
        cursor = StepCursor(start_host)
        touched: set[HostId] = set()
        for host in targets:
            yield from cursor.hop_to(host)
            touched.add(host)
        return cursor.hops, len(touched)

    # ------------------------------------------------------------------ #
    # churn: migration and self-repair (see repro.engine.repair)
    # ------------------------------------------------------------------ #
    def _relayout_for_churn(
        self, kind: str, hosts: tuple[HostId, ...], origin: HostId
    ) -> StepGenerator:
        """Rebuild the block layout and charge every copy that changed home.

        Bucket blocking is positional (contiguous blocks dealt round-robin
        to the host pool), so membership change re-deals the layout rather
        than moving records one by one; the diff against the previous
        placement is what a real redistribution would have shipped, and
        each newly placed copy is charged one message.  Copies carry no
        stored pointers, so no rewiring pass is needed.
        """
        before: dict[tuple[int, BitPrefix, Hashable], set[HostId]] = {
            entry: set(holders) for entry, holders in self._stored_at.items()
        }
        self._rebuild_layout()
        cursor = StepCursor(origin)
        yield from cursor.hop_to(origin)  # announce the coordinator (free)
        moved = 0
        for entry, holders in self._stored_at.items():
            for destination in sorted(holders - before.get(entry, set())):
                yield from cursor.hand_off(destination, origin)
                moved += 1
        return MigrationSummary(
            kind=kind,
            hosts=hosts,
            records_moved=moved,
            pointers_rewired=0,
            hosts_touched=cursor.distinct_hosts(),
        )

    def migrate_host(
        self,
        host_id: HostId,
        targets: Sequence[HostId] | None = None,
        fraction: float = 1.0,
    ) -> StepGenerator:
        """Retire ``host_id`` from the block pool and re-deal the layout.

        Bucket blocking cannot migrate partially — blocks are contiguous —
        so any ``fraction`` re-deals the full layout; ``targets`` join the
        pool implicitly by being alive in the network.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.network.host(host_id)  # validate early
        if fraction >= 1.0:
            self._retired_hosts.add(host_id)
            self._origins_epoch = -1
        summary = yield from self._relayout_for_churn("migrate", (host_id,), host_id)
        return summary

    def repair(self, host_ids: Sequence[HostId]) -> StepGenerator:
        """Crash repair: drop dead hosts from the pool and re-deal the layout."""
        dead = set(host_ids)
        if not dead:
            raise ChurnError("bucket skip-web repair needs at least one crashed host")
        self._retired_hosts |= dead
        self._origins_epoch = -1
        alive = self._pool_hosts()
        if not alive:
            raise ChurnError("bucket skip-web cannot lose its last live host")
        summary = yield from self._relayout_for_churn(
            "repair", tuple(sorted(dead)), alive[0]
        )
        return summary

    # ------------------------------------------------------------------ #
    # DistributedStructure protocol (batched execution; see repro.engine)
    # ------------------------------------------------------------------ #
    def origin_hosts(self) -> tuple[HostId, ...]:
        """Every live pool host may originate operations (block hosts are roots).

        The same tuple until the membership epoch moves or a host retires.
        """
        epoch = self.network.membership_epoch
        if epoch != self._origins_epoch:
            self._origins = tuple(self._pool_hosts())
            self._origins_epoch = epoch
        return self._origins

    def seed_roots(self, origin_host: HostId) -> StepGenerator:
        """Step generator returning the copies ``origin_host`` stores locally."""
        return local_steps(
            [item for _address, item in self.network.host(origin_host).items()]
        )

    # ------------------------------------------------------------------ #
    # accounting
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
        return self.network.max_memory_used()

    def memory_profile(self) -> dict[HostId, int]:
        return self.network.memory_profile()

    def congestion(self) -> CongestionReport:
        """Congestion per §1.1: cross-host references of the copy cascade."""
        for host in self.network.hosts():
            host.reset_reference_counts()
        for (level, prefix, key), hosts in self._stored_at.items():
            if level == 0:
                continue
            parent_prefix = prefix[:-1]
            parent_structure = self._structures.get((level - 1, parent_prefix))
            if parent_structure is None:
                continue
            unit = self._structures[(level, prefix)].unit(key)
            for conflicting in parent_structure.conflicts(unit.range):
                parent_hosts = self._stored_at.get(
                    (level - 1, parent_prefix, conflicting.key), set()
                )
                for host in hosts:
                    for parent_host in parent_hosts:
                        if parent_host != host:
                            self.network.host(host).note_out_reference(1)
                            self.network.host(parent_host).note_in_reference(1)
        return congestion_report(self.network, self.ground_set_size)

    def validate(self) -> None:
        """Structural sanity checks used by the test suite."""
        level0 = self._structures.get((0, ()))
        if level0 is None:
            raise StructureError("bucket skip-web is missing its level-0 list")
        if sorted(level0.items) != self._keys:
            raise StructureError("level-0 list does not match the ground set")
        for level in self.basic_levels:
            for prefix, structure in self._level_structures(level):
                for unit in structure.units():
                    if (level, prefix, unit.key) not in self._block_host:
                        raise StructureError(
                            f"basic unit {unit.key!r} at level {level} has no block host"
                        )
        for (level, prefix, key), hosts in self._stored_at.items():
            if not hosts:
                raise StructureError(f"unit {key!r} at level {level} has no copies")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BucketSkipWeb1D(n={len(self._keys)}, M={self.memory_size}, "
            f"hosts={self.host_count}, basic_levels={self.basic_levels})"
        )
