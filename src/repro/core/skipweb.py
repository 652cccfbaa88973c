"""The distributed skip-web structure (§2.3–§2.5 of the paper).

:class:`SkipWeb` ties the framework together for an arbitrary
range-determined link structure:

* it assigns every ground-set item a random membership word
  (:mod:`repro.core.levels`),
* builds one link structure per non-empty level set,
* turns every node and link of every level into a *record* stored on a
  host chosen by the blocking policy (:mod:`repro.core.blocking`),
* wires hyperlinks (conflict lists) from each level down to the level
  below, and neighbour pointers within each level,
* and answers queries (:mod:`repro.core.query`) and updates
  (:mod:`repro.core.update`) by routing messages over the simulated
  network.

The records stored on hosts are self-contained: a record knows its unit,
the ranges and addresses of its in-structure neighbours, and the
addresses of the conflicting records one level down.  Query routing only
ever reads records through resumable step generators
(:func:`repro.core.query.query_steps`), so every host crossing is charged
exactly one message — this is what the Table 1 and Theorem 2 benchmarks
measure.

Operations run in two execution modes.  The default *immediate* mode
(:meth:`SkipWeb.query` / :meth:`SkipWeb.insert` / :meth:`SkipWeb.delete`)
drives each operation synchronously, one at a time.  The *batched,
round-based* mode runs many operations concurrently: ``SkipWeb``
implements the :class:`repro.engine.protocol.DistributedStructure`
protocol (``search_steps`` / ``insert_steps`` / ``delete_steps`` /
``seed_roots``), so a :class:`repro.engine.executor.BatchExecutor` can
interleave whole workloads round by round over the network's queued
delivery mode and measure throughput and per-host per-round congestion
directly — see :mod:`repro.engine`.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Sequence, Type

from repro.core.blocking import (
    BlockingPolicy,
    HashBlocking,
    OwnerBlocking,
    RoundRobinBlocking,
    evenly_owned_items,
)
from repro.core.bulkload import charge_construction
from repro.core.levels import BitPrefix, MembershipAssignment
from repro.core.link_structure import RangeDeterminedLinkStructure, RangeUnit
from repro.core.query import QueryResult, execute_query, query_steps
from repro.core.range_query import (
    DEFAULT_FAN_OUT,
    RangeQueryResult,
    execute_range_query,
    range_steps as range_query_steps,
)
from repro.engine.repair import MigrationSummary
from repro.engine.steps import StepCursor, StepGenerator, local_steps
from repro.errors import ChurnError, QueryError, StructureError, UpdateError
from repro.net.congestion import CongestionReport, congestion_report
from repro.net.naming import Address, HostId
from repro.net.network import Network


class SkipWebRecord:
    """One node or link of one level structure, as stored on a host.

    ``down_units`` / ``down_addresses`` are the hyperlinks of §2.3, as
    parallel tuples: for every unit of the parent level structure that
    conflicts with this unit's range, the record keeps a *copy of the
    unit* (so the next hop can be chosen locally) and the address of its
    record.  ``neighbors`` is the table of incident units within the same
    level structure, one flat tuple ``(key, range, address, key, range,
    address, ...)``.  A record holds slots and tuples only -- no
    ``__dict__`` and no cache -- because its size is what the per-host
    space bound of Theorem 2 counts.
    """

    __slots__ = ("level", "prefix", "unit", "down_units", "down_addresses", "neighbors")

    def __init__(
        self,
        level: int,
        prefix: BitPrefix,
        unit: RangeUnit,
        down_units: tuple[RangeUnit, ...] = (),
        down_addresses: tuple[Address, ...] = (),
        neighbors: tuple = (),
    ) -> None:
        self.level = level
        self.prefix = prefix
        self.unit = unit
        self.down_units = down_units
        self.down_addresses = down_addresses
        self.neighbors = neighbors

    def __reduce__(self):
        return SkipWebRecord, tuple(getattr(self, name) for name in self.__slots__)

    def same_neighbors(self, table: tuple) -> bool:
        """Whether the stored neighbour table holds exactly ``table``'s entries.

        Compared as a key -> (range, address) map: a structure may list
        the same neighbours in another order, which is not a change.
        """
        stored = self.neighbors
        if stored == table:
            return True
        as_stored = dict(zip(stored[::3], zip(stored[1::3], stored[2::3])))
        return as_stored == dict(zip(table[::3], zip(table[1::3], table[2::3])))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SkipWebRecord(level={self.level}, prefix={self.prefix}, "
            f"key={self.unit.key!r}, down={len(self.down_units)}, "
            f"neighbors={len(self.neighbors) // 3})"
        )


def neighbor_table(structure: Any, key: Hashable, addresses: dict[Hashable, Address]) -> tuple:
    """``key``'s incident units as the flat (key, range, address, ...) table a record stores."""
    table: list[Any] = []
    for neighbor in structure.neighbors(key):
        table += (neighbor.key, neighbor.range, addresses[neighbor.key])
    return tuple(table)


class _OwnerLoads:
    """How many items each host that may own a new item owns, as a min-heap.

    Entries are ``(count, host)``.  Every count change pushes one entry,
    and an entry whose count is no longer its host's is stale: it is
    dropped when it reaches the top, so the top live entry is the least
    loaded host, lowest id first.  The heap is rebuilt from the counts
    when stale entries outnumber live ones.  ``epoch`` is the network
    membership epoch the host set was read at.
    """

    __slots__ = ("epoch", "_owned", "_hosts", "_heap")

    def __init__(
        self, owned: dict[HostId, dict[Any, None]], hosts: Iterable[HostId], epoch: int
    ) -> None:
        self.epoch = epoch
        self._owned = owned
        self._hosts = frozenset(hosts)
        self._rebuild()

    def _rebuild(self) -> None:
        owned = self._owned
        self._heap = [(len(owned.get(host_id, ())), host_id) for host_id in self._hosts]
        heapq.heapify(self._heap)

    def note(self, host_id: HostId) -> None:
        """Record that ``host_id``'s owned-item count changed."""
        if host_id in self._hosts:
            heapq.heappush(self._heap, (len(self._owned[host_id]), host_id))
            if len(self._heap) > 2 * len(self._hosts) + 16:
                self._rebuild()

    def least_loaded(self) -> HostId | None:
        heap, owned = self._heap, self._owned
        while heap:
            count, host_id = heap[0]
            if len(owned.get(host_id, ())) == count:
                return host_id
            heapq.heappop(heap)
        return None


@dataclass
class SkipWebConfig:
    """Construction parameters for a :class:`SkipWeb`.

    Attributes
    ----------
    host_count:
        Number of hosts to create when the caller does not pass a
        pre-populated network.  Defaults to one host per item — the
        deployment assumed by Theorem 2.
    blocking:
        ``"owner"`` (default), ``"round_robin"``, ``"hash"`` or a
        ready-made :class:`BlockingPolicy`.
    height:
        Number of halving levels; defaults to ``⌈log₂ n⌉``.
    seed:
        Seed for the membership-word coin flips.
    structure_params:
        Extra keyword arguments passed to every ``structure_cls.build``
        call (bounding boxes, alphabets, ...).
    """

    host_count: int | None = None
    blocking: str | BlockingPolicy = "owner"
    height: int | None = None
    seed: int = 0
    structure_params: dict[str, Any] = field(default_factory=dict)


class SkipWeb:
    """A distributed skip-web over an arbitrary range-determined link structure.

    The four instantiations (``SkipWeb1D``, ``SkipQuadtreeWeb``,
    ``SkipTrieWeb``, ``SkipTrapezoidWeb``) are subclasses that fix the
    link structure, override the ``_coerce_*`` hooks and add domain names.

    Parameters
    ----------
    structure_cls:
        The :class:`RangeDeterminedLinkStructure` subclass to build at
        every level.
    items:
        The ground set ``S``.  Items must be hashable.
    network:
        An existing :class:`Network` to build into; a fresh one is created
        when omitted.
    config:
        See :class:`SkipWebConfig`.
    """

    #: Owned-item counts of the hosts a new item may go to (see
    #: :meth:`_least_loaded_host`).  Derived from ``_owned_by_host``: it
    #: is never pickled, and ``None`` makes the next placement rebuild it.
    _load_index: _OwnerLoads | None = None

    def __init__(
        self,
        structure_cls: Type[RangeDeterminedLinkStructure],
        items: Sequence[Any],
        network: Network | None = None,
        config: SkipWebConfig | None = None,
    ) -> None:
        if not items:
            raise StructureError("cannot build a skip-web over an empty ground set")
        self.structure_cls = structure_cls
        self.config = config or SkipWebConfig()
        self._rng = random.Random(self.config.seed)

        self.network = network if network is not None else Network()
        if self.network.host_count == 0:
            host_count = self.config.host_count or len(items)
            self.network.add_hosts(host_count)
        self._host_ids = [host.host_id for host in self.network.hosts()]
        self._origins = tuple(self._host_ids)

        # Home hosts for items: queries about an item start at its owner.
        self._owners: dict[Any, HostId] = evenly_owned_items(list(items), self._host_ids)
        # host -> the items it owns, in ``_owners`` order (the first one
        # re-roots the host when its root item is deleted)
        self._owned_by_host: dict[HostId, dict[Any, None]] = self._owned_items_by_host()

        self._membership = MembershipAssignment(
            list(items), height=self.config.height, rng=self._rng
        )
        self._blocking = self._make_blocking_policy()

        # (level, prefix) -> structure instance
        self._structures: dict[tuple[int, BitPrefix], RangeDeterminedLinkStructure] = {}
        # (level, prefix, unit key) -> address of the record
        self._address_of: dict[tuple[int, BitPrefix, Hashable], Address] = {}
        # Same addresses, nested per level set: the rewiring hot path does
        # many lookups within one level, and hashing the short unit key
        # beats re-hashing the composite triple every time.
        self._level_addresses: dict[tuple[int, BitPrefix], dict[Hashable, Address]] = {}
        # host -> membership word of the item whose top-level structure is
        # that host's root
        self._root_word_of_host: dict[HostId, BitPrefix] = {}
        # the same relation inverted, so a delete finds the hosts rooted at
        # the deleted item's word without scanning every host
        self._hosts_rooted_at: dict[BitPrefix, set[HostId]] = {}
        # (level, prefix) -> keys of records holding a stale copy (unit,
        # neighbour range or hyperlink unit) with the right key and
        # address.  An update refreshes a record only when its overlap
        # scan reaches it; where those scans are too large to visit
        # (OverlapView), repro.core.update registers here every record it
        # leaves stale, to find it again without recomputing the rest.
        # Every rewire and removal takes its record out.
        self._stale: dict[tuple[int, BitPrefix], set[Hashable]] = {}
        # root_entries() memo, invalidated whenever the record layout moves
        # (record creation/removal, churn re-homing) via ``_layout_epoch``.
        self._layout_epoch = 0
        self._root_cache: dict[HostId, list[tuple[RangeUnit, Address]]] = {}
        self._root_cache_epoch = -1

        #: CONSTRUCTION messages charged by a bulk-load build (0 otherwise).
        self.construction_messages = 0

        self._build()

    @classmethod
    def build_from_sorted(cls, *args: Any, **kwargs: Any) -> "SkipWeb":
        """Bulk-load constructor over pre-sorted, deduplicated items.

        Takes the constructor's arguments.  Semantically identical to the
        ordinary constructor — membership words are drawn in item order
        either way, so queries and updates cost exactly the same
        afterwards — but built for benchmark setup: the level structures
        detect the pre-sorted input and skip their defensive O(n log n)
        sorts, and every record placed on a host other than the
        coordinator is charged one
        :attr:`~repro.net.message.MessageKind.CONSTRUCTION` ledger
        message (``construction_messages`` records the total), so
        bulk-load traffic is measurable instead of silently free.
        """
        web = cls(*args, **kwargs)
        web.construction_messages = web._charge_construction()
        return web

    def _charge_construction(self) -> int:
        """Bill one CONSTRUCTION message per remotely placed record."""
        coordinator = self._host_ids[0]
        return charge_construction(
            self.network,
            coordinator,
            (address.host for address in self._address_of.values()),
        )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _make_blocking_policy(self) -> BlockingPolicy:
        blocking = self.config.blocking
        if isinstance(blocking, BlockingPolicy):
            return blocking
        if blocking == "round_robin":
            return RoundRobinBlocking(self._host_ids)
        if blocking == "hash":
            return HashBlocking(self._host_ids)
        if blocking == "owner":
            return OwnerBlocking(self._owners, fallback=self._host_ids)
        raise ValueError(f"unknown blocking policy {blocking!r}")

    def _build(self) -> None:
        level_sets = self._membership.all_level_sets()
        # 1. build every level structure
        for level in range(level_sets.height + 1):
            for prefix, members in level_sets.sets_at(level).items():
                self._structures[(level, prefix)] = self.structure_cls.build(
                    list(members), **self.config.structure_params
                )
        # 2. create record shells so every unit has an address
        for (level, prefix), structure in self._structures.items():
            for unit in structure.units():
                self._create_record(level, prefix, unit)
        # 3. wire neighbours and hyperlinks.  Records are fresh (their
        #    ``unit`` is the very object stored in step 2 and their
        #    pointer fields are empty), so wiring writes directly instead
        #    of going through :meth:`_rewire_record`'s changed-comparison.
        for (level, prefix), structure in self._structures.items():
            self._wire_fresh_level(level, prefix, structure)
        # 4. roots: each host starts searches at the top-level structure of
        #    one of the items it owns (or of an arbitrary item if it owns
        #    none), mirroring the paper's per-host root pointer.
        fallback_word = self._membership.word(next(self._membership.items()))
        for host_id in self._host_ids:
            self._set_root_word(host_id, self._first_owned_word(host_id, fallback_word))
        # 5. congestion bookkeeping
        self.recompute_reference_counts()

    # ------------------------------------------------------------------ #
    # ownership and root bookkeeping
    # ------------------------------------------------------------------ #
    def _owned_items_by_host(self) -> dict[HostId, dict[Any, None]]:
        """``_owners`` inverted (O(n); build and churn only)."""
        owned: dict[HostId, dict[Any, None]] = {}
        for item, owner in self._owners.items():
            owned.setdefault(owner, {})[item] = None
        return owned

    def __getstate__(self) -> dict[str, Any]:
        # The load index is derived from the ownership maps: a snapshot
        # leaves it out, and the first insert after a restore rebuilds it.
        state = self.__dict__.copy()
        state.pop("_load_index", None)
        return state

    def _least_loaded_host(self) -> HostId:
        """The host that owns a new item: the alive host owning the fewest.

        Ties go to the lowest host id.  Candidates are the skip-web's own
        hosts (a host that left or was repaired away is no longer one)
        that have not failed.  The index is rebuilt, in O(H), only when
        the network's membership epoch moved or the host list or the
        ownership maps were reassigned; a choice otherwise costs
        O(log H) amortised.
        """
        index = self._load_index
        epoch = self.network.membership_epoch
        if index is None or index.epoch != epoch:
            alive = set(self.network.alive_host_ids())
            candidates = [host_id for host_id in self._host_ids if host_id in alive]
            index = self._load_index = _OwnerLoads(self._owned_by_host, candidates, epoch)
        host_id = index.least_loaded()
        if host_id is None:
            raise UpdateError("no live host of the skip-web can own a new item")
        return host_id

    def _record_owner(self, item: Any, host_id: HostId) -> None:
        """Register a newly inserted ``item`` as owned by ``host_id``."""
        self._owners[item] = host_id
        self._owned_by_host.setdefault(host_id, {})[item] = None
        if self._load_index is not None:
            self._load_index.note(host_id)

    def _forget_owner(self, item: Any) -> None:
        """Drop a deleted ``item`` from the ownership maps."""
        owner = self._owners.pop(item, None)
        if owner is not None:
            self._owned_by_host[owner].pop(item, None)
            if self._load_index is not None:
                self._load_index.note(owner)

    def _first_owned_word(self, host_id: HostId, fallback: BitPrefix) -> BitPrefix:
        """The membership word of the first item ``host_id`` owns, else ``fallback``."""
        for item in self._owned_by_host.get(host_id, ()):
            return self._membership.word(item)
        return fallback

    def _set_root_word(self, host_id: HostId, word: BitPrefix | None) -> None:
        """Point ``host_id``'s root at ``word`` (``None`` forgets the host)."""
        previous = self._root_word_of_host.pop(host_id, None)
        if previous is not None:
            rooted = self._hosts_rooted_at[previous]
            rooted.discard(host_id)
            if not rooted:
                del self._hosts_rooted_at[previous]
        if word is not None:
            self._root_word_of_host[host_id] = word
            self._hosts_rooted_at.setdefault(word, set()).add(host_id)

    def _reroot_hosts_at(self, word: BitPrefix) -> None:
        """Re-point every host rooted at a just-deleted item's ``word``.

        Such a host moves to the word of the first item it still owns, or
        of an arbitrary surviving item when it owns none.
        """
        rooted = self._hosts_rooted_at.get(word)
        if not rooted:
            return
        surviving_word = self._membership.word(next(self._membership.items()))
        for host_id in list(rooted):
            self._set_root_word(host_id, self._first_owned_word(host_id, surviving_word))

    def _create_record(self, level: int, prefix: BitPrefix, unit: RangeUnit) -> Address:
        """Store a fresh (unwired) record on the host the blocking policy picks."""
        host_id = self._blocking.assign(level, prefix, unit)
        record = SkipWebRecord(level=level, prefix=prefix, unit=unit)
        address = self.network.store(host_id, record)
        self._address_of[(level, prefix, unit.key)] = address
        self._level_addresses.setdefault((level, prefix), {})[unit.key] = address
        self._layout_epoch += 1
        return address

    def _remove_record(self, level: int, prefix: BitPrefix, key: Hashable) -> Address:
        """Free a record's slot and forget its address."""
        address = self._address_of.pop((level, prefix, key))
        self._level_addresses[(level, prefix)].pop(key, None)
        if self._stale:
            self._stale.get((level, prefix), set()).discard(key)
        self.network.free(address)
        self._layout_epoch += 1
        return address

    def _wire_fresh_level(self, level: int, prefix: BitPrefix, structure: Any) -> None:
        """Wire every record of a freshly created level structure.

        Bulk-construction fast path for :meth:`_build` step 3: the
        per-level lookups are hoisted out of the per-unit loop and the
        changed-detection of :meth:`_rewire_record` is skipped (fresh
        records have nothing to compare against).
        """
        addresses = self._level_addresses[(level, prefix)]
        load = self.network.load
        if level > 0:
            parent_structure, parent_addresses = self._parent_level(level, prefix)
            conflicts = parent_structure.conflicts
        for unit in structure.units():
            key = unit.key
            record: SkipWebRecord = load(addresses[key], check_alive=False)
            record.neighbors = neighbor_table(structure, key, addresses)
            if level > 0:
                down_units = record.down_units = tuple(conflicts(unit.range))
                record.down_addresses = tuple(
                    [parent_addresses[conflicting.key] for conflicting in down_units]
                )

    def _parent_level(self, level: int, prefix: BitPrefix) -> tuple[Any, dict[Hashable, Address]]:
        """The level structure one level down (``prefix[:-1]``) and its record addresses."""
        parent_prefix = prefix[:-1]
        parent_structure = self._structures.get((level - 1, parent_prefix))
        if parent_structure is None:
            raise StructureError(f"missing parent structure for level {level} prefix {prefix}")
        return parent_structure, self._level_addresses[(level - 1, parent_prefix)]

    def _record_at(self, level: int, prefix: BitPrefix, key: Hashable) -> SkipWebRecord:
        # Bookkeeping access (rewiring during updates): must not be
        # interruptible by an injected host failure mid-mutation.
        return self.network.load(self._address_of[(level, prefix, key)], check_alive=False)

    def _rewire_record(self, level: int, prefix: BitPrefix, key: Hashable) -> bool:
        """Recompute a record's neighbour pointers and hyperlinks in place.

        Neighbours are the unit's incident units within the same level
        structure; hyperlinks are the conflict list in the parent
        structure (one level down in the descent direction, i.e. the
        structure for ``prefix[:-1]``), per §2.3.

        Returns ``True`` when any stored content actually changed — the
        update protocol uses this to charge messages only for records a
        real deployment would have had to touch.  The record is fresh
        afterwards, so it leaves the stale-copy registry.
        """
        if self._stale:
            self._stale.get((level, prefix), set()).discard(key)
        structure = self._structures[(level, prefix)]
        addresses = self._level_addresses[(level, prefix)]
        record: SkipWebRecord = self.network.load(addresses[key], check_alive=False)
        unit = structure.unit(key)

        neighbors = neighbor_table(structure, key, addresses)

        down_units: tuple[RangeUnit, ...] = ()
        down_addresses: tuple[Address, ...] = ()
        if level > 0:
            parent_structure, parent_addresses = self._parent_level(level, prefix)
            down_units = tuple(parent_structure.conflicts(unit.range))
            down_addresses = tuple(
                [parent_addresses[conflicting.key] for conflicting in down_units]
            )

        # Hyperlinks compare in order, the neighbour table as a map.
        changed = (
            (record.unit is not unit and record.unit != unit)
            or not record.same_neighbors(neighbors)
            or record.down_units != down_units
            or record.down_addresses != down_addresses
        )
        if changed:
            record.unit = unit
            record.neighbors = neighbors
            record.down_units = down_units
            record.down_addresses = down_addresses
        return changed

    # ------------------------------------------------------------------ #
    # public inspection API
    # ------------------------------------------------------------------ #
    @property
    def items(self) -> list[Any]:
        """The current ground set."""
        return list(self._membership.items())

    @property
    def ground_set_size(self) -> int:
        """The paper's ``n``."""
        return len(self._membership)

    @property
    def height(self) -> int:
        """Number of halving levels above level 0."""
        return self._membership.height

    @property
    def host_count(self) -> int:
        """The paper's ``H``."""
        return self.network.host_count

    def level_structure(
        self, level: int, prefix: BitPrefix
    ) -> RangeDeterminedLinkStructure:
        """The link structure of one level set (raises if the set is empty)."""
        try:
            return self._structures[(level, prefix)]
        except KeyError as exc:
            raise StructureError(f"no structure at level {level} prefix {prefix}") from exc

    def level_prefixes(self, level: int) -> list[BitPrefix]:
        """The non-empty set indices at one level."""
        return [prefix for (lvl, prefix) in self._structures if lvl == level]

    def record_count(self) -> int:
        """Total number of records stored across all hosts."""
        return len(self._address_of)

    def owner_of(self, item: Any) -> HostId:
        """The home host of an item."""
        return self._owners[item]

    def address_of(self, level: int, prefix: BitPrefix, key: Hashable) -> Address:
        """The address of one unit's record (range reporting walks use it)."""
        try:
            return self._address_of[(level, prefix, key)]
        except KeyError as exc:
            raise StructureError(
                f"no record for unit {key!r} at level {level} prefix {prefix}"
            ) from exc

    def membership_word(self, item: Any) -> BitPrefix:
        """The random membership word assigned to ``item``."""
        return self._membership.word(item)

    def root_entries(self, host_id: HostId) -> list[tuple[RangeUnit, Address]]:
        """The root entries from which ``host_id`` starts its searches.

        A host's root is its local copy of the (expected O(1)) units of
        the top-level structure along the membership word of one of the
        items it owns, each paired with the address of the unit's record.
        """
        if self._root_cache_epoch != self._layout_epoch:
            self._root_cache = {}
            self._root_cache_epoch = self._layout_epoch
        cached = self._root_cache.get(host_id)
        if cached is not None:
            return list(cached)
        word = self._root_word_of_host.get(host_id)
        if word is None:
            # Host joined after construction; fall back to any item's word.
            word = self._membership.word(next(self._membership.items()))
            self._set_root_word(host_id, word)
        # Descend to the highest non-empty structure along the word.
        for level in range(self.height, -1, -1):
            prefix = word[:level]
            structure = self._structures.get((level, prefix))
            if structure is not None:
                entries = [
                    (unit, self._address_of[(level, prefix, unit.key)])
                    for unit in structure.units()
                ]
                self._root_cache[host_id] = entries
                # Hand out a copy so a caller mutating its list cannot
                # poison the memo for later descents from this host.
                return list(entries)
        raise QueryError("skip-web has no level structures")

    # ------------------------------------------------------------------ #
    # queries and updates
    # ------------------------------------------------------------------ #
    # The four instantiations normalise domain values (floats, points,
    # strings, planar points and ranges over them) before every
    # operation; the generic skip-web takes them as given.
    def _coerce_query(self, query: Any) -> Any:
        return query

    def _coerce_item(self, item: Any) -> Any:
        return item

    def _coerce_range(self, query_range: Any) -> Any:
        return query_range

    def query(self, query: Any, origin_host: HostId | None = None) -> QueryResult:
        """Answer ``query``, counting messages; see :mod:`repro.core.query`."""
        if origin_host is None:
            origin_host = self._host_ids[0]
        return execute_query(self, self._coerce_query(query), origin_host)

    def range_report(
        self,
        query_range: Any,
        origin_host: HostId | None = None,
        fan_out: int = DEFAULT_FAN_OUT,
    ) -> RangeQueryResult:
        """Output-sensitive range reporting; see :mod:`repro.core.range_query`."""
        if origin_host is None:
            origin_host = self._host_ids[0]
        return execute_range_query(
            self, self._coerce_range(query_range), origin_host, fan_out=fan_out
        )

    def insert(self, item: Any, origin_host: HostId | None = None):
        """Insert a new ground-set item (§4); returns an ``UpdateResult``."""
        from repro.core.update import execute_insert

        if origin_host is None:
            origin_host = self._host_ids[0]
        return execute_insert(self, self._coerce_item(item), origin_host)

    def delete(self, item: Any, origin_host: HostId | None = None):
        """Delete a ground-set item (§4); returns an ``UpdateResult``."""
        from repro.core.update import execute_delete

        if origin_host is None:
            origin_host = self._host_ids[0]
        return execute_delete(self, self._coerce_item(item), origin_host)

    # ------------------------------------------------------------------ #
    # DistributedStructure protocol (batched execution; see repro.engine)
    # ------------------------------------------------------------------ #
    def origin_hosts(self) -> tuple[HostId, ...]:
        """Hosts from which operations may originate (every host has a root).

        The same tuple until the host list is re-synced with the network.
        """
        return self._origins

    def seed_roots(self, origin_host: HostId):
        """Step generator returning ``origin_host``'s root entries.

        A skip-web root is a *local* copy of the top-level units along one
        membership word, so no messages are charged.
        """
        return local_steps(self.root_entries(origin_host))

    def search_steps(self, query: Any, origin_host: HostId | None = None):
        """The query descent as a resumable step generator."""
        if origin_host is None:
            origin_host = self._host_ids[0]
        return query_steps(self, self._coerce_query(query), origin_host)

    def range_steps(
        self,
        query_range: Any,
        origin_host: HostId | None = None,
        fan_out: int = DEFAULT_FAN_OUT,
    ):
        """The range query (locate, then forked report) as a step generator."""
        if origin_host is None:
            origin_host = self._host_ids[0]
        return range_query_steps(
            self, self._coerce_range(query_range), origin_host, fan_out=fan_out
        )

    def insert_steps(self, item: Any, origin_host: HostId | None = None):
        """Insertion as a resumable step generator (§4)."""
        from repro.core.update import insert_steps

        if origin_host is None:
            origin_host = self._host_ids[0]
        return insert_steps(self, self._coerce_item(item), origin_host)

    def delete_steps(self, item: Any, origin_host: HostId | None = None):
        """Deletion as a resumable step generator (§4)."""
        from repro.core.update import delete_steps

        if origin_host is None:
            origin_host = self._host_ids[0]
        return delete_steps(self, self._coerce_item(item), origin_host)

    # ------------------------------------------------------------------ #
    # churn: migration and self-repair (see repro.engine.repair)
    # ------------------------------------------------------------------ #
    def _refresh_membership(self, exclude: Iterable[HostId] = ()) -> list[HostId]:
        """Re-sync host list and blocking policy with the network's membership.

        ``exclude`` removes hosts that are about to depart (graceful
        leavers mid-hand-off are still registered and alive).  Returns the
        refreshed live host list.
        """
        excluded = set(exclude)
        self._host_ids = [
            host_id
            for host_id in self.network.alive_host_ids()
            if host_id not in excluded
        ]
        if not self._host_ids:
            raise ChurnError("skip-web cannot lose its last live host")
        self._origins = tuple(self._host_ids)
        self._blocking = self._make_blocking_policy()
        self._load_index = None
        self._layout_epoch += 1
        return self._host_ids

    def _reassign_owned_items(self, host_ids: set[HostId], pool: list[HostId]) -> int:
        """Re-home the items owned by departing ``host_ids`` onto ``pool``."""
        moved = 0
        for item, owner in self._owners.items():
            if owner in host_ids:
                self._owners[item] = pool[moved % len(pool)]
                moved += 1
        self._owned_by_host = self._owned_items_by_host()
        self._load_index = None
        for host_id in host_ids:
            self._set_root_word(host_id, None)
        return moved

    def _rewire_referencers(
        self, stale_addresses: set[Address], cursor: StepCursor
    ) -> StepGenerator:
        """Refresh every record whose stored pointers hit ``stale_addresses``.

        Charges one message per rewired record on a host other than the
        cursor's current position (the same per-changed-record billing the
        update protocol uses).  Returns the number of records rewired.
        """
        rewired = 0
        for (level, prefix, key), address in list(self._address_of.items()):
            record: SkipWebRecord = self.network.load(address, check_alive=False)
            stale = any(
                down_address in stale_addresses for down_address in record.down_addresses
            ) or any(
                neighbor_address in stale_addresses
                for neighbor_address in record.neighbors[2::3]
            )
            if not stale:
                continue
            if self._rewire_record(level, prefix, key):
                rewired += 1
                yield from cursor.hop_to(address.host)
        return rewired

    def migrate_host(
        self,
        host_id: HostId,
        targets: Sequence[HostId] | None = None,
        fraction: float = 1.0,
    ) -> StepGenerator:
        """Hand records off ``host_id`` as a resumable step generator.

        With ``fraction == 1.0`` and no targets this is the graceful-leave
        hand-off: every record moves to the remaining live hosts
        (round-robin), ownership and root pointers are re-homed, and every
        record elsewhere that pointed at a moved record is rewired.  With
        a partial ``fraction`` toward explicit ``targets`` it rebalances
        load onto a newly joined host.  One message is charged per record
        hand-off and per remote pointer rewrite.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.network.host(host_id)  # validate early
        evacuating = fraction >= 1.0
        # Refresh runs for its side effects (host list + blocking policy);
        # the pool of hand-off destinations is derived from its result
        # only when no explicit targets are given.
        live = self._refresh_membership(exclude=(host_id,) if evacuating else ())
        if targets is not None:
            pool = [target for target in targets if target != host_id]
        else:
            pool = [candidate for candidate in live if candidate != host_id]
        if not pool:
            raise ChurnError(f"no live hosts to migrate host {host_id}'s records to")

        resident = [
            entry for entry, address in self._address_of.items() if address.host == host_id
        ]
        moving = resident[: math.ceil(fraction * len(resident))]

        cursor = StepCursor(host_id)
        yield from cursor.hop_to(host_id)  # announce the coordinator (free)
        stale_addresses: set[Address] = set()
        for index, (level, prefix, key) in enumerate(moving):
            destination = pool[index % len(pool)]
            old_address = self._address_of[(level, prefix, key)]
            record = self.network.load(old_address, check_alive=False)
            yield from cursor.hand_off(destination, host_id)
            new_address = self.network.store(destination, record)
            self._address_of[(level, prefix, key)] = new_address
            self._level_addresses.setdefault((level, prefix), {})[key] = new_address
            self._layout_epoch += 1
            self.network.free(old_address)
            stale_addresses.add(old_address)

        if evacuating:
            self._reassign_owned_items({host_id}, pool)
        rewired = yield from self._rewire_referencers(stale_addresses, cursor)
        return MigrationSummary(
            kind="migrate",
            hosts=(host_id,),
            records_moved=len(moving),
            pointers_rewired=rewired,
            hosts_touched=cursor.distinct_hosts(),
        )

    def repair(self, host_ids: Sequence[HostId]) -> StepGenerator:
        """Re-home the records orphaned by crashed ``host_ids`` (self-repair).

        Each orphaned record is reconstructed from the level structures on
        a live host chosen round-robin (one message per placement; the
        record's own pointers are recomputed on receipt, which is local
        work, and a record the coordinator reconstructs for itself is
        entirely local and therefore free — see
        :meth:`repro.engine.steps.StepCursor.hand_off`), then every
        surviving record that pointed into the dead hosts is rewired (one
        message per remote rewrite).
        """
        dead = set(host_ids)
        if not dead:
            raise ChurnError("repair needs at least one crashed host")
        pool = self._refresh_membership(exclude=dead)
        coordinator = pool[0]

        orphaned = [
            (entry, address)
            for entry, address in self._address_of.items()
            if address.host in dead
        ]
        cursor = StepCursor(coordinator)
        yield from cursor.hop_to(coordinator)  # announce the coordinator (free)
        stale_addresses: set[Address] = set()
        for index, ((level, prefix, key), old_address) in enumerate(orphaned):
            destination = pool[index % len(pool)]
            yield from cursor.hand_off(destination, coordinator)
            unit = self._structures[(level, prefix)].unit(key)
            record = SkipWebRecord(level=level, prefix=prefix, unit=unit)
            new_address = self.network.store(destination, record)
            self._address_of[(level, prefix, key)] = new_address
            self._level_addresses.setdefault((level, prefix), {})[key] = new_address
            self._layout_epoch += 1
            # The dead host's slot is gone with it; freeing keeps the
            # simulator's memory profile honest should the host recover.
            self.network.free(old_address)
            stale_addresses.add(old_address)
        for (level, prefix, key), _old_address in orphaned:
            # Recompute the reconstructed record's own pointers: local
            # work at its new home, already covered by the placement
            # message.
            self._rewire_record(level, prefix, key)

        self._reassign_owned_items(dead, pool)
        rewired = yield from self._rewire_referencers(stale_addresses, cursor)
        return MigrationSummary(
            kind="repair",
            hosts=tuple(sorted(dead)),
            records_moved=len(orphaned),
            pointers_rewired=rewired,
            hosts_touched=cursor.distinct_hosts(),
        )

    # ------------------------------------------------------------------ #
    # cost accounting
    # ------------------------------------------------------------------ #
    def memory_profile(self) -> dict[HostId, int]:
        """Records stored per host — the measured per-host memory."""
        return self.network.memory_profile()

    def max_memory_per_host(self) -> int:
        """The measured ``M``: the largest number of records on any host."""
        return self.network.max_memory_used()

    def recompute_reference_counts(self) -> None:
        """Refresh the per-host reference counters used by the congestion report.

        Cross-host pointer counts are aggregated into plain dictionaries
        first and applied to the hosts once, instead of two host lookups
        per stored pointer.
        """
        for host in self.network.hosts():
            host.reset_reference_counts()
        for item, owner in self._owners.items():
            if item in self._membership:
                self.network.host(owner).note_owned_items(1)
        out_refs: dict[HostId, int] = {}
        in_refs: dict[HostId, int] = {}
        load = self.network.load
        for address in self._address_of.values():
            record: SkipWebRecord = load(address)
            home = address.host
            for pointer in (*record.neighbors[2::3], *record.down_addresses):
                other = pointer.host
                if other != home:
                    out_refs[home] = out_refs.get(home, 0) + 1
                    in_refs[other] = in_refs.get(other, 0) + 1
        for host_id, count in out_refs.items():
            self.network.host(host_id).note_out_reference(count)
        for host_id, count in in_refs.items():
            self.network.host(host_id).note_in_reference(count)

    def congestion(self) -> CongestionReport:
        """The congestion measure ``C(n)`` of §1.1 for the current structure."""
        self.recompute_reference_counts()
        return congestion_report(self.network, self.ground_set_size)

    def validate(self) -> None:
        """Check structural invariants of every level (used by tests).

        Verifies that every level structure passes its own validation,
        that every unit has a record, and that every record's hyperlinks
        and neighbour pointers resolve to live records of the expected
        level.
        """
        for (level, prefix), structure in self._structures.items():
            structure.validate()
            for unit in structure.units():
                if (level, prefix, unit.key) not in self._address_of:
                    raise StructureError(
                        f"unit {unit.key!r} of level {level} prefix {prefix} has no record"
                    )
        for (level, prefix, key), address in self._address_of.items():
            record: SkipWebRecord = self.network.load(address)
            if record.unit.key != key or record.level != level or record.prefix != prefix:
                raise StructureError(f"record at {address} is mislabelled")
            for down_unit, down_address in zip(record.down_units, record.down_addresses):
                down_record: SkipWebRecord = self.network.load(down_address)
                if down_record.level != level - 1:
                    raise StructureError(
                        f"hyperlink from level {level} record {key!r} points to "
                        f"level {down_record.level}"
                    )
                if down_record.unit.key != down_unit.key:
                    raise StructureError(
                        f"hyperlink copy of {key!r} is stale: labelled "
                        f"{down_unit.key!r} but points to {down_record.unit.key!r}"
                    )
            neighbors = record.neighbors
            for neighbor_key, neighbor_address in zip(neighbors[::3], neighbors[2::3]):
                neighbor_record: SkipWebRecord = self.network.load(neighbor_address)
                if neighbor_record.unit.key != neighbor_key:
                    raise StructureError(
                        f"neighbour pointer of {key!r} labelled {neighbor_key!r} "
                        f"points to {neighbor_record.unit.key!r}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SkipWeb(structure={self.structure_cls.name}, n={self.ground_set_size}, "
            f"hosts={self.host_count}, levels={self.height + 1}, "
            f"records={self.record_count()})"
        )
