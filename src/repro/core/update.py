"""Insertions and deletions in a skip-web (§4 of the paper).

The paper's protocol for inserting an item ``x``:

1. locate ``x`` in the level-0 structure (a normal query descent),
2. update the level-0 structure to ``D(S ∪ {x})`` — O(1) new nodes and
   links for lists, quadtrees, octrees and tries,
3. draw ``⌈log n⌉`` random bits for ``x`` and add it to the higher-level
   structures bottom-up, starting each level's local update from the
   nodes and links that conflict with the O(1) units replaced at the
   level below.

Deletion is symmetric.  The expected number of affected units per level
is O(1) by the set-halving lemma, so the expected message cost is
O(log n).

Implementation note.  Each level structure updates itself through
:meth:`~repro.core.link_structure.RangeDeterminedLinkStructure.with_item`
/ ``without_item`` and reports a
:class:`~repro.core.link_structure.StructureDelta`: the units it added,
removed and re-derived.  Records are created and freed for exactly the
added and removed units.  The *rewire scan* of a level change — the new
units, their neighbours and every unit overlapping a changed range, in
the level and in its two child levels — says which records are brought
up to date, and a message is charged per distinct host whose scanned
records actually changed, which is what a real distributed
implementation would pay.  Records outside the scan keep stale copies
(the *lazy refresh*) until a later scan reaches them.  How the new
structure is computed locally does not affect the measured ``U(n)``, but
it must equal the structure a rebuild would produce, because records are
placed by unit payload.

Only records that change are recomputed.  A record changes when it holds
a stale copy, and a level change can make stale only the records of its
delta's units, of their neighbours and of the child-level records whose
hyperlinks name a removed or re-derived unit (a new unit always takes the
place of one of those in a hyperlink list); any other stale record is an
earlier update's.  A structure whose scans are small enumerates them
(:meth:`~repro.core.link_structure.RangeDeterminedLinkStructure.overlap_keys`)
and every scanned record is compared with the structure before it is
recomputed; a quadtree's scans hold whole ancestor chains and subtrees, so
it answers membership lazily, only the delta's candidates are looked at,
and the skip-web keeps a registry of the records left stale outside a
scan.  Either way the recomputed set is the scan's changing records, and
:meth:`~repro.core.skipweb.SkipWeb._rewire_record` still decides what is
billed.

Like queries, updates are written as resumable step generators
(:func:`insert_steps` / :func:`delete_steps`) so that
:class:`repro.engine.executor.BatchExecutor` can interleave them with
other in-flight operations round by round; :func:`execute_insert` /
:func:`execute_delete` drive them immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from repro.core.levels import BitPrefix
from repro.core.link_structure import StructureDelta
from repro.core.query import query_steps
from repro.core.ranges import ranges_conflict
from repro.core.skipweb import neighbor_table
from repro.engine.steps import StepCursor, StepGenerator, run_immediate
from repro.errors import UpdateError
from repro.net.message import MessageKind
from repro.net.naming import HostId


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of one insert or delete."""

    item: Any
    kind: str
    messages: int
    search_messages: int
    propagate_messages: int
    levels_touched: int
    records_added: int
    records_removed: int
    hosts_touched: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UpdateResult({self.kind} {self.item!r}, messages={self.messages}, "
            f"+{self.records_added}/-{self.records_removed} records)"
        )


def _apply_level_change(
    skipweb,
    level: int,
    prefix: BitPrefix,
    delta: StructureDelta,
) -> tuple[set[HostId], int, int]:
    """Install one level's updated structure, updating records and pointers.

    Returns the set of hosts whose records changed, the number of records
    added and the number removed.  The caller charges one message per
    distinct affected host.
    """
    structure = delta.structure
    affected_hosts: set[HostId] = set()
    changed_ranges = [unit.range for unit in delta.removed]
    changed_ranges.extend(unit.range for unit in delta.added)
    # The rewire scans reach the units overlapping a changed range.  A
    # structure either enumerates them, and every record they reach is
    # compared, or answers membership lazily because they are too large
    # to visit (the quadtree's ancestor chains and subtrees); then only
    # the records the delta can change are looked at, and the records
    # left stale outside a scan are kept in the skip-web's registry.
    in_scan = set() if structure is None else structure.overlap_keys(changed_ranges)
    lazy = not isinstance(in_scan, set)

    # 1. drop the removed units' records; a lazy pass reads first whose
    #    neighbours they were, as those records lose a neighbour.
    touched: set[Hashable] = set()
    for unit in delta.removed:
        if lazy:
            touched.update(skipweb._record_at(level, prefix, unit.key).neighbors[::3])
        address = skipweb._remove_record(level, prefix, unit.key)
        affected_hosts.add(address.host)

    # 2. install / retire the structure itself
    if structure is None:
        del skipweb._structures[(level, prefix)]
        skipweb._stale.pop((level, prefix), None)
        return affected_hosts, 0, len(delta.removed)
    skipweb._structures[(level, prefix)] = structure

    # 3. create records for new units
    for unit in delta.added:
        address = skipweb._create_record(level, prefix, unit)
        affected_hosts.add(address.host)

    added = {unit.key for unit in delta.added}

    # 4. this level.  The scan is the new units, their neighbours and the
    #    units overlapping a changed range; a scanned record is billed
    #    when its stored content changes, i.e. when it holds a stale copy.
    #    An update makes stale only the records whose neighbour set moved
    #    (the new units' neighbours and the removed units'), the records
    #    of units that changed, and the records beside a unit whose range
    #    changed; any other stale record is an earlier update's.
    here = _LevelRecords(skipweb, level, prefix)
    rewire = set(added)
    for key in added:
        for neighbor in structure.neighbors(key):
            rewire.add(neighbor.key)
    if lazy:
        # Overlap sets too large to visit: look only at the delta's
        # records and the registry, and register what the scan misses.
        moved = (touched | rewire) - added
        moved.difference_update(unit.key for unit in delta.removed)
        touched = moved | {unit.key for unit in delta.refreshed}
        rewire.update(key for key in touched - rewire if key in in_scan)
        if here.stale:
            rewire |= in_scan & here.stale
        for key in touched - rewire:
            if key not in here.stale:
                here.remember(key)
        examine = {
            neighbor.key for unit in delta.refreshed for neighbor in structure.neighbors(unit.key)
        }
    else:
        examine = in_scan
    for key in examine - rewire:
        if key in here.stale or not here.holds_stale_copy(key):
            continue
        if key in in_scan:
            rewire.add(key)
        else:
            here.remember(key)
    addresses = here.addresses
    for key in rewire:
        if skipweb._rewire_record(level, prefix, key) or key in added:
            affected_hosts.add(addresses[key].host)

    # 5. the two child structures (the level above in the descent order):
    #    their records' hyperlinks copy units of this structure, and their
    #    scan is every unit overlapping a changed range.  An enumerated
    #    scan is recomputed whole: its records mostly change.
    if level < skipweb.height:
        if lazy:
            changed = [*delta.removed, *delta.refreshed]
            changed.extend(structure.unit(key) for key in moved)
        for next_bit in (0, 1):
            child_prefix = prefix + (next_bit,)
            child = skipweb._structures.get((level + 1, child_prefix))
            if child is None:
                continue
            if lazy:
                above = _LevelRecords(skipweb, level + 1, child_prefix)
                rewire = _changing_holders(above, child, delta, changed, changed_ranges)
            else:
                rewire = child.overlap_keys(changed_ranges)
            addresses = skipweb._level_addresses[(level + 1, child_prefix)]
            for key in rewire:
                if skipweb._rewire_record(level + 1, child_prefix, key):
                    affected_hosts.add(addresses[key].host)

    return affected_hosts, len(added), len(delta.removed)


def _changing_holders(
    above, child, delta: StructureDelta, changed: list, changed_ranges
) -> set[Hashable]:
    """The records of a lazily scanned child structure that the level below's delta changes.

    Such a record changes when it holds a stale copy -- of a unit the
    delta removed or changed, or an older one -- or when a new unit meets
    its range and may join its hyperlinks.  A new unit only ever takes
    the place of a removed unit in a hyperlink list, or of a unit whose
    neighbour set moved, so only records naming one of ``changed`` can
    be in either case: the child structure is asked for those holders
    instead of being scanned.  Holders outside the scan keep their
    copies and are registered.
    """
    in_scan = child.overlap_keys(changed_ranges)
    rewire = in_scan & above.stale if above.stale else set()
    copies = _HyperlinkCopies(
        above.record, {unit.key for unit in changed}, delta.structure.unit_map()
    )
    holders: set[Hashable] = set()
    for target in dict.fromkeys(unit.range for unit in changed):
        holders.update(child.hyperlink_holders(target, copies.names))
    added_ranges = [unit.range for unit in delta.added]
    for key in holders - rewire:
        if copies.stale_copy(key) or _meets(child.unit(key).range, added_ranges):
            if key in in_scan:
                rewire.add(key)
            elif key not in above.stale:
                above.remember(key)
    return rewire


_EMPTY: frozenset = frozenset()


class _LevelRecords:
    """The records of one level set, as the rewire passes read them.

    A structure whose :meth:`overlap_keys` is enumerated lets a pass
    look at every record its scan reaches; one that returns a lazy
    :class:`~repro.core.link_structure.OverlapView` (overlap sets too
    large to walk) is only asked about the delta's candidates, so every
    record that went stale outside a scan is remembered in the skip-web's
    stale-copy registry until a later scan reaches it.
    """

    __slots__ = (
        "_skipweb",
        "_level",
        "_prefix",
        "_load",
        "structure",
        "addresses",
        "stale",
        "_parent_units",
    )

    def __init__(self, skipweb, level: int, prefix: BitPrefix) -> None:
        self._skipweb = skipweb
        self._level = level
        self._prefix = prefix
        self._load = skipweb.network.load
        self.structure = skipweb._structures[(level, prefix)]
        self.addresses = skipweb._level_addresses[(level, prefix)]
        self.stale = skipweb._stale.get((level, prefix), _EMPTY)
        self._parent_units = None

    def record(self, key: Hashable):
        return self._load(self.addresses[key], check_alive=False)

    def remember(self, key: Hashable) -> None:
        self._skipweb._stale.setdefault((self._level, self._prefix), set()).add(key)

    def holds_stale_copy(self, key: Hashable) -> bool:
        """Whether the record's unit, neighbour table or a hyperlink copy is out of date.

        Hyperlinks are compared by the units they name, whose keys a
        record always has right: their list changes only with the
        record's range (then its unit differs) or with a new unit in the
        level below, which the child pass checks for separately.
        """
        record = self.record(key)
        structure = self.structure
        unit = structure.unit(key)
        if record.unit is not unit and record.unit != unit:
            return True
        if not record.same_neighbors(neighbor_table(structure, key, self.addresses)):
            return True
        if record.down_units:
            parent_units = self._parent_units
            if parent_units is None:
                parent_prefix = self._prefix[:-1]
                parent = self._skipweb._structures[(self._level - 1, parent_prefix)]
                parent_units = self._parent_units = parent.unit_map()
            for copied in record.down_units:
                now = parent_units.get(copied.key)
                if now is None or (now is not copied and now != copied):
                    return True
        return False


class _HyperlinkCopies:
    """What records' hyperlink lists hold of the units a level change touched.

    :meth:`names` -- does the list name any of them -- is the test
    :meth:`~repro.core.link_structure.RangeDeterminedLinkStructure.hyperlink_holders`
    prunes with; :meth:`stale_copy` -- does it name a removed one or copy
    one that differs now -- says the record changes.  Both read the
    record once.
    """

    def __init__(self, record, named: set[Hashable], current) -> None:
        self._record = record
        self._named = named
        self._current = current
        self._verdicts: dict[Hashable, bool] = {}
        self._stale: set[Hashable] = set()

    def names(self, key: Hashable) -> bool:
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = False
            named, current = self._named, self._current
            for copied in self._record(key).down_units:
                if copied.key in named:
                    verdict = True
                    now = current.get(copied.key)
                    if now is None or (now is not copied and now != copied):
                        self._stale.add(key)
                        break
            self._verdicts[key] = verdict
        return verdict

    def stale_copy(self, key: Hashable) -> bool:
        return self.names(key) and key in self._stale


def _meets(unit_range, ranges) -> bool:
    """Whether ``unit_range`` intersects any of ``ranges``."""
    return any(ranges_conflict(unit_range, other) for other in ranges)


def insert_steps(skipweb, item: Any, origin_host: HostId) -> StepGenerator:
    """Insertion of ``item`` as a resumable step generator (messages per §4).

    The search descent interleaves with other in-flight operations under
    round-based execution.  The structural change itself is applied
    *atomically* between two effects (local work is free and
    instantaneous in the paper's cost model) and only then charged one
    message per affected remote host, level by level — so an operation
    interrupted mid-charge (e.g. by a host failure in a batch) leaves
    the skip-web fully updated and consistent; only its billing is
    incomplete.
    """
    if item in skipweb._membership:
        raise UpdateError(f"item {item!r} is already stored in the skip-web")

    # Step 1: locate the insertion position (a query descent).
    search = yield from query_steps(
        skipweb, skipweb.structure_cls.item_to_query(item), origin_host
    )
    search_messages = search.messages
    start_host = search.hosts_visited[-1] if search.hosts_visited else origin_host

    # Step 2: draw the membership word and register ownership.
    word = skipweb._membership.assign(item)
    skipweb._record_owner(item, origin_host)
    if origin_host not in skipweb._root_word_of_host:
        skipweb._set_root_word(origin_host, word)

    # Step 3: update every level bottom-up, atomically.
    per_level_affected: list[set[HostId]] = []
    total_added = 0
    total_removed = 0
    hosts_touched: set[HostId] = set()
    for level in range(skipweb.height + 1):
        prefix = word[:level]
        old_structure = skipweb._structures.get((level, prefix))
        if old_structure is None:
            fresh = skipweb.structure_cls.build([item], **skipweb.config.structure_params)
            delta = StructureDelta(fresh, added=fresh.units(), removed=())
        else:
            delta = old_structure.with_item(item)
        affected, added, removed = _apply_level_change(skipweb, level, prefix, delta)
        per_level_affected.append(affected)
        hosts_touched |= affected
        total_added += added
        total_removed += removed

    # Step 4: charge the propagation messages (same per-level order the
    # interleaved protocol would pay, so immediate-mode counts are
    # unchanged).
    cursor = StepCursor(start_host)
    for affected in per_level_affected:
        for host in sorted(affected):
            yield from cursor.hop_to(host)

    return UpdateResult(
        item=item,
        kind="insert",
        messages=search_messages + cursor.hops,
        search_messages=search_messages,
        propagate_messages=cursor.hops,
        levels_touched=skipweb.height + 1,
        records_added=total_added,
        records_removed=total_removed,
        hosts_touched=len(hosts_touched),
    )


def delete_steps(skipweb, item: Any, origin_host: HostId) -> StepGenerator:
    """Deletion of ``item`` as a resumable step generator (messages per §4)."""
    if item not in skipweb._membership:
        raise UpdateError(f"item {item!r} is not stored in the skip-web")
    if skipweb.ground_set_size == 1:
        raise UpdateError("cannot delete the last item of a skip-web")

    # Step 1: locate the item (a query descent).
    search = yield from query_steps(
        skipweb, skipweb.structure_cls.item_to_query(item), origin_host
    )
    search_messages = search.messages
    start_host = search.hosts_visited[-1] if search.hosts_visited else origin_host

    word = skipweb._membership.forget(item)
    skipweb._forget_owner(item)
    skipweb._reroot_hosts_at(word)

    # Apply every level change atomically, then charge (see insert_steps).
    per_level_affected: list[set[HostId]] = []
    total_added = 0
    total_removed = 0
    hosts_touched: set[HostId] = set()
    for level in range(skipweb.height + 1):
        prefix = word[:level]
        old_structure = skipweb._structures.get((level, prefix))
        if old_structure is None:
            continue
        affected, added, removed = _apply_level_change(
            skipweb, level, prefix, old_structure.without_item(item)
        )
        per_level_affected.append(affected)
        hosts_touched |= affected
        total_added += added
        total_removed += removed

    cursor = StepCursor(start_host)
    for affected in per_level_affected:
        for host in sorted(affected):
            yield from cursor.hop_to(host)

    return UpdateResult(
        item=item,
        kind="delete",
        messages=search_messages + cursor.hops,
        search_messages=search_messages,
        propagate_messages=cursor.hops,
        levels_touched=skipweb.height + 1,
        records_added=total_added,
        records_removed=total_removed,
        hosts_touched=len(hosts_touched),
    )


def execute_insert(skipweb, item: Any, origin_host: HostId) -> UpdateResult:
    """Insert ``item`` into ``skipweb`` immediately, charging messages per §4."""
    return run_immediate(
        skipweb.network,
        insert_steps(skipweb, item, origin_host),
        origin_host,
        kind=MessageKind.UPDATE,
    )


def execute_delete(skipweb, item: Any, origin_host: HostId) -> UpdateResult:
    """Delete ``item`` from ``skipweb`` immediately, charging messages per §4."""
    return run_immediate(
        skipweb.network,
        delete_steps(skipweb, item, origin_host),
        origin_host,
        kind=MessageKind.UPDATE,
    )
