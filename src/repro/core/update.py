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
/ ``without_item`` and reports the units it added and removed; the
records created, removed or rewired are exactly those units plus the
units adjacent to them.  Messages are charged per distinct host whose
records change at each level, which is what a real distributed
implementation would pay; how the new structure is computed locally does
not affect the measured ``U(n)``, but it must equal the structure a
rebuild would produce, because records are placed by unit payload.

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
    new_structure = delta.structure
    affected_hosts: set[HostId] = set()

    # 1. drop stale records
    for unit in delta.removed:
        address = skipweb._remove_record(level, prefix, unit.key)
        affected_hosts.add(address.host)

    # 2. install / retire the structure itself
    if new_structure is None:
        del skipweb._structures[(level, prefix)]
        return affected_hosts, 0, len(delta.removed)
    skipweb._structures[(level, prefix)] = new_structure

    # 3. create records for new units
    for unit in delta.added:
        address = skipweb._create_record(level, prefix, unit)
        affected_hosts.add(address.host)

    added = {unit.key for unit in delta.added}
    changed_ranges = [unit.range for unit in delta.removed]
    changed_ranges.extend(unit.range for unit in delta.added)

    # 4. rewire this level: new units, their neighbours, and every unit
    #    whose range overlaps a changed range (their neighbour sets or
    #    hyperlinks may reference removed units).  Records are recomputed
    #    generously (that is local CPU work a host would do on receipt of
    #    one message) but a message is charged only when the stored
    #    content actually changed.
    keys_to_rewire: set[Hashable] = set(added)
    for key in added:
        for neighbor in new_structure.neighbors(key):
            keys_to_rewire.add(neighbor.key)
    for changed_range in changed_ranges:
        for unit in new_structure.overlapping(changed_range):
            keys_to_rewire.add(unit.key)
    for key in keys_to_rewire:
        changed = skipweb._rewire_record(level, prefix, key)
        if changed or key in added:
            affected_hosts.add(skipweb._address_of[(level, prefix, key)].host)

    # 5. fix hyperlinks of the two child structures (level above in the
    #    descent order): their records point down into this structure.
    #    A full rewire, not just the down-links: a child record's stored
    #    unit can be stale (its level's own earlier update only rewires
    #    keys whose *ranges* changed, not surviving units whose payload
    #    representative changed), and the charge for refreshing it lands
    #    here, exactly as the recorded baseline counts it.
    if level < skipweb.height:
        for next_bit in (0, 1):
            child_prefix = prefix + (next_bit,)
            child_structure = skipweb._structures.get((level + 1, child_prefix))
            if child_structure is None:
                continue
            child_keys: set[Hashable] = set()
            for changed_range in changed_ranges:
                for unit in child_structure.overlapping(changed_range):
                    child_keys.add(unit.key)
            for key in child_keys:
                changed = skipweb._rewire_record(level + 1, child_prefix, key)
                if changed:
                    affected_hosts.add(
                        skipweb._address_of[(level + 1, child_prefix, key)].host
                    )

    return affected_hosts, len(added), len(delta.removed)


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
