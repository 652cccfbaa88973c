"""Reference rewiring for the §4 update protocol, kept as a test oracle.

:func:`scan_apply_level_change` is the overlap-scan version of
``repro.core.update._apply_level_change``: after installing a level's
delta it recomputes *every* record whose range overlaps a changed range,
in the level and in both child levels, and bills the hosts whose stored
content changed.  ``src/`` rewires only the records the delta can change;
the tests replay update streams through both and require identical
records and identical per-level host sets.

:func:`stale_copies` lists what the lazy refresh leaves behind: records
whose stored unit, neighbour ranges or hyperlink copies differ from a
fresh recomputation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Hashable

from repro.core.link_structure import StructureDelta


def scan_apply_level_change(skipweb, level, prefix, delta: StructureDelta):
    """The overlap-scan ``_apply_level_change`` (same contract and return value)."""
    new_structure = delta.structure
    affected_hosts = set()

    for unit in delta.removed:
        address = skipweb._remove_record(level, prefix, unit.key)
        affected_hosts.add(address.host)

    if new_structure is None:
        del skipweb._structures[(level, prefix)]
        return affected_hosts, 0, len(delta.removed)
    skipweb._structures[(level, prefix)] = new_structure

    for unit in delta.added:
        address = skipweb._create_record(level, prefix, unit)
        affected_hosts.add(address.host)

    added = {unit.key for unit in delta.added}
    changed_ranges = [unit.range for unit in delta.removed]
    changed_ranges.extend(unit.range for unit in delta.added)

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
                if skipweb._rewire_record(level + 1, child_prefix, key):
                    affected_hosts.add(skipweb._address_of[(level + 1, child_prefix, key)].host)

    return affected_hosts, len(added), len(delta.removed)


@contextmanager
def level_changes(apply):
    """Route every update through ``apply`` and record its per-level host lists."""
    from repro.core import update

    trace: list[list] = []
    real = update._apply_level_change

    def recording(skipweb, level, prefix, delta):
        affected, added, removed = apply(skipweb, level, prefix, delta)
        trace.append([level, prefix, sorted(affected), added, removed])
        return affected, added, removed

    update._apply_level_change = recording
    try:
        yield trace
    finally:
        update._apply_level_change = real


def stored_pointers(record) -> tuple[dict, list]:
    """A record's neighbour table as a key -> (range, address) dict, its hyperlinks as a list.

    The dict ignores the order the table stores its neighbours in; the
    list keeps the order of the hyperlinks, as a rewire compares them.
    """
    table = record.neighbors
    neighbors = {
        key: (rng, address) for key, rng, address in zip(table[::3], table[1::3], table[2::3])
    }
    return neighbors, list(zip(record.down_units, record.down_addresses))


def record_fields(skipweb) -> dict:
    """Every record's address, unit, neighbour table and hyperlink list."""
    load = skipweb.network.load
    fields = {}
    for entry, address in skipweb._address_of.items():
        record = load(address, check_alive=False)
        fields[entry] = (address, record.unit, *stored_pointers(record))
    return fields


def fresh_record(skipweb, level, prefix, key):
    """``(unit, neighbors, down_links)`` as a rewire would compute them now."""
    structure = skipweb._structures[(level, prefix)]
    addresses = skipweb._level_addresses[(level, prefix)]
    unit = structure.unit(key)
    neighbors = {
        neighbor.key: (neighbor.range, addresses[neighbor.key])
        for neighbor in structure.neighbors(key)
    }
    down_links = []
    if level > 0:
        parent = skipweb._structures[(level - 1, prefix[:-1])]
        parent_addresses = skipweb._level_addresses[(level - 1, prefix[:-1])]
        down_links = [
            (conflicting, parent_addresses[conflicting.key])
            for conflicting in parent.conflicts(unit.range)
        ]
    return unit, neighbors, down_links


@dataclass
class StaleCopies:
    """Stored copies that differ from a fresh recomputation."""

    units: int = 0
    neighbor_ranges: int = 0
    down_links: int = 0
    records: set = field(default_factory=set)
    #: records whose stored keys or addresses differ (not just copies)
    wrong_pointers: set = field(default_factory=set)

    def counts(self) -> tuple[int, int, int]:
        return self.units, self.neighbor_ranges, self.down_links


def stale_copies(skipweb) -> StaleCopies:
    """Every stale copy in ``skipweb``'s records, by kind."""
    stale = StaleCopies()
    for (level, prefix, key), address in skipweb._address_of.items():
        record = skipweb.network.load(address, check_alive=False)
        unit, neighbors, down_links = fresh_record(skipweb, level, prefix, key)
        stored_neighbors, stored_down_links = stored_pointers(record)
        entry = (level, prefix, key)
        if record.unit != unit:
            stale.units += 1
            stale.records.add(entry)
        pointers = {name: at for name, (_range, at) in stored_neighbors.items()}
        if pointers != {name: at for name, (_range, at) in neighbors.items()}:
            stale.wrong_pointers.add(entry)
        else:
            for neighbor_key, (neighbor_range, _address) in neighbors.items():
                if stored_neighbors[neighbor_key][0] != neighbor_range:
                    stale.neighbor_ranges += 1
                    stale.records.add(entry)
        stored_links = [(copied.key, at) for copied, at in stored_down_links]
        if stored_links != [(copied.key, at) for copied, at in down_links]:
            stale.wrong_pointers.add(entry)
        else:
            for (stored, _stored_address), (fresh, _address) in zip(stored_down_links, down_links):
                if stored != fresh:
                    stale.down_links += 1
                    stale.records.add(entry)
    stale.records |= stale.wrong_pointers
    return stale
