"""Query routing over a distributed skip-web (§2.5 of the paper).

A query starts from the "root" of the originating host: copies of the
(expected O(1)) units forming the top-level structure along the
membership-word prefix chain of one of the host's items, together with
the addresses of their records.  The engine then repeats, once per level:

1. choose, locally, the best hyperlink out of the current record's
   conflict list (each hyperlink carries a copy of the target unit, so no
   message is needed to decide),
2. follow the chosen hyperlink — one message when it crosses hosts,
3. walk within the level with the structure's ``advance`` until the
   level's target for the query is reached (each step is one more
   message when it crosses hosts),
4. descend through the target's hyperlinks to the next level.

At level 0 the structure's ``answer`` decodes the domain-specific result
(nearest key, matching prefix, containing trapezoid, smallest quadtree
cell).  The number of messages charged to the traversal is the measured
``Q(n)``.

The routing logic is written once, as the resumable step generator
:func:`query_steps` (see :mod:`repro.engine.steps`).  :func:`execute_query`
drives it to completion immediately — the classic one-operation-at-a-time
path — while :class:`repro.engine.executor.BatchExecutor` interleaves many
such generators round by round over the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from repro.engine.steps import StepCursor, StepGenerator, run_immediate
from repro.errors import QueryError
from repro.net.message import MessageKind
from repro.net.naming import Address, HostId


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one skip-web query."""

    query: Any
    answer: Any
    messages: int
    origin_host: HostId
    hosts_visited: tuple[HostId, ...]
    levels_descended: int
    target_key: Hashable
    per_level_messages: tuple[int, ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryResult(query={self.query!r}, answer={self.answer!r}, "
            f"messages={self.messages})"
        )


# Safety bound on intra-level navigation; a correct structure never needs
# anywhere near this many steps, so hitting the bound indicates a bug and
# is reported as a QueryError rather than an infinite loop.
_MAX_LEVEL_STEPS = 10_000


def _choose_entry(structure_cls, query: Any, units: tuple, addresses: tuple) -> Address:
    """Pick the hyperlink to follow among parallel (unit copy, address) columns.

    The unit copies are stored alongside the pointers (the same O(1)
    per-pointer bookkeeping a skip graph keeps for its neighbours' keys),
    so the choice is made locally without spending messages.
    """
    if not units:
        raise QueryError("query descended through a record with no hyperlinks")
    chosen = structure_cls.select(query, units)
    for index, unit in enumerate(units):
        if unit is chosen or unit.key == chosen.key:
            return addresses[index]
    raise QueryError("select returned a unit that is not among the candidates")


def _settle_within_level(
    structure_cls,
    cursor: StepCursor,
    query: Any,
    record,
) -> StepGenerator:
    """Walk within one level structure until the target unit for ``query``.

    ``record`` is the record reached by following a hyperlink; the walk
    follows the structure's own links (each record stores its neighbours'
    keys, ranges and addresses), charging a message per host crossing.
    """
    current = record
    advance = structure_cls.advance
    for _ in range(_MAX_LEVEL_STEPS):
        table = current.neighbors
        keys = table[::3]
        next_key = advance(query, current.unit, zip(keys, table[1::3]))
        if next_key is None:
            return current
        try:
            address = table[3 * keys.index(next_key) + 2]
        except ValueError as exc:
            raise QueryError(
                f"advance returned unknown neighbour key {next_key!r} "
                f"from unit {current.unit.key!r}"
            ) from exc
        current = yield from cursor.visit(address)
    raise QueryError("intra-level navigation did not terminate (structure bug)")


def descend_steps(skipweb, query: Any, cursor: StepCursor) -> StepGenerator:
    """The shared descent: from the cursor's host down to its level-0 target.

    Starts at the root entries of the cursor's current host, descends one
    level at a time (hyperlink choice, then intra-level settling) and
    returns ``(record, levels_descended, per_level_messages)`` where
    ``record`` is the level-0 record the search stopped at.  Both the
    point queries (:func:`query_steps`) and the locate phase of the range
    queries (:mod:`repro.core.range_query`) are built on it, so the two
    charge the descent identically.
    """
    root_entries = skipweb.root_entries(cursor.current_host)
    if not root_entries:
        raise QueryError("skip-web has no records (empty structure)")

    per_level_messages: list[int] = []
    hops_before = cursor.hops
    root_units, root_addresses = zip(*root_entries)
    entry_address = _choose_entry(skipweb.structure_cls, query, root_units, root_addresses)
    record = yield from cursor.visit(entry_address)
    current = yield from _settle_within_level(skipweb.structure_cls, cursor, query, record)
    per_level_messages.append(cursor.hops - hops_before)
    levels_descended = 0

    while current.level > 0:
        hops_before = cursor.hops
        entry_address = _choose_entry(
            skipweb.structure_cls, query, current.down_units, current.down_addresses
        )
        record = yield from cursor.visit(entry_address)
        current = yield from _settle_within_level(
            skipweb.structure_cls, cursor, query, record
        )
        per_level_messages.append(cursor.hops - hops_before)
        levels_descended += 1

    return current, levels_descended, per_level_messages


def query_steps(skipweb, query: Any, origin_host: HostId) -> StepGenerator:
    """The query descent as a resumable step generator.

    Yields one :class:`~repro.engine.steps.Visit` effect per pointer
    dereference and returns the final :class:`QueryResult`; drive it with
    :func:`execute_query` for the immediate path or hand it to a
    :class:`~repro.engine.executor.BatchExecutor` for round-based
    execution.
    """
    cursor = StepCursor(origin_host)
    current, levels_descended, per_level_messages = yield from descend_steps(
        skipweb, query, cursor
    )

    level0_structure = skipweb.level_structure(0, ())
    answer = level0_structure.answer(query, current.unit)
    return QueryResult(
        query=query,
        answer=answer,
        messages=cursor.hops,
        origin_host=origin_host,
        hosts_visited=cursor.path_tuple(),
        levels_descended=levels_descended,
        target_key=current.unit.key,
        per_level_messages=tuple(per_level_messages),
    )


def execute_query(
    skipweb,
    query: Any,
    origin_host: HostId,
    kind: MessageKind = MessageKind.QUERY,
) -> QueryResult:
    """Route ``query`` through ``skipweb`` starting at ``origin_host``."""
    return run_immediate(
        skipweb.network, query_steps(skipweb, query, origin_host), origin_host, kind=kind
    )
