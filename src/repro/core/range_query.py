"""Output-sensitive range reporting over distributed skip-webs.

The paper's point queries answer "where does this value land?"; the
reporting queries here answer "which stored items lie inside this
range?" — 1-d key ranges, axis-aligned boxes, prefix sets, planar
windows — in O(log n + k) expected messages, where ``k`` is the output
size.  The protocol is the textbook two-phase shape, expressed once for
every skip-web instantiation:

1. **Locate** (O(log n)): descend the skip-web toward a representative
   point of the range (:meth:`~repro.core.link_structure
   .RangeDeterminedLinkStructure.range_to_query`), exactly as a point
   query would, reusing :func:`repro.core.query.descend_steps`.
2. **Report** (O(k)): enumerate the level-0 node units matching the
   range (:meth:`~repro.core.link_structure
   .RangeDeterminedLinkStructure.report_units`), split them into
   ``fan_out`` contiguous sub-walks and *fork* the operation
   (:class:`~repro.engine.steps.Fork`): each sub-walk visits its
   records in order, paying one message per host crossing and decoding
   matches locally (:meth:`report_values`).

Both phases run through the step-generator machinery, so the same
:func:`range_steps` generator is honest under immediate execution
(:func:`repro.engine.steps.run_immediate`) and under the round-based
:class:`~repro.engine.executor.BatchExecutor`, where each sub-walk
advances one host crossing per round — the fan-out is what keeps the
round count at O(log n + k / fan_out) while total messages stay
O(log n + k).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.query import descend_steps
from repro.engine.steps import StepCursor, StepGenerator, read_local, run_immediate
from repro.net.message import MessageKind
from repro.net.naming import Address, HostId

#: Default number of parallel report sub-walks a range query forks into.
DEFAULT_FAN_OUT = 2


@dataclass(frozen=True)
class RangeBranchReport:
    """What one report sub-walk brings back to its forking operation."""

    values: tuple[Any, ...]
    messages: int
    hosts_visited: tuple[HostId, ...]


@dataclass(frozen=True)
class RangeQueryResult:
    """Outcome of one output-sensitive range/reporting query.

    ``messages`` is the measured total (descent plus report);
    ``descent_messages`` / ``report_messages`` split it by phase so
    benchmarks can fit the O(log n) and O(k) terms separately.
    """

    query: Any
    matches: tuple[Any, ...]
    messages: int
    descent_messages: int
    report_messages: int
    origin_host: HostId
    hosts_visited: tuple[HostId, ...]
    levels_descended: int
    branches: int

    @property
    def count(self) -> int:
        """The output size ``k``."""
        return len(self.matches)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RangeQueryResult(query={self.query!r}, k={self.count}, "
            f"messages={self.messages})"
        )


def assemble_range_result(
    query: Any,
    reports: Sequence[RangeBranchReport],
    descent_messages: int,
    descent_hosts: Sequence[HostId],
    origin_host: HostId,
    levels_descended: int,
) -> RangeQueryResult:
    """Fold forked branch reports and the descent into one result.

    Shared by every ``range_steps`` implementation (generic skip-web,
    bucket layout, ordered baselines) so the result shape can only
    change in one place.
    """
    matches: list[Any] = []
    hosts: list[HostId] = list(descent_hosts)
    report_messages = 0
    for report in reports:
        matches.extend(report.values)
        report_messages += report.messages
        hosts.extend(host for host in report.hosts_visited[1:])
    return RangeQueryResult(
        query=query,
        matches=tuple(matches),
        messages=descent_messages + report_messages,
        descent_messages=descent_messages,
        report_messages=report_messages,
        origin_host=origin_host,
        hosts_visited=tuple(hosts),
        levels_descended=levels_descended,
        branches=len(reports),
    )


def partition_walks(items: Sequence[Any], fan_out: int) -> list[list[Any]]:
    """Split ``items`` into at most ``fan_out`` contiguous, non-empty chunks."""
    if not items:
        return []
    fan_out = max(1, min(fan_out, len(items)))
    size, remainder = divmod(len(items), fan_out)
    chunks: list[list[Any]] = []
    start = 0
    for index in range(fan_out):
        end = start + size + (1 if index < remainder else 0)
        chunks.append(list(items[start:end]))
        start = end
    return chunks


def report_walk(
    structure,
    query_range: Any,
    entries: Sequence[tuple[Any, Address]],
    start_host: HostId,
    load,
) -> StepGenerator:
    """One report sub-walk: visit each record, decode its matches locally.

    ``entries`` are (unit, address) pairs in walk order; co-located
    consecutive records are free (the walk reads them in place with
    ``load``, the network's uncharged dereference, and the cursor only
    charges host crossings), which is what makes the report phase
    output-sensitive rather than paying ``k`` messages unconditionally.
    """
    cursor = StepCursor(start_host)
    values: list[Any] = []
    for _unit, address in entries:
        record = read_local(load, cursor, address)
        if record is None:
            record = yield from cursor.visit(address)
        values.extend(structure.report_values(query_range, record.unit))
    return RangeBranchReport(
        values=tuple(values),
        messages=cursor.hops,
        hosts_visited=cursor.path_tuple(),
    )


def range_steps(
    skipweb,
    query_range: Any,
    origin_host: HostId,
    fan_out: int = DEFAULT_FAN_OUT,
) -> StepGenerator:
    """The generic skip-web range query as a resumable step generator.

    Works for any :class:`~repro.core.skipweb.SkipWeb` whose link
    structure implements the range-reporting hooks (``range_to_query`` /
    ``report_units`` / ``report_values``); the four instantiations
    specialise only those hooks, never this routing.
    """
    cursor = StepCursor(origin_host)
    anchor = skipweb.structure_cls.range_to_query(query_range)
    _record, levels_descended, _per_level = yield from descend_steps(
        skipweb, anchor, cursor
    )
    descent_messages = cursor.hops

    level0 = skipweb.level_structure(0, ())
    matched_units = level0.report_units(query_range)
    entries = [
        (unit, skipweb.address_of(0, (), unit.key)) for unit in matched_units
    ]
    chunks = partition_walks(entries, fan_out)
    load = skipweb.network.load
    reports = yield from cursor.fork(
        [
            report_walk(level0, query_range, chunk, cursor.current_host, load)
            for chunk in chunks
        ]
    )
    return assemble_range_result(
        query_range,
        reports,
        descent_messages=descent_messages,
        descent_hosts=cursor.path,
        origin_host=origin_host,
        levels_descended=levels_descended,
    )


def execute_range_query(
    skipweb,
    query_range: Any,
    origin_host: HostId,
    fan_out: int = DEFAULT_FAN_OUT,
    kind: MessageKind = MessageKind.QUERY,
) -> RangeQueryResult:
    """Drive a range query to completion immediately (the classic path)."""
    return run_immediate(
        skipweb.network,
        range_steps(skipweb, query_range, origin_host, fan_out=fan_out),
        origin_host,
        kind=kind,
    )
