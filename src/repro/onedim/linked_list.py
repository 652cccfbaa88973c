"""The sorted doubly-linked list as a range-determined link structure.

This is the running example of §2.1 of the paper: the universe is a
total order, the structure ``D(S)`` is the sorted doubly-linked list over
``S``, the range of a node storing ``x`` is the singleton ``{x}`` and the
range of the link joining ``x`` and ``y`` is the closed interval
``[x, y]``.  Two sentinel links, ``(-inf, min]`` and ``[max, +inf)``, are
added so that every query point of the universe lies in exactly one
maximal range; this does not change the structure's asymptotics and makes
nearest-neighbour queries total.

Lemma 1 of the paper is the set-halving lemma for this structure:
``E[|C(Q, S)|] ≤ 7`` when ``T`` is a random half of ``S`` and ``Q`` is the
maximal range of ``D(T)`` containing any fixed query.  The benchmark
``benchmarks/bench_lemma1_list_halving.py`` verifies the constant
empirically via :func:`repro.core.halving.verify_halving`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Mapping, Sequence

from repro.core.bulkload import is_strictly_increasing
from repro.core.link_structure import (
    RangeDeterminedLinkStructure,
    RangeUnit,
    StructureDelta,
    UnitKind,
)
from repro.core.ranges import Interval, Range, Singleton
from repro.errors import QueryError, StructureError

_NEG_INF = -math.inf
_POS_INF = math.inf


@dataclass(frozen=True)
class NearestNeighborAnswer:
    """Answer to a one-dimensional nearest-neighbour / point-location query."""

    query: float
    nearest: float
    predecessor: float | None
    successor: float | None
    exact: bool

    @property
    def distance(self) -> float:
        """Distance from the query to the nearest stored key."""
        return abs(self.query - self.nearest)


def _node_key(value: float) -> Hashable:
    return ("node", value)


def _link_key(low: float, high: float) -> Hashable:
    return ("link", low, high)


def _node_unit(value: float) -> RangeUnit:
    return RangeUnit(
        key=_node_key(value), kind=UnitKind.NODE, range=Singleton(value), payload=value
    )


def _link_unit(low: float, high: float) -> RangeUnit:
    """The link joining ``low`` and ``high``; an infinite end makes it a sentinel."""
    if low == _NEG_INF:
        link_range, payload = Interval.below(high), (None, high)
    elif high == _POS_INF:
        link_range, payload = Interval.above(low), (low, None)
    else:
        link_range, payload = Interval(low, high), (low, high)
    return RangeUnit(
        key=_link_key(low, high), kind=UnitKind.LINK, range=link_range, payload=payload
    )


class SortedListStructure(RangeDeterminedLinkStructure):
    """``D(S)``: the sorted doubly-linked list over a set of numeric keys."""

    name = "sorted-list"

    def __init__(self, keys: Sequence[float]) -> None:
        converted = [float(key) for key in keys]
        if is_strictly_increasing(converted):
            # Already strictly sorted (the O(n) bulk-load fast path).
            deduplicated = converted
        else:
            deduplicated = sorted(set(converted))
        if not deduplicated:
            raise StructureError("sorted list requires at least one key")
        self._keys = deduplicated
        self._units = self._build_units()
        self._units_by_key = {unit.key: unit for unit in self._units}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, items: Sequence[Any], **params: Any) -> "SortedListStructure":
        return cls(items)

    def _build_units(self) -> list[RangeUnit]:
        keys = self._keys
        units = [_link_unit(_NEG_INF, keys[0])]
        for index, value in enumerate(keys):
            units.append(_node_unit(value))
            if index + 1 < len(keys):
                units.append(_link_unit(value, keys[index + 1]))
        units.append(_link_unit(keys[-1], _POS_INF))
        return units

    # ------------------------------------------------------------------ #
    # in-place updates (canonical: identical to a full rebuild)
    # ------------------------------------------------------------------ #
    def with_item(self, item: Any) -> StructureDelta:
        """``D(S ∪ {x})`` by splicing in place — bit-identical to rebuilding.

        The sorted list's unit sequence is fully determined by the sorted
        key array, so only the insertion position changes: the one link
        spanning the gap is replaced by node + two links (neighbours are
        derived from the key order, so nothing else is patched).
        """
        value = float(item)
        keys = self._keys
        index = bisect.bisect_left(keys, value)
        if index < len(keys) and keys[index] == value:
            raise StructureError(f"{self.name}: item {item!r} already present")
        low = keys[index - 1] if index > 0 else _NEG_INF
        high = keys[index] if index < len(keys) else _POS_INF
        node, left, right = _node_unit(value), _link_unit(low, value), _link_unit(value, high)
        # Unit-list layout: [low sentinel, node k0, link k0-k1, node k1, ...,
        # node kN, high sentinel]; the replaced link sits at 2 * index.
        old_link = self._unit_at(2 * index, _link_key(low, high))

        keys.insert(index, value)
        self._units[2 * index : 2 * index + 1] = [left, node, right]
        self._replace_units(removed=(old_link,), added=(left, node, right))
        return StructureDelta(self, added=(left, node, right), removed=(old_link,))

    def without_item(self, item: Any) -> StructureDelta:
        """``D(S \\ {x})`` by splicing in place — the mirror of :meth:`with_item`.

        Node ``x`` and its two links collapse into the one link joining
        its former neighbours.
        """
        value = float(item)
        keys = self._keys
        index = bisect.bisect_left(keys, value)
        if index == len(keys) or keys[index] != value:
            raise StructureError(f"{self.name}: item {item!r} not present")
        if len(keys) == 1:
            return self._emptied()
        low = keys[index - 1] if index > 0 else _NEG_INF
        high = keys[index + 1] if index + 1 < len(keys) else _POS_INF
        left = self._unit_at(2 * index, _link_key(low, value))
        node, right = self._units[2 * index + 1 : 2 * index + 3]
        merged = _link_unit(low, high)

        del keys[index]
        self._units[2 * index : 2 * index + 3] = [merged]
        self._replace_units(removed=(left, node, right), added=(merged,))
        return StructureDelta(self, added=(merged,), removed=(left, node, right))

    def _unit_at(self, position: int, expected_key: Hashable) -> RangeUnit:
        """The unit at ``position`` of the unit list, which must be ``expected_key``."""
        unit = self._units[position]
        if unit.key != expected_key:
            raise StructureError(
                f"sorted-list unit layout violated: expected {expected_key!r} "
                f"at position {position}, found {unit.key!r}"
            )
        return unit

    def _replace_units(self, removed: Sequence[RangeUnit], added: Sequence[RangeUnit]) -> None:
        """Swap ``removed`` for ``added`` in the key index."""
        for unit in removed:
            del self._units_by_key[unit.key]
        for unit in added:
            self._units_by_key[unit.key] = unit

    # ------------------------------------------------------------------ #
    # RangeDeterminedLinkStructure interface
    # ------------------------------------------------------------------ #
    @property
    def items(self) -> Sequence[float]:
        return list(self._keys)

    @property
    def keys_sorted(self) -> list[float]:
        """The stored keys in ascending order."""
        return list(self._keys)

    def units(self) -> list[RangeUnit]:
        return list(self._units)

    def unit(self, key: Hashable) -> RangeUnit:
        try:
            return self._units_by_key[key]
        except KeyError as exc:
            raise StructureError(f"sorted-list: no unit with key {key!r}") from exc

    def unit_map(self) -> Mapping[Hashable, RangeUnit]:
        return self._units_by_key

    def keys(self) -> set[Hashable]:
        return set(self._units_by_key)

    def neighbors(self, key: Hashable) -> list[RangeUnit]:
        """A node's ``[left link, right link]``; a link's finite endpoint nodes, low first.

        Derived from the key order: node ``k_i`` sits at ``2i + 1`` of the
        unit list, between its two links.
        """
        unit = self.unit(key)
        if unit.is_node:
            index = 2 * bisect.bisect_left(self._keys, unit.payload)
            return self._units[index : index + 3 : 2]
        units_by_key = self._units_by_key
        return [units_by_key[_node_key(end)] for end in unit.payload if end is not None]

    def overlapping(self, query_range: Range) -> list[RangeUnit]:
        """Units overlapping ``query_range`` — found by bisection, O(log n + output)."""
        low, high = self._range_bounds(query_range)
        if low is None:
            return super().overlapping(query_range)
        keys = self._keys
        result: list[RangeUnit] = []
        # Nodes with low <= key <= high.
        first = bisect.bisect_left(keys, low)
        last = bisect.bisect_right(keys, high)
        for value in keys[first:last]:
            result.append(self._units_by_key[_node_key(value)])
        # Links [x, y] with x <= high and y >= low, including sentinels.
        if low <= keys[0]:
            result.append(self._units_by_key[_link_key(_NEG_INF, keys[0])])
        if high >= keys[-1]:
            result.append(self._units_by_key[_link_key(keys[-1], _POS_INF)])
        start = max(0, first - 1)
        for index in range(start, min(last, len(keys) - 1)):
            x, y = keys[index], keys[index + 1]
            if x <= high and y >= low:
                result.append(self._units_by_key[_link_key(x, y)])
        return result

    @staticmethod
    def _range_bounds(query_range: Range) -> tuple[float | None, float | None]:
        if isinstance(query_range, Interval):
            return query_range.low, query_range.high
        if isinstance(query_range, Singleton) and isinstance(
            query_range.value, (int, float)
        ):
            return float(query_range.value), float(query_range.value)
        return None, None

    def locate(self, query: Any) -> RangeUnit:
        """The maximal range containing ``query``: a node on exact match, else a link."""
        point = float(query)
        keys = self._keys
        index = bisect.bisect_left(keys, point)
        if index < len(keys) and keys[index] == point:
            return self._units_by_key[_node_key(point)]
        if index == 0:
            return self._units_by_key[_link_key(_NEG_INF, keys[0])]
        if index == len(keys):
            return self._units_by_key[_link_key(keys[-1], _POS_INF)]
        return self._units_by_key[_link_key(keys[index - 1], keys[index])]

    @classmethod
    def select(cls, query: Any, candidates: Sequence[RangeUnit]) -> RangeUnit:
        point = float(query)
        containing = [unit for unit in candidates if unit.range.contains(point)]
        if containing:
            # Prefer the exact-match node over the links that share its endpoint.
            for unit in containing:
                if unit.is_node:
                    return unit
            return containing[0]
        # No candidate contains the query (can only happen at block seams);
        # start from the candidate closest to the query.
        return min(candidates, key=lambda unit: cls._distance_to(point, unit))

    @staticmethod
    def _distance_to(point: float, unit: RangeUnit) -> float:
        if isinstance(unit.range, Singleton):
            return abs(point - float(unit.range.value))
        if isinstance(unit.range, Interval):
            if unit.range.contains(point):
                return 0.0
            return min(abs(point - unit.range.low), abs(point - unit.range.high))
        return math.inf

    @classmethod
    def advance(
        cls,
        query: Any,
        current: RangeUnit,
        neighbors: Iterable[tuple[Hashable, Range]],
    ) -> Hashable | None:
        point = float(query)
        if current.is_node:
            node_value = float(current.payload)
            if node_value == point:
                return None
            # Move onto the link on the side of the query.
            best_key: Hashable | None = None
            for key, rng in neighbors:
                if isinstance(rng, Interval) and rng.contains(point):
                    return key
                if isinstance(rng, Interval):
                    wants_right = point > node_value
                    is_right = rng.low == node_value
                    if wants_right == is_right:
                        best_key = key
            return best_key
        # current is a link
        if current.range.contains(point):
            # Prefer the endpoint node when the query is exactly a stored key.
            for key, rng in neighbors:
                if isinstance(rng, Singleton) and float(rng.value) == point:
                    return key
            return None
        # Walk toward the query.
        low, high = current.range.low, current.range.high
        target_value = low if point < low else high
        for key, rng in neighbors:
            if isinstance(rng, Singleton) and float(rng.value) == target_value:
                return key
        return None

    def answer(self, query: Any, unit: RangeUnit) -> NearestNeighborAnswer:
        point = float(query)
        if unit.is_node:
            value = float(unit.payload)
            return NearestNeighborAnswer(
                query=point,
                nearest=value,
                predecessor=value,
                successor=value,
                exact=True,
            )
        low, high = unit.payload
        candidates = [value for value in (low, high) if value is not None]
        if not candidates:
            raise QueryError("sorted-list: link with no finite endpoint")
        nearest = min(candidates, key=lambda value: abs(point - value))
        return NearestNeighborAnswer(
            query=point,
            nearest=nearest,
            predecessor=low,
            successor=high,
            exact=(point in candidates),
        )

    # ------------------------------------------------------------------ #
    # reference queries used by tests
    # ------------------------------------------------------------------ #
    def nearest_key(self, query: float) -> float:
        """Brute-force-free reference nearest neighbour (bisection)."""
        return self.answer(query, self.locate(query)).nearest

    def predecessor(self, query: float) -> float | None:
        """Largest stored key ≤ ``query`` (``None`` when below the minimum)."""
        index = bisect.bisect_right(self._keys, float(query))
        return self._keys[index - 1] if index > 0 else None

    def successor(self, query: float) -> float | None:
        """Smallest stored key ≥ ``query`` (``None`` when above the maximum)."""
        index = bisect.bisect_left(self._keys, float(query))
        return self._keys[index] if index < len(self._keys) else None
