"""Skip-webs over trapezoidal maps (§3.3, Lemma 5).

:class:`TrapezoidalMapStructure` adapts
:class:`~repro.planar.trapezoidal_map.TrapezoidalMap` to the
range-determined link structure interface: node ranges are the trapezoids
themselves, link ranges are the unions of wall-adjacent trapezoid pairs.
Lemma 5 (the set-halving lemma for trapezoidal maps, including the
``1 + a + 2b + 3c`` conflict identity) is verified empirically by
``benchmarks/bench_fig4_trapezoid_halving.py``.

:class:`SkipTrapezoidWeb` is the distributed structure: planar point
location — "which face of the map contains this point?" — over ``n``
segments spread across ``n`` hosts in ``O(log n)`` expected messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Sequence

from repro.core.link_structure import RangeDeterminedLinkStructure, RangeUnit, UnitKind
from repro.core.query import QueryResult
from repro.core.ranges import Range
from repro.core.skipweb import SkipWeb, SkipWebConfig, SkipWebStructureAdapter
from repro.core.update import UpdateResult
from repro.errors import QueryError, StructureError
from repro.net.congestion import CongestionReport
from repro.net.naming import HostId
from repro.net.network import Network
from repro.planar.segments import PlanarPoint, Segment, bounding_box
from repro.planar.trapezoidal_map import Trapezoid, TrapezoidalMap


@dataclass(frozen=True)
class TrapezoidPairRange:
    """The union of two wall-adjacent trapezoids — the range of a link."""

    first: Trapezoid
    second: Trapezoid

    def contains(self, point: Any) -> bool:
        return self.first.contains(point) or self.second.contains(point)

    def intersects(self, other: Range) -> bool:
        if isinstance(other, TrapezoidPairRange):
            return (
                self.first.intersects(other.first)
                or self.first.intersects(other.second)
                or self.second.intersects(other.first)
                or self.second.intersects(other.second)
            )
        return self.first.intersects(other) or self.second.intersects(other)

    def distance_to_point(self, point: PlanarPoint) -> float:
        return min(
            self.first.distance_to_point(point), self.second.distance_to_point(point)
        )


@dataclass(frozen=True, slots=True)
class Window:
    """A closed axis-aligned query window for segment-stabbing reporting.

    The range of a window-reporting query: the query asks for every
    trapezoid of the map whose face overlaps the window (and thereby for
    the segments bounding those faces — the segments the window
    "stabs").
    """

    x_low: float
    x_high: float
    y_low: float
    y_high: float

    def __post_init__(self) -> None:
        if self.x_low > self.x_high or self.y_low > self.y_high:
            raise ValueError(f"empty window: {self!r}")

    @property
    def center(self) -> PlanarPoint:
        return ((self.x_low + self.x_high) / 2, (self.y_low + self.y_high) / 2)

    def contains(self, point: Any) -> bool:
        if not isinstance(point, tuple) or len(point) != 2:
            return False
        x, y = point
        return self.x_low <= x <= self.x_high and self.y_low <= y <= self.y_high

    @staticmethod
    def _x_interval_satisfying(
        value_low: float,
        value_high: float,
        x_low: float,
        x_high: float,
        bound: float,
        below: bool,
    ) -> tuple[float, float] | None:
        """Where a linear boundary meets a y-bound over ``[x_low, x_high]``.

        The boundary takes values ``value_low`` / ``value_high`` at the
        interval's endpoints; returns the sub-interval where it is
        ``<= bound`` (``below``) or ``>= bound``, or ``None`` if empty.
        Sampling a single x is not enough: a slanted boundary can satisfy
        the bound near one wall only, so the crossing point must be
        solved for.
        """
        ok_low = value_low <= bound if below else value_low >= bound
        ok_high = value_high <= bound if below else value_high >= bound
        if ok_low and ok_high:
            return (x_low, x_high)
        if not ok_low and not ok_high:
            return None
        crossing = x_low + (bound - value_low) * (x_high - x_low) / (
            value_high - value_low
        )
        return (x_low, crossing) if ok_low else (crossing, x_high)

    def intersects(self, other) -> bool:
        if isinstance(other, Trapezoid):
            x_low = max(self.x_low, other.x_left)
            x_high = min(self.x_high, other.x_right)
            if x_low > x_high:
                return False
            below = self._x_interval_satisfying(
                other.bottom_y(x_low),
                other.bottom_y(x_high),
                x_low,
                x_high,
                self.y_high + 1e-12,
                below=True,
            )
            above = self._x_interval_satisfying(
                other.top_y(x_low),
                other.top_y(x_high),
                x_low,
                x_high,
                self.y_low - 1e-12,
                below=False,
            )
            if below is None or above is None:
                return False
            return max(below[0], above[0]) <= min(below[1], above[1])
        if isinstance(other, TrapezoidPairRange):
            return self.intersects(other.first) or self.intersects(other.second)
        if isinstance(other, Window):
            return (
                self.x_low <= other.x_high
                and other.x_low <= self.x_high
                and self.y_low <= other.y_high
                and other.y_low <= self.y_high
            )
        return other.intersects(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Window(x=[{self.x_low:.3g},{self.x_high:.3g}], "
            f"y=[{self.y_low:.3g},{self.y_high:.3g}])"
        )


@dataclass(frozen=True)
class PlanarLocationAnswer:
    """Answer to a planar point-location query."""

    query: PlanarPoint
    trapezoid: Trapezoid
    above_segment: Segment | None
    below_segment: Segment | None


def _node_key(trapezoid: Trapezoid) -> Hashable:
    return ("pnode", trapezoid.key())

def _link_key(first: Trapezoid, second: Trapezoid) -> Hashable:
    pair = tuple(sorted((first.key(), second.key()), key=repr))
    return ("plink", pair)


class TrapezoidalMapStructure(RangeDeterminedLinkStructure):
    """A trapezoidal map viewed as a range-determined link structure.

    Construction parameter (shared across skip-web levels):

    ``box``
        The bounding box ``(x_min, x_max, y_min, y_max)``.
    """

    name = "trapezoidal-map"

    def __init__(
        self,
        segments: Sequence[Segment],
        box: tuple[float, float, float, float],
    ) -> None:
        self._box = box
        self.map = TrapezoidalMap(segments, box=box)
        self._units: list[RangeUnit] = []
        self._units_by_key: dict[Hashable, RangeUnit] = {}
        self._adjacency: dict[Hashable, list[Hashable]] = {}
        self._collect_units()

    @classmethod
    def build(cls, items: Sequence[Any], **params: Any) -> "TrapezoidalMapStructure":
        box = params.get("box")
        if box is None:
            raise StructureError("TrapezoidalMapStructure.build requires a 'box' parameter")
        return cls(list(items), box)

    def build_params(self) -> dict[str, Any]:
        return {"box": self._box}

    # ------------------------------------------------------------------ #
    # unit collection
    # ------------------------------------------------------------------ #
    @staticmethod
    def _representative(trapezoid: Trapezoid) -> Segment | None:
        """A bounding segment of the trapezoid (owner blocking anchor)."""
        return trapezoid.bottom if trapezoid.bottom is not None else trapezoid.top

    def _collect_units(self) -> None:
        for trapezoid in self.map.trapezoids:
            unit = RangeUnit(
                key=_node_key(trapezoid),
                kind=UnitKind.NODE,
                range=trapezoid,
                payload=self._representative(trapezoid),
            )
            self._register(unit)
        seen_links: set[Hashable] = set()
        for trapezoid in self.map.trapezoids:
            for neighbor in self.map.neighbors(trapezoid):
                link_key = _link_key(trapezoid, neighbor)
                if link_key in seen_links:
                    continue
                seen_links.add(link_key)
                unit = RangeUnit(
                    key=link_key,
                    kind=UnitKind.LINK,
                    range=TrapezoidPairRange(first=trapezoid, second=neighbor),
                    payload=(
                        self._representative(trapezoid),
                        self._representative(neighbor),
                    ),
                )
                self._register(unit)
                self._connect(link_key, _node_key(trapezoid))
                self._connect(link_key, _node_key(neighbor))

    def _register(self, unit: RangeUnit) -> None:
        if unit.key in self._units_by_key:
            raise StructureError(f"duplicate trapezoid unit key {unit.key!r}")
        self._units.append(unit)
        self._units_by_key[unit.key] = unit
        self._adjacency.setdefault(unit.key, [])

    def _connect(self, first: Hashable, second: Hashable) -> None:
        self._adjacency[first].append(second)
        self._adjacency[second].append(first)

    # ------------------------------------------------------------------ #
    # RangeDeterminedLinkStructure interface
    # ------------------------------------------------------------------ #
    @property
    def items(self) -> Sequence[Segment]:
        return list(self.map.segments)

    def units(self) -> list[RangeUnit]:
        return list(self._units)

    def unit(self, key: Hashable) -> RangeUnit:
        try:
            return self._units_by_key[key]
        except KeyError as exc:
            raise StructureError(f"trapezoidal map: no unit with key {key!r}") from exc

    def neighbors(self, key: Hashable) -> list[RangeUnit]:
        try:
            neighbor_keys = self._adjacency[key]
        except KeyError as exc:
            raise StructureError(f"trapezoidal map: no unit with key {key!r}") from exc
        return [self._units_by_key[neighbor] for neighbor in neighbor_keys]

    @classmethod
    def item_to_query(cls, item: Any) -> Any:
        """Updates locate a segment by its midpoint (items are segments, queries are points)."""
        if isinstance(item, Segment):
            mid_x = (item.x_min + item.x_max) / 2
            return (mid_x, item.y_at(mid_x))
        return item

    # ------------------------------------------------------------------ #
    # range reporting
    # ------------------------------------------------------------------ #
    @classmethod
    def range_to_query(cls, query_range: Range) -> Any:
        """Anchor a window query's descent at the window centre."""
        if isinstance(query_range, Window):
            return query_range.center
        return super().range_to_query(query_range)

    def report_units(self, query_range: Range) -> list[RangeUnit]:
        """The trapezoid nodes overlapping the window, swept left to right."""
        if not isinstance(query_range, Window):
            return super().report_units(query_range)
        matched = [
            trapezoid
            for trapezoid in self.map.trapezoids
            if query_range.intersects(trapezoid)
        ]
        matched.sort(key=lambda t: (t.x_left, t.bottom_y((t.x_left + t.x_right) / 2)))
        return [self._units_by_key[_node_key(trapezoid)] for trapezoid in matched]

    def report_values(self, query_range: Range, unit: RangeUnit) -> list[Any]:
        """The visited trapezoid, when its face overlaps the window."""
        if unit.is_node and isinstance(unit.range, Trapezoid):
            if query_range.intersects(unit.range):
                return [unit.range]
        return []

    def locate(self, query: Any) -> RangeUnit:
        """The trapezoid containing the query point."""
        point = (float(query[0]), float(query[1]))
        trapezoid = self.map.locate(point)
        return self._units_by_key[_node_key(trapezoid)]

    @classmethod
    def select(cls, query: Any, candidates: Sequence[RangeUnit]) -> RangeUnit:
        point = (float(query[0]), float(query[1]))
        containing = [unit for unit in candidates if unit.range.contains(point)]
        if containing:
            for unit in containing:
                if unit.is_node:
                    return unit
            return containing[0]
        return min(
            candidates,
            key=lambda unit: unit.range.distance_to_point(point)
            if hasattr(unit.range, "distance_to_point")
            else float("inf"),
        )

    @classmethod
    def advance(
        cls,
        query: Any,
        current: RangeUnit,
        neighbors: Iterable[tuple[Hashable, Range]],
    ) -> Hashable | None:
        point = (float(query[0]), float(query[1]))
        if current.is_node and current.range.contains(point):
            return None
        if current.is_link and current.range.contains(point):
            # Move onto whichever endpoint trapezoid contains the point.
            for key, rng in neighbors:
                if isinstance(rng, Trapezoid) and rng.contains(point):
                    return key
            return None
        # Walk towards the query through the adjacency structure.
        current_distance = (
            current.range.distance_to_point(point)
            if hasattr(current.range, "distance_to_point")
            else float("inf")
        )
        best_key: Hashable | None = None
        best_distance = current_distance
        for key, rng in neighbors:
            if rng.contains(point):
                return key
            if hasattr(rng, "distance_to_point"):
                distance = rng.distance_to_point(point)
                if distance < best_distance - 1e-12:
                    best_distance = distance
                    best_key = key
        return best_key

    def answer(self, query: Any, unit: RangeUnit) -> PlanarLocationAnswer:
        point = (float(query[0]), float(query[1]))
        if unit.is_node and isinstance(unit.range, Trapezoid):
            trapezoid = unit.range
        elif unit.is_link and isinstance(unit.range, TrapezoidPairRange):
            pair = unit.range
            trapezoid = pair.first if pair.first.contains(point) else pair.second
        else:  # pragma: no cover - defensive
            raise QueryError(f"cannot decode planar answer from unit {unit.key!r}")
        return PlanarLocationAnswer(
            query=point,
            trapezoid=trapezoid,
            above_segment=trapezoid.top,
            below_segment=trapezoid.bottom,
        )


class SkipTrapezoidWeb(SkipWebStructureAdapter):
    """A distributed skip-web for planar point location.

    ``n`` non-crossing segments are spread over the hosts of a simulated
    network; locating the trapezoid containing an arbitrary query point
    costs ``O(log n)`` expected messages (Theorem 2 via Lemma 5).
    Implements the :class:`repro.engine.protocol.DistributedStructure`
    protocol through the adapter mixin, so it runs under the batched
    round-based executor as well.
    """

    def _coerce_query(self, query: Any) -> tuple[float, float]:
        return (float(query[0]), float(query[1]))

    def _coerce_range(self, query_range: Any) -> Window:
        if isinstance(query_range, Window):
            return query_range
        x_low, x_high, y_low, y_high = query_range
        return Window(float(x_low), float(x_high), float(y_low), float(y_high))

    def __init__(
        self,
        segments: Sequence[Segment],
        box: tuple[float, float, float, float] | None = None,
        network: Network | None = None,
        host_count: int | None = None,
        blocking: str = "owner",
        seed: int = 0,
        margin: float = 1.0,
    ) -> None:
        segment_list = list(segments)
        if box is None:
            box = bounding_box(segment_list, margin=margin)
        self.box = box
        config = SkipWebConfig(
            host_count=host_count,
            blocking=blocking,
            seed=seed,
            structure_params={"box": box},
        )
        self.web = SkipWeb(
            TrapezoidalMapStructure, segment_list, network=network, config=config
        )

    # -- queries -------------------------------------------------------- #
    def locate(self, point: PlanarPoint, origin_host: HostId | None = None) -> QueryResult:
        """Planar point location: the trapezoid containing ``point``."""
        return self.web.query((float(point[0]), float(point[1])), origin_host=origin_host)

    def window_report(self, window: Any, origin_host: HostId | None = None):
        """Segment-stabbing window reporting: the faces overlapping ``window``.

        ``window`` is a :class:`Window` or an ``(x_low, x_high, y_low,
        y_high)`` tuple; the result's matches are the overlapping
        trapezoids (use :meth:`stabbed_segments` to reduce them to the
        distinct stabbed segments).  O(log n + k) expected messages.
        """
        return self.range_report(window, origin_host=origin_host)

    @staticmethod
    def stabbed_segments(trapezoids) -> list[Segment]:
        """The distinct segments bounding a set of reported trapezoids."""
        segments: list[Segment] = []
        seen: set[tuple] = set()
        for trapezoid in trapezoids:
            for segment in (trapezoid.top, trapezoid.bottom):
                if segment is None:
                    continue
                key = segment.endpoints()
                if key not in seen:
                    seen.add(key)
                    segments.append(segment)
        return segments

    # -- updates -------------------------------------------------------- #
    def insert(self, segment: Segment, origin_host: HostId | None = None) -> UpdateResult:
        return self.web.insert(segment, origin_host=origin_host)

    def delete(self, segment: Segment, origin_host: HostId | None = None) -> UpdateResult:
        return self.web.delete(segment, origin_host=origin_host)

    # -- accounting ------------------------------------------------------ #
    @property
    def network(self) -> Network:
        return self.web.network

    @property
    def segments(self) -> list[Segment]:
        return list(self.web.items)

    @property
    def host_count(self) -> int:
        return self.web.host_count

    @property
    def level0_map(self) -> TrapezoidalMap:
        structure: TrapezoidalMapStructure = self.web.level_structure(0, ())
        return structure.map

    def max_memory_per_host(self) -> int:
        return self.web.max_memory_per_host()

    def congestion(self) -> CongestionReport:
        return self.web.congestion()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SkipTrapezoidWeb(n={len(self.segments)}, hosts={self.host_count})"
