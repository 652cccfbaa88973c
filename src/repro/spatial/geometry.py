"""Points and axis-aligned hypercubes for quadtrees and octrees.

The quadtree/octree of §3.1 is defined over a bounding hypercube that is
recursively subdivided into ``2^d`` sub-cubes of half the side length.
:class:`HyperCube` implements exactly that cell geometry (dyadic cells of
the bounding cube), and doubles as the *range* of a quadtree node in the
skip-web sense: ``contains`` tests point membership and ``intersects``
tests cell overlap, which is what conflict lists are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Point = tuple[float, ...]
"""A point in ``R^d``, represented as a tuple of coordinates."""


def as_point(coordinates: Sequence[float]) -> Point:
    """Normalise a coordinate sequence to the canonical tuple representation."""
    return tuple(float(value) for value in coordinates)


def point_distance(first: Point, second: Point) -> float:
    """Euclidean distance between two points of the same dimension."""
    if len(first) != len(second):
        raise ValueError(
            f"dimension mismatch: {len(first)} vs {len(second)} coordinates"
        )
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(first, second)))


def _stays_in_cells(low: float, side: float, coordinate: float) -> bool:
    """Whether ``coordinate`` lies in every dyadic cell of ``[low, low + side]`` it is routed to.

    One axis of the arithmetic of :meth:`HyperCube.child_index` and
    :meth:`HyperCube.child`, followed until the halves drop below the
    resolution of ``low``.
    """
    while coordinate <= low + side:
        side /= 2
        if low + side == low:
            return True
        if coordinate >= low + side:
            low += side
    return False


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """An axis-aligned box given by its lower corner and side lengths."""

    lower: Point
    sides: tuple[float, ...]

    @staticmethod
    def around(points: Iterable[Point], padding: float = 0.0) -> "BoundingBox":
        """The smallest axis-aligned *cube* enclosing ``points``, optionally padded.

        A cube (equal side lengths) is returned because quadtree cells are
        cubes; using the tight box per-axis would break the dyadic
        subdivision.
        """
        point_list = [as_point(point) for point in points]
        if not point_list:
            raise ValueError("cannot bound an empty point set")
        dimension = len(point_list[0])
        lows = [min(point[axis] for point in point_list) for axis in range(dimension)]
        highs = [max(point[axis] for point in point_list) for axis in range(dimension)]
        side = max(high - low for low, high in zip(lows, highs))
        side = (side + 2 * padding) or 1.0
        lower = tuple(low - padding for low in lows)
        # ``low + side`` — and the same sum taken half by half down the
        # cell hierarchy — can round to just below the maximum coordinate,
        # leaving that point outside the cells it is routed to; widen by
        # single ulps, and only then, until it stays inside.
        while not all(_stays_in_cells(low, side, high) for low, high in zip(lower, highs)):
            side = math.nextafter(side, math.inf)
        return BoundingBox(lower=lower, sides=tuple(side for _ in range(dimension)))

    @property
    def dimension(self) -> int:
        return len(self.lower)

    def to_cube(self) -> "HyperCube":
        """The cube with this box's lower corner and its largest side."""
        return HyperCube(lower=self.lower, side=max(self.sides))


@dataclass(frozen=True, slots=True)
class Box:
    """A closed axis-aligned box with per-axis extents.

    The query range of an axis-aligned box-reporting query: unlike
    :class:`HyperCube` (whose sides are equal because it doubles as the
    dyadic quadtree cell), a box may be arbitrarily elongated.
    """

    lower: Point
    upper: Point

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise ValueError("box corners must have the same dimension")
        if any(low > high for low, high in zip(self.lower, self.upper)):
            raise ValueError(f"empty box: lower={self.lower} > upper={self.upper}")

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @property
    def center(self) -> Point:
        return tuple((low + high) / 2 for low, high in zip(self.lower, self.upper))

    def contains(self, point: Point) -> bool:
        """Closed membership test."""
        if len(point) != self.dimension:
            return False
        return all(
            low <= coordinate <= high
            for low, coordinate, high in zip(self.lower, point, self.upper)
        )

    def intersects(self, other) -> bool:
        """Closed-overlap test against a cube or another box."""
        if isinstance(other, HyperCube):
            return all(
                low <= other_low + other.side and other_low <= high
                for low, high, other_low in zip(self.lower, self.upper, other.lower)
            )
        if isinstance(other, Box):
            return all(
                low <= other_high and other_low <= high
                for low, high, other_low, other_high in zip(
                    self.lower, self.upper, other.lower, other.upper
                )
            )
        return other.intersects(self)

    @staticmethod
    def around_point(point: Point, radius: float) -> "Box":
        """The Chebyshev ball of the given radius around ``point``."""
        return Box(
            lower=tuple(coordinate - radius for coordinate in point),
            upper=tuple(coordinate + radius for coordinate in point),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Box(lower={self.lower}, upper={self.upper})"


@dataclass(frozen=True, slots=True)
class HyperCube:
    """An axis-aligned hypercube ``[lower, lower + side)^d``.

    Cells are half-open so that the ``2^d`` children of a cell partition
    it exactly and every point lies in exactly one child.  ``intersects``
    treats cubes as closed, which errs on the side of counting a conflict
    — the safe direction for building conflict lists.
    """

    lower: Point
    side: float

    def __post_init__(self) -> None:
        if self.side <= 0:
            raise ValueError(f"cube side must be positive, got {self.side}")

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @property
    def upper(self) -> Point:
        return tuple(low + self.side for low in self.lower)

    @property
    def center(self) -> Point:
        return tuple(low + self.side / 2 for low in self.lower)

    # ------------------------------------------------------------------ #
    # Range protocol
    # ------------------------------------------------------------------ #
    def contains(self, point: Point) -> bool:
        """Half-open membership test: ``lower <= point < lower + side``."""
        lower = self.lower
        if len(point) != len(lower):
            return False
        side = self.side
        for low, coordinate in zip(lower, point):
            if coordinate < low or coordinate >= low + side:
                return False
        return True

    def contains_closed(self, point: Point) -> bool:
        """Closed membership test (used at the bounding cube's far faces)."""
        lower = self.lower
        if len(point) != len(lower):
            return False
        side = self.side
        for low, coordinate in zip(lower, point):
            if coordinate < low or coordinate > low + side:
                return False
        return True

    def intersects(self, other) -> bool:
        """Closed-overlap test against another cube (or any range with cubes)."""
        if isinstance(other, HyperCube):
            self_side = self.side
            other_side = other.side
            for self_low, other_low in zip(self.lower, other.lower):
                if self_low > other_low + other_side or other_low > self_low + self_side:
                    return False
            return True
        return other.intersects(self)

    def contains_cube(self, other: "HyperCube") -> bool:
        """Whether ``other`` lies entirely inside this cube."""
        padded = self.side + 1e-12
        other_side = other.side
        for self_low, other_low in zip(self.lower, other.lower):
            if self_low > other_low or other_low + other_side > self_low + padded:
                return False
        return True

    # ------------------------------------------------------------------ #
    # quadtree subdivision
    # ------------------------------------------------------------------ #
    def child_index(self, point: Point) -> int:
        """Index (0 .. 2^d - 1) of the child cell containing ``point``."""
        index = 0
        half = self.side / 2
        for axis, (low, coordinate) in enumerate(zip(self.lower, point)):
            if coordinate >= low + half:
                index |= 1 << axis
        return index

    def child(self, index: int) -> "HyperCube":
        """The child cell with the given index."""
        half = self.side / 2
        lower = tuple(
            low + half if (index >> axis) & 1 else low
            for axis, low in enumerate(self.lower)
        )
        return HyperCube(lower=lower, side=half)

    def children(self) -> Iterator["HyperCube"]:
        """All ``2^d`` child cells."""
        for index in range(1 << self.dimension):
            yield self.child(index)

    def smallest_enclosing_cell(self, points: Sequence[Point]) -> "HyperCube":
        """The smallest dyadic descendant cell (or this cube) containing all points.

        Used by compressed quadtrees to skip chains of single-child cells:
        the compressed child of a cell is the smallest dyadic cell that
        still contains all the points of that subtree.
        """
        cell = self
        while True:
            child_indices = {cell.child_index(point) for point in points}
            if len(child_indices) != 1:
                return cell
            candidate = cell.child(child_indices.pop())
            if candidate.side <= 0 or not all(
                candidate.contains(point) for point in points
            ):
                return cell
            cell = candidate

    def distance_to_point(self, point: Point) -> float:
        """Euclidean distance from ``point`` to this cube (0 if inside)."""
        total = 0.0
        for low, coordinate in zip(self.lower, point):
            high = low + self.side
            if coordinate < low:
                total += (low - coordinate) ** 2
            elif coordinate > high:
                total += (coordinate - high) ** 2
        return math.sqrt(total)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HyperCube(lower={self.lower}, side={self.side})"
