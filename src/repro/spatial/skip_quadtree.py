"""Skip-webs over compressed quadtrees and octrees (§3.1, Lemma 3).

:class:`QuadtreeStructure` adapts :class:`~repro.spatial.quadtree.CompressedQuadtree`
to the range-determined link structure interface: node ranges are the
cells' hypercubes and link ranges are the child cells' hypercubes, as
prescribed by the paper.  Lemma 3 (the set-halving lemma for quadtrees)
is verified empirically by ``benchmarks/bench_fig3_quadtree_halving.py``.

:class:`SkipQuadtreeWeb` is the distributed structure: point location in
the subdivision defined by the quadtree cells using ``O(log n)`` expected
messages even when the underlying tree has depth ``O(n)`` — the
distributed analogue of the skip quadtree of Eppstein, Goodrich and Sun
that the paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.core.link_structure import OverlapView, RangeUnit, StructureDelta, UnitKind
from repro.core.query import QueryResult
from repro.core.ranges import Range
from repro.core.skipweb import SkipWeb, SkipWebConfig
from repro.core.tree_structure import TreeLinkStructure
from repro.errors import QueryError, StructureError
from repro.net.naming import HostId
from repro.net.network import Network
from repro.core.ranges import ranges_conflict
from repro.spatial.geometry import (
    BoundingBox,
    Box,
    HyperCube,
    Point,
    as_point,
    point_distance,
)
from repro.spatial.quadtree import CompressedQuadtree, QuadtreeCell


@dataclass(frozen=True)
class PointLocationAnswer:
    """Answer to a point-location query in the quadtree subdivision."""

    query: Point
    cell: HyperCube
    cell_points: tuple[Point, ...]
    nearest_in_cell: Point | None

    @property
    def exact(self) -> bool:
        """Whether the query coincides with a stored point of the located cell."""
        return self.query in self.cell_points


def _cube_key(cube: HyperCube) -> tuple:
    return (cube.lower, cube.side)


def _node_key(cube: HyperCube) -> Hashable:
    return ("qnode", _cube_key(cube))


def _link_key(child_cube: HyperCube) -> Hashable:
    return ("qlink", _cube_key(child_cube))


class QuadtreeStructure(TreeLinkStructure):
    """A compressed quadtree viewed as a range-determined link structure.

    Construction parameters (shared by every level of a skip-web):

    ``bounding_cube``
        The root cell.  Must be supplied (directly or via ``points`` and
        :meth:`BoundingBox.around`) so that every level's tree uses the
        same cell hierarchy.
    """

    name = "compressed-quadtree"

    def __init__(self, points: Sequence[Point], bounding_cube: HyperCube) -> None:
        self._bounding_cube = bounding_cube
        self.tree = CompressedQuadtree(points, bounding_cube)
        super().__init__()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, items: Sequence[Any], **params: Any) -> "QuadtreeStructure":
        bounding_cube = params.get("bounding_cube")
        if bounding_cube is None:
            raise StructureError(
                "QuadtreeStructure.build requires a 'bounding_cube' parameter"
            )
        return cls([as_point(item) for item in items], bounding_cube)

    def build_params(self) -> dict[str, Any]:
        return {"bounding_cube": self._bounding_cube}

    def with_item(self, item: Any) -> StructureDelta:
        """``D(S ∪ {x})`` via an in-place canonical tree insert.

        Compressed quadtrees are canonical in their point set (the
        bounding cube is fixed across skip-web levels), so
        :meth:`repro.spatial.quadtree.CompressedQuadtree.insert_point`
        yields exactly the tree a rebuild over the enlarged set would,
        and only the units of the cells it touched are derived again.
        """
        return self._resync(self.tree.insert_point(as_point(item)))

    def check_insert(self, item: Any) -> None:
        self.tree.check_insert(as_point(item))

    def without_item(self, item: Any) -> StructureDelta:
        """``D(S \\ {x})`` via an in-place canonical tree removal."""
        point = as_point(item)
        if self.tree.points == (point,):
            return self._emptied()
        return self._resync(self.tree.remove_point(point))

    # ------------------------------------------------------------------ #
    # TreeLinkStructure contract
    # ------------------------------------------------------------------ #
    def _preorder(self) -> Iterable[QuadtreeCell]:
        return self.tree.cells()

    @staticmethod
    def _children(cell: QuadtreeCell) -> list[QuadtreeCell]:
        return cell.children

    # Payloads name a representative stored point, used by owner blocking
    # to place the record on the host that owns one of the cell's points
    # (the analogue of a skip graph tower's home host).
    def _node_unit(self, cell: QuadtreeCell) -> RangeUnit:
        cube = cell.cube
        return RangeUnit(
            key=_node_key(cube), kind=UnitKind.NODE, range=cube, payload=cell.points[0]
        )

    def _link_unit(self, cell: QuadtreeCell) -> RangeUnit:
        cube = cell.cube
        return RangeUnit(
            key=_link_key(cube),
            kind=UnitKind.LINK,
            range=cube,
            payload=(cell.points[0], cell.parent.points[0]),
        )

    # ------------------------------------------------------------------ #
    # RangeDeterminedLinkStructure interface
    # ------------------------------------------------------------------ #
    @property
    def items(self) -> Sequence[Point]:
        return list(self.tree.points)

    def overlapping(self, query_range: Range) -> list[RangeUnit]:
        """Units whose cell intersects ``query_range`` — a pruned tree walk.

        Because quadtree cells are dyadic, intersection means containment
        one way or the other, so this set always includes the whole
        ancestor chain of the query cube.
        """
        cube = query_range if isinstance(query_range, HyperCube) else None
        if cube is None:
            return super().overlapping(query_range)
        result: list[RangeUnit] = []
        for cell in self.tree.cells_intersecting(cube):
            result.append(cell.nunit)
            if cell.parent is not None:
                result.append(cell.lunit)
        return result

    def overlap_keys(self, query_ranges: Sequence[Range]) -> OverlapView:
        """:meth:`overlapping`'s keys for cubes (every unit's range), tested per key.

        Each overlap set is a whole ancestor chain plus whole subtrees, so
        it is never built: membership of a cell is decided by the same
        pruned walk, replayed up the cell's root path.
        """
        return _CellOverlapView(self, list(dict.fromkeys(query_ranges)))

    def hyperlink_holders(
        self, target: HyperCube, names: Callable[[Hashable], bool]
    ) -> list[Hashable]:
        """Cells whose stored hyperlinks name the parent-level cell whose cube is ``target``.

        A cell's hyperlinks name the smallest parent-level cell enclosing
        it, so the walk starts below the smallest cell enclosing
        ``target``, enters only cells ``target`` encloses, and prunes
        every subtree whose root names another cell: everything below it
        is enclosed by that cell too.
        """
        holders: list[Hashable] = []
        enclosing = self._enclosing_cell(target)
        stack = [enclosing] if target.contains_cube(enclosing.cube) else list(enclosing.children)
        while stack:
            cell = stack.pop()
            if not target.contains_cube(cell.cube):
                continue
            key = cell.nunit.key
            if not names(key):
                continue
            holders.append(key)
            if cell.parent is not None:
                holders.append(cell.lunit.key)
            stack.extend(cell.children)
        return holders

    def conflicts(self, query_range: Range) -> list[RangeUnit]:
        """Search-relevant conflicts: the smallest cell enclosing the query cube.

        The literal overlap set of a dyadic cube contains its entire
        ancestor chain (depth can be Θ(n)), which is neither needed for
        routing nor compatible with the O(1)-per-level analysis.  A
        query descending from a sparser level only needs a pointer to the
        cell of this (denser) structure where its search would *start*:
        the smallest cell enclosing the sparser cell, exactly as in the
        skip quadtree of Eppstein, Goodrich and Sun.  ``advance`` then
        walks the expected O(1) remaining cells (Lemma 3).
        """
        cube = query_range if isinstance(query_range, HyperCube) else None
        if cube is None:
            return super().conflicts(query_range)
        cell = self._enclosing_cell(cube)
        if cell.parent is None:
            return [cell.nunit]
        return [cell.nunit, cell.lunit]

    def _enclosing_cell(self, cube: HyperCube) -> QuadtreeCell:
        """The smallest cell of this tree enclosing ``cube`` (the root if none is smaller)."""
        # The descent test is HyperCube.contains_cube, inlined: this is
        # the hottest loop of the update path (every rewire recomputes
        # its hyperlinks) and the call overhead dominates the arithmetic.
        lower = cube.lower
        side = cube.side
        current = self.tree.root
        descending = True
        while descending:
            descending = False
            for child in current.children:
                child_cube = child.cube
                child_lower = child_cube.lower
                padded = child_cube.side + 1e-12
                contained = True
                for child_low, low in zip(child_lower, lower):
                    if child_low > low or low + side > child_low + padded:
                        contained = False
                        break
                if contained:
                    current = child
                    descending = True
                    break
        return current

    # ------------------------------------------------------------------ #
    # range reporting
    # ------------------------------------------------------------------ #
    @classmethod
    def range_to_query(cls, query_range: Range) -> Any:
        """Anchor a box query's descent at the box centre.

        The centre must lie inside the bounding cube (box queries are
        windows over the stored data, so benchmark and application
        queries satisfy this by construction).
        """
        if isinstance(query_range, (Box, HyperCube)):
            return query_range.center
        return super().range_to_query(query_range)

    def report_units(self, query_range: Range) -> list[RangeUnit]:
        """Leaf cells holding a matched point, in depth-first tree order.

        A pruned walk: subtrees whose cell misses the query range are
        never entered, so the enumeration is output-sensitive local work.
        """
        result: list[RangeUnit] = []
        stack = [self.tree.root]
        while stack:
            cell = stack.pop()
            if not ranges_conflict(query_range, cell.cube):
                continue
            if cell.is_leaf:
                if any(query_range.contains(point) for point in cell.points):
                    result.append(cell.nunit)
            else:
                stack.extend(reversed(cell.children))
        return result

    def report_values(self, query_range: Range, unit: RangeUnit) -> list[Any]:
        """The stored points of the visited cell that lie in the range."""
        cell = self._node_by_key.get(unit.key)
        if cell is None:
            return []
        return [point for point in cell.points if query_range.contains(point)]

    def locate(self, query: Any) -> RangeUnit:
        """The smallest quadtree cell containing the query point."""
        return self.tree.locate(as_point(query)).nunit

    @classmethod
    def select(cls, query: Any, candidates: Sequence[RangeUnit]) -> RangeUnit:
        point = as_point(query)
        containing = [
            unit
            for unit in candidates
            if isinstance(unit.range, HyperCube) and unit.range.contains_closed(point)
        ]
        if containing:
            # The smallest containing cell is the best entry point.
            return min(containing, key=lambda unit: unit.range.side)
        return min(
            candidates,
            key=lambda unit: unit.range.distance_to_point(point)
            if isinstance(unit.range, HyperCube)
            else float("inf"),
        )

    @classmethod
    def advance(
        cls,
        query: Any,
        current: RangeUnit,
        neighbors: Iterable[tuple[Hashable, Range]],
    ) -> Hashable | None:
        point = as_point(query)
        current_cube = current.range
        if not isinstance(current_cube, HyperCube):  # pragma: no cover - defensive
            return None
        if current_cube.contains_closed(point):
            # Descend: a node moves onto a strictly smaller containing child
            # link; a link moves onto its child node (same cube, finer unit).
            best_key = None
            best_side = current_cube.side if current.is_node else current_cube.side + 1
            same_cube = None
            for key, rng in neighbors:
                if not isinstance(rng, HyperCube) or not rng.contains_closed(point):
                    continue
                if same_cube is None and rng.side == current_cube.side:
                    same_cube = key
                descend = rng.side < current_cube.side or (
                    current.is_link and rng.side == current_cube.side and key != current.key
                )
                if descend and rng.side < best_side:
                    best_key = key
                    best_side = rng.side
            if current.is_link and best_key is None:
                # Move from the link onto its endpoint node of equal cube.
                return same_cube
            return best_key
        # The current cell does not contain the query: climb towards the root.
        best_key = None
        best_side = current_cube.side
        for key, rng in neighbors:
            if isinstance(rng, HyperCube) and rng.side > best_side:
                best_key = key
                best_side = rng.side
        return best_key

    def answer(self, query: Any, unit: RangeUnit) -> PointLocationAnswer:
        point = as_point(query)
        cell = self._node_by_key.get(unit.key)
        if cell is None:
            raise QueryError(f"cannot decode answer for unit {unit.key!r}")
        nearest = None
        if cell.points:
            nearest = min(cell.points, key=lambda stored: point_distance(stored, point))
        return PointLocationAnswer(
            query=point,
            cell=cell.cube,
            cell_points=tuple(cell.points),
            nearest_in_cell=nearest,
        )


class _CellOverlapView(OverlapView):
    """The unit keys :meth:`QuadtreeStructure.overlapping` returns for some cubes.

    ``cells_intersecting`` reaches a cell exactly when the cell and every
    ancestor intersect the cube (rounding can make a cell touch a cube
    its parent misses), so membership climbs the root path, memoised per
    cube: the candidates of one update share ancestors.
    """

    def __init__(self, structure: QuadtreeStructure, cubes: list[HyperCube]) -> None:
        super().__init__(structure, cubes)
        self._walks = [(cube, {}) for cube in cubes]

    def __contains__(self, key: object) -> bool:
        cell = self._structure._node_by_key.get(key)
        if cell is None:
            return False
        return any(self._reached(cell, cube, memo) for cube, memo in self._walks)

    @staticmethod
    def _reached(cell: QuadtreeCell, cube: HyperCube, memo: dict[int, bool]) -> bool:
        path: list[QuadtreeCell] = []
        reached = True
        node: QuadtreeCell | None = cell
        while node is not None:
            known = memo.get(id(node))
            if known is not None:
                reached = known
                break
            if not node.cube.intersects(cube):
                memo[id(node)] = reached = False
                break
            path.append(node)
            node = node.parent
        for node in path:
            memo[id(node)] = reached
        return reached


def descent_conflicts(
    full_tree: CompressedQuadtree, half_tree: CompressedQuadtree, query: Point
) -> int:
    """The search-relevant conflict count behind Lemma 3.

    Lemma 3 is what makes the per-level work of a quadtree skip-web O(1):
    once a query has been located in the half structure ``D(T)``, the
    number of *additional* cells of the full structure ``D(S)`` the
    search must descend through — the cells of ``D(S)`` that contain the
    query and are contained in the cell of ``D(T)`` where the search
    stopped — has constant expectation.  (The raw count of all dyadic
    cells of ``D(S)`` intersecting that cell also includes the ancestor
    chain above it, which grows with the tree depth; the descent count is
    the quantity the search actually pays for, and is what the Figure 3
    benchmark reports.)
    """
    point = as_point(query)
    half_cell = half_tree.locate(point).cube
    count = 0
    current = full_tree.root
    while True:
        if half_cell.contains_cube(current.cube):
            count += 1
        advanced = False
        for child in current.children:
            if child.cube.contains_closed(point):
                current = child
                advanced = True
                break
        if not advanced:
            return max(count, 1)


class SkipQuadtreeWeb(SkipWeb):
    """A distributed skip-web over a compressed quadtree / octree.

    Provides point location (and, through :mod:`repro.spatial.nearest`,
    approximate nearest-neighbour and range queries) over ``n`` points
    spread across ``n`` hosts with ``O(log n)`` expected messages.
    """

    def _coerce_query(self, query: Any) -> Point:
        return as_point(query)

    def _coerce_item(self, item: Any) -> Point:
        return as_point(item)

    def _coerce_range(self, query_range: Any) -> Any:
        if isinstance(query_range, (Box, HyperCube)):
            return query_range
        lower, upper = query_range
        return Box(lower=as_point(lower), upper=as_point(upper))

    def __init__(
        self,
        points: Sequence[Point],
        bounding_cube: HyperCube | None = None,
        network: Network | None = None,
        host_count: int | None = None,
        blocking: str = "owner",
        seed: int = 0,
        padding: float = 0.0,
    ) -> None:
        normalized = [as_point(point) for point in points]
        if bounding_cube is None:
            bounding_cube = BoundingBox.around(normalized, padding=padding).to_cube()
        self.bounding_cube = bounding_cube
        config = SkipWebConfig(
            host_count=host_count,
            blocking=blocking,
            seed=seed,
            structure_params={"bounding_cube": bounding_cube},
        )
        super().__init__(QuadtreeStructure, normalized, network=network, config=config)

    def locate(self, point: Point, origin_host: HostId | None = None) -> QueryResult:
        """Point location: the smallest quadtree cell containing ``point``."""
        return self.query(point, origin_host=origin_host)

    @property
    def points(self) -> list[Point]:
        return self.items

    @property
    def level0_tree(self) -> CompressedQuadtree:
        """The full (level-0) quadtree, used by the local query helpers."""
        structure: QuadtreeStructure = self.level_structure(0, ())
        return structure.tree

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SkipQuadtreeWeb(n={self.ground_set_size}, d={self.bounding_cube.dimension}, "
            f"hosts={self.host_count})"
        )
