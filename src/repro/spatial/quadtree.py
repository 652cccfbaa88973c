"""Compressed quadtrees and octrees (§3.1 of the paper).

A quadtree (2-d) or octree (d ≥ 3) is defined by a set of points and a
bounding hypercube: the root cell is the bounding cube, every cell with
more than one point is subdivided into ``2^d`` half-side child cells, and
chains of cells with only one non-empty child are *compressed* into
single edges, so the tree has ``O(n)`` nodes even though its depth can be
``Θ(n)`` in the worst case (a property the paper leans on: the skip-web
still answers point location in ``O(log n)`` messages).

The tree built here is the classic compressed quadtree:

* every *leaf* stores exactly one input point,
* every *internal* cell is the smallest dyadic cell that still contains
  all the points of its subtree and splits them between at least two
  children,
* the root is always the caller-supplied bounding cube so that the trees
  built for different skip-web levels share a common cell hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core.tree_structure import TreeChange
from repro.errors import StructureError
from repro.spatial.geometry import HyperCube, Point, as_point, point_distance


@dataclass
class QuadtreeCell:
    """One cell (node) of a compressed quadtree."""

    cube: HyperCube
    points: tuple[Point, ...]
    children: list["QuadtreeCell"] = field(default_factory=list)
    parent: "QuadtreeCell | None" = None
    # The node / link-to-parent RangeUnits this cell is indexed under;
    # owned by skip_quadtree.QuadtreeStructure (see TreeLinkStructure).
    nunit: "object | None" = field(default=None, repr=False, compare=False)
    lunit: "object | None" = field(default=None, repr=False, compare=False)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def point(self) -> Point | None:
        """The stored point when this cell is a leaf."""
        return self.points[0] if self.is_leaf and self.points else None

    @property
    def depth(self) -> int:
        """Number of ancestors (root has depth 0)."""
        depth = 0
        node = self
        while node.parent is not None:
            depth += 1
            node = node.parent
        return depth

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuadtreeCell(side={self.cube.side}, points={len(self.points)}, "
            f"children={len(self.children)})"
        )


def _without(points: tuple[Point, ...], position: int) -> tuple[Point, ...]:
    return points[:position] + points[position + 1 :]


def _halvable(cube: HyperCube) -> bool:
    """Whether floats can still split ``cube`` into its ``2^d`` children.

    Below that size a child's lower corner rounds back onto its parent's
    and the cells stop containing their points.
    """
    half = cube.side / 2
    return half > 0 and all(low + half != low for low in cube.lower)


def _separable(cube: HyperCube, p: Point, q: Point) -> bool:
    """Whether a dyadic cell under ``cube`` splits ``p`` from ``q`` before floats stop halving."""
    while _halvable(cube):
        index = cube.child_index(p)
        if index != cube.child_index(q):
            return True
        cube = cube.child(index)
    return False


def _inseparable(p: Point, q: Point, cube: HyperCube) -> StructureError:
    return StructureError(
        f"points {p} and {q} cannot be separated by any quadtree cell of {cube}: "
        "the cell that would split them is below float resolution"
    )


class CompressedQuadtree:
    """A compressed quadtree / octree over a finite point set.

    Parameters
    ----------
    points:
        The input points (duplicates are collapsed).
    bounding_cube:
        The root cell.  All points must lie inside it (the far faces are
        treated as closed so points on the boundary are accepted).

    Two points that no dyadic cell of the bounding cube splits before
    floats stop halving it cannot both be stored: construction and
    :meth:`insert_point` refuse them with a :class:`StructureError`
    naming both points, and an insert refuses before it changes anything.
    """

    def __init__(self, points: Sequence[Point], bounding_cube: HyperCube) -> None:
        normalized = []
        seen: set[Point] = set()
        for point in points:
            candidate = as_point(point)
            if candidate not in seen:
                seen.add(candidate)
                normalized.append(candidate)
        if not normalized:
            raise StructureError("quadtree requires at least one point")
        for point in normalized:
            if not bounding_cube.contains_closed(point):
                raise StructureError(
                    f"point {point} lies outside the bounding cube {bounding_cube}"
                )
        self.bounding_cube = bounding_cube
        self.dimension = bounding_cube.dimension
        self._points = tuple(normalized)
        self._point_set = seen
        # Stored points on (or within rounding of) a far, closed face of
        # the bounding cube: the only points a half-open cell on their
        # path can fail to contain, and so the only place compression
        # stops early (see remove_point).
        self._far_face = {point for point in normalized if self._on_far_face(point)}
        self.root = self._build(bounding_cube, list(normalized), is_root=True)
        self.root.parent = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(
        self, cube: HyperCube, points: list[Point], is_root: bool = False
    ) -> QuadtreeCell:
        if len(points) == 1:
            return QuadtreeCell(cube=cube, points=tuple(points))
        # Compress: shrink to the smallest dyadic cell that still splits
        # the points, except at the root whose cell is fixed.
        cell_cube = cube if is_root else cube.smallest_enclosing_cell(points)
        if is_root:
            # The root keeps the bounding cube, but if all points fall into
            # a single child we hang the compressed subtree directly below.
            split_cube = cube.smallest_enclosing_cell(points)
        else:
            split_cube = cell_cube
        if not _halvable(split_cube):
            # Every point here shares the descent down to a cell floats
            # cannot split: any two of them are inseparable.
            raise _inseparable(points[0], points[1], self.bounding_cube)
        cell = QuadtreeCell(cube=cell_cube, points=tuple(points))
        if is_root and split_cube != cell_cube:
            child = self._build(split_cube, points)
            child.parent = cell
            cell.children = [child]
            return cell
        groups: dict[int, list[Point]] = {}
        for point in points:
            groups.setdefault(self._child_index(split_cube, point), []).append(point)
        for index in sorted(groups):
            child_cube = split_cube.child(index)
            child = self._build(child_cube, groups[index])
            child.parent = cell
            cell.children.append(child)
        return cell

    def _on_far_face(self, point: Point) -> bool:
        """Whether ``point`` is close enough to a far face to land on a cell's closed edge.

        A cell's upper bound is summed half by half from the bounding
        cube's, so it can sit a few ulps below it; the slack is the same
        ``1e-12`` :meth:`HyperCube.contains_cube` pads with.
        """
        cube = self.bounding_cube
        reach = cube.side * (1 - 1e-12)
        return any(value >= low + reach for low, value in zip(cube.lower, point))

    @staticmethod
    def _child_index(cube: HyperCube, point: Point) -> int:
        index = cube.child_index(point)
        # Points on the far (closed) faces of the bounding cube would index
        # a child outside the cube; clamp them into the last child.
        child = cube.child(index)
        if not child.contains_closed(point):  # pragma: no cover - defensive
            raise StructureError(f"point {point} escaped its child cell")
        return index

    # ------------------------------------------------------------------ #
    # incremental insertion (canonical: identical to a full rebuild)
    # ------------------------------------------------------------------ #
    def insert_point(self, point: Point) -> TreeChange:
        """Add one point in place, producing exactly the rebuilt tree.

        Compressed quadtrees are canonical in their point set (given the
        fixed bounding cube), so only the O(depth) path around the
        insertion position needs touching: ancestors absorb the point
        into their ``points`` tuples, and at the cell where compression
        changes, the old subtree is re-hung unmodified under a new split
        cell.  Anywhere the local reasoning cannot apply (degenerate
        far-face compression), the affected subtree is rebuilt through
        :meth:`_build`, which is canonical by definition.
        """
        p = as_point(point)
        self.check_insert(p)
        self._points = self._points + (p,)
        self._point_set.add(p)
        root = self.root
        if self._on_far_face(p):
            # Half-open cells may fail to contain it: no local reasoning.
            self._far_face.add(p)
            return self._rebuild_all()
        if root.is_leaf:
            # n was 1: the root is the leaf; rebuild the two-point tree.
            return self._rebuild_all()
        change = TreeChange()
        root.points = root.points + (p,)
        if len(root.children) == 1:
            # Compressed root: the single child carries the real split cell.
            # A point strictly inside the old split cell cannot move it
            # (the enclosing-cell walk is unchanged), so the full
            # recomputation only runs when the point falls outside.
            child = root.children[0]
            old_split = child.cube
            new_split = (
                old_split
                if old_split.contains(p)
                else self.bounding_cube.smallest_enclosing_cell(list(root.points))
            )
            if new_split == old_split:
                self._insert_into(child, child.cube, p, change)
            elif new_split == self.bounding_cube:
                # The split cell grew all the way up: the root now splits.
                root.children = []
                self._attach(root, self.bounding_cube, child, p, list(root.points), change)
            else:
                carrier = QuadtreeCell(cube=new_split, points=tuple(root.points))
                carrier.parent = root
                root.children = [carrier]
                self._attach(carrier, new_split, child, p, list(root.points), change)
            return change
        self._insert_into_children(root, self.bounding_cube, p, change)
        return change

    def check_insert(self, point: Point) -> None:
        """Raise :class:`StructureError` if ``point`` cannot be inserted; change nothing.

        Refused: a stored point, a point outside the bounding cube, and a
        point no cell separates from a stored one.  Only the stored point
        whose leaf the new point's descent reaches can be that one: two
        inseparable points take the same child at every cell floats can
        split, which every cell of the tree is.
        """
        p = as_point(point)
        if p in self._point_set:
            raise StructureError(f"point {p} already stored")
        cube = self.bounding_cube
        if not cube.contains_closed(p):
            raise StructureError(f"point {p} lies outside the bounding cube {cube}")
        cell = self.root
        while cell.children:
            index = cell.cube.child_index(p)
            for child in cell.children:
                if cell.cube.child_index(child.points[0]) == index:
                    cell = child
                    break
            else:
                return
        if not _separable(cube, p, cell.points[0]):
            raise _inseparable(p, cell.points[0], cube)

    def _rebuild_all(self) -> TreeChange:
        """Replace the whole tree by the canonical build over ``self._points``."""
        old_root = self.root
        self.root = self._build(self.bounding_cube, list(self._points), is_root=True)
        self.root.parent = None
        return TreeChange(changed=list(self.cells()), detached=[old_root])

    def _insert_into(
        self, cell: QuadtreeCell, slot_cube: HyperCube, p: Point, change: TreeChange
    ) -> None:
        """Insert ``p`` into the subtree that ``_build(slot_cube, ...)`` made."""
        if cell.is_leaf:
            # The leaf keeps its slot cube; splitting it forms the smallest
            # cell separating the old point from the new one.
            merged = list(cell.points) + [p]
            new_cube = slot_cube.smallest_enclosing_cell(merged)
            old_point = cell.points[0]
            i_old = self._child_index(new_cube, old_point)
            i_new = self._child_index(new_cube, p)
            if i_old == i_new:
                self._replace_subtree(cell, self._build(slot_cube, merged), change)
                return
            cell.cube = new_cube
            cell.points = tuple(merged)
            first = QuadtreeCell(cube=new_cube.child(i_old), points=(old_point,), parent=cell)
            second = QuadtreeCell(cube=new_cube.child(i_new), points=(p,), parent=cell)
            cell.children = [first, second] if i_old < i_new else [second, first]
            change.changed.append(cell)
            return
        # A point strictly inside the cell's (shrunk) cube leaves the
        # enclosing-cell walk unchanged, so the cube survives as is; only
        # an outside point forces the O(points) recomputation.
        new_cube = (
            cell.cube
            if cell.cube.contains(p)
            else slot_cube.smallest_enclosing_cell(list(cell.points) + [p])
        )
        if new_cube == cell.cube:
            cell.points = cell.points + (p,)
            self._insert_into_children(cell, cell.cube, p, change)
            return
        # Compression boundary moved: hang the untouched old subtree and a
        # fresh leaf under a new split cell in the old slot.
        carrier = QuadtreeCell(cube=new_cube, points=cell.points + (p,), parent=cell.parent)
        parent = cell.parent
        parent.children[parent.children.index(cell)] = carrier
        self._attach(carrier, new_cube, cell, p, list(carrier.points), change)

    def _insert_into_children(
        self, cell: QuadtreeCell, split_cube: HyperCube, p: Point, change: TreeChange
    ) -> None:
        """Route ``p`` to (or create) the child slot of an uncompressed cell."""
        index = self._child_index(split_cube, p)
        for child in cell.children:
            if self._child_index(split_cube, child.points[0]) == index:
                self._insert_into(child, split_cube.child(index), p, change)
                return
        leaf = QuadtreeCell(cube=split_cube.child(index), points=(p,), parent=cell)
        position = len(cell.children)
        for slot, child in enumerate(cell.children):
            if self._child_index(split_cube, child.points[0]) > index:
                position = slot
                break
        cell.children.insert(position, leaf)
        change.changed.append(leaf)

    def _attach(
        self,
        carrier: QuadtreeCell,
        split_cube: HyperCube,
        old_cell: QuadtreeCell,
        p: Point,
        all_points: list[Point],
        change: TreeChange,
    ) -> None:
        """Give ``carrier`` the old subtree plus a leaf for ``p`` as children."""
        i_old = self._child_index(split_cube, old_cell.points[0])
        i_new = self._child_index(split_cube, p)
        if i_old == i_new:
            # Degenerate compression stop (far-face guard): delegate to the
            # canonical builder for the whole carrier slot.
            rebuilt = self._build(split_cube, all_points)
            carrier.cube = rebuilt.cube
            carrier.points = rebuilt.points
            carrier.children = rebuilt.children
            for child in carrier.children:
                child.parent = carrier
            change.detached.append(old_cell)
            change.changed.extend(self.cells(carrier))
            return
        leaf = QuadtreeCell(cube=split_cube.child(i_new), points=(p,), parent=carrier)
        old_cell.parent = carrier
        carrier.children = [old_cell, leaf] if i_old < i_new else [leaf, old_cell]
        change.changed.append(carrier)

    def _replace_subtree(self, old: QuadtreeCell, new: QuadtreeCell, change: TreeChange) -> None:
        """Swap the subtree at ``old`` for the freshly built ``new`` (same position)."""
        parent = old.parent
        if parent is None:  # pragma: no cover - the root is never replaced here
            raise StructureError("cannot replace the root cell")
        new.parent = parent
        parent.children[parent.children.index(old)] = new
        change.detached.append(old)
        change.changed.extend(self.cells(new))

    # ------------------------------------------------------------------ #
    # incremental removal (canonical: identical to a full rebuild)
    # ------------------------------------------------------------------ #
    def remove_point(self, point: Point) -> TreeChange:
        """Remove one point in place, producing exactly the rebuilt tree.

        The mirror of :meth:`insert_point`: ancestors drop the point from
        their ``points`` tuples, the point's leaf goes, and a parent left
        with a single child un-splits — into a leaf filling its slot when
        one point remains, or by handing its place to the surviving child
        subtree, whose own (already compressed) cell is exactly the cell
        a rebuild would shrink to.  No ancestor's cell moves, because each
        keeps at least two occupied child slots.  That reasoning needs
        half-open cells to contain their points, so where a far-face point
        of the bounding cube is involved the tree is rebuilt through
        :meth:`_build` instead.
        """
        p = as_point(point)
        if p not in self._point_set:
            raise StructureError(f"point {p} is not stored")
        if len(self._points) == 1:
            raise StructureError("cannot remove the last point of a quadtree")
        self._points = _without(self._points, self._points.index(p))
        self._point_set.remove(p)
        if p in self._far_face:
            # A far-face point can be what stopped an ancestor's compression.
            self._far_face.remove(p)
            return self._rebuild_all()

        change = TreeChange()
        parent = self.root
        while True:
            position = parent.points.index(p)
            parent.points = _without(parent.points, position)
            leaf = next(child for child in parent.children if child.cube.contains(p))
            if leaf.is_leaf:
                break
            if position == 0:
                change.changed.append(parent)  # its representative point moved on
            parent = leaf
        siblings = [child for child in parent.children if child is not leaf]
        if len(siblings) >= 2:
            parent.children = siblings
            change.detached.append(leaf)
            change.changed.append(parent)
            return change

        # ``parent`` un-splits around its one remaining child.
        if any(parent.cube.contains_closed(far) for far in self._far_face):
            return self._rebuild_all()
        survivor = siblings[0]
        root = self.root
        above = parent.parent
        # The split cell of a compressed root has no slot of its own: what
        # is left of it folds into, or hangs directly off, the root.
        at_root = above is None or (above is root and len(root.children) == 1)
        if survivor.is_leaf and at_root:
            change.detached.extend(root.children)
            root.children = []
            change.changed.append(root)
        elif survivor.is_leaf:
            change.detached.extend(parent.children)
            parent.children = []
            parent.cube = above.cube.child(self._child_index(above.cube, survivor.points[0]))
            change.changed.append(parent)
        elif above is None:
            root.children = [survivor]
            change.detached.append(leaf)
            change.changed.append(root)
        else:
            above.children[above.children.index(parent)] = survivor
            survivor.parent = above
            parent.children = [leaf]
            change.detached.append(parent)
            change.changed.append(survivor)
        return change

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    @property
    def points(self) -> tuple[Point, ...]:
        return self._points

    def cells(self, start: QuadtreeCell | None = None) -> Iterator[QuadtreeCell]:
        """Pre-order iteration over all cells (of the subtree at ``start``, if given)."""
        stack = [self.root if start is None else start]
        while stack:
            cell = stack.pop()
            yield cell
            stack.extend(reversed(cell.children))

    def cell_count(self) -> int:
        return sum(1 for _ in self.cells())

    def depth(self) -> int:
        """Maximum depth of any cell."""
        best = 0
        stack = [(self.root, 0)]
        while stack:
            cell, depth = stack.pop()
            best = max(best, depth)
            stack.extend((child, depth + 1) for child in cell.children)
        return best

    def locate(self, point: Point) -> QuadtreeCell:
        """The smallest cell whose cube contains ``point``.

        Points outside the bounding cube locate to the root (the caller
        can detect this by checking containment).
        """
        point = as_point(point)
        current = self.root
        if not current.cube.contains_closed(point):
            return current
        while True:
            advanced = False
            for child in current.children:
                if child.cube.contains_closed(point):
                    current = child
                    advanced = True
                    break
            if not advanced:
                return current

    def cells_intersecting(self, cube: HyperCube) -> list[QuadtreeCell]:
        """Every cell whose cube intersects ``cube`` (pruned tree walk)."""
        result: list[QuadtreeCell] = []
        stack = [self.root]
        while stack:
            cell = stack.pop()
            if not cell.cube.intersects(cube):
                continue
            result.append(cell)
            stack.extend(cell.children)
        return result

    def points_in_cube(self, cube: HyperCube) -> list[Point]:
        """All stored points inside ``cube`` (closed), via a pruned walk."""
        result: list[Point] = []
        stack = [self.root]
        while stack:
            cell = stack.pop()
            if not cell.cube.intersects(cube):
                continue
            if cell.is_leaf:
                if cell.point is not None and cube.contains_closed(cell.point):
                    result.append(cell.point)
                continue
            stack.extend(cell.children)
        return result

    def nearest_point(self, query: Point) -> Point:
        """Exact nearest neighbour by pruned best-first search (reference)."""
        query = as_point(query)
        best: Point | None = None
        best_distance = float("inf")
        stack = [self.root]
        while stack:
            cell = stack.pop()
            if cell.cube.distance_to_point(query) > best_distance:
                continue
            if cell.is_leaf:
                distance = point_distance(cell.point, query)
                if distance < best_distance:
                    best, best_distance = cell.point, distance
                continue
            stack.extend(
                sorted(
                    cell.children,
                    key=lambda child: child.cube.distance_to_point(query),
                    reverse=True,
                )
            )
        if best is None:  # pragma: no cover - ground set is never empty
            raise StructureError("nearest_point on an empty quadtree")
        return best

    def validate(self) -> None:
        """Check compressed-quadtree invariants (used by tests)."""
        for cell in self.cells():
            if cell.is_leaf:
                if len(cell.points) != 1:
                    raise StructureError("leaf cell must store exactly one point")
                if not cell.cube.contains_closed(cell.points[0]):
                    raise StructureError("leaf point escaped its cell")
                continue
            if len(cell.children) == 1 and cell.parent is not None:
                raise StructureError("non-root cell with a single child is not compressed")
            child_points = sorted(
                point for child in cell.children for point in child.points
            )
            if child_points != sorted(cell.points):
                raise StructureError("children do not partition the cell's points")
            for child in cell.children:
                if not cell.cube.contains_cube(child.cube):
                    raise StructureError("child cell escapes its parent")
