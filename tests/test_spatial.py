"""Tests for geometry, compressed quadtrees/octrees and quadtree skip-webs."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StructureError
from repro.spatial.geometry import BoundingBox, HyperCube, point_distance
from repro.spatial.nearest import approximate_nearest_neighbor, approximate_range_query
from repro.spatial.quadtree import CompressedQuadtree
from repro.spatial.skip_quadtree import (
    QuadtreeStructure,
    SkipQuadtreeWeb,
    descent_conflicts,
)
from repro.workloads import clustered_points, degenerate_line_points, uniform_points

UNIT_CUBE = HyperCube((0.0, 0.0), 1.0)


class TestGeometry:
    def test_cube_contains_half_open(self):
        cube = HyperCube((0.0, 0.0), 1.0)
        assert cube.contains((0.0, 0.5))
        assert not cube.contains((1.0, 0.5))
        assert cube.contains_closed((1.0, 1.0))

    def test_cube_children_partition(self):
        cube = HyperCube((0.0, 0.0), 1.0)
        children = list(cube.children())
        assert len(children) == 4
        for point in [(0.1, 0.1), (0.9, 0.1), (0.1, 0.9), (0.9, 0.9)]:
            assert sum(child.contains(point) for child in children) == 1

    def test_child_index_round_trip(self):
        cube = HyperCube((0.0, 0.0, 0.0), 2.0)
        for point in [(0.5, 0.5, 0.5), (1.5, 0.5, 1.5), (1.9, 1.9, 1.9)]:
            index = cube.child_index(point)
            assert cube.child(index).contains(point)

    def test_intersects_and_contains_cube(self):
        big = HyperCube((0.0, 0.0), 1.0)
        small = HyperCube((0.25, 0.25), 0.25)
        separate = HyperCube((2.0, 2.0), 0.5)
        assert big.intersects(small) and small.intersects(big)
        assert big.contains_cube(small) and not small.contains_cube(big)
        assert not big.intersects(separate)

    def test_distance_to_point(self):
        cube = HyperCube((0.0, 0.0), 1.0)
        assert cube.distance_to_point((0.5, 0.5)) == 0.0
        assert cube.distance_to_point((2.0, 0.5)) == pytest.approx(1.0)

    def test_bounding_box_around(self):
        box = BoundingBox.around([(0.0, 0.0), (2.0, 1.0)], padding=0.5)
        cube = box.to_cube()
        assert cube.contains_closed((0.0, 0.0)) and cube.contains_closed((2.0, 1.0))

    def test_cube_positive_side(self):
        with pytest.raises(ValueError):
            HyperCube((0.0, 0.0), 0.0)

    def test_point_distance_dimension_mismatch(self):
        with pytest.raises(ValueError):
            point_distance((0.0, 0.0), (0.0, 0.0, 0.0))


class TestDefaultBoundingCube:
    """``BoundingBox.around(points).to_cube()`` must hold its own maximum point.

    ``low + (high - low)``, and the same sum taken half by half down the
    cell hierarchy, can round to one ulp below ``high``; the cube widens
    by single ulps exactly when that would push the point out of a cell.
    """

    @staticmethod
    def _naive_side(points):
        return max(
            max(point[axis] for point in points) - min(point[axis] for point in points)
            for axis in range(2)
        )

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_uniform_points_build_in_their_own_cube(self, seed):
        points = uniform_points(1024, seed=seed)
        cube = BoundingBox.around(points).to_cube()
        tree = CompressedQuadtree(points, cube)
        assert all(tree.locate(point).point == point for point in tree.points)
        # Bit-identical where the naive cube already worked (seeds 1, 3, 5,
        # 6, 8, 10), one ulp wider where it raised "escaped its child cell".
        naive = self._naive_side(points)
        widened = seed in {2, 4, 7, 9, 11, 12}
        assert cube.side == (math.nextafter(naive, math.inf) if widened else naive)

    def test_web_without_explicit_cube_takes_updates_beside_its_maximum(self):
        points = uniform_points(256, seed=7)
        web = SkipQuadtreeWeb(points, seed=7)
        corner = max(points, key=lambda point: point[0])
        neighbour = (math.nextafter(corner[0], -math.inf), corner[1])
        assert web.insert(neighbour).messages > 0
        assert web.delete(corner).messages > 0
        web.web.validate()


class TestCompressedQuadtree:
    def test_invariants_uniform(self):
        points = uniform_points(120, seed=1)
        tree = CompressedQuadtree(points, UNIT_CUBE)
        tree.validate()
        assert tree.cell_count() <= 4 * len(points)

    def test_invariants_clustered(self):
        points = clustered_points(100, seed=2)
        tree = CompressedQuadtree(points, UNIT_CUBE)
        tree.validate()

    def test_degenerate_points_give_deep_but_linear_tree(self):
        points = degenerate_line_points(60, seed=3)
        tree = CompressedQuadtree(points, UNIT_CUBE)
        tree.validate()
        assert tree.depth() >= 10
        assert tree.cell_count() <= 4 * len(points)

    def test_requires_points_inside_cube(self):
        with pytest.raises(StructureError):
            CompressedQuadtree([(2.0, 2.0)], UNIT_CUBE)

    def test_requires_nonempty(self):
        with pytest.raises(StructureError):
            CompressedQuadtree([], UNIT_CUBE)

    def test_locate_returns_containing_cell(self):
        points = uniform_points(80, seed=4)
        tree = CompressedQuadtree(points, UNIT_CUBE)
        rng = random.Random(0)
        for _ in range(20):
            query = (rng.random(), rng.random())
            cell = tree.locate(query)
            assert cell.cube.contains_closed(query)
            for child in cell.children:
                assert not child.cube.contains_closed(query)

    def test_points_in_cube_matches_bruteforce(self):
        points = uniform_points(100, seed=5)
        tree = CompressedQuadtree(points, UNIT_CUBE)
        query = HyperCube((0.2, 0.3), 0.4)
        expected = sorted(p for p in points if query.contains_closed(p))
        assert sorted(tree.points_in_cube(query)) == expected

    def test_nearest_point_matches_bruteforce(self):
        points = uniform_points(90, seed=6)
        tree = CompressedQuadtree(points, UNIT_CUBE)
        rng = random.Random(1)
        for _ in range(15):
            query = (rng.random(), rng.random())
            expected = min(points, key=lambda p: point_distance(p, query))
            assert point_distance(tree.nearest_point(query), query) == pytest.approx(
                point_distance(expected, query)
            )

    def test_three_dimensional_octree(self):
        points = uniform_points(60, dimension=3, seed=7)
        cube = HyperCube((0.0, 0.0, 0.0), 1.0)
        tree = CompressedQuadtree(points, cube)
        tree.validate()
        query = (0.4, 0.6, 0.1)
        assert tree.locate(query).cube.contains_closed(query)

    @given(seed=st.integers(0, 500), count=st.integers(2, 60))
    @settings(max_examples=25, deadline=None)
    def test_leaf_count_equals_point_count(self, seed, count):
        points = uniform_points(count, seed=seed)
        tree = CompressedQuadtree(points, UNIT_CUBE)
        leaves = [cell for cell in tree.cells() if cell.is_leaf]
        assert len(leaves) == len(points)


class TestQuadtreeStructure:
    def test_units_and_validation(self):
        points = uniform_points(50, seed=8)
        structure = QuadtreeStructure(points, UNIT_CUBE)
        structure.validate()
        assert len(structure.node_units()) == structure.tree.cell_count()

    def test_build_requires_bounding_cube(self):
        with pytest.raises(StructureError):
            QuadtreeStructure.build([(0.1, 0.1)])

    def test_conflicts_returns_smallest_enclosing_cell(self):
        points = uniform_points(60, seed=9)
        structure = QuadtreeStructure(points, UNIT_CUBE)
        probe = HyperCube((0.26, 0.26), 0.01)
        conflict_units = structure.conflicts(probe)
        assert conflict_units
        assert all(unit.range.contains_cube(probe) for unit in conflict_units if unit.is_node)

    def test_overlapping_includes_ancestors(self):
        points = uniform_points(60, seed=9)
        structure = QuadtreeStructure(points, UNIT_CUBE)
        probe = HyperCube((0.26, 0.26), 0.01)
        overlap = structure.overlapping(probe)
        assert len(overlap) >= len(structure.conflicts(probe))

    def test_locate_matches_tree(self):
        points = uniform_points(70, seed=10)
        structure = QuadtreeStructure(points, UNIT_CUBE)
        query = (0.123, 0.456)
        assert structure.locate(query).range == structure.tree.locate(query).cube


@pytest.fixture(scope="module")
def quad_web():
    points = uniform_points(100, seed=20)
    return points, SkipQuadtreeWeb(points, bounding_cube=UNIT_CUBE, seed=6)


class TestSkipQuadtreeWeb:
    def test_validate(self, quad_web):
        _points, web = quad_web
        web.web.validate()

    def test_point_location_matches_local_tree(self, quad_web):
        _points, web = quad_web
        rng = random.Random(2)
        for _ in range(20):
            query = (rng.random(), rng.random())
            assert web.locate(query).answer.cell == web.level0_tree.locate(query).cube

    def test_messages_logarithmic(self, quad_web):
        _points, web = quad_web
        rng = random.Random(3)
        costs = [web.locate((rng.random(), rng.random())).messages for _ in range(25)]
        assert max(costs) <= 40

    def test_deep_tree_still_fast(self):
        points = degenerate_line_points(80, seed=21)
        web = SkipQuadtreeWeb(points, bounding_cube=UNIT_CUBE, seed=1)
        assert web.level0_tree.depth() >= 15
        rng = random.Random(4)
        costs = [web.locate((rng.random(), rng.random())).messages for _ in range(15)]
        assert sum(costs) / len(costs) <= 4 * (web.level0_tree.depth() ** 0.5 + 10)

    def test_insert_delete(self):
        points = uniform_points(50, seed=22)
        web = SkipQuadtreeWeb(points, bounding_cube=UNIT_CUBE, seed=2)
        inserted = (0.123456, 0.654321)
        web.insert(inserted)
        assert inserted in web.points
        web.delete(points[5])
        assert points[5] not in web.points
        web.web.validate()
        # A query off dyadic cell boundaries locates identically to the
        # local tree (boundary points may legitimately resolve to either
        # adjacent cell).
        query = (0.503, 0.497)
        assert web.locate(query).answer.cell == web.level0_tree.locate(query).cube

    def test_approximate_nearest_neighbor(self, quad_web):
        points, web = quad_web
        rng = random.Random(5)
        ratios = []
        for _ in range(15):
            answer = approximate_nearest_neighbor(web, (rng.random(), rng.random()))
            assert answer.exact in points
            ratios.append(answer.ratio)
        assert min(ratios) == 1.0
        assert sum(ratios) / len(ratios) <= 3.0

    def test_approximate_range_query_exact_contents(self, quad_web):
        points, web = quad_web
        cube = HyperCube((0.1, 0.2), 0.35)
        answer = approximate_range_query(web, cube)
        expected = sorted(p for p in points if cube.contains_closed(p))
        assert sorted(answer.points) == expected
        assert answer.messages >= 0

    def test_descent_conflicts_is_small(self):
        rng = random.Random(6)
        points = uniform_points(300, seed=23)
        full = CompressedQuadtree(points, UNIT_CUBE)
        half = CompressedQuadtree(points[::2], UNIT_CUBE)
        samples = [
            descent_conflicts(full, half, (rng.random(), rng.random())) for _ in range(40)
        ]
        assert sum(samples) / len(samples) <= 6


class TestBoxRangeReporting:
    """Axis-aligned box reporting on the quadtree skip-web."""

    def test_box_range_matches_brute_force(self):
        from repro.spatial.geometry import Box

        rng = random.Random(31)
        points = uniform_points(60, dimension=2, seed=31)
        web = SkipQuadtreeWeb(points, bounding_cube=UNIT_CUBE, seed=31)
        for _ in range(6):
            anchor = rng.choice(points)
            box = Box.around_point(anchor, rng.uniform(0.05, 0.3))
            expected = sorted(point for point in points if box.contains(point))
            result = web.range_report(box)
            assert sorted(result.matches) == expected
            assert result.messages == result.descent_messages + result.report_messages

    def test_box_range_accepts_corner_tuples(self):
        points = uniform_points(24, dimension=2, seed=32)
        web = SkipQuadtreeWeb(points, bounding_cube=UNIT_CUBE, seed=32)
        result = web.range_report(((0.25, 0.25), (0.75, 0.75)))
        expected = sorted(
            point
            for point in points
            if all(0.25 <= coordinate <= 0.75 for coordinate in point)
        )
        assert sorted(result.matches) == expected

    def test_box_intersects_cube_both_directions(self):
        from repro.spatial.geometry import Box

        box = Box((0.0, 0.0), (0.5, 0.1))
        cube = HyperCube((0.4, 0.0), 0.2)
        assert box.intersects(cube)
        assert cube.intersects(box)
        assert not box.intersects(HyperCube((0.6, 0.3), 0.2))
