"""Tests for segments, trapezoidal maps and trapezoid skip-webs."""

import random

import pytest

from repro.errors import QueryError, StructureError
from repro.planar import Segment, SkipTrapezoidWeb, TrapezoidalMap
from repro.planar.segments import bounding_box, segments_in_general_position
from repro.planar.skip_trapezoid import TrapezoidalMapStructure
from repro.workloads import city_map_segments, non_crossing_segments, x_disjoint_segments


def brute_force_region(segments, box, point):
    """Identify the containing face by the segments directly above and below."""
    x, y = point
    above = None
    below = None
    for segment in segments:
        if segment.x_min <= x <= segment.x_max:
            sy = segment.y_at(x)
            if sy >= y and (above is None or sy < above.y_at(x)):
                above = segment
            if sy <= y and (below is None or sy > below.y_at(x)):
                below = segment
    return above, below


class TestSegments:
    def test_of_normalises_order(self):
        segment = Segment.of((5.0, 1.0), (2.0, 3.0))
        assert segment.left[0] < segment.right[0]

    def test_vertical_rejected(self):
        with pytest.raises(ValueError):
            Segment.of((1.0, 0.0), (1.0, 5.0))

    def test_y_at_interpolates(self):
        segment = Segment.of((0.0, 0.0), (10.0, 10.0))
        assert segment.y_at(5.0) == pytest.approx(5.0)

    def test_crosses_detects_proper_intersection(self):
        first = Segment.of((0.0, 0.0), (10.0, 10.0))
        second = Segment.of((0.5, 9.0), (9.0, 0.5))
        third = Segment.of((0.25, 5.0), (4.0, 9.0))
        assert first.crosses(second)
        assert not first.crosses(third) or not third.crosses(first) is None

    def test_general_position_rejects_crossings(self):
        first = Segment.of((0.0, 0.0), (10.0, 10.0))
        second = Segment.of((1.0, 9.0), (9.0, 1.0))
        with pytest.raises(StructureError):
            segments_in_general_position([first, second])

    def test_general_position_rejects_shared_x(self):
        first = Segment.of((0.0, 0.0), (5.0, 1.0))
        second = Segment.of((0.0, 3.0), (6.0, 4.0))
        with pytest.raises(StructureError):
            segments_in_general_position([first, second])

    def test_bounding_box_encloses_everything(self):
        segments = x_disjoint_segments(10, seed=1)
        x_min, x_max, y_min, y_max = bounding_box(segments)
        for segment in segments:
            assert x_min <= segment.x_min and segment.x_max <= x_max
            assert y_min <= min(segment.left[1], segment.right[1])
            assert max(segment.left[1], segment.right[1]) <= y_max


class TestWorkloadGenerators:
    @pytest.mark.parametrize("generator", [x_disjoint_segments, non_crossing_segments])
    def test_generated_segments_are_valid(self, generator):
        segments = generator(25, seed=3)
        assert len(segments) == 25
        segments_in_general_position(segments)

    def test_city_map_is_valid(self):
        segments = city_map_segments(seed=2)
        assert segments
        segments_in_general_position(segments)


class TestTrapezoidalMap:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_invariants(self, seed):
        segments = non_crossing_segments(25, seed=seed)
        trap_map = TrapezoidalMap(segments)
        trap_map.validate()
        assert trap_map.trapezoid_count() <= 3 * len(segments) + 1

    def test_single_segment_map(self):
        segment = Segment.of((0.0, 0.0), (10.0, 1.0))
        trap_map = TrapezoidalMap([segment])
        trap_map.validate()
        # One segment yields 4 trapezoids (left, above, below, right).
        assert trap_map.trapezoid_count() == 4

    def test_empty_map_is_single_trapezoid(self):
        trap_map = TrapezoidalMap([], box=(0.0, 10.0, 0.0, 10.0))
        assert trap_map.trapezoid_count() == 1
        assert trap_map.locate((5.0, 5.0)).top is None

    def test_locate_agrees_with_bruteforce_boundaries(self):
        rng = random.Random(4)
        segments = non_crossing_segments(20, seed=4)
        box = bounding_box(segments)
        trap_map = TrapezoidalMap(segments, box=box)
        for _ in range(30):
            point = (rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3]))
            trapezoid = trap_map.locate(point)
            above, below = brute_force_region(segments, box, point)
            assert trapezoid.top == above
            assert trapezoid.bottom == below

    def test_locate_outside_box_raises(self):
        trap_map = TrapezoidalMap([], box=(0.0, 1.0, 0.0, 1.0))
        with pytest.raises(QueryError):
            trap_map.locate((5.0, 5.0))

    def test_neighbors_share_walls(self):
        segments = non_crossing_segments(15, seed=5)
        trap_map = TrapezoidalMap(segments)
        for trapezoid in trap_map.trapezoids:
            for neighbor in trap_map.neighbors(trapezoid):
                assert (
                    abs(trapezoid.x_right - neighbor.x_left) < 1e-9
                    or abs(trapezoid.x_left - neighbor.x_right) < 1e-9
                )

    def test_conflicting_trapezoids_lemma5_shape(self):
        segments = non_crossing_segments(30, seed=6)
        box = bounding_box(segments)
        full = TrapezoidalMap(segments, box=box)
        half = TrapezoidalMap(segments[::2], box=box)
        rng = random.Random(7)
        counts = []
        for _ in range(20):
            point = (rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3]))
            trapezoid = half.locate(point)
            counts.append(len(full.conflicting_trapezoids(trapezoid)))
        assert sum(counts) / len(counts) <= 12


@pytest.fixture(scope="module")
def trapezoid_web():
    segments = non_crossing_segments(30, seed=40)
    box = bounding_box(segments)
    return segments, box, SkipTrapezoidWeb(segments, box=box, seed=11)


class TestSkipTrapezoidWeb:
    def test_validate(self, trapezoid_web):
        _segments, _box, web = trapezoid_web
        web.validate()

    def test_point_location_matches_local_map(self, trapezoid_web):
        _segments, box, web = trapezoid_web
        rng = random.Random(8)
        for _ in range(20):
            point = (rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3]))
            located = web.locate(point).answer.trapezoid
            reference = web.level0_map.locate(point)
            assert located.key() == reference.key() or located.contains(point)

    def test_messages_logarithmic(self, trapezoid_web):
        _segments, box, web = trapezoid_web
        rng = random.Random(9)
        costs = [
            web.locate((rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3]))).messages
            for _ in range(20)
        ]
        assert max(costs) <= 30

    def test_structure_adapter_validates(self, trapezoid_web):
        segments, box, _web = trapezoid_web
        structure = TrapezoidalMapStructure(segments, box)
        structure.validate()
        assert len(structure.items) == len(segments)

    def test_build_requires_box(self):
        with pytest.raises(StructureError):
            TrapezoidalMapStructure.build([Segment.of((0.0, 0.0), (1.0, 1.0))])

    def test_answer_reports_bounding_segments(self, trapezoid_web):
        segments, box, web = trapezoid_web
        rng = random.Random(10)
        point = (rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3]))
        answer = web.locate(point).answer
        above, below = brute_force_region(segments, box, point)
        assert answer.above_segment == above
        assert answer.below_segment == below

    def test_frame_units_do_not_pile_on_host_zero(self):
        """A unit bounded only by the frame has no owning segment and goes by key hash.

        When all of them went to host 0 it held 358 records here, against
        a mean of 51; hashed, it holds 39.
        """
        web = SkipTrapezoidWeb(non_crossing_segments(64, seed=0), seed=0)
        profile = web.memory_profile()
        mean = sum(profile.values()) / len(profile)
        assert profile[0] <= 2 * mean, (profile[0], mean)
        web.validate()

    def test_crossing_insert_fails_typed_and_changes_nothing(self):
        """It used to commit the segment and then fail the handle as a duplicate."""
        from repro.api import Cluster
        from repro.storage import content_digest

        segments = non_crossing_segments(16, seed=1)
        cluster = Cluster("skiptrapezoid", segments, seed=1)
        web = cluster.structure
        (x1, y1), (x2, y2) = segments[0].left, segments[0].right
        middle = ((x1 + x2) / 2, (y1 + y2) / 2)
        crossing = Segment.of(
            (middle[0] - 0.01, middle[1] - 5.0), (middle[0] + 0.013, middle[1] + 5.0)
        )
        assert crossing.crosses(segments[0])
        digest = content_digest(web)
        handle = cluster.insert(crossing)
        assert isinstance(handle.error, StructureError)
        assert content_digest(web) == digest and crossing not in web.segments
        web.validate()

    def test_insert_and_delete_segment(self):
        segments = non_crossing_segments(12, seed=41)
        box = bounding_box(segments)
        # Leave room inside the box for a new non-crossing segment.
        web = SkipTrapezoidWeb(
            segments, box=(box[0] - 5, box[1] + 5, box[2] - 5, box[3] + 5), seed=3
        )
        new_segment = Segment.of((box[1] + 1.0, box[2]), (box[1] + 4.0, box[2] + 1.0))
        web.insert(new_segment)
        assert new_segment in web.segments
        web.delete(segments[0])
        assert segments[0] not in web.segments
        web.validate()


class TestWindowReporting:
    """Segment-stabbing window reporting on the trapezoid skip-web."""

    def test_window_report_matches_brute_force(self):
        from repro.planar.skip_trapezoid import Window

        rng = random.Random(51)
        segments = non_crossing_segments(14, seed=51)
        box = bounding_box(segments)
        web = SkipTrapezoidWeb(segments, box=box, seed=51)
        trapezoids = web.level0_map.trapezoids
        for _ in range(5):
            center = rng.choice(trapezoids).center
            half_x = 0.2 * (box[1] - box[0])
            half_y = 0.25 * (box[3] - box[2])
            window = Window(
                max(box[0], center[0] - half_x),
                min(box[1], center[0] + half_x),
                max(box[2], center[1] - half_y),
                min(box[3], center[1] + half_y),
            )
            expected = {t.key() for t in trapezoids if window.intersects(t)}
            result = web.window_report(window)
            assert {t.key() for t in result.matches} == expected
            assert result.messages == result.descent_messages + result.report_messages
            stabbed = web.stabbed_segments(result.matches)
            assert all(segment in segments for segment in stabbed)

    def test_window_accepts_tuples_and_validates(self):
        from repro.planar.skip_trapezoid import Window

        segments = non_crossing_segments(8, seed=52)
        box = bounding_box(segments)
        web = SkipTrapezoidWeb(segments, box=box, seed=52)
        result = web.window_report((box[0], box[1], box[2], box[3]))
        assert result.count == len(web.level0_map.trapezoids)
        with pytest.raises(ValueError):
            Window(1.0, 0.0, 0.0, 1.0)
