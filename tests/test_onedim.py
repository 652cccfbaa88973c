"""Tests for the one-dimensional structures: sorted list, skip-web, bucket skip-web."""

import bisect
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StructureError, UpdateError
from repro.onedim import BucketSkipWeb1D, SkipWeb1D, SortedListStructure


def reference_nearest(keys, query):
    index = bisect.bisect_left(keys, query)
    candidates = []
    if index > 0:
        candidates.append(keys[index - 1])
    if index < len(keys):
        candidates.append(keys[index])
    return min(candidates, key=lambda value: abs(value - query))


class TestSortedListStructure:
    def test_unit_counts(self):
        structure = SortedListStructure([1.0, 2.0, 3.0])
        # 3 nodes, 2 inner links, 2 sentinel links.
        assert len(structure.node_units()) == 3
        assert len(structure.link_units()) == 4
        structure.validate()

    def test_requires_at_least_one_key(self):
        with pytest.raises(StructureError):
            SortedListStructure([])

    def test_duplicates_are_collapsed(self):
        structure = SortedListStructure([2.0, 2.0, 1.0])
        assert structure.keys_sorted == [1.0, 2.0]

    def test_locate_exact_returns_node(self):
        structure = SortedListStructure([1.0, 5.0, 9.0])
        assert structure.locate(5.0).is_node

    def test_locate_between_returns_link(self):
        structure = SortedListStructure([1.0, 5.0, 9.0])
        unit = structure.locate(6.5)
        assert unit.is_link and unit.payload == (5.0, 9.0)

    def test_locate_outside_returns_sentinels(self):
        structure = SortedListStructure([1.0, 5.0])
        assert structure.locate(-10).payload == (None, 1.0)
        assert structure.locate(100).payload == (5.0, None)

    def test_answer_nearest(self):
        structure = SortedListStructure([1.0, 5.0, 9.0])
        answer = structure.answer(6.0, structure.locate(6.0))
        assert answer.nearest == 5.0 and not answer.exact
        exact = structure.answer(9.0, structure.locate(9.0))
        assert exact.exact and exact.nearest == 9.0

    def test_overlapping_matches_bruteforce(self):
        rng = random.Random(0)
        keys = sorted(rng.sample(range(1000), 60))
        structure = SortedListStructure(keys)
        from repro.core.ranges import Interval

        query = Interval(200.0, 400.0)
        fast = {unit.key for unit in structure.overlapping(query)}
        slow = {
            unit.key
            for unit in structure.units()
            if query.intersects(unit.range) or unit.range.intersects(query)
        }
        assert fast == slow

    def test_predecessor_successor(self):
        structure = SortedListStructure([1.0, 5.0, 9.0])
        assert structure.predecessor(5.0) == 5.0
        assert structure.predecessor(0.5) is None
        assert structure.successor(5.5) == 9.0
        assert structure.successor(10.0) is None

    @given(
        keys=st.lists(st.integers(0, 10**6), min_size=1, max_size=80, unique=True),
        query=st.floats(-1e5, 1.1e6),
    )
    @settings(max_examples=80, deadline=None)
    def test_nearest_matches_reference(self, keys, query):
        keys = sorted(float(k) for k in keys)
        structure = SortedListStructure(keys)
        assert structure.nearest_key(query) == reference_nearest(keys, query)


@pytest.fixture(scope="module")
def onedim_web():
    keys = sorted(random.Random(11).sample(range(10**6), 150))
    return [float(k) for k in keys], SkipWeb1D(sorted(float(k) for k in keys), seed=7)


class TestSkipWeb1D:
    def test_structure_is_valid(self, onedim_web):
        _keys, web = onedim_web
        web.validate()

    def test_queries_match_reference(self, onedim_web):
        keys, web = onedim_web
        rng = random.Random(3)
        for query in [rng.uniform(0, 10**6) for _ in range(25)] + keys[:5]:
            assert web.nearest(query).answer.nearest == reference_nearest(keys, query)

    def test_contains(self, onedim_web):
        keys, web = onedim_web
        assert web.contains(keys[10])
        assert not web.contains(keys[10] + 0.5)

    def test_query_message_cost_is_logarithmic(self, onedim_web):
        keys, web = onedim_web
        rng = random.Random(4)
        costs = [web.nearest(rng.uniform(0, 10**6)).messages for _ in range(30)]
        # log2(150) ≈ 7.2 levels; allow a small constant factor.
        assert max(costs) <= 30
        assert sum(costs) / len(costs) <= 15

    def test_memory_per_host_is_logarithmic(self, onedim_web):
        keys, web = onedim_web
        assert web.max_memory_per_host() <= 20 * 8  # c * log n with generous c

    def test_query_from_every_origin_host(self, onedim_web):
        keys, web = onedim_web
        rng = random.Random(5)
        for origin in rng.sample(range(web.host_count), 5):
            result = web.nearest(keys[20] + 0.1, origin_host=origin)
            assert result.answer.nearest == keys[20]
            assert result.origin_host == origin

    def test_congestion_report(self, onedim_web):
        _keys, web = onedim_web
        report = web.congestion()
        assert report.max_congestion > 0
        assert report.host_count == web.host_count

    def test_hosts_equal_keys_by_default(self, onedim_web):
        keys, web = onedim_web
        assert web.host_count == len(keys)


class TestSkipWeb1DUpdates:
    def test_insert_then_query(self):
        keys = [float(k) for k in range(0, 200, 2)]
        web = SkipWeb1D(keys, seed=1)
        result = web.insert(13.5)
        assert result.kind == "insert" and result.messages > 0
        assert web.contains(13.5)
        web.validate()

    def test_insert_duplicate_raises(self):
        web = SkipWeb1D([1.0, 2.0, 3.0], seed=1)
        with pytest.raises(UpdateError):
            web.insert(2.0)

    def test_delete_then_query(self):
        keys = [float(k) for k in range(0, 100, 2)]
        web = SkipWeb1D(keys, seed=2)
        web.delete(10.0)
        assert not web.contains(10.0)
        assert web.nearest(10.0).answer.nearest in (8.0, 12.0)
        web.validate()

    def test_delete_missing_raises(self):
        web = SkipWeb1D([1.0, 2.0], seed=1)
        with pytest.raises(UpdateError):
            web.delete(5.0)

    def test_delete_last_key_raises(self):
        web = SkipWeb1D([1.0], seed=1)
        with pytest.raises(UpdateError):
            web.delete(1.0)

    def test_many_updates_keep_structure_consistent(self):
        rng = random.Random(9)
        keys = sorted(float(k) for k in rng.sample(range(10000), 60))
        web = SkipWeb1D(keys, seed=3)
        alive = list(keys)
        for _ in range(10):
            new_key = round(rng.uniform(0, 10000), 3)
            if new_key in alive:
                continue
            web.insert(new_key)
            alive.append(new_key)
        for victim in rng.sample(alive, 8):
            web.delete(victim)
            alive.remove(victim)
        web.validate()
        alive.sort()
        for query in [rng.uniform(0, 10000) for _ in range(15)]:
            assert web.nearest(query).answer.nearest == reference_nearest(alive, query)

    def test_update_cost_is_logarithmic(self):
        rng = random.Random(10)
        keys = sorted(float(k) for k in rng.sample(range(10**6), 120))
        web = SkipWeb1D(keys, seed=4)
        costs = [web.insert(rng.uniform(0, 10**6)).messages for _ in range(8)]
        assert sum(costs) / len(costs) <= 90  # c * log n with generous c


class TestBlockingPolicies:
    @pytest.mark.parametrize("blocking", ["owner", "round_robin", "hash"])
    def test_all_policies_answer_correctly(self, blocking):
        rng = random.Random(6)
        keys = sorted(float(k) for k in rng.sample(range(10**6), 80))
        web = SkipWeb1D(keys, blocking=blocking, seed=5)
        for query in [rng.uniform(0, 10**6) for _ in range(12)]:
            assert web.nearest(query).answer.nearest == reference_nearest(keys, query)


class TestBucketSkipWeb1D:
    @pytest.fixture(scope="class")
    def bucket(self):
        keys = sorted(float(k) for k in random.Random(12).sample(range(10**6), 200))
        return keys, BucketSkipWeb1D(keys, memory_size=32, seed=8)

    def test_validate(self, bucket):
        _keys, web = bucket
        web.validate()

    def test_queries_match_reference(self, bucket):
        keys, web = bucket
        rng = random.Random(7)
        for query in [rng.uniform(0, 10**6) for _ in range(25)] + keys[:5]:
            assert (
                web.nearest(query, origin_key=rng.choice(keys)).answer.nearest
                == reference_nearest(keys, query)
            )

    def test_fewer_hosts_than_plain_deployment(self, bucket):
        keys, web = bucket
        assert web.host_count < len(keys) * (web.height + 1)

    def test_query_cost_beats_plain_skipweb(self, bucket):
        keys, web = bucket
        rng = random.Random(8)
        plain = SkipWeb1D(keys, seed=8)
        queries = [rng.uniform(0, 10**6) for _ in range(20)]
        bucket_cost = sum(web.nearest(q, origin_key=rng.choice(keys)).messages for q in queries)
        plain_cost = sum(plain.nearest(q).messages for q in queries)
        assert bucket_cost < plain_cost

    def test_memory_scales_with_M(self):
        keys = sorted(float(k) for k in random.Random(13).sample(range(10**6), 150))
        small = BucketSkipWeb1D(keys, memory_size=8, seed=1)
        large = BucketSkipWeb1D(keys, memory_size=64, seed=1)
        assert large.host_count < small.host_count

    def test_memory_size_validation(self):
        with pytest.raises(ValueError):
            BucketSkipWeb1D([1.0, 2.0], memory_size=2)

    def test_insert_and_delete(self, bucket):
        keys = sorted(float(k) for k in random.Random(14).sample(range(10**6), 60))
        web = BucketSkipWeb1D(keys, memory_size=16, seed=2)
        insert = web.insert(123456.5)
        assert insert.messages >= 1
        assert web.contains(123456.5)
        delete = web.delete(keys[7])
        assert delete.kind == "delete"
        assert not web.contains(keys[7])
        web.validate()

    def test_insert_duplicate_and_delete_missing(self, bucket):
        web = BucketSkipWeb1D([1.0, 2.0, 3.0, 4.0], memory_size=8, seed=3)
        with pytest.raises(UpdateError):
            web.insert(2.0)
        with pytest.raises(UpdateError):
            web.delete(9.0)


class TestRangeSearch1D:
    """Output-sensitive key-range reporting (O(log n + k) messages)."""

    def test_skipweb_range_matches_reference(self):
        rng = random.Random(21)
        keys = sorted(float(k) for k in rng.sample(range(10**6), 80))
        web = SkipWeb1D(keys, seed=21)
        for _ in range(8):
            start = rng.randrange(0, len(keys) - 10)
            width = rng.randrange(1, 10)
            low, high = keys[start], keys[start + width]
            result = web.range_search(low, high)
            assert sorted(result.matches) == keys[start : start + width + 1]
            assert result.count == width + 1
            assert result.messages == result.descent_messages + result.report_messages

    def test_skipweb_empty_range_costs_only_the_descent(self):
        web = SkipWeb1D([10.0, 20.0, 30.0, 40.0], seed=1)
        result = web.range_search(21.0, 29.0)
        assert result.matches == ()
        assert result.report_messages == 0
        assert result.branches == 0

    def test_bucket_range_matches_and_beats_plain(self):
        rng = random.Random(22)
        keys = sorted(float(k) for k in rng.sample(range(10**6), 120))
        plain = SkipWeb1D(keys, seed=22)
        bucket = BucketSkipWeb1D(keys, memory_size=32, seed=22)
        start = 30
        low, high = keys[start], keys[start + 24]
        plain_result = plain.range_search(low, high)
        bucket_result = bucket.range_search(low, high, origin_key=keys[0])
        assert sorted(plain_result.matches) == keys[start : start + 25]
        assert sorted(bucket_result.matches) == keys[start : start + 25]
        # Blocks keep consecutive keys co-located, so the bucket layout
        # reports the same k for fewer messages.
        assert bucket_result.messages < plain_result.messages

    def test_range_accepts_interval_and_tuple(self):
        from repro.core.ranges import Interval

        web = SkipWeb1D([1.0, 2.0, 3.0], seed=0)
        by_tuple = web.range_report((1.0, 2.0))
        by_interval = web.range_report(Interval(1.0, 2.0))
        assert sorted(by_tuple.matches) == sorted(by_interval.matches) == [1.0, 2.0]
