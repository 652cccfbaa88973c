"""Tests for the core framework: ranges, levels, blocking, halving, stats."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.blocking import (
    HashBlocking,
    OwnerBlocking,
    RoundRobinBlocking,
    evenly_owned_items,
)
from repro.core.halving import sample_half, verify_halving
from repro.core.levels import MembershipAssignment, required_height
from repro.core.link_structure import RangeUnit, UnitKind
from repro.core.ranges import EverythingRange, Interval, Singleton, ranges_conflict
from repro.core.stats import measure_costs
from repro.net.network import Network
from repro.onedim.linked_list import SortedListStructure


class TestRanges:
    def test_singleton_contains_only_its_value(self):
        assert Singleton(5).contains(5)
        assert not Singleton(5).contains(6)

    def test_interval_contains_endpoints(self):
        interval = Interval(1.0, 3.0)
        assert interval.contains(1.0) and interval.contains(3.0) and interval.contains(2.0)
        assert not interval.contains(0.999)

    def test_interval_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Interval(3.0, 1.0)

    def test_interval_intersection_is_symmetric(self):
        assert Interval(0, 2).intersects(Interval(2, 5))
        assert Interval(2, 5).intersects(Interval(0, 2))
        assert not Interval(0, 1).intersects(Interval(2, 3))

    def test_interval_and_singleton_conflict(self):
        assert ranges_conflict(Interval(0, 2), Singleton(1))
        assert ranges_conflict(Singleton(2), Interval(2, 4))
        assert not ranges_conflict(Singleton(5), Interval(0, 1))

    def test_unbounded_helpers(self):
        assert Interval.below(3).contains(-1e18)
        assert Interval.above(3).contains(1e18)
        assert Interval.unbounded().contains(0)

    def test_everything_range(self):
        assert EverythingRange().contains("anything")
        assert EverythingRange().intersects(Interval(0, 1))

    @given(
        low=st.floats(-1e6, 1e6),
        width=st.floats(0, 1e6),
        point=st.floats(-2e6, 2e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_interval_containment_matches_arithmetic(self, low, width, point):
        interval = Interval(low, low + width)
        assert interval.contains(point) == (low <= point <= low + width)


class TestMembership:
    def test_required_height(self):
        assert required_height(1) == 1
        assert required_height(2) == 1
        assert required_height(1000) == 10

    def test_words_have_requested_height(self):
        assignment = MembershipAssignment(list(range(20)), rng=random.Random(0))
        assert assignment.height == required_height(20)
        assert all(len(assignment.word(item)) == assignment.height for item in range(20))

    def test_level_sets_partition_items(self):
        items = list(range(50))
        assignment = MembershipAssignment(items, rng=random.Random(1))
        for level in range(assignment.height + 1):
            groups = assignment.level_sets(level)
            flattened = sorted(member for members in groups.values() for member in members)
            assert flattened == items
            assert all(len(prefix) == level for prefix in groups)

    def test_level_zero_is_single_group(self):
        assignment = MembershipAssignment(list(range(10)), rng=random.Random(2))
        assert set(assignment.level_sets(0)) == {()}

    def test_assign_and_forget(self):
        assignment = MembershipAssignment([1, 2, 3], rng=random.Random(3))
        word = assignment.assign(4)
        assert assignment.word(4) == word
        with pytest.raises(ValueError):
            assignment.assign(4)
        assignment.forget(4)
        assert 4 not in assignment
        with pytest.raises(KeyError):
            assignment.forget(4)

    def test_prefixes_of_chain(self):
        assignment = MembershipAssignment(list(range(8)), rng=random.Random(4))
        level_sets = assignment.all_level_sets()
        word = assignment.word(3)
        chain = list(level_sets.prefixes_of(word))
        assert chain[0] == word and chain[-1] == ()
        assert len(chain) == assignment.height + 1

    def test_total_copies_is_n_per_level(self):
        items = list(range(32))
        assignment = MembershipAssignment(items, rng=random.Random(5))
        level_sets = assignment.all_level_sets()
        assert level_sets.total_copies() == len(items) * (assignment.height + 1)

    @given(count=st.integers(2, 200), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_top_level_sets_are_small_on_average(self, count, seed):
        items = list(range(count))
        assignment = MembershipAssignment(items, rng=random.Random(seed))
        top = assignment.level_sets(assignment.height)
        # Expected size of each top-level set is O(1); allow generous slack.
        assert max(len(members) for members in top.values()) <= 10 + count // 8


class TestBlocking:
    def _unit(self, payload=None):
        return RangeUnit(
            key=("node", payload), kind=UnitKind.NODE, range=Singleton(payload), payload=payload
        )

    def test_round_robin_cycles(self):
        policy = RoundRobinBlocking([0, 1, 2])
        hosts = [policy.assign(0, (), self._unit(i)) for i in range(6)]
        assert hosts == [0, 1, 2, 0, 1, 2]

    def test_round_robin_requires_hosts(self):
        with pytest.raises(ValueError):
            RoundRobinBlocking([])

    def test_hash_blocking_is_deterministic(self):
        policy = HashBlocking([0, 1, 2, 3])
        unit = self._unit(42)
        assert policy.assign(1, (0,), unit) == policy.assign(1, (0,), unit)

    def test_owner_blocking_uses_item_owner(self):
        owners = {5.0: 2, 7.0: 3}
        policy = OwnerBlocking(owners, fallback=[0])
        assert policy.assign(0, (), self._unit(5.0)) == 2
        assert policy.assign(0, (), self._unit("unknown")) == 0

    def test_owner_blocking_hashes_anchorless_units(self):
        """A unit with no owned item goes by a stable hash of its key, whatever its level."""
        policy = OwnerBlocking({5.0: 2}, fallback=[0, 1, 2, 3])
        units = [self._unit(f"frame-{index}") for index in range(64)]
        hosts = [policy.assign(0, (), unit) for unit in units]
        assert set(hosts) == {0, 1, 2, 3}
        assert hosts == [policy.assign(3, (1, 0, 1), unit) for unit in units]

    def test_owner_blocking_tuple_payload(self):
        owners = {(0.5, 0.5): 4}
        policy = OwnerBlocking(owners, fallback=[1])
        unit = RangeUnit(
            key="k", kind=UnitKind.LINK, range=Singleton(1), payload=((0.5, 0.5), None)
        )
        assert policy.assign(0, (), unit) == 4
        point_unit = RangeUnit(key="p", kind=UnitKind.NODE, range=Singleton(1), payload=(0.5, 0.5))
        assert policy.assign(0, (), point_unit) == 4

    def test_evenly_owned_items(self):
        owners = evenly_owned_items(["a", "b", "c"], [10, 11])
        assert owners == {"a": 10, "b": 11, "c": 10}


class TestHalving:
    def test_sample_half_exact(self):
        rng = random.Random(0)
        items = list(range(100))
        half = sample_half(items, rng, exact=True)
        assert len(half) == 50
        assert set(half) <= set(items)

    def test_sample_half_probabilistic_is_about_half(self):
        rng = random.Random(1)
        items = list(range(1000))
        half = sample_half(items, rng)
        assert 350 <= len(half) <= 650

    def test_verify_halving_lemma1_constant(self):
        rng = random.Random(2)
        keys = sorted(rng.sample(range(100000), 400))
        report = verify_halving(
            SortedListStructure,
            [float(k) for k in keys],
            queries=[rng.uniform(0, 100000) for _ in range(20)],
            trials=8,
            rng=rng,
        )
        # Lemma 1 bounds the expectation by a constant; with closed link
        # ranges the measured constant is ~2E|Q∩S|+1 ≈ 9.
        assert report.mean_conflicts < 14
        assert report.ground_set_size == 400
        assert report.as_dict()["n"] == 400.0

    def test_halving_constant_does_not_grow_with_n(self):
        rng = random.Random(3)
        means = []
        for n in (100, 800):
            keys = [float(k) for k in sorted(rng.sample(range(10**6), n))]
            report = verify_halving(
                SortedListStructure,
                keys,
                queries=[rng.uniform(0, 10**6) for _ in range(15)],
                trials=6,
                rng=rng,
            )
            means.append(report.mean_conflicts)
        assert means[1] < means[0] * 2.5


class TestStats:
    def test_measure_costs_aggregates(self):
        network = Network()
        network.add_hosts(4)
        network.store(0, "x")
        costs = measure_costs(
            name="toy",
            network=network,
            ground_set_size=4,
            query_fn=lambda q: q,
            queries=[1, 3, 5],
            update_fn=lambda u: 2 * u,
            updates=[1, 2],
        )
        assert costs.query_messages_mean == pytest.approx(3.0)
        assert costs.query_messages_max == 5
        assert costs.update_messages_mean == pytest.approx(3.0)
        assert costs.max_memory == 1
        row = costs.as_dict()
        assert row["method"] == "toy" and row["H"] == 4
