"""Tests for the churn subsystem: controller, migration, self-repair."""

import random

import pytest

from repro.baselines import ChordDHT, SkipGraph
from repro.engine import BatchExecutor, Operation, RepairEngine
from repro.errors import ChurnError, StructureError
from repro.net import ChurnController, MessageKind, Network, churn_schedule, inject_host_faults
from repro.onedim import BucketSkipWeb1D, SkipWeb1D
from repro.workloads import uniform_keys


def _controller(structure, seed=0, **kwargs):
    return ChurnController(
        structure.network, RepairEngine(structure), rng=random.Random(seed), **kwargs
    )


class TestNetworkMembership:
    def test_remove_host_requires_empty_unless_forced(self):
        network = Network()
        network.add_hosts(2)
        network.store(0, "item")
        with pytest.raises(StructureError):
            network.remove_host(0)
        network.remove_host(0, force=True)
        assert 0 not in network
        assert network.host_count == 1

    def test_membership_epoch_bumps_on_every_change(self):
        network = Network()
        epoch = network.membership_epoch
        host = network.add_host()
        assert network.membership_epoch > epoch
        epoch = network.membership_epoch
        network.fail_host(host.host_id)
        assert network.membership_epoch > epoch
        epoch = network.membership_epoch
        network.recover_host(host.host_id)
        assert network.membership_epoch > epoch
        epoch = network.membership_epoch
        network.remove_host(host.host_id)
        assert network.membership_epoch > epoch

    def test_alive_host_ids_excludes_failed(self):
        network = Network()
        network.add_hosts(3)
        network.fail_host(1)
        assert network.alive_host_ids() == [0, 2]


class TestChurnSchedule:
    def test_schedule_is_seeded_and_deterministic(self):
        first = churn_schedule(20, random.Random(4))
        second = churn_schedule(20, random.Random(4))
        assert first == second
        assert set(first) <= {"join", "leave", "crash"}

    def test_schedule_validates_inputs(self):
        with pytest.raises(ValueError):
            churn_schedule(-1, random.Random(0))
        with pytest.raises(ValueError):
            churn_schedule(3, random.Random(0), join_weight=0, leave_weight=0, crash_weight=0)


class TestChurnControllerOnSkipWeb:
    def test_join_rebalances_onto_the_new_host(self):
        web = SkipWeb1D(uniform_keys(32, seed=0), seed=0)
        controller = _controller(web)
        event = controller.join()
        assert event.kind == "join"
        assert event.records_moved > 0
        assert event.repair_messages > 0
        newcomer = web.network.host(event.host)
        assert newcomer.memory_used > 0
        assert event.host in web.origin_hosts()
        web.web.validate()

    def test_graceful_leave_hands_every_record_off(self):
        web = SkipWeb1D(uniform_keys(32, seed=1), seed=1)
        controller = _controller(web, seed=1)
        hosts_before = len(web.network.alive_host_ids())
        event = controller.leave()
        assert event.kind == "leave"
        assert event.host not in web.network
        assert event.hosts_after == hosts_before - 1
        assert event.host not in web.origin_hosts()
        web.web.validate()
        # Queries keep working from every surviving origin.
        operations = [
            Operation("search", query, origin_host=origin)
            for query, origin in zip((1.0, 5e5, 9.9e5), web.origin_hosts())
        ]
        result = BatchExecutor(web).run(operations)
        assert result.failed == 0

    def test_crash_repair_reconstructs_orphans_and_rewires(self):
        web = SkipWeb1D(uniform_keys(32, seed=2), seed=2)
        controller = _controller(web, seed=2)
        event = controller.crash()
        assert event.kind == "crash"
        assert event.records_moved > 0
        assert event.host not in web.network
        web.web.validate()
        result = BatchExecutor(web).run(
            [Operation("search", float(q)) for q in range(0, 1_000_000, 200_000)]
        )
        assert result.failed == 0

    def test_repair_traffic_is_billed_as_control_messages(self):
        web = SkipWeb1D(uniform_keys(24, seed=3), seed=3)
        controller = _controller(web, seed=3)
        before = web.network.message_log.count(MessageKind.CONTROL)
        event = controller.leave()
        after = web.network.message_log.count(MessageKind.CONTROL)
        assert after - before == event.repair_messages
        assert event.repair_rounds == event.repair_messages  # one hand-off per round

    def test_min_hosts_floor_blocks_retirement(self):
        web = SkipWeb1D([1.0, 2.0, 3.0], seed=0)
        controller = _controller(web, min_hosts=web.network.host_count)
        with pytest.raises(ChurnError):
            controller.leave()
        with pytest.raises(ChurnError):
            controller.crash()

    def test_unknown_schedule_kind_rejected(self):
        web = SkipWeb1D(uniform_keys(8, seed=0), seed=0)
        controller = _controller(web)
        with pytest.raises(ValueError):
            controller.run_schedule(["rebalance"])

    def test_migrate_fraction_validation(self):
        web = SkipWeb1D(uniform_keys(8, seed=0), seed=0)
        with pytest.raises(ValueError):
            RepairEngine(web).migrate(0, fraction=0.0)
        with pytest.raises(ValueError):
            RepairEngine(web).migrate(0, fraction=1.5)

    def test_full_scenario_is_deterministic(self):
        def run():
            web = SkipWeb1D(uniform_keys(32, seed=5), seed=5)
            controller = _controller(web, seed=5)
            schedule = churn_schedule(5, controller.rng)
            events = controller.run_schedule(schedule)
            return [(e.kind, e.host, e.records_moved, e.repair_messages) for e in events]

        assert run() == run()


class TestChurnOnOtherStructures:
    def test_chord_lookups_survive_ring_churn(self):
        keys = uniform_keys(32, seed=0)
        chord = ChordDHT(keys)
        controller = _controller(chord)
        controller.run_schedule(["join", "crash", "leave", "join"])
        rng = random.Random(0)
        result = BatchExecutor(chord).run(
            [Operation("search", rng.choice(keys)) for _ in range(12)]
        )
        assert result.failed == 0
        assert all(outcome.value.found for outcome in result.outcomes)

    def test_chord_rejects_partial_migration_without_a_joiner(self):
        chord = ChordDHT(uniform_keys(8, seed=0))
        with pytest.raises(ChurnError):
            RepairEngine(chord).migrate(chord.origin_hosts()[0], fraction=0.5)

    def test_baseline_searches_survive_churn(self):
        structure = SkipGraph(uniform_keys(24, seed=1), seed=1)
        controller = _controller(structure, seed=1)
        controller.run_schedule(["join", "leave", "crash"])
        rng = random.Random(1)
        result = BatchExecutor(structure).run(
            [Operation("search", rng.uniform(0, 1e6)) for _ in range(10)]
        )
        assert result.failed == 0
        for outcome in result.outcomes:
            eager = structure.search(outcome.operation.payload)
            assert eager.nearest == outcome.value.nearest

    def test_bucket_skipweb_redeals_blocks_after_churn(self):
        bucket = BucketSkipWeb1D(uniform_keys(24, seed=2), memory_size=8, seed=2)
        controller = _controller(bucket, seed=2)
        events = controller.run_schedule(["join", "crash", "leave"])
        assert all(event.records_moved > 0 for event in events)
        bucket.validate()
        assert bucket.nearest(123.456).answer.nearest in bucket.keys


class TestRepairEngine:
    def test_refuses_to_run_inside_an_open_round_session(self):
        web = SkipWeb1D(uniform_keys(8, seed=0), seed=0)
        engine = RepairEngine(web)
        with web.network.rounds():
            with pytest.raises(ChurnError):
                engine.migrate(web.origin_hosts()[0])

    def test_repair_result_carries_round_reports(self):
        web = SkipWeb1D(uniform_keys(16, seed=4), seed=4)
        engine = RepairEngine(web)
        victim = web.origin_hosts()[3]
        result = engine.migrate(victim)
        assert result.summary.kind == "migrate"
        assert result.summary.hosts == (victim,)
        assert result.messages == sum(r.delivered for r in result.round_reports)
        assert result.max_round_congestion == 1  # hand-offs are sequential

    def test_migrating_onto_a_failed_target_surfaces_host_failed(self):
        """A hand-off toward a dead target aborts loudly, not silently."""
        from repro.errors import HostFailedError

        web = SkipWeb1D(uniform_keys(16, seed=6), seed=6)
        source, target = web.origin_hosts()[2], web.origin_hosts()[5]
        inject_host_faults(web.network, [target])
        with pytest.raises(HostFailedError):
            RepairEngine(web).migrate(source, targets=[target], fraction=0.5)
        # The failed hand-off happened before any record moved, so the
        # structure is still whole.
        web.network.recover_host(target)
        web.web.validate()
