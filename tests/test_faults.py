"""Tests for ``repro.net.faults``: seeded chaos plans and self-healing ops.

The subsystem's contract has three legs, each pinned here:

* **Determinism** — every fault decision flows from one seeded rng at
  one delivery choke point, so two identical runs (and a journal
  replay) make byte-identical fault decisions.
* **Resilience** — the executors absorb injected faults: bounded
  retries with linear backoff, round budgets that time operations out,
  and an immediate-mode retry loop; exhaustion is a typed terminal
  status (``gave_up`` / ``timed_out``), never a hang.
* **Recovery** — crash-stopped hosts come back (scheduled
  ``recover_after``, ``ChurnController.recover``,
  ``Cluster.recover_host``), and the durability layer journals all of
  it (with a mismatch guard for tampered chaos schedules).

``faults=None`` identity is pinned separately in
``tests/test_perf_equivalence.py`` (the no-kwarg sweep over all
families).
"""

import json
import os
import random

import pytest

from repro.api import Cluster, FaultPlan, FaultRule, resolve_faults
from repro.engine import BatchExecutor
from repro.errors import (
    ChurnError,
    FaultInjectedError,
    OperationTimedOutError,
    StorageError,
)
from repro.net import (
    ChurnController,
    FailureInjector,
    MessageKind,
    Network,
    churn_schedule,
)
from repro.net.churn import EVENT_KINDS
from repro.net.faults import (
    FAULT_NAMES,
    crash,
    delay,
    drop,
    duplicate,
    faults_from_config,
    inject_host_faults,
    outage,
)
from repro.net.network import ledger_mode
from repro.net.topology import ClusteredTopology
from repro.onedim import SkipWeb1D
from repro.storage import decode_record, encode_record
from repro.workloads import uniform_keys

KEYS = uniform_keys(32, seed=7)
QUERIES = uniform_keys(12, seed=8)


class TestRulesAndResolution:
    def test_invalid_rules_are_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule("scramble")
        with pytest.raises(ValueError, match="probability"):
            drop(1.5)
        with pytest.raises(ValueError, match="window"):
            drop(0.5, window=(3, 3))
        with pytest.raises(ValueError, match="delay_rounds"):
            delay(0)
        with pytest.raises(ValueError, match="victims"):
            crash(victims=0)
        with pytest.raises(ValueError, match="recover_after"):
            crash(recover_after=0)
        with pytest.raises(ValueError, match="expected FaultRule"):
            FaultPlan(("drop",))

    def test_zero_probability_is_allowed_but_inert(self):
        network = Network(faults=FaultPlan([drop(0.0)], seed=1))
        network.add_hosts(2)
        with network.rounds():
            ticket = network.post(0, 1)
            network.run_round()
        assert ticket.error is None
        assert network.message_log.dropped == 0

    def test_describe_round_trips_through_config(self):
        plan = FaultPlan(
            [
                drop(0.25, src=1, message_kind="query", window=(2, 5)),
                duplicate(0.5, cluster=1),
                delay(3, 0.1, dst=4),
                crash(at_round=2, victims=2, recover_after=4),
                outage(1, at_round=3),
            ],
            seed=9,
        )
        rebuilt = faults_from_config(plan.describe())
        assert rebuilt == plan
        assert rebuilt.describe() == plan.describe()
        assert faults_from_config(None) is None
        with pytest.raises(ValueError, match="unknown fault config kind"):
            faults_from_config({"kind": "mesh"})

    def test_resolve_faults_accepts_every_spelling(self):
        assert resolve_faults(None) is None
        plan = FaultPlan([drop(0.1)], seed=2)
        assert resolve_faults(plan) is plan
        wrapped = resolve_faults(drop(0.1), seed=2)
        assert wrapped.rules == (drop(0.1),) and wrapped.seed == 2
        listed = resolve_faults([drop(0.1), duplicate(0.2)], seed=3)
        assert listed.rules == (drop(0.1), duplicate(0.2))
        for name in FAULT_NAMES:
            preset = resolve_faults(name, seed=4)
            assert isinstance(preset, FaultPlan) and preset.seed == 4
        with pytest.raises(ValueError, match="unknown fault preset"):
            resolve_faults("meteor")
        with pytest.raises(ValueError, match="cannot resolve faults"):
            resolve_faults(3.14)


class TestMessageFaults:
    @staticmethod
    def _network(*rules, seed=0, hosts=3, **kwargs):
        network = Network(trace=True, faults=FaultPlan(rules, seed=seed), **kwargs)
        network.add_hosts(hosts)
        return network

    def test_drop_fails_the_ticket_uncharged(self):
        network = self._network(drop(1.0))
        with network.rounds():
            ticket = network.post(0, 1)
            network.run_round()
        with pytest.raises(FaultInjectedError):
            ticket.result()
        assert network.total_messages == 0
        assert network.message_log.dropped == 1
        assert network.round_reports[-1].injected_drops == 1

    def test_duplicate_charges_the_delivery_twice(self):
        network = self._network(duplicate(1.0))
        with network.rounds():
            ticket = network.post(0, 1)
            network.run_round()
        assert ticket.error is None
        assert network.total_messages == 2
        assert network.message_log.duplicated == 1
        assert network.round_reports[-1].duplicated == 1

    def test_delay_parks_the_ticket_then_delivers_once(self):
        network = self._network(delay(2, 1.0))
        with network.rounds():
            ticket = network.post(0, 1)
            network.run_round()
            assert ticket.deferred
            network.run_round()
            network.run_round()
        assert ticket.error is None
        assert not ticket.deferred
        assert network.total_messages == 1
        assert network.message_log.delayed == 1

    def test_link_and_kind_scoping(self):
        network = self._network(drop(1.0, src=0), drop(1.0, message_kind="update"))
        with network.rounds():
            doomed_src = network.post(0, 1)
            doomed_kind = network.post(1, 2, MessageKind.UPDATE)
            healthy = network.post(1, 2)
            network.run_round()
        with pytest.raises(FaultInjectedError):
            doomed_src.result()
        with pytest.raises(FaultInjectedError):
            doomed_kind.result()
        assert healthy.error is None
        assert network.message_log.dropped == 2

    def test_window_bounds_a_burst(self):
        network = self._network(drop(1.0, window=(1, 2)))
        outcomes = []
        with network.rounds():
            for _ in range(3):
                ticket = network.post(0, 1)
                network.run_round()
                outcomes.append(ticket.error is None)
        assert outcomes == [True, False, True]

    def test_first_matching_rule_wins(self):
        network = self._network(duplicate(1.0, dst=1), drop(1.0))
        with network.rounds():
            duplicated = network.post(0, 1)
            dropped = network.post(0, 2)
            network.run_round()
        assert duplicated.error is None
        with pytest.raises(FaultInjectedError):
            dropped.result()
        assert network.message_log.duplicated == 1
        assert network.message_log.dropped == 1

    def test_immediate_send_drop_raises_and_windows_never_match(self):
        network = self._network(drop(1.0, window=(0, 100)), drop(1.0, dst=2))
        # Burst windows are round-relative, so they cannot match outside
        # a round session; only the un-windowed dst rule fires.
        assert network.send(0, 1, MessageKind.QUERY) is not None
        with pytest.raises(FaultInjectedError):
            network.send(0, 2, MessageKind.QUERY)
        assert network.message_log.dropped == 1

    def test_two_identical_runs_decide_identically(self):
        def run():
            network = self._network(drop(0.4), duplicate(0.3), delay(2, 0.2), seed=11)
            with network.rounds():
                tickets = []
                for step in range(12):
                    tickets.append(network.post(step % 3, (step + 1) % 3))
                    network.run_round()
                network.run_round()
                network.run_round()
            log = network.message_log
            return (
                [ticket.error is None for ticket in tickets],
                network.total_messages,
                (log.dropped, log.duplicated, log.delayed),
            )

        assert run() == run()


class TestHostFaults:
    def test_crash_rule_fails_then_recovers_on_schedule(self):
        plan = FaultPlan([crash(host=2, at_round=0, recover_after=3)], seed=0)
        network = Network(faults=plan)
        network.add_hosts(4)
        with network.rounds():
            network.run_round()
            assert network.failed_hosts == {2}
            network.run_round()
            network.run_round()
            assert network.failed_hosts == {2}
            network.run_round()  # clock 3: the scheduled recovery is due
            assert network.failed_hosts == set()

    def test_scheduled_recovery_survives_a_session_boundary(self):
        # The plan's clock is monotone across round sessions, so a
        # recovery scheduled past the end of one batch fires during the
        # next batch's rounds instead of being lost.
        plan = FaultPlan([crash(host=1, at_round=0, recover_after=3)], seed=0)
        network = Network(faults=plan)
        network.add_hosts(3)
        with network.rounds():
            network.run_round()
        assert network.failed_hosts == {1}
        with network.rounds():
            network.run_round()
            network.run_round()
            network.run_round()
        assert network.failed_hosts == set()

    def test_sampled_crash_never_takes_the_last_host(self):
        plan = FaultPlan([crash(victims=10)], seed=3)
        network = Network(faults=plan)
        network.add_hosts(3)
        with network.rounds():
            network.run_round()
        assert len(network.failed_hosts) == 2
        assert len(network.alive_host_ids()) == 1

    def test_outage_requires_a_topology(self):
        network = Network(faults=FaultPlan([outage(0)], seed=0))
        network.add_hosts(3)
        with pytest.raises(ValueError, match="needs a topology"):
            with network.rounds():
                network.run_round()

    def test_inject_host_faults_skips_unknown_and_already_failed(self):
        network = Network()
        network.add_hosts(3)
        assert inject_host_faults(network, [99, 1]) == [1]
        assert inject_host_faults(network, [1, 2]) == [2]
        assert network.failed_hosts == {1, 2}


class TestClusterResilience:
    @staticmethod
    def _batch(faults, seed=7, **kwargs):
        with ledger_mode():
            cluster = Cluster("skipweb1d", KEYS, seed=seed, faults=faults, **kwargs)
            report = cluster.batch([("search", query) for query in QUERIES])
        return cluster, report

    def test_seeded_chaos_runs_are_byte_identical(self):
        def run():
            cluster, report = self._batch(
                FaultPlan([drop(0.3, message_kind="query"), delay(2, 0.1)], seed=7)
            )
            log = cluster.network.message_log
            return (
                [(h.status, h.messages, h.rounds, h.retries) for h in report],
                report.summary(),
                (log.dropped, log.duplicated, log.delayed),
            )

        first, second = run(), run()
        assert first == second
        assert first[2][0] > 0  # the plan actually dropped deliveries

    def test_retries_absorb_moderate_loss(self):
        cluster, report = self._batch(FaultPlan([drop(0.2, message_kind="query")], seed=7))
        assert report.summary()["completed"] == len(QUERIES)
        assert sum(handle.retries for handle in report) > 0
        assert cluster.network.message_log.dropped > 0
        # The delivered answers match a fault-free run's, message for key.
        _, clean = self._batch(None)
        assert [handle.value for handle in report] == [handle.value for handle in clean]

    def test_total_loss_gives_up_with_bounded_retries(self):
        cluster, report = self._batch(FaultPlan([drop(1.0, message_kind="query")], seed=7))
        summary = report.summary()
        assert summary["gave_up"] == len(QUERIES) == report.gave_up
        for handle in report:
            assert handle.status == "gave_up"
            assert handle.retries == cluster._max_retries
            assert isinstance(handle.error, FaultInjectedError)

    def test_round_budget_times_out_stalled_operations(self):
        _, report = self._batch(FaultPlan([delay(8, 1.0)], seed=7), round_budget=2)
        summary = report.summary()
        assert summary.get("timed_out", 0) == len(QUERIES) == report.timed_out
        for handle in report:
            assert handle.status == "timed_out"
            assert isinstance(handle.error, OperationTimedOutError)

    def test_outage_blacks_out_one_topology_cluster(self):
        with ledger_mode():
            cluster = Cluster(
                "skipweb1d",
                KEYS,
                seed=7,
                topology=ClusteredTopology(clusters=2, inter_cost=5),
                faults=FaultPlan([outage(0, at_round=0)], seed=7),
            )
            cluster.batch([("search", query) for query in QUERIES])
        failed = cluster.network.failed_hosts
        assert failed
        topology = cluster.network.topology
        assert all(topology.cluster_of(host) == 0 for host in failed)
        assert cluster.network.alive_host_ids()

    def test_immediate_mode_retries_then_succeeds(self):
        with ledger_mode():
            cluster = Cluster(
                "skipweb1d",
                KEYS,
                seed=7,
                mode="immediate",
                faults=FaultPlan([drop(0.3, message_kind="query")], seed=7),
            )
            handles = [cluster.nearest(query) for query in QUERIES[:6]]
        assert all(handle.ok for handle in handles)
        assert sum(handle.retries for handle in handles) > 0

    def test_immediate_mode_gives_up_on_total_loss(self):
        with ledger_mode():
            cluster = Cluster(
                "skipweb1d",
                KEYS,
                seed=7,
                mode="immediate",
                max_retries=2,
                faults=FaultPlan([drop(1.0, message_kind="query")], seed=7),
            )
            handle = cluster.nearest(QUERIES[0])
        assert handle.status == "gave_up"
        assert handle.retries == 2
        assert isinstance(handle.error, FaultInjectedError)

    def test_preset_names_resolve_on_the_cluster(self):
        cluster, report = self._batch("lossy")
        assert isinstance(cluster.faults, FaultPlan)
        assert cluster.faults.rules == (drop(0.05, message_kind="query"),)
        assert report.summary()["completed"] == len(QUERIES)

    def test_fault_plan_runs_on_the_batch_executor(self):
        cluster, report = self._batch(FaultPlan([drop(0.1)], seed=7))
        assert type(cluster.executor) is BatchExecutor
        assert cluster.executor.network is cluster.network
        assert cluster.network.faults.rules == (drop(0.1),)
        assert report.summary()["completed"] == len(QUERIES)

    def test_round_budget_runs_on_the_batch_executor(self):
        cluster, report = self._batch(None, round_budget=50)
        assert type(cluster.executor) is BatchExecutor
        assert cluster.executor.round_budget == 50
        assert report.summary()["completed"] == len(QUERIES)
        assert report.rounds <= 50


class TestChurnRecover:
    @staticmethod
    def _web_and_controller(seed=0):
        from repro.engine import RepairEngine

        web = SkipWeb1D(uniform_keys(24, seed=seed), seed=seed)
        controller = ChurnController(
            web.network, RepairEngine(web), rng=random.Random(seed)
        )
        return web, controller

    def test_recover_brings_a_crash_stopped_host_back(self):
        web, controller = self._web_and_controller()
        victim = web.origin_hosts()[2]
        FailureInjector(web.network).fail([victim])
        event = controller.recover(victim)
        assert event.kind == "recover"
        assert event.host == victim
        assert event.repair_messages == 0 and event.records_moved == 0
        assert victim not in web.network.failed_hosts

    def test_recover_samples_among_failed_hosts(self):
        web, controller = self._web_and_controller(seed=1)
        victims = web.origin_hosts()[1:3]
        FailureInjector(web.network).fail(victims)
        event = controller.recover()
        assert event.host in victims
        assert len(web.network.failed_hosts) == 1

    def test_recover_validates_its_target(self):
        web, controller = self._web_and_controller(seed=2)
        with pytest.raises(ChurnError, match="no failed hosts"):
            controller.recover()
        with pytest.raises(ChurnError, match="not a failed host"):
            controller.recover(web.origin_hosts()[0])

    def test_run_schedule_accepts_recover_events(self):
        web, controller = self._web_and_controller(seed=3)
        FailureInjector(web.network).fail([web.origin_hosts()[4]])
        events = controller.run_schedule(["recover"])
        assert [event.kind for event in events] == ["recover"]

    def test_schedule_draws_are_unchanged_by_the_zero_weight_kind(self):
        # The pre-existing seeded schedules must stay byte-identical:
        # the trailing zero-weight "recover" entry never changes what
        # rng.choices draws.
        legacy = random.Random(4).choices(
            ("join", "leave", "crash"), weights=(2.0, 1.0, 1.0), k=40
        )
        assert churn_schedule(40, random.Random(4)) == legacy
        weighted = churn_schedule(200, random.Random(4), recover_weight=2.0)
        assert "recover" in weighted
        assert set(weighted) <= set(EVENT_KINDS)


class TestFailureInjector:
    def test_fail_never_refails_and_reports_actual_victims(self):
        network = Network()
        network.add_hosts(4)
        injector = FailureInjector(network)
        assert injector.fail([1, 2]) == [1, 2]
        assert injector.fail([2, 3, 99]) == [3]
        assert injector.failed == {1, 2, 3}

    def test_fail_random_fails_at_least_one_host(self):
        network = Network()
        network.add_hosts(5)
        injector = FailureInjector(network, rng=random.Random(0))
        victims = injector.fail_random(0.1)  # 5 * 0.1 truncates to 0
        assert len(victims) == 1
        injector.recover_all()
        assert injector.fail_random(0.0) == []
        with pytest.raises(ValueError, match="fraction"):
            injector.fail_random(1.5)


class TestDurability:
    @staticmethod
    def _store(tmp_path, name="store.jsonl"):
        return str(tmp_path / name)

    def test_faults_and_budget_are_journaled_and_replayed(self, tmp_path):
        store = self._store(tmp_path)
        plan = FaultPlan([crash(at_round=0), drop(0.2, message_kind="query")], seed=5)
        with ledger_mode():
            cluster = Cluster(
                "skipweb1d", KEYS, seed=5, storage=store, faults=plan, round_budget=60
            )
            cluster.batch([("search", query) for query in QUERIES[:6]])
            assert cluster.network.failed_hosts  # the crash rule fired
            event = cluster.recover_host()
            assert event.kind == "recover"
            assert not cluster.network.failed_hosts
            cluster.batch([("search", query) for query in QUERIES[6:]])
            expected = cluster.stats().as_dict()
            expected_dropped = cluster.network.message_log.dropped
            cluster.close()
            recovered = Cluster.recover(store)
        assert recovered.stats().as_dict() == expected
        assert recovered.faults == plan
        assert recovered._round_budget == 60
        assert recovered.network.message_log.dropped == expected_dropped > 0
        recovered.close()

    def test_recover_host_replays_from_a_snapshot_tail(self, tmp_path):
        store = self._store(tmp_path)
        plan = FaultPlan([crash(at_round=0)], seed=5)
        with ledger_mode():
            cluster = Cluster(
                "skipweb1d",
                KEYS,
                seed=5,
                storage=store,
                faults=plan,
                snapshot_every=1,
            )
            cluster.batch([("search", QUERIES[0])])
            cluster.save()  # snapshot covers the batch; the tail is churn
            cluster.recover_host()
            expected = cluster.stats().as_dict()
            cluster.close()
            recovered = Cluster.recover(store)
        assert recovered.stats().as_dict() == expected
        assert not recovered.network.failed_hosts
        recovered.close()

    def test_recover_refuses_a_mismatched_chaos_schedule(self, tmp_path):
        store = self._store(tmp_path)
        with ledger_mode():
            cluster = Cluster(
                "skipweb1d",
                KEYS,
                seed=5,
                storage=store,
                faults=FaultPlan([drop(0.1)], seed=5),
                snapshot_every=1,
            )
            cluster.batch([("search", QUERIES[0])])
            cluster.save()
            cluster.close()
        # Rewrite the journal's create record to claim a different plan
        # (re-encoded, so its checksum stays valid): the snapshot and
        # the journal now disagree about the chaos schedule.
        log = os.path.join(store, "log.jsonl")
        with open(log) as fh:
            lines = fh.readlines()
        record = decode_record(json.loads(lines[0]), expected_seq=0)
        assert record.kind == "create"
        payload = dict(record.payload)
        payload["faults"] = FaultPlan([duplicate(0.9)], seed=99).describe()
        tampered = type(record)(seq=0, kind="create", payload=payload)
        lines[0] = json.dumps(encode_record(tampered)) + "\n"
        with open(log, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(StorageError, match="fault-plan mismatch"):
            Cluster.recover(store)
