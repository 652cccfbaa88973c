"""A batch of one search, insert or delete is one walk, not a scheduled round loop.

``BatchExecutor.run`` drives a lone non-forking operation with the walk
loop ``run_immediate`` uses, charging each crossing as a round of its own
(``Network.deliver``).  These tests pin that the shortcut is invisible:
on every registered family, both substrates and with or without a
topology, a seeded stream of single operations produces the same handles,
round reports, congestion aggregates, log counters and measured stats as
a twin cluster whose no-op ``on_round`` hook forces the round scheduler.
They also pin when the shortcut must *not* apply (counted through
``Network.run_round``, which the lone walk never calls), that
``Network.deliver`` is ``post`` + ``run_round`` + ``result`` for one
delivery, and that repair bills exactly what the old per-crossing
post/run_round pump billed.
"""

from __future__ import annotations

import random
from dataclasses import MISSING, fields

import pytest

from repro.api import Cluster, structure_specs
from repro.engine import BatchExecutor, Operation, RepairEngine
from repro.engine.steps import OP_VISIT, Resolution, StepCursor
from repro.errors import HostFailedError, ReproError, StructureError
from repro.net.faults import FaultPlan, drop
from repro.net.message import MessageKind
from repro.net.naming import Address
from repro.net.network import Network, RoundReport, ledger_mode, tracing_mode
from repro.spatial import HyperCube
from repro.strings import DNA
from repro.workloads import dna_reads, non_crossing_segments, uniform_keys, uniform_points

STREAM_LENGTH = 18


def _scenario(name):
    """(items, Cluster kwargs, query maker) for one registered family."""
    if name == "skipquadtree":
        return (
            uniform_points(24, dimension=2, seed=5),
            {"bounding_cube": HyperCube((0.0, 0.0), 1.0)},
            lambda rng, items: (rng.random(), rng.random()),
        )
    if name == "skiptrie":
        return (
            dna_reads(24, seed=5),
            {"alphabet": DNA},
            lambda rng, items: rng.choice(items)[: rng.randint(2, 8)],
        )
    if name == "skiptrapezoid":

        def near_a_segment(rng, items):
            segment = rng.choice(items)
            return (segment.left[0] + 0.25, segment.left[1] + 0.25)

        return non_crossing_segments(14, seed=5), {}, near_a_segment
    kwargs = {"memory_size": 16} if name == "bucket-skipweb1d" else {}
    return uniform_keys(24, seed=5), kwargs, lambda rng, items: rng.uniform(0.0, 1e6)


def _stream(name):
    """A seeded mix of searches, deletes of live items and re-inserts of deleted ones.

    Re-inserting a deleted item is valid on every family (a segment that
    crossed nothing still crosses nothing), so no family needs its own
    fresh-item generator.  Chord rejects both update kinds, which keeps
    the failure path in the stream.
    """
    items, _kwargs, query = _scenario(name)
    rng = random.Random(f"one-walk:{name}")
    live = list(items)
    deleted = []
    operations = []
    for _ in range(STREAM_LENGTH):
        roll = rng.random()
        if roll < 0.25 and len(live) > len(items) // 2:
            victim = live.pop(rng.randrange(len(live)))
            deleted.append(victim)
            operations.append(("delete", victim))
        elif roll < 0.45 and deleted:
            item = deleted.pop(rng.randrange(len(deleted)))
            live.append(item)
            operations.append(("insert", item))
        else:
            operations.append(("search", query(rng, live)))
    return operations


def _build(name, trace, **extra):
    """A family's cluster on the chosen substrate (built inside the mode)."""
    items, kwargs, _query = _scenario(name)
    with tracing_mode() if trace else ledger_mode():
        cluster = Cluster(structure=name, items=items, seed=5, **kwargs, **extra)
        assert cluster.structure.network.trace is trace
    return cluster


def _cluster(name, trace, topology, scheduled):
    cluster = _build(name, trace, topology=topology)
    if scheduled:
        # Any on_round hook keeps the round scheduler in charge.
        cluster.executor.on_round = lambda report: None
    return cluster


def _observe(cluster, operation):
    """Everything a caller can see of one single-operation batch."""
    network = cluster.network
    with network.measure() as stats:
        report = cluster.batch([operation])
    handle = report[0]
    log = network.message_log
    return {
        "status": handle.status,
        "value": repr(handle.value),
        "error": repr(handle.error),
        "origin_host": handle.origin_host,
        "messages": handle.messages,
        "rounds": handle.rounds,
        "retries": handle.retries,
        "latency": handle.latency,
        "batch": (report.raw.rounds, report.raw.messages, report.raw.latency),
        "round_reports": report.raw.round_reports,
        "congestion": cluster.round_congestion(),
        "log": (
            len(log),
            log.counts_by_kind(),
            log.dropped,
            log.duplicated,
            log.delayed,
            [(host, log.received_by(host), log.sent_by(host)) for host in network._hosts],
        ),
        "measured": (
            stats.messages,
            stats.by_kind,
            stats.by_round,
            stats.latency,
            sorted(stats.hosts_touched),
        ),
    }


class _RunRoundCounter:
    """Counts ``Network.run_round`` calls (the scheduler's round loop)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = Network.run_round

        def counted(network):
            self.calls += 1
            return original(network)

        monkeypatch.setattr(Network, "run_round", counted)


class TestOneWalkMatchesTheScheduler:
    @pytest.mark.parametrize("topology", [None, "clustered"], ids=["flat", "clustered"])
    @pytest.mark.parametrize("trace", [False, True], ids=["ledger", "trace"])
    @pytest.mark.parametrize("name", sorted(structure_specs()))
    def test_single_operation_stream(self, name, trace, topology, monkeypatch):
        walked = _cluster(name, trace, topology, scheduled=False)
        scheduled = _cluster(name, trace, topology, scheduled=True)
        counter = _RunRoundCounter(monkeypatch)
        statuses = set()
        for index, operation in enumerate(_stream(name)):
            before = counter.calls
            seen = _observe(walked, operation)
            assert counter.calls == before, (index, operation, "one walk ran a round loop")
            expected = _observe(scheduled, operation)
            assert seen == expected, (index, operation)
            statuses.add(seen["status"])
        assert counter.calls > 0  # the twin really was scheduled
        assert "ok" in statuses

    def test_every_family_is_covered(self):
        assert len(structure_specs()) == 12

    def test_single_calls_take_the_walk(self, monkeypatch):
        cluster = _cluster("skipweb1d", trace=True, topology=None, scheduled=False)
        counter = _RunRoundCounter(monkeypatch)
        handles = [cluster.get(key) for key in uniform_keys(8, seed=9)]
        handles.append(cluster.insert(1.5))
        handles.append(cluster.delete(1.5))
        assert all(handle.ok for handle in handles)
        assert sum(handle.messages for handle in handles) > 0
        assert counter.calls == 0


class TestFallbacks:
    """Whatever can act on the round clock keeps the round scheduler."""

    KEYS = uniform_keys(32, seed=11)
    QUERY = 654_321.0

    def _scheduled_rounds(self, cluster, operations, monkeypatch):
        counter = _RunRoundCounter(monkeypatch)
        report = cluster.batch(operations)
        assert report.raw.messages > 0
        return counter.calls

    def test_fault_plan(self, monkeypatch):
        cluster = Cluster("skipweb1d", self.KEYS, seed=11, faults=FaultPlan([drop(0.0)]))
        assert self._scheduled_rounds(cluster, [("search", self.QUERY)], monkeypatch) > 0

    def test_failed_host(self, monkeypatch):
        cluster = Cluster("skipweb1d", self.KEYS, seed=11)
        cluster.network.fail_host(cluster.executor.alive_origins()[-1])
        assert self._scheduled_rounds(cluster, [("search", self.QUERY)], monkeypatch) > 0

    def test_route_cache(self, monkeypatch):
        cluster = Cluster("skipweb1d", self.KEYS, seed=11, route_cache=True)
        assert self._scheduled_rounds(cluster, [("search", self.QUERY)], monkeypatch) > 0

    def test_round_budget(self, monkeypatch):
        cluster = Cluster("skipweb1d", self.KEYS, seed=11, round_budget=1_000)
        assert self._scheduled_rounds(cluster, [("search", self.QUERY)], monkeypatch) > 0

    def test_on_round_hook(self, monkeypatch):
        cluster = Cluster("skipweb1d", self.KEYS, seed=11)
        cluster.executor.on_round = lambda report: None
        assert self._scheduled_rounds(cluster, [("search", self.QUERY)], monkeypatch) > 0

    def test_range(self, monkeypatch):
        cluster = Cluster("skipweb1d", self.KEYS, seed=11)
        operations = [("range", (100_000.0, 600_000.0))]
        assert self._scheduled_rounds(cluster, operations, monkeypatch) > 0

    def test_two_operations(self, monkeypatch):
        cluster = Cluster("skipweb1d", self.KEYS, seed=11)
        operations = [("search", self.QUERY), ("search", 123.0)]
        assert self._scheduled_rounds(cluster, operations, monkeypatch) > 0

    def test_lone_walk_needs_no_round_loop(self, monkeypatch):
        cluster = Cluster("skipweb1d", self.KEYS, seed=11)
        assert self._scheduled_rounds(cluster, [("search", self.QUERY)], monkeypatch) == 0


class TestLoneWalkSemantics:
    KEYS = uniform_keys(32, seed=11)

    def test_conflicts_restart_the_walk_and_repay_its_messages(self):
        class Flaky:
            """Fails the first ``failures`` walks with a retryable error."""

            def __init__(self, structure, failures):
                self._structure = structure
                self.network = structure.network
                self.failures = failures

            def __getattr__(self, attribute):
                return getattr(self._structure, attribute)

            def search_steps(self, query, origin_host=None):
                inner = self._structure.search_steps(query, origin_host)
                if self.failures == 0:
                    return inner
                self.failures -= 1
                return self._fail_after(inner)

            @staticmethod
            def _fail_after(inner):
                # Follow the real walk to its first paid crossing, then conflict.
                effect = next(inner)
                while True:
                    resolution = yield effect
                    if resolution.charged:
                        raise StructureError("record changed underneath the walk")
                    effect = inner.send(resolution)

        def run(on_round, failures, max_retries=5):
            cluster = Cluster("skipweb1d", self.KEYS, seed=11)
            executor = BatchExecutor(
                Flaky(cluster.structure, failures), max_retries=max_retries, on_round=on_round
            )
            return executor.run([Operation("search", 654_321.0)])

        clean = run(None, 0).outcomes[0]
        for failures, max_retries, ok in ((2, 5, True), (3, 2, False)):
            walked = run(None, failures, max_retries)
            scheduled = run(lambda report: None, failures, max_retries)
            outcome, twin = walked.outcomes[0], scheduled.outcomes[0]
            assert (outcome.ok, outcome.retries) == (ok, min(failures, max_retries))
            assert outcome.messages > (clean.messages if ok else 0)  # aborted walks re-paid
            assert (outcome.messages, outcome.rounds, repr(outcome.error)) == (
                twin.messages,
                twin.rounds,
                repr(twin.error),
            )
            assert walked.round_reports == scheduled.round_reports
            assert walked.round_congestion() == scheduled.round_congestion()

    @pytest.mark.parametrize(
        "how, expected",
        [
            ("unknown destination", "raised"),
            ("unknown local host", "raised"),
            ("freed slot", "outcome"),
            ("raised by the walk", "outcome"),
        ],
    )
    def test_network_errors_escape_and_walk_errors_fail_like_the_scheduler(self, how, expected):
        class Probe:
            """Three hosts and a search that misbehaves in one chosen way."""

            def __init__(self):
                self.network = Network()
                self.network.add_hosts(3)

            def origin_hosts(self):
                return (0, 1, 2)

            def search_steps(self, query, origin_host=None):
                cursor = StepCursor(origin_host)
                if how == "unknown local host":
                    # The caller pins origin 9999: a local dereference there.
                    yield from cursor.visit(Address(origin_host, 0))
                yield from cursor.hop_to(1)
                if how == "unknown destination":
                    yield from cursor.hop_to(9999)
                elif how == "freed slot":
                    yield from cursor.visit(Address(2, 12345))
                else:
                    self.network.host(9999)
                return cursor.hops

        def run(on_round):
            executor = BatchExecutor(Probe(), max_retries=1, on_round=on_round)
            origin = 9999 if how == "unknown local host" else 0
            try:
                result = executor.run([Operation("search", None, origin_host=origin)])
            except ReproError as error:
                return ("raised", repr(error))
            outcome = result.outcomes[0]
            return ("outcome", repr(outcome.error), outcome.retries, outcome.messages)

        walked = run(None)
        assert walked == run(lambda report: None)
        assert walked[0] == expected

    def test_updates_clear_the_route_cache_and_commit(self):
        cluster = Cluster("skipweb1d", self.KEYS, seed=11)
        committed = []
        executor = BatchExecutor(
            cluster.structure, on_commit=lambda ops, result: committed.append(ops)
        )
        executor._cache[("stale", None)] = object()
        result = executor.run([Operation("insert", 1.5)])
        assert result.outcomes[0].ok
        assert executor._cache == {}
        assert committed == [(Operation("insert", 1.5),)]

    def test_max_rounds_bounds_the_walk_like_the_scheduler(self):
        cluster = Cluster("skipweb1d", self.KEYS, seed=11)
        for on_round in (None, lambda report: None):
            executor = BatchExecutor(cluster.structure, max_rounds=1, on_round=on_round)
            with pytest.raises(RuntimeError, match="exceeded 1 rounds"):
                executor.run([Operation("search", 654_321.0)])


class TestDeliver:
    """``Network.deliver`` is ``post`` + ``run_round`` + ``result`` for one delivery."""

    @staticmethod
    def _posted(network, src, dst, kind):
        ticket = network.post(src, dst, kind=kind)
        network.run_round()
        return ticket.result()

    @staticmethod
    def _state(network):
        log = network.message_log
        return (
            network.round_reports,
            network.round_congestion_summary(),
            network.topology_congestion_summary(),
            network.rounds_completed,
            len(log),
            log.counts_by_kind(),
            [(host, log.received_by(host), log.sent_by(host)) for host in network._hosts],
        )

    @pytest.mark.parametrize("topology", [None, "clustered"], ids=["flat", "clustered"])
    @pytest.mark.parametrize("trace", [False, True], ids=["ledger", "trace"])
    def test_same_reports_aggregates_and_counters(self, trace, topology):
        route = [(0, 1), (1, 1), (1, 5), (5, 2), (2, 5), (5, 0), (0, 3)]
        kinds = [MessageKind.QUERY, MessageKind.UPDATE, MessageKind.CONTROL]
        observed = []
        for charge in ("deliver", "posted"):
            network = Network(trace=trace, topology=topology)
            network.add_hosts(6)
            with network.measure() as stats, network.rounds():
                for index, (src, dst) in enumerate(route):
                    kind = kinds[index % 3]
                    if charge == "deliver":
                        message = network.deliver(src, dst, kind)
                    else:
                        message = self._posted(network, src, dst, kind)
                    assert (message is None) == (not trace or src == dst)
                network.fail_host(4)
                for src, dst in ((0, 4), (4, 0)):
                    with pytest.raises(HostFailedError, match="host 4 has failed"):
                        if charge == "deliver":
                            network.deliver(src, dst, MessageKind.QUERY)
                        else:
                            self._posted(network, src, dst, MessageKind.QUERY)
            measured = (stats.messages, stats.by_kind, stats.by_round, stats.latency)
            observed.append((self._state(network), measured))
        assert observed[0] == observed[1]
        reports = observed[0][0][0]
        assert [report.dropped for report in reports[-2:]] == [1, 1]
        assert reports[1].delivered == 0  # the self-delivery still closed a round

    def test_queued_or_assembling_traffic_closes_with_it(self):
        network = Network(trace=True)
        network.add_hosts(4)
        with network.rounds():
            network.post(0, 1)
            network.send(2, 3)
            network.deliver(1, 2)
            assert network.rounds_completed == 1
            (report,) = network.round_reports
            assert report.delivered == 3
            assert report.per_host == {1: 1, 2: 1, 3: 1}

    def test_requires_round_mode(self):
        network = Network()
        network.add_hosts(2)
        with pytest.raises(RuntimeError, match="round-based mode"):
            network.deliver(0, 1)


class TestRoundReport:
    FIELDS = [
        ("index", MISSING),
        ("delivered", MISSING),
        ("per_host", MISSING),
        ("dropped", 0),
        ("max_load", -1),
        ("max_load_host", None),
        ("weight", 0),
        ("max_link_load", 0),
        ("max_link", None),
        ("max_cluster_load", 0),
        ("max_cluster", None),
        ("injected_drops", 0),
        ("duplicated", 0),
        ("delayed", 0),
    ]

    def test_field_list_and_defaults_are_pinned(self):
        assert [(field.name, field.default) for field in fields(RoundReport)] == self.FIELDS

    def test_equality_and_max_host_load(self):
        report = RoundReport(3, 2, {1: 2})
        assert report == RoundReport(index=3, delivered=2, per_host={1: 2})
        assert report != RoundReport(3, 2, {1: 2}, dropped=1)
        assert report.max_host_load == 2
        assert RoundReport(0, 0, {}).max_host_load == 0
        assert RoundReport(0, 5, {}, max_load=5, max_load_host=2).max_host_load == 5


class TestQuietOrigins:
    """200 quiet gets build the declared origin list at most once."""

    @pytest.mark.parametrize("name", ["skipweb1d", "bucket-skipweb1d", "skipgraph", "chord"])
    def test_origin_list_is_built_once(self, name, monkeypatch):
        items, kwargs, query = _scenario(name)
        cluster = Cluster(name, items, seed=5, **kwargs)
        structure = cluster.structure
        declared = []
        original = type(structure).origin_hosts
        monkeypatch.setattr(
            type(structure),
            "origin_hosts",
            lambda self: declared.append(original(self)) or declared[-1],
        )
        rng = random.Random(1)
        for _ in range(200):
            assert cluster.get(query(rng, items)).status == "ok"
        assert len(declared) >= 200
        assert len({id(origins) for origins in declared}) <= 1

    def test_a_skip_graph_delete_still_moves_the_origins(self):
        cluster = Cluster("skipgraph", items=[1.0, 2.0, 3.0], seed=3)
        before = cluster.structure.origin_hosts()
        assert cluster.delete(1.0).ok
        after = cluster.structure.origin_hosts()
        assert after is not before and len(after) == len(before) - 1
        assert cluster.executor.alive_origins() == list(after)


def _old_pump(network, gen):
    """The repair pump before it moved onto the walk loop (the oracle)."""
    current = None
    try:
        effect = next(gen)
        while True:
            is_visit = effect.op == OP_VISIT
            target = effect.address.host if is_visit else effect.host
            charged = current is not None and target != current
            if charged:
                ticket = network.post(current, target, kind=MessageKind.CONTROL)
                network.run_round()
                ticket.result()
            current = target
            value = network.load(effect.address) if is_visit else None
            effect = gen.send(Resolution(value=value, host=current, charged=charged))
    except StopIteration as stop:
        return stop.value


class TestRepairOnTheWalkLoop:
    @pytest.mark.parametrize("trace", [False, True], ids=["ledger", "trace"])
    @pytest.mark.parametrize("name", ["skipweb1d", "bucket-skipweb1d", "skipgraph", "chord"])
    def test_repair_and_migration_bill_what_the_old_pump_billed(self, name, trace):
        def build():
            cluster = _build(name, trace)
            network = cluster.network
            victims = cluster.executor.alive_origins()[1:3]
            for victim in victims:
                network.fail_host(victim)
            return cluster.structure, network, victims

        structure, _network, victims = build()
        engine = RepairEngine(structure)
        leaver = structure.origin_hosts()[0]
        results = [engine.repair(victims), engine.migrate(leaver)]

        twin, twin_network, twin_victims = build()
        assert twin_victims == victims
        expected = []
        for start in (lambda: twin.repair(list(victims)), lambda: twin.migrate_host(leaver)):
            with twin_network.rounds():
                with twin_network.measure() as stats:
                    summary = _old_pump(twin_network, start())
                rounds = twin_network.rounds_completed
                expected.append((summary, stats.messages, rounds, twin_network.round_reports))
        assert [
            (result.summary, result.messages, result.rounds, result.round_reports)
            for result in results
        ] == expected
        assert any(result.messages for result in results)

    def test_repair_re_raises_host_failures(self):
        cluster = Cluster("skipgraph", uniform_keys(16, seed=5), seed=5)
        victim = cluster.executor.alive_origins()[0]
        cluster.network.fail_host(victim)
        with pytest.raises(HostFailedError):
            # Migrating off a dead host must cross to it, and cannot.
            RepairEngine(cluster.structure).migrate(
                victim, targets=[cluster.executor.alive_origins()[0]]
            )
