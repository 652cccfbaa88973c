"""Tests for the peer-to-peer network simulator substrate."""

import pytest

from repro.errors import AddressError, HostFailedError, HostMemoryExceeded, UnknownHostError
from repro.net import Address, Host, MessageKind, Network, Traversal
from repro.net.congestion import congestion_report, round_congestion_report
from repro.net.faults import inject_host_faults
from repro.net.message import MessageLog


class TestHost:
    def test_store_and_load_round_trip(self):
        host = Host(host_id=0)
        address = host.store("payload")
        assert host.load(address) == "payload"
        assert address.host == 0

    def test_store_respects_memory_limit(self):
        host = Host(host_id=1, memory_limit=2)
        host.store("a")
        host.store("b")
        with pytest.raises(HostMemoryExceeded):
            host.store("c")

    def test_memory_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            Host(host_id=0, memory_limit=0)

    def test_load_wrong_host_raises(self):
        host = Host(host_id=0)
        other = Host(host_id=1)
        address = other.store("x")
        with pytest.raises(AddressError):
            host.load(address)

    def test_free_releases_slot(self):
        host = Host(host_id=0, memory_limit=1)
        address = host.store("a")
        assert host.free(address) == "a"
        host.store("b")  # does not raise: slot was released
        assert host.memory_used == 1

    def test_free_unknown_slot_raises(self):
        host = Host(host_id=0)
        with pytest.raises(AddressError):
            host.free(Address(host=0, slot=99))

    def test_replace_overwrites_in_place(self):
        host = Host(host_id=0)
        address = host.store("old")
        host.replace(address, "new")
        assert host.load(address) == "new"

    def test_contains_and_items(self):
        host = Host(host_id=0)
        address = host.store("x")
        assert address in host
        assert list(host.items()) == [(address, "x")]

    def test_reference_counters(self):
        host = Host(host_id=0)
        host.note_in_reference(3)
        host.note_out_reference(2)
        host.note_owned_items(4)
        assert (host.in_references, host.out_references, host.items_owned) == (3, 2, 4)
        host.reset_reference_counts()
        assert host.in_references == host.out_references == host.items_owned == 0


class TestNetwork:
    def test_add_hosts_and_lookup(self):
        network = Network()
        network.add_hosts(3)
        assert network.host_count == 3
        assert network.host(1).host_id == 1
        assert 2 in network

    def test_unknown_host_raises(self):
        network = Network()
        with pytest.raises(UnknownHostError):
            network.host(7)

    def test_explicit_host_id(self):
        network = Network()
        network.add_host(host_id=10)
        with pytest.raises(ValueError):
            network.add_host(host_id=10)
        # Automatic ids continue after the explicit one.
        assert network.add_host().host_id == 11

    def test_send_counts_messages_between_distinct_hosts(self):
        network = Network()
        network.add_hosts(2)
        network.send(0, 1)
        network.send(1, 0, kind=MessageKind.UPDATE)
        assert network.total_messages == 2
        assert network.message_log.count(MessageKind.QUERY) == 1
        assert network.message_log.count(MessageKind.UPDATE) == 1

    def test_send_to_self_is_free(self):
        network = Network()
        network.add_hosts(1)
        assert network.send(0, 0) is None
        assert network.total_messages == 0

    def test_send_to_unknown_host_raises(self):
        network = Network()
        network.add_hosts(1)
        with pytest.raises(UnknownHostError):
            network.send(0, 5)

    def test_measure_isolates_operations(self):
        network = Network()
        network.add_hosts(3)
        network.send(0, 1)
        with network.measure() as stats:
            network.send(1, 2)
            network.send(2, 0)
        assert stats.messages == 2
        assert stats.hosts_touched == {0, 1, 2}
        assert network.total_messages == 3

    def test_measure_nests(self):
        network = Network()
        network.add_hosts(2)
        with network.measure() as outer:
            network.send(0, 1)
            with network.measure() as inner:
                network.send(1, 0)
        assert inner.messages == 1
        assert outer.messages == 2

    def test_memory_profile_and_reset(self):
        network = Network()
        network.add_hosts(2)
        network.store(0, "a")
        network.store(0, "b")
        network.store(1, "c")
        assert network.memory_profile() == {0: 2, 1: 1}
        assert network.max_memory_used() == 2
        network.send(0, 1)
        network.reset_counters()
        assert network.total_messages == 0

    def test_failed_host_rejects_traffic(self):
        network = Network()
        network.add_hosts(2)
        network.fail_host(1)
        with pytest.raises(HostFailedError):
            network.send(0, 1)
        network.recover_host(1)
        network.send(0, 1)
        assert network.total_messages == 1


class TestTraversal:
    def test_local_visit_is_free(self):
        network = Network()
        network.add_hosts(2)
        address = network.store(0, "x")
        traversal = Traversal(network, origin=0)
        assert traversal.visit(address) == "x"
        assert traversal.hops == 0

    def test_remote_visit_charges_one_message(self):
        network = Network()
        network.add_hosts(2)
        address = network.store(1, "x")
        traversal = Traversal(network, origin=0)
        traversal.visit(address)
        assert traversal.hops == 1
        assert traversal.current_host == 1
        assert traversal.path == [0, 1]

    def test_hop_to_same_host_is_free(self):
        network = Network()
        network.add_hosts(2)
        traversal = Traversal(network, origin=0)
        traversal.hop_to(0)
        assert traversal.hops == 0
        traversal.hop_to(1)
        assert traversal.hops == 1

    def test_update_kind_is_recorded(self):
        network = Network()
        network.add_hosts(2)
        traversal = Traversal(network, origin=0, kind=MessageKind.UPDATE)
        traversal.hop_to(1)
        assert network.message_log.count(MessageKind.UPDATE) == 1


class TestMessageLog:
    def test_per_host_counters(self):
        log = MessageLog()
        log.tally(0, 1, MessageKind.QUERY)
        log.tally(2, 1, MessageKind.QUERY)
        log.tally(1, 0, MessageKind.UPDATE)
        assert log.received_by(1) == 2
        assert log.sent_by(1) == 1
        assert log.busiest_hosts(top=1) == [(1, 2)]
        assert len(log) == 3

    def test_counts_survive_without_keeping_messages(self):
        log = MessageLog()
        log.tally(0, 1, MessageKind.QUERY)
        assert len(log) == 1
        assert log.count(MessageKind.QUERY) == 1
        assert log.counts_by_kind()[MessageKind.UPDATE] == 0

    def test_clear(self):
        log = MessageLog()
        log.tally(0, 1, MessageKind.QUERY)
        log.clear()
        assert len(log) == 0
        assert log.received_by(1) == 0


class TestCongestion:
    def test_congestion_includes_base_load(self):
        network = Network()
        network.add_hosts(4)
        report = congestion_report(network, ground_set_size=8)
        assert report.mean_congestion == pytest.approx(2.0)
        assert report.max_congestion == pytest.approx(2.0)
        assert report.imbalance == pytest.approx(1.0)

    def test_congestion_counts_references(self):
        network = Network()
        network.add_hosts(2)
        network.host(0).note_out_reference(3)
        network.host(1).note_in_reference(3)
        report = congestion_report(network, ground_set_size=2)
        assert report.per_host[0] == pytest.approx(3 + 1)
        assert report.per_host[1] == pytest.approx(3 + 1)

    def test_empty_network_report(self):
        network = Network()
        report = congestion_report(network, ground_set_size=0)
        assert report.max_congestion == 0.0
        assert report.as_dict()["hosts"] == 0.0

    def test_congestion_counts_alive_hosts_only(self):
        """Regression: failed hosts must not dilute the n/H base load.

        With H registered hosts but one failed, the base-load term n/H
        must use the alive count — otherwise every per-host congestion
        figure after churn is understated (and the dead host still gets
        a row of its own).
        """
        network = Network()
        network.add_hosts(4)
        network.host(0).note_out_reference(2)
        before = congestion_report(network, ground_set_size=12)
        assert before.host_count == 4
        assert before.per_host[0] == pytest.approx(2 + 12 / 4)

        network.fail_host(3)
        after = congestion_report(network, ground_set_size=12)
        assert after.host_count == 3
        assert 3 not in after.per_host
        # The surviving hosts absorb the failed host's share of queries.
        assert after.per_host[0] == pytest.approx(2 + 12 / 3)
        assert after.per_host[0] > before.per_host[0]

        network.recover_host(3)
        recovered = congestion_report(network, ground_set_size=12)
        assert recovered.host_count == 4
        assert recovered.per_host == before.per_host


class TestRoundMode:
    def test_post_requires_round_mode(self):
        network = Network()
        network.add_hosts(2)
        with pytest.raises(RuntimeError):
            network.post(0, 1)

    def test_run_round_delivers_queued_messages(self):
        network = Network()
        network.add_hosts(3)
        with network.rounds():
            ticket_a = network.post(0, 1)
            ticket_b = network.post(2, 1)
            report = network.run_round()
        assert report.delivered == 2
        assert (report.max_load, report.max_load_host) == (2, 1)
        assert report.max_host_load == 2
        ticket_a.result()
        ticket_b.result()
        assert network.total_messages == 2

    def test_self_post_is_free(self):
        network = Network()
        network.add_hosts(1)
        with network.rounds():
            ticket = network.post(0, 0)
            report = network.run_round()
        # Free in the cost model: resolved, but not a delivered message —
        # round totals stay consistent with the network's own accounting.
        assert report.delivered == 0
        assert ticket.result() is None
        assert network.total_messages == 0
        assert round_congestion_report(network).total_messages == 0

    def test_round_reports_accumulate_per_session(self):
        network = Network()
        network.add_hosts(2)
        with network.rounds():
            network.post(0, 1)
            network.run_round()
            network.post(1, 0)
            network.post(1, 0)
            network.run_round()
            assert network.rounds_completed == 2
        reports = network.round_reports
        assert [report.index for report in reports] == [0, 1]
        assert [report.delivered for report in reports] == [1, 2]
        # Entering a new session resets the round counters.
        with network.rounds():
            assert network.rounds_completed == 0
            assert network.round_reports == []

    def test_measure_records_round_counters(self):
        network = Network()
        network.add_hosts(2)
        with network.measure() as stats:
            with network.rounds():
                network.post(0, 1)
                network.run_round()
                network.post(1, 0)
                network.post(0, 1)
                network.run_round()
        assert stats.messages == 3
        assert stats.by_round == {0: 1, 1: 2}
        assert stats.rounds == 2

    def test_delivery_to_failed_host_is_dropped_not_raised(self):
        """Round-level failure semantics: only the affected ticket errors."""
        network = Network()
        network.add_hosts(3)
        with network.rounds():
            doomed = network.post(0, 2)
            healthy = network.post(0, 1)
            network.fail_host(2)
            report = network.run_round()
        assert report.delivered == 1
        assert report.dropped == 1
        with pytest.raises(HostFailedError):
            doomed.result()
        healthy.result()
        assert (report.max_load, report.max_load_host) == (1, 1)
        assert network.total_messages == 1

    def test_run_rounds_drives_steppers(self):
        network = Network()
        network.add_hosts(4)
        sent: list[int] = []

        def make_stepper(src, dst, hops):
            remaining = [hops]

            def step() -> bool:
                if remaining[0] == 0:
                    return False
                remaining[0] -= 1
                network.post(src, dst)
                sent.append(src)
                return True

            return step

        with network.rounds():
            reports = network.run_rounds([make_stepper(0, 1, 3), make_stepper(2, 3, 1)])
        assert len(reports) == 3
        assert reports[0].delivered == 2
        assert reports[1].delivered == 1
        assert sent.count(0) == 3 and sent.count(2) == 1

    def test_direct_sends_count_in_round_reports(self):
        """send() inside a session is consistent with queued deliveries,
        and a trailing send after the last run_round gets a closing report."""
        network = Network()
        network.add_hosts(2)
        with network.rounds():
            network.send(0, 1)
            network.post(0, 1)
            report = network.run_round()
            network.send(1, 0)
        assert report.delivered == 2
        assert (report.max_load, report.max_load_host) == (2, 1)
        summary = round_congestion_report(network)
        assert summary.rounds == 2
        assert summary.total_messages == network.total_messages == 3

    def test_round_congestion_report_summarises_session(self):
        network = Network()
        network.add_hosts(3)
        with network.rounds():
            network.post(0, 1)
            network.post(2, 1)
            network.run_round()
            network.post(1, 0)
            network.run_round()
        report = round_congestion_report(network)
        assert report.rounds == 2
        assert report.total_messages == 3
        assert report.per_round_max == (2, 1)
        assert report.max_host_round_load == 2
        assert report.busiest_host == 1
        assert report.busiest_round == 0
        assert report.as_dict()["max_host_round_load"] == 2.0

    def test_round_congestion_report_empty_without_rounds(self):
        network = Network()
        network.add_hosts(2)
        report = round_congestion_report(network)
        assert report.rounds == 0
        assert report.max_host_round_load == 0
        assert report.busiest_host is None

    def test_nested_round_sessions_rejected(self):
        network = Network()
        network.add_hosts(1)
        with network.rounds():
            with pytest.raises(RuntimeError):
                with network.rounds():
                    pass  # pragma: no cover

    def test_host_failure_between_rounds(self):
        """Failing a host mid-session only poisons deliveries to that host."""
        network = Network()
        network.add_hosts(4)
        with network.rounds():
            before = network.post(0, 1)
            network.run_round()
            inject_host_faults(network, [1])
            doomed = network.post(0, 1)
            unaffected = network.post(2, 3)
            report = network.run_round()
        before.result()
        with pytest.raises(HostFailedError):
            doomed.result()
        unaffected.result()
        assert report.dropped == 1
        assert (report.delivered, report.max_load, report.max_load_host) == (1, 1, 3)
        network.recover_host(1)
        with network.rounds():
            recovered = network.post(0, 1)
            network.run_round()
        recovered.result()
        assert network.total_messages == 3
