"""The batched execution engine: many operations, one round at a time.

The paper's congestion bounds are statements about *concurrent* load —
O(log n / log log n) messages per host per round w.h.p. when many
operations are in flight (Theorem 2).  :class:`BatchExecutor` makes that
measurable: it takes a batch of mixed operations (queries, range
reports and updates), obtains each one's step generator from the
structure (any :class:`~repro.engine.protocol.DistributedStructure`),
and advances every in-flight operation by at most one host crossing per
network round using the queued delivery mode of
:meth:`repro.net.network.Network.rounds`.  An operation that forks
(:class:`~repro.engine.steps.Fork`) advances every sub-walk by one host
crossing per round, so a range query's report phase genuinely runs its
sub-walks in parallel.

Concurrency is honest: an update that lands mid-batch really does mutate
the records other operations are walking.  An operation that trips over
concurrently-changed state (a freed slot, a vanished unit) is restarted
from scratch — and pays its messages again — up to ``max_retries`` times,
mirroring how a real deployment retries on stale pointers.  An operation
that touches a *failed* host is not retried; its outcome carries the
:class:`~repro.errors.HostFailedError` while the rest of the batch runs
to completion undisturbed.  Updates apply their structural change
*atomically* before yielding their propagation charges, so a failure can
only abort an update cleanly (during its search phase) or lose its
billing acks (during its charge phase, with the change already applied
and the structure consistent) — never leave a half-mutated structure.

A batch of **one** search, insert or delete has nothing to interleave
with, so while nothing can act on the round clock (no fault plan, no
failed host, no ``on_round`` hook, no ``round_budget``, no route cache)
:meth:`BatchExecutor.run` drives it with the same walk loop as
:func:`~repro.engine.steps.run_immediate`, charging each crossing as a
round of its own (:meth:`repro.net.network.Network.deliver`).  Its
outcome, rounds, round reports and congestion aggregates are the ones
the round scheduler would have produced, and a batched single now costs
what an immediate one costs: ``Cluster(mode="immediate")`` differs only
in deciding faults at send time and in how it is journaled.

A per-origin **route cache** is available as a measurable fast path:
when enabled, the first remote record a search fetches (its top-level
descent entry) is memoized per origin host, so subsequent searches from
the same origin resolve that record from the local copy — no message, no
host crossing.  The cache is invalidated whenever an update completes,
and whenever the network's membership changes (a host failing, recovering,
joining or leaving — tracked via
:attr:`repro.net.network.Network.membership_epoch`), since a memoized
route may aim at a host that is now dead or gone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from inspect import GEN_SUSPENDED, getgeneratorstate
from typing import Any, Callable

from repro.engine.protocol import DistributedStructure
from repro.engine.steps import (
    OP_FORK,
    OP_VISIT,
    HopTo,
    Resolution,
    StepGenerator,
    Visit,
    _drive,
)
from repro.errors import (
    AddressError,
    FaultInjectedError,
    HostFailedError,
    OperationTimedOutError,
    QueryError,
    ReproError,
    StructureError,
)
from repro.net.congestion import (
    RoundCongestionReport,
    round_congestion_report,
    summarize_round_reports,
)
from repro.net.message import MessageKind
from repro.net.naming import Address, HostId
from repro.net.network import PendingDelivery, RoundReport

#: Errors caused by concurrent structural changes; the executor restarts
#: the operation (fresh generator) when one of these surfaces mid-flight.
_RETRYABLE = (AddressError, QueryError, StructureError)

#: Message kind charged for each operation kind.
_KIND_OF = {
    "search": MessageKind.QUERY,
    "range": MessageKind.QUERY,
    "insert": MessageKind.UPDATE,
    "delete": MessageKind.UPDATE,
}

#: Operation kinds whose walk never forks (only range reports yield Fork).
_WALK_KINDS = frozenset(("search", "insert", "delete"))


@dataclass(frozen=True, slots=True)
class Operation:
    """One logical operation of a batch.

    ``kind`` is ``"search"``, ``"range"``, ``"insert"`` or ``"delete"``;
    ``payload`` is the query / range / item; ``origin_host`` pins the
    originating host (``None`` lets the executor spread origins
    round-robin over the *alive* hosts of ``structure.origin_hosts()``).
    """

    kind: str
    payload: Any
    origin_host: HostId | None = None


@dataclass
class OpOutcome:
    """What happened to one operation of a batch."""

    operation: Operation
    origin_host: HostId
    value: Any = None
    error: Exception | None = None
    messages: int = 0
    rounds: int = 0
    retries: int = 0
    cache_hits: int = 0
    #: Sum of link costs of the operation's charged crossings.  0 on a
    #: network without an explicit topology; equals ``messages`` under
    #: ``FlatTopology``.
    latency: int = 0
    #: Graceful-degradation marker: ``"timed_out"`` (round budget
    #: exhausted) or ``"gave_up"`` (fault retries exhausted); ``None``
    #: for ordinary completions and failures.
    terminal: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the operation completed without error."""
        return self.error is None

    def result(self) -> Any:
        """The operation's result, re-raising its error if it failed."""
        if self.error is not None:
            raise self.error
        return self.value


@dataclass
class BatchResult:
    """Aggregate outcome of one :meth:`BatchExecutor.run` call.

    ``round_reports`` holds the per-round detail, subject to the
    network's ``round_report_retention``; ``congestion_summary`` is the
    whole-session aggregate the network maintained as rounds closed, so
    congestion numbers stay exact even when old reports were dropped.
    """

    outcomes: list[OpOutcome]
    rounds: int
    messages: int
    round_reports: list[RoundReport] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    congestion_summary: RoundCongestionReport | None = None
    latency: int = 0

    @property
    def ops(self) -> int:
        return len(self.outcomes)

    @property
    def completed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def failed(self) -> int:
        return self.ops - self.completed

    @property
    def messages_per_op(self) -> float:
        return self.messages / self.ops if self.ops else 0.0

    @property
    def latency_per_op(self) -> float:
        """Mean weighted latency per operation (0.0 without a topology)."""
        return self.latency / self.ops if self.ops else 0.0

    @property
    def ops_per_round(self) -> float:
        """Throughput: completed operations per network round."""
        return self.completed / self.rounds if self.rounds else float(self.completed)

    @property
    def max_round_congestion(self) -> int:
        """Worst per-host per-round delivery count observed during the batch."""
        if self.congestion_summary is not None:
            return self.congestion_summary.max_host_round_load
        return max((report.max_host_load for report in self.round_reports), default=0)

    def round_congestion(self) -> RoundCongestionReport:
        """Full round-level congestion summary of the batch."""
        if self.congestion_summary is not None:
            return self.congestion_summary
        return summarize_round_reports(self.round_reports)

    def summary(self) -> dict[str, Any]:
        """One benchmark-table row worth of aggregate numbers."""
        return {
            "ops": self.ops,
            "completed": self.completed,
            "failed": self.failed,
            "rounds": self.rounds,
            "messages": self.messages,
            "msgs_per_op": round(self.messages_per_op, 2),
            "ops_per_round": round(self.ops_per_round, 2),
            "max_round_congestion": self.max_round_congestion,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "latency": self.latency,
        }


class _Branch:
    """Executor-side state of one forked sub-walk of an operation."""

    __slots__ = ("gen", "current", "ticket", "effect", "resolution", "result", "done")

    def __init__(self, gen: StepGenerator, current: HostId) -> None:
        self.gen = gen
        self.current: HostId = current
        self.ticket: PendingDelivery | None = None
        self.effect: Visit | HopTo | None = None
        self.resolution: Resolution | None = None
        self.result: Any = None
        self.done = False


class _InFlight:
    """Executor-side state of one operation."""

    __slots__ = (
        "outcome",
        "gen",
        "current",
        "ticket",
        "effect",
        "branches",
        "branch_error",
        "started",
        "start_round",
        "resume_round",
        "first_remote_done",
        "warm_key",
        "done",
        "kind",
    )

    def __init__(self, outcome: OpOutcome) -> None:
        self.outcome = outcome
        self.gen: StepGenerator | None = None
        self.current: HostId = outcome.origin_host
        self.ticket: PendingDelivery | None = None
        self.effect: Visit | HopTo | None = None
        self.branches: list[_Branch] | None = None
        self.branch_error: tuple[str, Exception] | None = None
        self.started = False
        self.start_round: int | None = None
        # Round index before which the operation idles (fault backoff).
        self.resume_round: int | None = None
        self.first_remote_done = False
        self.warm_key: tuple[HostId, Address] | None = None
        self.done = False
        # Message kind, resolved once per operation instead of per post.
        # Unknown kinds stay None: _make_generator rejects them before
        # the first post could ever need it.
        self.kind: MessageKind | None = _KIND_OF.get(outcome.operation.kind)


class BatchExecutor:
    """Round-based interleaving executor over one distributed structure.

    Parameters
    ----------
    structure:
        Any :class:`~repro.engine.protocol.DistributedStructure`.
    route_cache:
        Enable the per-origin top-level record cache (default off, so
        batched numbers match the immediate-mode numbers exactly).
    max_retries:
        How many times an operation is restarted after tripping over
        concurrently-modified state before its error is recorded.  The
        default absorbs the worst churn the mixed benchmark workloads
        produce; lower it to surface conflicts in tests.
    max_rounds:
        Safety bound on the number of network rounds per batch.
    round_budget:
        Optional per-operation timeout, in delivery rounds.  An operation
        that has been in flight for more than this many rounds — counted
        from its first posted message, across retries — is abandoned with
        an :class:`~repro.errors.OperationTimedOutError` and its handle
        reports ``timed_out``.  ``None`` (the default) never times out,
        which keeps fault-free batches byte-identical to older versions.
    on_round:
        Optional hook called after every round with its
        :class:`~repro.net.network.RoundReport` — chaos tests use it to
        fail hosts mid-batch.
    on_commit:
        Optional hook called once per :meth:`run`, after the batch has
        fully committed, with ``(operations, result)`` — the durability
        layer journals committed batches through it.  A crash before the
        hook fires leaves the log one whole batch short, never half a
        batch.
    """

    def __init__(
        self,
        structure: DistributedStructure,
        route_cache: bool = False,
        max_retries: int = 5,
        max_rounds: int = 1_000_000,
        on_round: Callable[[RoundReport], None] | None = None,
        on_commit: Callable[[tuple[Operation, ...], BatchResult], None] | None = None,
        round_budget: int | None = None,
    ) -> None:
        self.structure = structure
        self.network = structure.network
        self.route_cache = route_cache
        self.max_retries = max_retries
        self.max_rounds = max_rounds
        self.round_budget = round_budget
        self.on_round = on_round
        self.on_commit = on_commit
        self._cache: dict[tuple[HostId, Address], Any] = {}
        self._cache_epoch = self.network.membership_epoch
        self._cache_hits = 0
        self._cache_misses = 0
        # alive_origins() memo: what the structure declared, at which epoch.
        self._origins: list[HostId] = []
        self._origins_declared: Any = None
        self._origins_epoch = -1

    def alive_origins(self) -> list[HostId]:
        """The alive hosts of ``structure.origin_hosts()``, in declared order.

        Post-churn, ``origin_hosts()`` may still name failed hosts whose
        records have not been repaired away, and originating an operation
        there would fail it instantly.  Filtering them out is a scan over
        every host, so the answer is kept until the network's membership
        epoch moves (join, leave, crash, recover) or the structure
        declares a new sequence (repair, an update that changes which
        hosts hold roots).  Structures hand out the same immutable
        sequence until their origins change, so that check is one
        identity test.  The one place default origins come from — the
        façade's immediate mode reads it too.
        Callers index the returned list and never mutate it.
        """
        declared = self.structure.origin_hosts()
        epoch = self.network.membership_epoch
        if epoch != self._origins_epoch or declared is not self._origins_declared:
            alive = set(self.network.alive_host_ids())
            self._origins = [host for host in declared if host in alive]
            self._origins_declared = declared
            self._origins_epoch = epoch
        return self._origins

    def place(self, operations: list[Operation] | tuple[Operation, ...]) -> list[OpOutcome]:
        """One blank outcome per operation, its origin host decided.

        Unpinned operations go round-robin by batch index over
        :meth:`alive_origins`.
        """
        origins = self.alive_origins()
        if not origins:
            raise QueryError("structure has no alive origin hosts to run a batch from")
        count = len(origins)
        return [
            OpOutcome(
                operation=operation,
                origin_host=(
                    operation.origin_host
                    if operation.origin_host is not None
                    else origins[index % count]
                ),
            )
            for index, operation in enumerate(operations)
        ]

    def _sync_cache_epoch(self) -> None:
        """Drop every memoized route once the network's membership changed.

        Hosts can fail, recover, join or leave *mid-batch* (failure
        injection via ``on_round``, churn between batches); a cached
        top-level record may then live on a dead or departed host, and
        serving it locally would silently route operations into the hole.
        """
        epoch = self.network.membership_epoch
        if epoch != self._cache_epoch:
            self._cache.clear()
            self._cache_epoch = epoch

    # ------------------------------------------------------------------ #
    # batch driver
    # ------------------------------------------------------------------ #
    def run(self, operations: list[Operation] | tuple[Operation, ...]) -> BatchResult:
        """Execute ``operations`` concurrently, one host crossing per round each.

        A batch of one search, insert or delete has nothing to interleave
        with; while nothing can act on the round clock (see
        :meth:`_walks_alone`) it is driven as one walk instead of through
        the round scheduler, with the same outcome, rounds, round reports
        and congestion aggregates.
        """
        # Origins come from the cached alive-origin list: no per-batch
        # scan over the hosts.
        outcomes = self.place(operations)

        self._cache_hits = 0
        self._cache_misses = 0
        self._sync_cache_epoch()
        network = self.network
        alone = len(outcomes) == 1 and self._walks_alone(outcomes[0])
        with network.rounds():
            if alone:
                self._walk_alone(outcomes[0])
            else:
                network.run_rounds(
                    [self._stepper(_InFlight(outcome)) for outcome in outcomes],
                    max_rounds=self.max_rounds,
                    on_round=self.on_round,
                )
            rounds = network.rounds_completed
            round_reports = network.round_reports
        # The session is the batch: its aggregates count every delivery
        # (and every link cost) the batch's operations paid.
        summary = round_congestion_report(network)
        if alone:
            outcome = outcomes[0]
            outcome.messages = summary.total_messages
            outcome.latency = summary.total_weight
            outcome.rounds = rounds
        result = BatchResult(
            outcomes=outcomes,
            rounds=rounds,
            messages=summary.total_messages,
            round_reports=round_reports,
            cache_hits=self._cache_hits,
            cache_misses=self._cache_misses,
            congestion_summary=summary,
            latency=summary.total_weight,
        )
        if self.on_commit is not None:
            self.on_commit(tuple(operations), result)
        return result

    # ------------------------------------------------------------------ #
    # a lone walk (a batch of one that cannot fork)
    # ------------------------------------------------------------------ #
    def _walks_alone(self, outcome: OpOutcome) -> bool:
        """Whether a batch of just ``outcome`` may skip the round scheduler.

        Only a walk that cannot fork qualifies, and only while nothing
        can act on the round clock between its crossings: a fault plan
        (round-start host rules, delays, backoff), a failed host, an
        ``on_round`` hook, a round budget and the route cache all keep
        the scheduler.
        """
        network = self.network
        return (
            outcome.operation.kind in _WALK_KINDS
            and network.faults is None
            and not network.failed_hosts
            and self.on_round is None
            and self.round_budget is None
            and not self.route_cache
        )

    def _walk_alone(self, outcome: OpOutcome) -> None:
        """Drive one operation with the walk loop, one crossing per round.

        Each crossing is a round of its own (``Network.deliver``), which
        is exactly what the scheduler makes of a batch of one.  A
        conflict restarts the walk and re-pays its messages, up to
        ``max_retries`` times.  Runs inside :meth:`run`'s round session,
        which then owns nothing but this walk: :meth:`run` bills the
        session's messages, link costs and rounds to the outcome, so
        ``rounds`` counts from the first crossing across retries.
        """
        network = self.network
        deliver = network.deliver
        max_rounds = self.max_rounds

        def charge(src: HostId, dst: HostId, kind: MessageKind) -> None:
            deliver(src, dst, kind)
            if network.rounds_completed >= max_rounds:
                # Where the scheduler's pass bound trips for one operation.
                raise RuntimeError(f"round-based execution exceeded {max_rounds} rounds")

        kind = _KIND_OF[outcome.operation.kind]
        while True:
            gen = None
            try:
                gen = self._make_generator(outcome)
                outcome.value = _drive(
                    network, charge, gen, outcome.origin_host, kind, allow_fork=False
                )
            except HostFailedError as error:
                outcome.error = error
            except _RETRYABLE as error:
                if outcome.retries < self.max_retries:
                    outcome.retries += 1
                    self._cache.clear()
                    continue
                outcome.error = error
            except ReproError as error:
                if gen is not None and getgeneratorstate(gen) == GEN_SUSPENDED:
                    # Raised while charging or dereferencing, not by the walk
                    # itself (an unknown host): the scheduler lets it escape.
                    raise
                outcome.error = error
            break
        if outcome.operation.kind in ("insert", "delete"):
            # Structure changed: every memoized top-level copy is suspect.
            self._cache.clear()

    # ------------------------------------------------------------------ #
    # per-operation stepping
    # ------------------------------------------------------------------ #
    def _make_generator(self, outcome: OpOutcome) -> StepGenerator:
        operation = outcome.operation
        if operation.kind == "search":
            return self.structure.search_steps(operation.payload, outcome.origin_host)
        if operation.kind == "range":
            return self.structure.range_steps(operation.payload, outcome.origin_host)
        if operation.kind == "insert":
            return self.structure.insert_steps(operation.payload, outcome.origin_host)
        if operation.kind == "delete":
            return self.structure.delete_steps(operation.payload, outcome.origin_host)
        raise ValueError(f"unknown operation kind {operation.kind!r}")

    def _stepper(self, state: _InFlight) -> Callable[[], bool]:
        def step() -> bool:
            if state.done:
                return False
            if self._over_budget(state):
                self._time_out(state)
                return False
            if state.resume_round is not None:
                # Fault backoff: idle until the scheduled resume round.
                if self.network.rounds_completed < state.resume_round:
                    return True
                state.resume_round = None
                return self._advance(state, None)
            if state.branches is not None:
                return self._step_branches(state)
            resolution: Resolution | None = None
            if state.ticket is not None:
                if state.ticket.deferred:
                    # Delivery parked by a delay fault; wait it out.
                    return True
                # Resolve last round's delivery before advancing further.
                try:
                    state.ticket.result()
                except FaultInjectedError as error:
                    state.ticket = None
                    state.effect = None
                    state.warm_key = None
                    return self._fault_retry(state, error)
                except HostFailedError as error:
                    self._fail(state, error)
                    return False
                effect = state.effect
                assert effect is not None
                is_visit = effect.op == OP_VISIT
                target = effect.address.host if is_visit else effect.host
                cost = 1
                topology = self.network.topology
                if topology is not None:
                    # Price the link before state.current moves off the
                    # delivery's source host.
                    cost = topology.link_cost(state.current, target)
                    state.outcome.latency += cost
                state.current = target
                state.outcome.messages += 1
                try:
                    value = self.network.load(effect.address) if is_visit else None
                except HostFailedError as error:
                    self._fail(state, error)
                    return False
                except _RETRYABLE as error:
                    state.ticket = None
                    state.effect = None
                    state.warm_key = None
                    return self._retry_or_fail(state, error)
                if state.warm_key is not None and is_visit:
                    # Memoize the fetched top-level record as the origin
                    # host's local copy for later searches.
                    self._cache[state.warm_key] = value
                state.ticket = None
                state.effect = None
                state.warm_key = None
                resolution = Resolution(value=value, host=target, charged=True, cost=cost)
            return self._advance(state, resolution)

        return step

    def _advance(self, state: _InFlight, resolution: Resolution | None) -> bool:
        """Run the generator locally until its next cross-host effect.

        The loop is the batched mirror of ``steps._drive``: table-driven
        opcode dispatch, with the local (same-host) fast path resolving
        effects without re-entering the round machinery.
        """
        load = self.network.load
        while True:
            try:
                if not state.started:
                    state.started = True
                    state.gen = self._make_generator(state.outcome)
                    effect = next(state.gen)
                elif resolution is not None:
                    effect = state.gen.send(resolution)
                    resolution = None
                else:
                    effect = next(state.gen)
            except StopIteration as stop:
                self._finish(state, stop.value)
                return False
            except HostFailedError as error:
                self._fail(state, error)
                return False
            except _RETRYABLE as error:
                return self._retry_or_fail(state, error)
            except ReproError as error:
                # Non-retryable domain error (duplicate insert, unsupported
                # update, ...): fail this operation, keep the batch going.
                self._fail(state, error)
                return False

            op = effect.op
            if op == OP_FORK:
                # Split into sub-walks: each advances one host crossing
                # per round from here on, all billed to this operation.
                state.branches = [
                    _Branch(gen=branch, current=state.current)
                    for branch in effect.branches
                ]
                return self._step_branches(state)
            is_visit = op == OP_VISIT
            target = effect.address.host if is_visit else effect.host
            if target == state.current:
                # Local effect: free and instantaneous.
                try:
                    value = load(effect.address) if is_visit else None
                except HostFailedError as error:
                    self._fail(state, error)
                    return False
                except _RETRYABLE as error:
                    return self._retry_or_fail(state, error)
                resolution = Resolution(value, target, False)
                continue
            if (
                self.route_cache
                and is_visit
                and state.outcome.operation.kind == "search"
                and not state.first_remote_done
            ):
                self._sync_cache_epoch()
                cache_key = (state.outcome.origin_host, effect.address)
                cached = self._cache.get(cache_key)
                state.first_remote_done = True
                if cached is not None:
                    # Served from the origin's local copy: no message, the
                    # operation keeps executing at its origin host.
                    self._cache_hits += 1
                    state.outcome.cache_hits += 1
                    resolution = Resolution(value=cached, host=state.current, charged=False)
                    continue
                self._cache_misses += 1
                self._post(state, effect, target, warm_cache_key=cache_key)
                return True
            if is_visit:
                state.first_remote_done = True
            self._post(state, effect, target)
            return True

    # ------------------------------------------------------------------ #
    # forked sub-walks (the Fork effect)
    # ------------------------------------------------------------------ #
    def _note_branch_error(self, state: _InFlight, kind: str, error: Exception) -> None:
        """Record a sub-walk's error; a non-retryable failure takes precedence.

        ``kind`` is ``"fail"`` (abort the operation), ``"retry"``
        (conflict restart) or ``"fault"`` (injected drop — restart with
        backoff).  A ``"fail"`` displaces either transient kind.
        """
        if state.branch_error is None or (
            kind == "fail" and state.branch_error[0] != "fail"
        ):
            state.branch_error = (kind, error)

    def _step_branches(self, state: _InFlight) -> bool:
        """Advance every forked sub-walk by at most one host crossing.

        A sub-walk that touches a failed host fails the whole operation
        (its partial report is worthless); a sub-walk that trips over
        concurrently-changed state restarts the whole operation — all
        sub-walks included — through the ordinary retry path.  Either
        way, the abort waits for the sibling sub-walks' in-flight
        deliveries to drain first, billing each delivered crossing to
        the operation — an abort must not orphan messages the network
        has already charged.
        """
        branches = state.branches
        assert branches is not None
        # 1. resolve last round's deliveries, billing every delivered
        #    crossing even when another sub-walk is failing.
        for branch in branches:
            if branch.ticket is None:
                continue
            if branch.ticket.deferred:
                # Parked by a delay fault; resolves in a later round.
                continue
            ticket = branch.ticket
            effect = branch.effect
            branch.ticket = None
            branch.effect = None
            assert effect is not None
            try:
                ticket.result()
            except FaultInjectedError as error:
                # Injected drop: never charged, restart with backoff.
                self._note_branch_error(state, "fault", error)
                continue
            except HostFailedError as error:
                # Dropped delivery: never charged, so nothing to bill.
                self._note_branch_error(state, "fail", error)
                continue
            is_visit = effect.op == OP_VISIT
            target = effect.address.host if is_visit else effect.host
            cost = 1
            topology = self.network.topology
            if topology is not None:
                cost = topology.link_cost(branch.current, target)
                state.outcome.latency += cost
            branch.current = target
            state.outcome.messages += 1
            try:
                value = self.network.load(effect.address) if is_visit else None
            except HostFailedError as error:
                self._note_branch_error(state, "fail", error)
                continue
            except _RETRYABLE as error:
                self._note_branch_error(state, "retry", error)
                continue
            branch.resolution = Resolution(value, target, True, cost=cost)
        # 2. run each idle sub-walk locally until its next cross-host
        #    effect (skipped while an abort is pending).
        if state.branch_error is None:
            for branch in branches:
                if branch.done or branch.ticket is not None:
                    continue
                try:
                    self._run_branch(state, branch)
                except HostFailedError as error:
                    self._note_branch_error(state, "fail", error)
                    break
                except _RETRYABLE as error:
                    self._note_branch_error(state, "retry", error)
                    break
                except ReproError as error:
                    self._note_branch_error(state, "fail", error)
                    break
        # 3. abort (after draining) or join.
        if state.branch_error is not None:
            if any(branch.ticket is not None for branch in branches):
                return True  # siblings' posted messages deliver (and bill) first
            kind, error = state.branch_error
            state.branch_error = None
            if kind == "retry":
                return self._retry_or_fail(state, error)
            if kind == "fault":
                return self._fault_retry(state, error)
            self._fail(state, error)
            return False
        if all(branch.done for branch in branches):
            results = tuple(branch.result for branch in branches)
            state.branches = None
            return self._advance(
                state, Resolution(value=results, host=state.current, charged=False)
            )
        return True

    def _run_branch(self, state: _InFlight, branch: _Branch) -> None:
        """Run one sub-walk's generator locally until it posts or finishes.

        Errors raised by the generator (or by a local dereference)
        propagate to :meth:`_step_branches`, which maps them onto the
        operation-level failure / retry paths.
        """
        resolution = branch.resolution
        branch.resolution = None
        gen = branch.gen
        load = self.network.load
        while True:
            try:
                effect = gen.send(resolution) if resolution is not None else next(gen)
            except StopIteration as stop:
                branch.done = True
                branch.result = stop.value
                return
            resolution = None
            op = effect.op
            if op == OP_FORK:
                raise TypeError("nested Fork effects are not supported")
            is_visit = op == OP_VISIT
            target = effect.address.host if is_visit else effect.host
            if target == branch.current:
                # Local effect: free and instantaneous.
                value = load(effect.address) if is_visit else None
                resolution = Resolution(value, target, False)
                continue
            branch.ticket = self.network.post(branch.current, target, kind=state.kind)
            branch.effect = effect
            if state.start_round is None:
                state.start_round = self.network.rounds_completed
            return

    def _post(
        self,
        state: _InFlight,
        effect: Visit | HopTo,
        target: HostId,
        warm_cache_key: tuple[HostId, Address] | None = None,
    ) -> None:
        state.ticket = self.network.post(state.current, target, kind=state.kind)
        state.effect = effect
        state.warm_key = warm_cache_key
        if state.start_round is None:
            state.start_round = self.network.rounds_completed

    # ------------------------------------------------------------------ #
    # completion paths
    # ------------------------------------------------------------------ #
    def _rounds_spanned(self, state: _InFlight) -> int:
        if state.start_round is None:
            return 0
        return max(1, self.network.rounds_completed - state.start_round)

    def _finish(self, state: _InFlight, value: Any) -> None:
        state.outcome.value = value
        state.outcome.rounds = self._rounds_spanned(state)
        state.done = True
        if state.outcome.operation.kind in ("insert", "delete"):
            # Structure changed: every memoized top-level copy is suspect.
            self._cache.clear()

    def _fail(self, state: _InFlight, error: Exception) -> None:
        state.outcome.error = error
        state.outcome.rounds = self._rounds_spanned(state)
        state.done = True
        if state.outcome.operation.kind in ("insert", "delete"):
            self._cache.clear()

    def _retry_or_fail(self, state: _InFlight, error: Exception) -> bool:
        if state.outcome.retries >= self.max_retries:
            self._fail(state, error)
            return False
        state.outcome.retries += 1
        state.started = False
        state.gen = None
        state.ticket = None
        state.effect = None
        state.branches = None
        state.branch_error = None
        state.current = state.outcome.origin_host
        state.first_remote_done = False
        state.warm_key = None
        # A conflict means some record the operation relied on changed
        # underneath it — possibly one that reached it through the route
        # cache (e.g. an update made through the immediate API, which the
        # executor cannot observe).  Drop every memoized copy so the retry
        # re-fetches fresh state instead of looping on the same stale record.
        self._cache.clear()
        return self._advance(state, None)

    # ------------------------------------------------------------------ #
    # fault resilience (repro.net.faults)
    # ------------------------------------------------------------------ #
    def _over_budget(self, state: _InFlight) -> bool:
        """Whether the operation has outlived its per-operation round budget."""
        return (
            self.round_budget is not None
            and state.start_round is not None
            and self.network.rounds_completed - state.start_round > self.round_budget
        )

    def _time_out(self, state: _InFlight) -> None:
        """Abandon an over-budget operation with the ``timed_out`` marker.

        Any still-in-flight (or delay-parked) deliveries stay charged to
        the network — the messages were genuinely sent — but nothing more
        is billed to the operation's outcome: a timeout is a statement
        that we stopped accounting for it, not that the traffic vanished.
        """
        error = OperationTimedOutError(
            f"operation exceeded its round budget of {self.round_budget} round(s)"
        )
        state.outcome.terminal = "timed_out"
        self._fail(state, error)

    def _fault_retry(self, state: _InFlight, error: Exception) -> bool:
        """Restart after an injected drop, idling ``retries`` rounds first.

        The linear backoff is deterministic by construction: the k-th
        retry resumes exactly k completed rounds after the drop was
        observed, so two runs with the same seed and plan replay the
        same resume schedule.  Exhausted retries mark the outcome
        ``gave_up`` (distinct from a plain failure: the operation was
        healthy, the network was not).
        """
        if state.outcome.retries >= self.max_retries:
            state.outcome.terminal = "gave_up"
            self._fail(state, error)
            return False
        state.outcome.retries += 1
        state.started = False
        state.gen = None
        state.ticket = None
        state.effect = None
        state.branches = None
        state.branch_error = None
        state.current = state.outcome.origin_host
        state.first_remote_done = False
        state.warm_key = None
        self._cache.clear()
        state.resume_round = self.network.rounds_completed + state.outcome.retries
        return True
