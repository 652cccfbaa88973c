"""Sharded multi-worker batch execution (opt-in via ``Cluster(workers=N)``).

:class:`ShardedExecutor` partitions a batch's *operation origins* across
``multiprocessing`` fork workers.  Each worker inherits a copy-on-write
snapshot of the whole deployment (structure + network) and runs its
shard of the batch through an ordinary serial
:class:`~repro.engine.executor.BatchExecutor` round loop on the ledger
substrate — read-only queries never mutate the parent process.  What a
worker sends back is small: its per-operation outcomes plus, for every
shard-local round, the ordered ``(global_op_index, src, dst, kind)``
delivery sequence of that round.

**Determinism by replay.**  The parent merges the workers' round
sequences round-by-round in global-operation-index order (shards are
read in fixed shard order; the sort is stable, so an operation's forked
sub-walk posts keep their relative order) and *replays* the merged
sequence through its own network: one ``post`` per recorded delivery,
one ``run_round`` per merged round.  Because a serial
:class:`BatchExecutor` steps operations in exactly that order — and
because read-only operations make progress independently of one another
(no retries, no mutation, one host crossing per round each) — the replay
reproduces the serial run's accounting *exactly*: ``MessageLog.tally``
counters, per-round :class:`~repro.net.network.RoundReport` maxima
(including the busiest-host tie-break, which follows per-round dict
insertion order), whole-session congestion aggregates, and every
enclosing ``Network.measure`` window.  ``tests/test_perf_equivalence.py``
pins serial-vs-sharded equality of all of it.

**What stays serial.**  Sharding is only sound when workers cannot
observe each other: mutating kinds (``insert`` / ``delete``), batches on
a network with failed hosts (delivery errors must flow through real
tickets), an installed fault plan or round budget (fault decisions come
from one seeded RNG stream, which only a single serial round loop can
replay byte-identically), the tracing substrate (message objects carry
identity), the
per-origin route cache (its warmth spans batches, but workers die with
the batch), and platforms without the ``fork`` start method all fall
back to the serial executor — same results, one process.  The registry's
``StructureSpec.shardable`` capability flag lets a structure family opt
out wholesale (e.g. a future family whose queries mutate shared state).
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable

from repro.engine.executor import BatchExecutor, BatchResult, Operation, OpOutcome, _InFlight
from repro.engine.protocol import DistributedStructure
from repro.net.congestion import round_congestion_report
from repro.net.naming import HostId
from repro.net.network import RoundReport

#: Operation kinds that are safe to run on a read-mostly snapshot.
SHARDABLE_KINDS = frozenset({"search", "range"})


def fork_available() -> bool:
    """Whether this platform can start ``fork`` workers (POSIX only)."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


class _ShardFallback(Exception):
    """Raised inside a worker when a batch turns out not to be shardable."""


def _worker_main(
    conn: Any, executor_args: dict[str, Any], shard: list[tuple[int, OpOutcome]]
) -> None:
    """Run one shard of read-only operations; ship outcomes + round sequences.

    Runs in a forked child: ``executor_args['structure']`` is the
    copy-on-write snapshot inherited from the parent, so nothing here can
    leak back.  The child exits with code 0 even on failure — the error
    (or fallback request) travels through the pipe.
    """
    try:
        result = _run_shard(executor_args, shard)
        conn.send(("ok", result))
    except _ShardFallback as fallback:
        conn.send(("fallback", str(fallback)))
    except BaseException as error:  # pragma: no cover - defensive
        conn.send(("fallback", f"worker crashed: {error!r}"))
    finally:
        conn.close()


def _run_shard(
    executor_args: dict[str, Any], shard: list[tuple[int, OpOutcome]]
) -> tuple[
    list[tuple[int, Any, Exception | None, int, int, int, int, int]],
    list[list[tuple[int, Any, Any, Any]]],
]:
    """The worker's round loop: a serial ``BatchExecutor`` plus post capture.

    Mirrors :meth:`BatchExecutor.run`, but drives the rounds itself so
    each delivery can be attributed to the operation (by global batch
    index) whose stepper posted it — the raw material of the parent's
    deterministic replay.
    """
    executor = BatchExecutor(
        executor_args["structure"],
        route_cache=False,
        max_retries=executor_args["max_retries"],
        max_rounds=executor_args["max_rounds"],
    )
    network = executor.network
    states = [(index, _InFlight(outcome)) for index, outcome in shard]
    round_seqs: list[list[tuple[int, Any, Any, Any]]] = []
    with network.rounds():
        active: list[tuple[int, Callable[[], bool]]] = [
            (index, executor._stepper(state)) for index, state in states
        ]
        passes = 0
        while active:
            if passes >= executor.max_rounds:
                raise RuntimeError(
                    f"round-based execution exceeded {executor.max_rounds} rounds"
                )
            passes += 1
            seq: list[tuple[int, Any, Any, Any]] = []
            next_active: list[tuple[int, Callable[[], bool]]] = []
            pending_fast = network._pending_fast
            for index, step in active:
                before = len(pending_fast)
                if step():
                    next_active.append((index, step))
                for src, dst, kind in pending_fast[before:]:
                    seq.append((index, src, dst, kind))
            if network._pending:
                # A ticketed (slow-path) post implies failed hosts or a
                # payload — outside the shardable envelope.
                raise _ShardFallback("ticketed delivery inside a sharded batch")
            if network._round_delivered:
                # A direct send() mid-round cannot be attributed to an
                # operation, so its replay position would be a guess.
                raise _ShardFallback("direct send() inside a sharded batch")
            if pending_fast:
                network.run_round()
                round_seqs.append(seq)
            active = next_active
    outcomes = [
        (
            index,
            state.outcome.value,
            state.outcome.error,
            state.outcome.messages,
            state.outcome.rounds,
            state.outcome.retries,
            state.outcome.cache_hits,
            state.outcome.latency,
        )
        for index, state in states
    ]
    return outcomes, round_seqs


class ShardedExecutor:
    """Multi-process batch executor with serial-identical accounting.

    Drop-in for :class:`BatchExecutor` on the batch surface
    (:meth:`run`); construction parameters mirror the serial executor
    plus ``workers``.  Batches outside the shardable envelope (see the
    module docstring) transparently run on the embedded serial executor.
    """

    def __init__(
        self,
        structure: DistributedStructure,
        workers: int = 2,
        route_cache: bool = False,
        max_retries: int = 5,
        max_rounds: int = 1_000_000,
        on_round: Callable[[RoundReport], None] | None = None,
        on_commit: Callable[[tuple[Operation, ...], BatchResult], None] | None = None,
        round_budget: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.structure = structure
        self.network = structure.network
        self.workers = workers
        self.route_cache = route_cache
        self.max_retries = max_retries
        self.max_rounds = max_rounds
        self.on_round = on_round
        self.on_commit = on_commit
        self.round_budget = round_budget
        # The embedded serial executor never journals: the sharded
        # executor fires the commit hook itself after either path, so
        # fallback batches are not logged twice.
        self._serial = BatchExecutor(
            structure,
            route_cache=route_cache,
            max_retries=max_retries,
            max_rounds=max_rounds,
            on_round=on_round,
            round_budget=round_budget,
        )
        #: Why the most recent batch ran serially (``None`` = it sharded).
        self.last_fallback_reason: str | None = None

    def alive_origins(self) -> list[HostId]:
        """Default origins: the embedded serial executor's list (one cache)."""
        return self._serial.alive_origins()

    # ------------------------------------------------------------------ #
    # shardability gate
    # ------------------------------------------------------------------ #
    def _fallback_reason(self, operations: list[Operation] | tuple[Operation, ...]) -> str | None:
        if self.workers < 2:
            return "workers < 2"
        if not operations:
            return "empty batch"
        if self.on_round is not None:
            return "on_round hook installed"
        if self.route_cache:
            return "route cache enabled (warmth spans batches)"
        if self.network.trace:
            return "tracing substrate (message identity)"
        if self.network.faults is not None:
            # Workers would each consume the plan's RNG independently,
            # diverging from the serial decision stream; the serial
            # executor replays every fault decision byte-identically.
            return "fault plan installed (deterministic serial replay)"
        if self.round_budget is not None:
            # A timeout abandons in-flight deliveries, which the replay
            # merge cannot attribute; run the budgeted batch serially.
            return "round budget installed"
        if self.network.failed_hosts:
            return "failed hosts present"
        if not fork_available():
            return "fork start method unavailable"
        for operation in operations:
            if operation.kind not in SHARDABLE_KINDS:
                return f"mutating operation kind {operation.kind!r}"
        return None

    # ------------------------------------------------------------------ #
    # batch driver
    # ------------------------------------------------------------------ #
    def run(self, operations: list[Operation] | tuple[Operation, ...]) -> BatchResult:
        """Execute ``operations``; shard across workers when sound."""
        reason = self._fallback_reason(operations)
        if reason is not None:
            self.last_fallback_reason = reason
            result = self._serial.run(operations)
        else:
            sharded = self._run_sharded(operations)
            if sharded is None:
                result = self._serial.run(operations)
            else:
                self.last_fallback_reason = None
                result = sharded
        # Journal in the parent only, after the replay-merge has folded
        # the workers' accounting back in — the log must describe the
        # committed parent state, not a worker snapshot.
        if self.on_commit is not None:
            self.on_commit(tuple(operations), result)
        return result

    def _run_sharded(
        self, operations: list[Operation] | tuple[Operation, ...]
    ) -> BatchResult | None:
        # Origin assignment is the serial executor's own, so the two
        # match byte for byte.
        outcomes = self._serial.place(operations)

        # Partition by origin host so every origin's operations land in one
        # worker (cache/ordering locality), round-robin over sorted hosts.
        shard_count = min(self.workers, len({o.origin_host for o in outcomes}))
        if shard_count < 2:
            self.last_fallback_reason = "single origin host"
            return None
        hosts = sorted({outcome.origin_host for outcome in outcomes})
        shard_of_host = {host: i % shard_count for i, host in enumerate(hosts)}
        shards: list[list[tuple[int, OpOutcome]]] = [[] for _ in range(shard_count)]
        for index, outcome in enumerate(outcomes):
            shards[shard_of_host[outcome.origin_host]].append((index, outcome))

        executor_args = {
            "structure": self.structure,
            "max_retries": self.max_retries,
            "max_rounds": self.max_rounds,
        }
        ctx = multiprocessing.get_context("fork")
        workers: list[tuple[Any, Any]] = []
        try:
            for shard in shards:
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_worker_main, args=(child_conn, executor_args, shard)
                )
                process.start()
                child_conn.close()
                workers.append((process, parent_conn))
            shard_results = []
            for process, conn in workers:
                try:
                    status, payload = conn.recv()
                except EOFError:
                    status, payload = "fallback", "worker pipe closed"
                if status != "ok":
                    self.last_fallback_reason = payload
                    return None
                shard_results.append(payload)
        finally:
            for process, conn in workers:
                conn.close()
                process.join()

        # Fold per-operation results back in batch order.
        cache_hits = 0
        for shard_outcomes, _seqs in shard_results:
            for entry in shard_outcomes:
                index, value, error, messages, rounds, retries, hits, latency = entry
                outcome = outcomes[index]
                outcome.value = value
                outcome.error = error
                outcome.messages = messages
                outcome.rounds = rounds
                outcome.retries = retries
                outcome.cache_hits = hits
                outcome.latency = latency
                cache_hits += hits

        # Deterministic replay: merge each round's deliveries across shards
        # in global-operation-index order (stable, so an operation's forked
        # sub-walk posts keep their order), then drive the parent network
        # through the exact post/run_round sequence a serial batch issues.
        all_seqs = [seqs for _outcomes, seqs in shard_results]
        total_rounds = max((len(seqs) for seqs in all_seqs), default=0)
        network = self.network
        with network.rounds():
            with network.measure() as stats:
                post = network.post
                for round_index in range(total_rounds):
                    merged: list[tuple[int, Any, Any, Any]] = []
                    for seqs in all_seqs:
                        if round_index < len(seqs):
                            merged.extend(seqs[round_index])
                    merged.sort(key=lambda entry: entry[0])
                    for _index, src, dst, kind in merged:
                        post(src, dst, kind=kind)
                    network.run_round()
            rounds = network.rounds_completed
            round_reports = network.round_reports
        # The replay re-delivers every (src, dst) pair on the parent
        # network, so its topology re-prices each link: stats.latency and
        # the weighted per-link / per-cluster aggregates come out exactly
        # as a serial run of the same round sequence would produce them.
        return BatchResult(
            outcomes=outcomes,
            rounds=rounds,
            messages=stats.messages,
            round_reports=round_reports,
            cache_hits=cache_hits,
            cache_misses=0,
            congestion_summary=round_congestion_report(network),
            latency=stats.latency,
        )
