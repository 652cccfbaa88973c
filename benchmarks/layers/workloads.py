"""The four workloads, driven through the public surface with tracing off.

Three run in-process through ``repro.api.Cluster``; ``served-read`` drives
``python -m repro.cli serve`` over loopback from two client threads.  All
are closed loops: a caller issues its next call when the previous answer
is back.  Only the call into the outermost surface sits inside the timed
window; answers are judged by the oracle between calls (library) or after
the run (server), so the checker's own cost is not measured.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from inputs import (
    Op,
    Sizes,
    quad_ops,
    read_batches,
    served_requests,
    write_ops,
)
from oracle import PointOracle, SortedOracle, Tally
from repro.api import Cluster
from repro.spatial.geometry import HyperCube
from repro.workloads import uniform_keys, uniform_points
from served import Client, Server, ServerProcess, decode_answer, encode_request, peak_rss_mb

WARM_UP_CALLS = 5
CLIENTS = 2
UNIT_CUBE = HyperCube((0.0, 0.0), 1.0)

Spans = list[tuple[int, float, float]]


@dataclass
class Measured:
    """What one untraced run observed."""

    operations: int
    tally: Tally
    latencies: list[float]  # seconds, one per call into the outermost surface
    shared: list[float]  # the latencies of the calls the traced run replays too
    wall_s: float
    max_host_memory: int
    peak_rss_mb: float
    setups_s: list[float] = field(default_factory=list)


@dataclass
class Prepared:
    """A built library workload: the cluster, its oracle and its call list."""

    cluster: Cluster
    oracle: Any
    calls: list[Any]  # one entry per timed call: an Op, or a batch of Ops
    batched: bool
    unpack: Callable[[str, Any], Any]
    final_items: Callable[[Cluster], list[Any]] | None = None

    def invoke(self, call: Any) -> Any:
        if self.batched:
            return self.cluster.batch(call)
        return invoke_single(self.cluster, call)

    def judge(self, call: Any, result: Any, tally: Tally) -> None:
        pairs = zip(call, result) if self.batched else ((call, result),)
        for (kind, payload), handle in pairs:
            correct = handle.status == "ok"
            if correct:
                correct = self.oracle.check(kind, payload, self.unpack(kind, handle.value))
            tally.record(correct, handle.messages)

    def warm_up(self) -> None:
        """Read-only calls, so the timed stream starts from the built state."""
        first = self.calls[0]
        if not self.batched:
            first = next(op for op in self.calls if op[0] == "search")
        for _ in range(WARM_UP_CALLS):
            self.invoke(first)


def invoke_single(cluster: Cluster, op: Op) -> Any:
    kind, payload = op
    if kind == "search":
        return cluster.nearest(payload)
    if kind == "range":
        return cluster.range(payload)
    if kind == "insert":
        return cluster.insert(payload)
    return cluster.delete(payload)


def unpack_1d(kind: str, value: Any) -> Any:
    if kind == "search":
        answer = value.answer
        return answer.predecessor, answer.successor, answer.exact
    return value.matches if kind == "range" else None


def unpack_quad(kind: str, value: Any) -> Any:
    if kind == "search":
        answer = value.answer
        return answer.cell.lower, answer.cell.side, answer.cell_points
    return value.matches if kind == "range" else None


def prepare_read(seed: int, sizes: Sizes) -> Prepared:
    keys = uniform_keys(sizes.read_n, seed=seed)
    calls = read_batches(keys, seed, sizes.read_batches)
    cluster = Cluster("skipweb1d", keys, seed=seed)
    return Prepared(cluster, SortedOracle(keys), calls, batched=True, unpack=unpack_1d)


def prepare_write(
    seed: int,
    sizes: Sizes,
    n: int | None = None,
    ops: int | None = None,
    storage: str | None = None,
) -> Prepared:
    keys = uniform_keys(sizes.write_n if n is None else n, seed=seed)
    calls = write_ops(keys, seed, sizes.write_ops if ops is None else ops)
    cluster = Cluster("skipweb1d", keys, seed=seed, storage=storage)
    return Prepared(
        cluster,
        SortedOracle(keys),
        calls,
        batched=False,
        unpack=unpack_1d,
        final_items=lambda built: sorted(built.structure.keys),
    )


def prepare_quad(
    seed: int, sizes: Sizes, n: int | None = None, ops: int | None = None
) -> Prepared:
    points = uniform_points(sizes.quad_n if n is None else n, seed=seed)
    calls = quad_ops(points, seed, sizes.quad_ops if ops is None else ops)
    # Without bounding_cube the default cube is fitted to the initial points
    # and a later insert can escape it (README, findings at baseline).
    cluster = Cluster("skipquadtree", points, seed=seed, bounding_cube=UNIT_CUBE)
    return Prepared(
        cluster,
        PointOracle(points),
        calls,
        batched=False,
        unpack=unpack_quad,
        final_items=lambda built: sorted(built.structure.points),
    )


#: Library workload -> (how to build it, the Sizes field with its traced prefix).
LIBRARY = {
    "lib-read-1d": (prepare_read, "trace_batches"),
    "lib-write-1d": (prepare_write, "trace_write_ops"),
    "lib-quadtree": (prepare_quad, "trace_quad_ops"),
}


def drive(prepared: Prepared, tally: Tally, spans: Spans | None = None) -> list[float]:
    """Time every call of the prepared stream; judge each answer off the clock."""
    latencies = []
    clock = time.perf_counter
    for index, call in enumerate(prepared.calls):
        start = clock()
        result = prepared.invoke(call)
        end = clock()
        latencies.append(end - start)
        if spans is not None:
            spans.append((index, start, end))
        prepared.judge(call, result, tally)
    if prepared.final_items is not None:
        tally.record(prepared.final_items(prepared.cluster) == prepared.oracle.items())
    return latencies


def run_library(name: str, seed: int, sizes: Sizes) -> Measured:
    prepare, prefix = LIBRARY[name]
    setups = []

    def set_up() -> Prepared:
        started = time.perf_counter()
        built = prepare(seed, sizes)
        built.warm_up()
        setups.append(time.perf_counter() - started)
        return built

    prepared = set_up()
    tally = Tally()
    latencies = drive(prepared, tally)
    operations = len(prepared.calls) * (len(prepared.calls[0]) if prepared.batched else 1)
    measured = Measured(
        operations=operations,
        tally=tally,
        latencies=latencies,
        shared=latencies[: getattr(sizes, prefix)],
        wall_s=sum(latencies),
        max_host_memory=prepared.cluster.stats().max_memory_per_host,
        peak_rss_mb=peak_rss_mb(),
        setups_s=setups,
    )
    prepared.cluster.close()
    del prepared
    # Set-up again, off the record of everything above, so setup_s is a median.
    for _ in range(sizes.setup_reps - 1):
        set_up().cluster.close()
    return measured


@dataclass
class ServedSetup:
    server: Server
    oracle: SortedOracle
    streams: list[list[Op]]  # one per client
    encoded: list[list[tuple[str, bytes]]]


@contextmanager
def served_setup(seed: int, sizes: Sizes, src: Path, workdir: Path) -> Iterator[ServedSetup]:
    """Inputs, oracle, a ready server and warm-up requests for ``served-read``."""
    keys = uniform_keys(sizes.served_n, seed=seed)
    streams = [
        served_requests(keys, seed, client, sizes.served_requests) for client in range(CLIENTS)
    ]
    encoded = [[encode_request(op) for op in stream] for stream in streams]
    with ServerProcess(sizes.served_n, seed, src, workdir) as process:
        server = process.ready()
        client = Client(server)
        try:
            for path, body in encoded[0][:WARM_UP_CALLS]:
                client.request("POST", path, body)
        finally:
            client.close()
        yield ServedSetup(server, SortedOracle(keys), streams, encoded)


@dataclass
class ClientRun:
    latencies: list[float] = field(default_factory=list)
    responses: list[tuple[int, bytes]] = field(default_factory=list)
    spans: Spans = field(default_factory=list)
    connects: int = 0
    started: float = 0.0
    ended: float = 0.0


def hammer(
    server: Server, encoded: list[list[tuple[str, bytes]]], traced: bool = False
) -> list[ClientRun]:
    """One thread per request list, started together; every reply is kept."""
    runs = [ClientRun() for _ in encoded]
    barrier = threading.Barrier(len(encoded))
    abandoned = threading.Event()  # set when the caller is interrupted

    def session(run: ClientRun, requests: list[tuple[str, bytes]]) -> None:
        client = Client(server)
        clock = time.perf_counter
        try:
            barrier.wait()
            run.started = clock()
            for index, (path, body) in enumerate(requests):
                if abandoned.is_set():
                    break
                start = clock()
                try:
                    reply = client.request("POST", path, body)
                except (OSError, http.client.HTTPException):
                    reply = (0, b"")  # a transport error: judged as a failure
                end = clock()
                run.latencies.append(end - start)
                run.responses.append(reply)
                if traced:
                    run.spans.append((index, start, end))
            run.ended = clock()
        finally:
            run.connects = client.connects
            client.close()

    threads = [
        threading.Thread(target=session, args=(run, requests))
        for run, requests in zip(runs, encoded)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    except BaseException:
        abandoned.set()  # Ctrl-C: the server is about to go; stop asking it
        barrier.abort()
        raise
    return runs


def judge_served(setup: ServedSetup, runs: list[ClientRun], tally: Tally) -> None:
    for stream, run in zip(setup.streams, runs):
        for (kind, payload), (status, body) in zip(stream, run.responses):
            correct, answer, messages = decode_answer(kind, status, body)
            if correct:
                correct = setup.oracle.check(kind, payload, answer)
            tally.record(correct, messages)
        for _ in range(len(stream) - len(run.responses)):
            tally.record(False)  # the client thread died before sending these


def served_stats(server: Server) -> dict[str, Any]:
    client = Client(server)
    try:
        status, body = client.request("GET", "/clusters/default")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"GET /clusters/default answered {status}")
    return json.loads(body)["stats"]


def run_served(seed: int, sizes: Sizes, src: Path, workdir: Path) -> Measured:
    setups = []
    started = time.perf_counter()
    with served_setup(seed, sizes, src, workdir) as setup:
        setups.append(time.perf_counter() - started)
        runs = hammer(setup.server, setup.encoded)
        tally = Tally()
        judge_served(setup, runs, tally)
        measured = Measured(
            operations=sum(len(stream) for stream in setup.streams),
            tally=tally,
            latencies=[latency for run in runs for latency in run.latencies],
            shared=[x for run in runs for x in run.latencies[: sizes.trace_requests]],
            wall_s=max(run.ended for run in runs) - min(run.started for run in runs),
            max_host_memory=served_stats(setup.server)["max_memory_per_host"],
            peak_rss_mb=peak_rss_mb(setup.server.pid),
            setups_s=setups,
        )
    for _ in range(sizes.setup_reps - 1):
        started = time.perf_counter()
        with served_setup(seed, sizes, src, workdir):
            setups.append(time.perf_counter() - started)
    return measured


def percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def end_to_end(measured: Measured, import_s: float) -> dict[str, tuple[float, str]]:
    """The eight end-to-end metrics, by the names BENCHMARK.json fixes."""
    tally = measured.tally
    ordered = sorted(measured.latencies)
    # The final key-set comparison of a write workload is one more attempt
    # than there are operations; it cannot be "answered", only failed.
    answered = measured.operations - min(tally.failed, measured.operations)
    return {
        "setup_s": (import_s + statistics.median(measured.setups_s), "s"),
        "ops_per_s": (answered / measured.wall_s, "ops/s"),
        "op_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "op_p95_ms": (percentile(ordered, 0.95) * 1e3, "ms"),
        "msgs_per_op": (tally.messages / measured.operations, "messages/op"),
        "max_host_memory": (float(measured.max_host_memory), "units"),
        "ok_share": (tally.correct / tally.attempted, "fraction"),
        "peak_rss_mb": (measured.peak_rss_mb, "MiB"),
    }
