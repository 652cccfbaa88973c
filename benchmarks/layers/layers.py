"""The traced run: one op stream replayed through each layer's public entry point.

Every span is opened here, around a call into a public function of the
program: ``Network.send``; the structure classes' ``nearest`` / ``locate``
/ ``range_search`` / ``range_report`` / ``insert`` / ``delete``;
``BatchExecutor.run``; the ``Cluster`` operation methods, ``save`` and
``recover``; ``StorageBackend.append``; ``ReproApp.__call__`` with a
hand-built WSGI environ; the socket.  A layer's ``*_self_us`` is its µs/op
minus the µs/op of the layer directly beneath it on the identical op list.
Write streams replay on an identically seeded fresh cluster per layer.

One traced run produces every per-layer metric of BENCHMARK.json, whatever
``--workload`` says; the workload picks which outermost replay is also run
untraced (``trace.overhead_share``) and whose spans are written out.
"""

from __future__ import annotations

import gc
import io
import json
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from inputs import (
    BATCH_SIZE,
    Op,
    Sizes,
    fresh_keys,
    read_batches,
    served_requests,
    stream_rng,
    update_ops,
)
from oracle import SortedOracle, Tally
from repro.api import Cluster
from repro.engine import BatchExecutor, Operation
from repro.net.network import Network
from repro.planar.segments import bounding_box
from repro.server import create_app
from repro.storage import JsonlStorage, open_storage
from repro.workloads import random_strings, uniform_keys, x_disjoint_segments
from served import Client, Server, ServerProcess, encode_request
from workloads import (
    CLIENTS,
    Prepared,
    ServedSetup,
    drive,
    hammer,
    invoke_single,
    judge_served,
    prepare_quad,
    prepare_write,
    unpack_1d,
)

Metrics = dict[str, tuple[float, str]]
#: A layer adaptor: ``call(op)`` is timed, ``settle(result)`` runs off the
#: clock, raises unless the operation succeeded and returns its messages.
Adaptor = tuple[Callable[[Any], Any], Callable[[Any], int]]


@dataclass
class Tracer:
    """Spans of the selected workload, kept in memory until the run ends."""

    spans: list[dict[str, Any]] = field(default_factory=list)

    def add(self, layer: str, op_id: int, start: float, end: float, parent: str | None) -> None:
        self.spans.append(
            {
                "id": f"{layer}#{op_id}",
                "name": layer,
                "op_id": op_id,
                "start": start,
                "end": end,
                "parent": f"{parent}#{op_id}" if parent else None,
            }
        )


@dataclass
class Replay:
    """Per-kind durations (seconds) and message counts of one layer's replay."""

    seconds: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    messages: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))

    def us(self, kind: str) -> float:
        return statistics.fmean(self.seconds[kind]) * 1e6

    def msgs(self, kind: str) -> float:
        return statistics.fmean(self.messages[kind])


def replay(
    layer: str,
    adaptor: Adaptor,
    ops: list[Any],
    tracer: Tracer | None = None,
    parent: str | None = None,
) -> Replay:
    """Time ``call(op)`` for every op; a batch (a list of ops) counts as kind ``batch``."""
    call, settle = adaptor
    result = Replay()
    clock = time.perf_counter
    for op_id, op in enumerate(ops):
        start = clock()
        outcome = call(op)
        end = clock()
        kind = op[0] if isinstance(op, tuple) else "batch"
        result.seconds[kind].append(end - start)
        result.messages[kind].append(settle(outcome))
        if tracer is not None:
            tracer.add(layer, op_id, start, end, parent)
    return result


def replay_fresh(
    layer: str,
    prepare: Callable[[], Prepared],
    wrap: Callable[[Cluster], Adaptor],
    tracer: Tracer | None = None,
    parent: str | None = None,
) -> Replay:
    """Replay a write stream on a cluster built for this layer and dropped after it.

    Deletes allocate enough for the cyclic collector to take a large share
    of their time, and that share grows with the heap.  Collecting the
    previous layer's cluster first times every layer on a heap of one
    cluster, which is also what the untraced run has.
    """
    gc.collect()
    built = prepare()
    return replay(layer, wrap(built.cluster), built.calls, tracer, parent)


def replay_judged(
    layer: str, prepare: Callable[[], Prepared], tally: Tally, tracer: Tracer | None = None
) -> tuple[Replay, float]:
    """The outermost library layer: ``Cluster`` calls, judged by the oracle.

    Returns the per-kind timings and the total timed seconds.
    """
    gc.collect()  # as in replay_fresh
    prepared = prepare()
    spans: list[tuple[int, float, float]] = []
    latencies = drive(prepared, tally, spans)
    result = Replay()
    for call, latency in zip(prepared.calls, latencies):
        result.seconds["batch" if prepared.batched else call[0]].append(latency)
    if tracer is not None:
        for op_id, start, end in spans:
            tracer.add(layer, op_id, start, end, None)
    return result, sum(latencies)


def overhead_share(traced_s: float, untraced_s: float) -> float:
    """1 − traced ÷ untraced throughput, on one op list."""
    return 1.0 - untraced_s / traced_s


def scale_exponent(small_us: float, full_us: float, ratio: float) -> float:
    """``e`` in ``t ∝ n^e`` from two sizes ``ratio`` apart."""
    return math.log(full_us / small_us) / math.log(ratio)


# --------------------------------------------------------------------------- #
# layer adaptors
# --------------------------------------------------------------------------- #
def _messages(result: Any) -> int:
    return result.messages


def direct_1d(structure: Any) -> Adaptor:
    """``SkipWeb1D`` / ``BucketSkipWeb1D`` called directly."""

    def call(op: Op) -> Any:
        kind, payload = op
        if kind == "search":
            return structure.nearest(payload)
        if kind == "range":
            return structure.range_search(*payload)
        if kind == "insert":
            return structure.insert(payload)
        return structure.delete(payload)

    return call, _messages


def direct_located(structure: Any) -> Adaptor:
    """The multi-dimensional webs (quadtree, trie, trapezoid): ``locate`` is the query."""

    def call(op: Op) -> Any:
        kind, payload = op
        if kind == "search":
            return structure.locate(payload)
        if kind == "range":
            return structure.range_report(payload)
        if kind == "insert":
            return structure.insert(payload)
        return structure.delete(payload)

    return call, _messages


def through_engine(executor: BatchExecutor) -> Adaptor:
    """``BatchExecutor.run`` of one op, or of one batch of ops."""

    def call(op: Any) -> Any:
        batch = [op] if isinstance(op, tuple) else op
        return executor.run([Operation(kind, payload) for kind, payload in batch])

    def settle(result: Any) -> int:
        for outcome in result.outcomes:
            if outcome.error is not None:
                raise outcome.error
        return result.messages

    return call, settle


def through_api(cluster: Cluster) -> Adaptor:
    def settle(handle: Any) -> int:
        if handle.status != "ok":
            raise RuntimeError(f"{handle.kind} {handle.payload!r} came back {handle.status}")
        return handle.messages

    return (lambda op: invoke_single(cluster, op)), settle


def through_app(app: Any, ops: list[Op]) -> Adaptor:
    """``ReproApp.__call__`` in-process, with a hand-built WSGI environ.

    Bodies are encoded beforehand, as they are for the socket.
    """
    encoded = {op: encode_request(op) for op in ops}

    def call(op: Op) -> Any:
        path, body = encoded[op]
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": path,
            "QUERY_STRING": "",
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        }
        status: list[str] = []
        payload = b"".join(app(environ, lambda line, headers: status.append(line)))
        return status[0], payload

    def settle(answer: tuple[str, bytes]) -> int:
        if not answer[0].startswith("200"):
            raise RuntimeError(f"in-process app answered {answer[0]}")
        return json.loads(answer[1])["messages"]

    return call, settle


# --------------------------------------------------------------------------- #
# the four groups
# --------------------------------------------------------------------------- #
def read_group(
    seed: int,
    sizes: Sizes,
    cluster: Cluster,
    metrics: Metrics,
    notes: dict[str, float],
    tally: Tally,
    tracer: Tracer | None,
) -> None:
    """``net``, ``onedim`` (queries), ``engine`` and ``api`` on the ``lib-read-1d`` stream."""
    keys = uniform_keys(sizes.read_n, seed=seed)
    batches = read_batches(keys, seed, sizes.trace_batches)
    singles = [op for batch in batches for op in batch][: sizes.trace_singles]
    executor = BatchExecutor(cluster.structure)

    onedim = replay("onedim", direct_1d(cluster.structure), singles, tracer, "engine")
    engine = replay("engine", through_engine(executor), singles, tracer, "api")
    api = replay("api", through_api(cluster), singles, tracer)
    run_batch, settle_batch = through_engine(executor)
    rounds: list[int] = []

    def settle_rounds(result: Any) -> int:
        rounds.append(result.rounds)
        return settle_batch(result)

    engine64 = replay("engine.batch64", (run_batch, settle_rounds), batches, tracer, "api.batch64")
    prepared = Prepared(cluster, SortedOracle(keys), batches, batched=True, unpack=unpack_1d)
    if tracer is not None:
        untraced_s = sum(drive(prepared, Tally()))
    api64, traced_s = replay_judged("api.batch64", lambda: prepared, tally, tracer)
    notes["lib-read-1d.shared_mean_ms"] = traced_s / len(batches) * 1e3
    if tracer is not None:
        metrics["trace.overhead_share"] = (overhead_share(traced_s, untraced_s), "fraction")

    per_op = 1.0 / BATCH_SIZE
    metrics.update(
        {
            "onedim.get_us": (onedim.us("search"), "us"),
            "onedim.range_us": (onedim.us("range"), "us"),
            "onedim.get_msgs": (onedim.msgs("search"), "messages"),
            "onedim.range_msgs": (onedim.msgs("range"), "messages"),
            "engine.batch1_get_us": (engine.us("search"), "us"),
            "engine.batch64_get_us": (engine64.us("batch") * per_op, "us"),
            "engine.self_get_us": (engine.us("search") - onedim.us("search"), "us"),
            "api.get_us": (api.us("search"), "us"),
            "api.range_us": (api.us("range"), "us"),
            "api.batch64_get_us": (api64.us("batch") * per_op, "us"),
            "api.self_get_us": (api.us("search") - engine.us("search"), "us"),
            "api.self_batch64_us": ((api64.us("batch") - engine64.us("batch")) * per_op, "us"),
            "engine.rounds_per_batch64": (statistics.fmean(rounds), "rounds"),
            "net.max_round_load": (float(cluster.round_congestion().max_host_round_load), "count"),
        }
    )

    network = Network()
    source, target = (host.host_id for host in network.add_hosts(2))
    start = time.perf_counter()
    for _ in range(sizes.trace_sends):
        network.send(source, target)
    metrics["net.send_ns"] = ((time.perf_counter() - start) / sizes.trace_sends * 1e9, "ns")


def served_group(
    seed: int,
    sizes: Sizes,
    app: Any,
    server: Server,
    metrics: Metrics,
    notes: dict[str, float],
    tally: Tally,
    tracer: Tracer | None,
) -> None:
    """``server``: the ``served-read`` stream at façade, in-process app and socket."""
    keys = uniform_keys(sizes.served_n, seed=seed)
    streams = [
        served_requests(keys, seed, client, sizes.trace_requests) for client in range(CLIENTS)
    ]
    encoded = [[encode_request(op) for op in stream] for stream in streams]
    cluster = app.manager.get_cluster("default").cluster

    api = replay("api", through_api(cluster), streams[0], tracer, "server.app")
    in_app = through_app(app, streams[0])
    in_process = replay("server.app", in_app, streams[0], tracer, "server.http")

    setup = ServedSetup(server, SortedOracle(keys), streams, encoded)
    solo = hammer(server, encoded[:1], traced=True)[0]
    judge_served(setup, [solo], tally)  # pairs the first stream with the one run
    if tracer is not None:
        untraced = hammer(server, encoded)
        untraced_s = max(run.ended for run in untraced) - min(run.started for run in untraced)
    pair = hammer(server, encoded, traced=True)
    judge_served(setup, pair, tally)
    if tracer is not None:
        traced_s = max(run.ended for run in pair) - min(run.started for run in pair)
        metrics["trace.overhead_share"] = (overhead_share(traced_s, untraced_s), "fraction")
        for op_id, start, end in solo.spans:
            tracer.add("server.http", op_id, start, end, None)
        for client, run in enumerate(pair):
            for op_id, start, end in run.spans:
                tracer.add(f"served-read.client{client}", op_id, start, end, None)

    http_get = [
        latency for (kind, _), latency in zip(streams[0], solo.latencies) if kind == "search"
    ]
    get_bytes = [
        len(body) for (kind, _), (_, body) in zip(streams[0], solo.responses) if kind == "search"
    ]
    http_get_us = statistics.fmean(http_get) * 1e6
    solo_p50 = statistics.median(solo.latencies)
    pair_p50 = statistics.median([latency for run in pair for latency in run.latencies])
    notes["served-read.shared_p50_ms"] = pair_p50 * 1e3

    gets = [payload for kind, payload in streams[0] if kind == "search"]
    batch_bodies = [
        json.dumps(
            {"operations": [{"kind": "get", "payload": key} for key in gets[first:][:BATCH_SIZE]]}
        ).encode("ascii")
        for first in range(0, max(1, len(gets) - BATCH_SIZE + 1), BATCH_SIZE)
    ]
    client = Client(server)
    try:
        batch_us = []
        for body in batch_bodies:
            start = time.perf_counter()
            status, answer = client.request("POST", "/batch", body)
            elapsed_us = (time.perf_counter() - start) * 1e6
            summary = json.loads(answer)["summary"]
            if status != 200 or summary["failed"]:
                raise RuntimeError(f"POST /batch answered {status}: {summary}")
            batch_us.append(elapsed_us / summary["ops"])
    finally:
        client.close()

    metrics.update(
        {
            "server.app_get_us": (in_process.us("search"), "us"),
            "server.app_range_us": (in_process.us("range"), "us"),
            "server.app_self_get_us": (in_process.us("search") - api.us("search"), "us"),
            "server.http_get_us": (http_get_us, "us"),
            "server.http_self_get_us": (http_get_us - in_process.us("search"), "us"),
            "server.batch64_req_us": (statistics.fmean(batch_us), "us"),
            "server.connects_per_req": (solo.connects / len(solo.responses), "count"),
            "server.resp_bytes_get": (statistics.fmean(get_bytes), "bytes"),
            "server.queue_wait_us": ((pair_p50 - solo_p50) * 1e6, "us"),
            "server.app_over_api": (in_process.us("search") / api.us("search"), "ratio"),
            "server.http_over_api": (http_get_us / api.us("search"), "ratio"),
        }
    )


def write_group(
    seed: int,
    sizes: Sizes,
    workdir: Path,
    metrics: Metrics,
    notes: dict[str, float],
    tally: Tally,
    tracer: Tracer | None,
) -> None:
    """``onedim`` (updates), ``engine``, ``api`` and ``storage`` on ``lib-write-1d``."""
    ratio = 4
    small_n = sizes.write_n // ratio

    def fresh(n: int | None = None, storage: str | None = None) -> Prepared:
        return prepare_write(seed, sizes, n=n, ops=sizes.trace_write_ops, storage=storage)

    def directly(cluster: Cluster) -> Adaptor:
        return direct_1d(cluster.structure)

    def engined(cluster: Cluster) -> Adaptor:
        return through_engine(BatchExecutor(cluster.structure))

    small = replay_fresh("onedim", lambda: fresh(small_n), directly)
    onedim = replay_fresh("onedim", fresh, directly, tracer, "engine")
    engine = replay_fresh("engine", fresh, engined, tracer, "api")
    if tracer is not None:
        untraced_s = replay_judged("api", fresh, Tally())[1]
    api, traced_s = replay_judged("api", fresh, tally, tracer)
    notes["lib-write-1d.shared_mean_ms"] = traced_s / sizes.trace_write_ops * 1e3
    if tracer is not None:
        metrics["trace.overhead_share"] = (overhead_share(traced_s, untraced_s), "fraction")

    metrics.update(
        {
            "onedim.insert_us": (onedim.us("insert"), "us"),
            "onedim.delete_us": (onedim.us("delete"), "us"),
            "onedim.insert_msgs": (onedim.msgs("insert"), "messages"),
            "onedim.delete_msgs": (onedim.msgs("delete"), "messages"),
            "onedim.get_scale_exp": (
                scale_exponent(small.us("search"), onedim.us("search"), ratio),
                "exponent",
            ),
            "onedim.insert_scale_exp": (
                scale_exponent(small.us("insert"), onedim.us("insert"), ratio),
                "exponent",
            ),
            "onedim.delete_scale_exp": (
                scale_exponent(small.us("delete"), onedim.us("delete"), ratio),
                "exponent",
            ),
            "onedim.insert_msgs_scale_exp": (
                scale_exponent(small.msgs("insert"), onedim.msgs("insert"), ratio),
                "exponent",
            ),
            "engine.batch1_insert_us": (engine.us("insert"), "us"),
            "engine.batch1_delete_us": (engine.us("delete"), "us"),
            "api.insert_us": (api.us("insert"), "us"),
            "api.delete_us": (api.us("delete"), "us"),
            "api.self_insert_us": (api.us("insert") - engine.us("insert"), "us"),
        }
    )

    # storage: the journaled façade against the plain one, at the small size
    # (a journal append does not depend on n; the structure's own cost does).
    plain, _ = replay_judged("api", lambda: fresh(small_n), tally)
    jsonl_path = workdir / "journal-jsonl"
    journaled = fresh(small_n, storage=str(jsonl_path))
    log = jsonl_path / JsonlStorage.LOG_NAME
    created_bytes = log.stat().st_size
    jsonl, _ = replay_judged("api", lambda: journaled, tally)
    logged_bytes = log.stat().st_size - created_bytes
    start = time.perf_counter()
    journaled.cluster.save()
    snapshot_s = time.perf_counter() - start
    journaled.cluster.close()
    start = time.perf_counter()
    recovered = Cluster.recover(str(jsonl_path), from_snapshot=False)
    recover_s = time.perf_counter() - start
    identical = sorted(recovered.structure.keys) == journaled.oracle.items()
    recovered.close()
    tally.record(identical)
    journal_ops = len(journaled.calls)
    del journaled, recovered
    in_sqlite = fresh(small_n, storage=str(workdir / "journal.sqlite"))
    sqlite, _ = replay_judged("api", lambda: in_sqlite, tally)
    in_sqlite.cluster.close()
    del in_sqlite

    backend = open_storage(str(workdir / "append-log"))
    try:
        start = time.perf_counter()
        for index in range(sizes.trace_appends):
            backend.append("note", {"index": index})
        append_s = time.perf_counter() - start
    finally:
        backend.close()

    metrics.update(
        {
            "storage.append_us": (append_s / sizes.trace_appends * 1e6, "us"),
            "storage.jsonl_self_us": (jsonl.us("insert") - plain.us("insert"), "us"),
            "storage.sqlite_self_us": (sqlite.us("insert") - plain.us("insert"), "us"),
            "storage.bytes_per_op": (logged_bytes / journal_ops, "bytes"),
            "storage.snapshot_ms": (snapshot_s * 1e3, "ms"),
            "storage.recover_ms": (recover_s * 1e3, "ms"),
            "storage.recover_identical": (float(identical), "count"),
        }
    )

    # The §2.4.1 bucket web: no workload crosses it, so this is a diagnostic.
    keys = uniform_keys(sizes.bucket_n, seed=seed)
    new_keys = fresh_keys(keys, seed, sizes.bucket_ops // 2)
    ops = update_ops(keys, new_keys, new_keys, seed, deletes=False)
    bucket = Cluster("bucket-skipweb1d", keys, seed=seed, memory_size=sizes.bucket_memory)
    timed = replay("onedim.bucket", direct_1d(bucket.structure), ops)
    metrics["onedim.bucket_get_us"] = (timed.us("search"), "us")
    metrics["onedim.bucket_insert_us"] = (timed.us("insert"), "us")


def quad_group(
    seed: int,
    sizes: Sizes,
    metrics: Metrics,
    notes: dict[str, float],
    tally: Tally,
    tracer: Tracer | None,
) -> None:
    """``spatial`` on the ``lib-quadtree`` stream, and its siblings ``strings`` / ``planar``."""
    ratio = 4

    def fresh(n: int | None = None) -> Prepared:
        gc.collect()  # as in write_group
        return prepare_quad(seed, sizes, n=n, ops=sizes.trace_quad_ops)

    built = fresh(sizes.quad_n // ratio)
    small = replay("spatial", direct_located(built.cluster.structure), built.calls)
    built = fresh()
    spatial = replay("spatial", direct_located(built.cluster.structure), built.calls, tracer, "api")
    del built
    if tracer is not None:
        # No per-layer metric is taken at the façade here, so it is replayed
        # only when lib-quadtree is the workload being traced.
        untraced_s = replay_judged("api", fresh, Tally())[1]
        traced_s = replay_judged("api", fresh, tally, tracer)[1]
        notes["lib-quadtree.shared_mean_ms"] = traced_s / sizes.trace_quad_ops * 1e3
        metrics["trace.overhead_share"] = (overhead_share(traced_s, untraced_s), "fraction")

    metrics.update(
        {
            "spatial.get_us": (spatial.us("search"), "us"),
            "spatial.range_us": (spatial.us("range"), "us"),
            "spatial.insert_us": (spatial.us("insert"), "us"),
            "spatial.delete_us": (spatial.us("delete"), "us"),
            "spatial.insert_msgs": (spatial.msgs("insert"), "messages"),
            "spatial.delete_msgs": (spatial.msgs("delete"), "messages"),
            "spatial.insert_scale_exp": (
                scale_exponent(small.us("insert"), spatial.us("insert"), ratio),
                "exponent",
            ),
            "spatial.delete_scale_exp": (
                scale_exponent(small.us("delete"), spatial.us("delete"), ratio),
                "exponent",
            ),
        }
    )

    rounds = sizes.strings_ops // 3
    trie = {}
    for n in (sizes.strings_n // ratio, sizes.strings_n):
        strings = random_strings(n + rounds, seed=seed)
        stream_rng(f"strings:{n}", seed).shuffle(strings)
        stored, new = strings[:n], strings[n:]
        web = Cluster("skiptrie", stored, seed=seed).structure
        trie[n] = replay("strings", direct_located(web), update_ops(stored, new, new, seed))
    quarter, full = trie[sizes.strings_n // ratio], trie[sizes.strings_n]
    metrics.update(
        {
            "strings.get_us": (full.us("search"), "us"),
            "strings.insert_us": (full.us("insert"), "us"),
            "strings.delete_us": (full.us("delete"), "us"),
            "strings.delete_scale_exp": (
                scale_exponent(quarter.us("delete"), full.us("delete"), ratio),
                "exponent",
            ),
        }
    )

    rounds = sizes.planar_ops // 2
    rng = stream_rng("planar", seed)
    segments = x_disjoint_segments(sizes.planar_n + rounds, seed=seed)
    rng.shuffle(segments)
    box = bounding_box(segments, margin=1.0)
    stored, new = segments[: sizes.planar_n], segments[sizes.planar_n :]
    queries = [(rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3])) for _ in new]
    web = Cluster("skiptrapezoid", stored, seed=seed, box=box).structure
    planar = replay(
        "planar", direct_located(web), update_ops(stored, new, queries, seed, deletes=False)
    )
    metrics["planar.get_us"] = (planar.us("search"), "us")
    metrics["planar.insert_us"] = (planar.us("insert"), "us")


def trace_run(
    workload: str, seed: int, sizes: Sizes, src: Path, workdir: Path
) -> tuple[Metrics, dict[str, float], Tally, Tracer]:
    """Every per-layer metric; spans and ``trace.overhead_share`` for ``workload``."""
    if sizes.read_n != sizes.served_n:
        raise ValueError("the in-process app serves both the read and the served replays")
    metrics: Metrics = {}
    notes: dict[str, float] = {}
    tally = Tally()
    tracer = Tracer()

    def chosen(name: str) -> Tracer | None:
        return tracer if workload == name else None

    lap = time.perf_counter()

    def note_lap(name: str) -> None:
        """Wall seconds since the previous lap: where a traced run's budget goes."""
        nonlocal lap
        now = time.perf_counter()
        notes[f"trace.{name}_s"] = now - lap
        lap = now

    # Small heaps first (see replay_fresh); the 4096-key cluster comes last.
    write_group(seed, sizes, workdir, metrics, notes, tally, chosen("lib-write-1d"))
    note_lap("write_group")
    quad_group(seed, sizes, metrics, notes, tally, chosen("lib-quadtree"))
    note_lap("quad_group")
    gc.collect()
    # The server builds its cluster on the other core while this process
    # builds the identical one for the in-process layers.
    with ServerProcess(sizes.served_n, seed, src, workdir) as process:
        spec = {
            "name": "default",
            "structure": "skipweb1d",
            "generate": {"kind": "uniform", "count": sizes.read_n, "seed": seed},
            "seed": seed,
        }
        app = create_app(initial=[spec])
        cluster = app.manager.get_cluster("default").cluster
        server = process.ready()
        note_lap("build")
        read_group(seed, sizes, cluster, metrics, notes, tally, chosen("lib-read-1d"))
        note_lap("read_group")
        served_group(seed, sizes, app, server, metrics, notes, tally, chosen("served-read"))
        note_lap("served_group")
        app.manager.close()
    return metrics, notes, tally, tracer
