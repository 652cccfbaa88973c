"""Seeded inputs of the layered benchmark: sizes, ground sets, operation streams.

The benchmark seed drives only input generation.  Ground sets come from the
``repro.workloads`` generators, called where a workload is built
(``served-read`` has to know the keys the server generates for itself from
``--items``/``--seed``); every operation stream here draws from its own
string-seeded ``random.Random`` so a stream never replays the draws that
produced its ground set.

An operation is a ``(kind, payload)`` pair with ``kind`` in ``search`` /
``range`` / ``insert`` / ``delete`` and a plain-tuple payload, so the same
stream can be handed to ``Cluster``, to the structure classes, to the
engine and (JSON-encoded) to the server.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Iterator

Op = tuple[str, Any]

#: ``uniform_keys`` draws from ``[0, KEY_HIGH)``; so do the 1-d queries.
KEY_HIGH = 1_000_000.0
BATCH_SIZE = 64
#: A 1-d range op spans this many consecutive stored keys.
RANGE_SPAN = 32
#: Half-side of a quadtree range box around a live point.
BOX_RADIUS = 0.02
#: ``served-read`` range requests cover this share of the key space.
SERVED_RANGE_SHARE = 0.01
#: Seconds the reference op counts below were sized for (2-core box).
REFERENCE_SECONDS = 30


@dataclass(frozen=True)
class Sizes:
    """Problem sizes: the four workloads, then the traced per-layer replay."""

    read_n: int
    read_batches: int
    write_n: int
    write_ops: int
    quad_n: int
    quad_ops: int
    served_n: int
    served_requests: int  # per client thread
    setup_reps: int
    trace_batches: int
    trace_singles: int
    trace_write_ops: int
    trace_quad_ops: int
    trace_requests: int
    trace_sends: int
    trace_appends: int
    strings_n: int
    strings_ops: int
    planar_n: int
    planar_ops: int
    bucket_n: int
    bucket_memory: int
    bucket_ops: int


#: Op counts sized to ``REFERENCE_SECONDS`` of timed work per workload.  The
#: traced sizes are not scaled by ``--seconds``: one traced run replays
#: every layer of every workload and has to fit the same wall-clock budget.
REFERENCE = Sizes(
    read_n=4096,
    read_batches=2500,
    write_n=2048,
    write_ops=1500,
    quad_n=1024,
    quad_ops=2400,
    served_n=4096,
    served_requests=12000,
    setup_reps=3,
    trace_batches=60,
    trace_singles=1200,
    trace_write_ops=50,
    trace_quad_ops=100,
    trace_requests=500,
    trace_sends=100_000,
    trace_appends=1000,
    strings_n=1024,
    strings_ops=30,
    planar_n=48,
    planar_ops=8,
    bucket_n=512,
    bucket_memory=32,
    bucket_ops=6,
)

SMOKE = Sizes(
    read_n=256,
    read_batches=3,
    write_n=256,
    write_ops=100,
    quad_n=128,
    quad_ops=100,
    served_n=256,
    served_requests=100,
    setup_reps=2,
    trace_batches=2,
    trace_singles=40,
    trace_write_ops=20,
    trace_quad_ops=20,
    trace_requests=40,
    trace_sends=2000,
    trace_appends=50,
    strings_n=128,
    strings_ops=9,
    planar_n=16,
    planar_ops=4,
    bucket_n=64,
    bucket_memory=8,
    bucket_ops=4,
)


def sizes_for(seconds: float, smoke: bool) -> Sizes:
    """The sizes of one run: all four op counts scaled by one common factor."""
    if smoke:
        return SMOKE
    factor = seconds / REFERENCE_SECONDS
    return replace(
        REFERENCE,
        read_batches=max(1, round(REFERENCE.read_batches * factor)),
        write_ops=max(1, round(REFERENCE.write_ops * factor)),
        quad_ops=max(1, round(REFERENCE.quad_ops * factor)),
        served_requests=max(1, round(REFERENCE.served_requests * factor)),
    )


#: Operation mixes, as blocks of ten: a stream is a run of shuffled blocks, so
#: every seed draws exactly the same number of each kind (a Bernoulli mix
#: moves the delete count, and with it ops_per_s, by several percent) and a
#: shorter stream is a prefix of a longer one.
READ_MIX = ("search",) * 9 + ("range",)
WRITE_MIX = ("search",) * 4 + ("insert",) * 3 + ("delete",) * 3
QUAD_MIX = ("search",) * 7 + ("range", "insert", "delete")


def stream_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"layers:{workload}:{seed}")


def mixed_kinds(rng: random.Random, count: int, mix: tuple[str, ...]) -> Iterator[str]:
    """``count`` operation kinds, in shuffled blocks of ``mix``."""
    for start in range(0, count, len(mix)):
        block = list(mix)
        rng.shuffle(block)
        yield from block[: count - start]


def read_batches(keys: list[float], seed: int, batches: int) -> list[list[Op]]:
    """``lib-read-1d``: 90 % search of a uniform query, 10 % range over stored keys."""
    rng = stream_rng("lib-read-1d", seed)
    span = min(RANGE_SPAN, len(keys))
    ops: list[Op] = []
    for kind in mixed_kinds(rng, batches * BATCH_SIZE, READ_MIX):
        if kind == "range":
            first = rng.randrange(len(keys) - span + 1)
            ops.append(("range", (keys[first], keys[first + span - 1])))
        else:
            ops.append(("search", rng.uniform(0.0, KEY_HIGH)))
    return [ops[first : first + BATCH_SIZE] for first in range(0, len(ops), BATCH_SIZE)]


def write_ops(keys: list[float], seed: int, ops: int) -> list[Op]:
    """``lib-write-1d``: 40 % search / 30 % insert fresh / 30 % delete live."""
    rng = stream_rng("lib-write-1d", seed)
    live = list(keys)
    present = set(keys)
    stream: list[Op] = []
    for kind in mixed_kinds(rng, ops, WRITE_MIX):
        if kind == "search":
            stream.append(("search", rng.uniform(0.0, KEY_HIGH)))
        elif kind == "insert":
            key = round(rng.uniform(0.0, KEY_HIGH), 6)
            while key in present:
                key = round(rng.uniform(0.0, KEY_HIGH), 6)
            live.append(key)
            present.add(key)
            stream.append(("insert", key))
        else:
            stream.append(("delete", _pop_random(rng, live, present)))
    return stream


def quad_ops(points: list[tuple[float, ...]], seed: int, ops: int) -> list[Op]:
    """``lib-quadtree``: 70 % nearest / 10 % range box / 10 % insert / 10 % delete."""
    rng = stream_rng("lib-quadtree", seed)
    live = list(points)
    present = set(points)
    stream: list[Op] = []
    for kind in mixed_kinds(rng, ops, QUAD_MIX):
        if kind == "search":
            stream.append(("search", (rng.random(), rng.random())))
        elif kind == "range":
            centre = live[rng.randrange(len(live))]
            lower = tuple(c - BOX_RADIUS for c in centre)
            upper = tuple(c + BOX_RADIUS for c in centre)
            stream.append(("range", (lower, upper)))
        elif kind == "insert":
            point = (round(rng.random(), 9), round(rng.random(), 9))
            while point in present:
                point = (round(rng.random(), 9), round(rng.random(), 9))
            live.append(point)
            present.add(point)
            stream.append(("insert", point))
        else:
            stream.append(("delete", _pop_random(rng, live, present)))
    return stream


def served_requests(keys: list[float], seed: int, client: int, requests: int) -> list[Op]:
    """``served-read``, one client: 90 % get of a stored key / 10 % range of 1 %."""
    rng = stream_rng(f"served-read:{client}", seed)
    width = SERVED_RANGE_SHARE * KEY_HIGH
    stream: list[Op] = []
    for kind in mixed_kinds(rng, requests, READ_MIX):
        if kind == "range":
            low = rng.uniform(0.0, KEY_HIGH - width)
            stream.append(("range", (low, low + width)))
        else:
            stream.append(("search", keys[rng.randrange(len(keys))]))
    return stream


def fresh_keys(keys: list[float], seed: int, count: int) -> list[float]:
    """``count`` uniform keys that ``keys`` does not hold."""
    rng = stream_rng("fresh-keys", seed)
    present = set(keys)
    fresh: list[float] = []
    while len(fresh) < count:
        key = round(rng.uniform(0.0, KEY_HIGH), 6)
        if key not in present:
            present.add(key)
            fresh.append(key)
    return fresh


def update_ops(
    items: list[Any], fresh: list[Any], queries: list[Any], seed: int, deletes: bool = True
) -> list[Op]:
    """Diagnostic stream of the families no workload crosses: in rounds, one
    query, one insert of a fresh item and (optionally) one delete of a live one."""
    rng = stream_rng("updates", seed)
    live = list(items)
    present = set(items)
    stream: list[Op] = []
    for item, query in zip(fresh, queries):
        stream.append(("search", query))
        stream.append(("insert", item))
        live.append(item)
        present.add(item)
        if deletes:
            stream.append(("delete", _pop_random(rng, live, present)))
    return stream


def _pop_random(rng: random.Random, live: list[Any], present: set[Any]) -> Any:
    index = rng.randrange(len(live))
    live[index], live[-1] = live[-1], live[index]
    item = live.pop()
    present.discard(item)
    return item
