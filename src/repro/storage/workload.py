"""A seeded, resumable mixed workload for exercising the durability layer.

The recovery-gate CI job (and ``python -m repro.cli workload``) needs a
run it can SIGKILL at an arbitrary committed step and later resume to a
**byte-identical** final report.  This module provides it: a per-family
workload whose every step is derived from ``random.Random(f"{seed}:{k}")``
— the step index alone, never the history — so a resumed run regenerates
step ``k`` without replaying the random stream, while history-dependent
draws (churn victim selection) live in the cluster's own journaled and
snapshotted rng.

Invariant the resume arithmetic leans on: **one step = exactly one
action record**.  Batches (singles included) are one ``batch``
record; churn is one ``churn`` record.  The
cluster's ``applied_operations`` counter therefore equals ``1 (create)
+ steps committed``, which is how :func:`resume_workload` finds where
the crash interrupted.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import StorageError
from repro.storage.backends import StorageBackend, open_storage
from repro.storage.snapshot import content_digest

#: Relative frequencies of the step kinds (searches dominate, as in the
#: paper's query-heavy regime; churn is rare but regular).
_STEP_KINDS = ("batch", "insert", "delete", "churn")
_STEP_WEIGHTS = (6, 2, 1, 3)
_CHURN_KINDS = ("join", "leave", "crash")
_CHURN_WEIGHTS = (2, 1, 1)
#: Searches per batch step.
_BATCH_SIZE = 4


@dataclass(frozen=True)
class WorkloadSpec:
    """Per-family payload generators (all driven by a per-step rng)."""

    items: Callable[[int], Sequence[Any]]
    kwargs: Callable[[], dict[str, Any]]
    search: Callable[[random.Random, Sequence[Any]], Any]
    range_: Callable[[random.Random], Any] | None = None
    insert: Callable[[random.Random], Any] | None = None


def _keys(count: int = 24) -> Callable[[int], Sequence[Any]]:
    from repro.workloads import uniform_keys

    return lambda seed: uniform_keys(count, seed=seed)


def _key_search(rng: random.Random, items: Sequence[Any]) -> Any:
    return round(rng.uniform(0.0, 1_000_000.0), 6)


def _member_search(rng: random.Random, items: Sequence[Any]) -> Any:
    return items[rng.randrange(len(items))]


def _key_range(rng: random.Random) -> Any:
    lo, hi = sorted(round(rng.uniform(0.0, 1_000_000.0), 6) for _ in range(2))
    return (lo, hi)


def _key_insert(rng: random.Random) -> Any:
    return round(rng.uniform(0.0, 1_000_000.0), 6)


def _quadtree_spec() -> WorkloadSpec:
    from repro.spatial import HyperCube
    from repro.workloads import uniform_points

    return WorkloadSpec(
        items=lambda seed: uniform_points(16, dimension=2, seed=seed),
        kwargs=lambda: {"bounding_cube": HyperCube((0.0, 0.0), 1.0)},
        search=lambda rng, items: (rng.random(), rng.random()),
        insert=lambda rng: (rng.random(), rng.random()),
    )


def _trie_spec() -> WorkloadSpec:
    from repro.strings import DNA
    from repro.workloads import dna_reads

    return WorkloadSpec(
        items=lambda seed: dna_reads(16, seed=seed),
        kwargs=lambda: {"alphabet": DNA},
        search=lambda rng, items: items[rng.randrange(len(items))][:6],
    )


def _trapezoid_spec() -> WorkloadSpec:
    from repro.workloads import non_crossing_segments

    return WorkloadSpec(
        items=lambda seed: non_crossing_segments(10, seed=seed),
        kwargs=lambda: {},
        search=lambda rng, items: (
            items[rng.randrange(len(items))].left[0] + 0.5,
            items[rng.randrange(len(items))].left[1] + 0.5,
        ),
    )


def workload_specs() -> dict[str, WorkloadSpec]:
    """One :class:`WorkloadSpec` per registered structure family."""
    ordered = WorkloadSpec(
        items=_keys(),
        kwargs=lambda: {},
        search=_key_search,
        range_=_key_range,
        insert=_key_insert,
    )
    keyed = WorkloadSpec(items=_keys(), kwargs=lambda: {}, search=_member_search)
    return {
        "skipweb1d": ordered,
        "bucket-skipweb1d": WorkloadSpec(
            items=_keys(),
            kwargs=lambda: {"memory_size": 16},
            search=_key_search,
            range_=_key_range,
            insert=_key_insert,
        ),
        "skipquadtree": _quadtree_spec(),
        "skiptrie": _trie_spec(),
        "skiptrapezoid": _trapezoid_spec(),
        "skipgraph": ordered,
        "skipnet": keyed,
        "non-skipgraph": keyed,
        "family-tree": keyed,
        "det-skipnet": keyed,
        "bucket-skipgraph": keyed,
        "chord": keyed,
    }


def _step_rng(seed: int, step: int) -> random.Random:
    # Seeded from a string: deterministic across processes and runs,
    # independent of PYTHONHASHSEED, and a function of the step index
    # alone so resumed runs regenerate any step without history.
    return random.Random(f"{seed}:{step}")


def _run_step(cluster: Any, spec: WorkloadSpec, seed: int, step: int) -> None:
    """Apply workload step ``step``: exactly one committed action record."""
    rng = _step_rng(seed, step)
    registry_spec = cluster.spec
    kinds, weights = [], []
    for kind, weight in zip(_STEP_KINDS, _STEP_WEIGHTS):
        if kind == "insert" and (spec.insert is None or not registry_spec.supports_updates):
            continue
        if kind == "delete" and not registry_spec.supports_updates:
            continue
        kinds.append(kind)
        weights.append(weight)
    kind = rng.choices(kinds, weights=weights, k=1)[0]
    items = cluster._workload_items  # stashed by run_workload/resume_workload
    if kind == "batch":
        operations: list[tuple[str, Any]] = [
            ("search", spec.search(rng, items)) for _ in range(_BATCH_SIZE)
        ]
        if spec.range_ is not None and registry_spec.supports_range:
            operations.append(("range", spec.range_(rng)))
        cluster.batch(operations)
    elif kind == "insert":
        assert spec.insert is not None
        cluster.batch([("insert", spec.insert(rng))])
    elif kind == "delete":
        cluster.batch([("delete", items[rng.randrange(len(items))])])
    else:
        churn_kind = rng.choices(_CHURN_KINDS, weights=_CHURN_WEIGHTS, k=1)[0]
        # Deterministic floor guard: below min_hosts + 1 live hosts a
        # leave/crash would be refused, so the step joins instead.  The
        # decision depends only on (deterministic) cluster state.
        alive = len(cluster.network.alive_host_ids())
        if churn_kind != "join" and alive <= cluster._min_hosts + 1:
            churn_kind = "join"
        if churn_kind == "join":
            cluster.join_host()
        elif churn_kind == "leave":
            cluster.leave_host()
        else:
            cluster.crash_host()


def _report_row(
    cluster: Any, structure: str, steps: int, seed: int
) -> dict[str, Any]:
    """One flat row summarising the run — the byte-compared artifact.

    Every restored dimension appears: structure contents (digest),
    membership, message tallies by kind, churn repair accounting and
    round-congestion aggregates.  Deliberately NOT included: anything
    that differs between an uninterrupted and a killed-and-resumed run
    (the resume offset goes to stderr), so the recovery gate can compare
    the two outputs byte for byte.
    """
    stats = cluster.stats().as_dict()
    congestion = cluster.round_congestion()
    row: dict[str, Any] = {
        "structure": structure,
        "steps": steps,
        "seed": seed,
        "applied_operations": cluster.applied_operations,
        "content_digest": content_digest(cluster.structure),
        "hosts": stats["hosts"],
        "alive_hosts": stats["alive_hosts"],
        "membership_epoch": stats["membership_epoch"],
        "messages_total": stats["messages_total"],
        "construction_messages": stats["construction_messages"],
        "churn_events": len(cluster.churn_events),
        "repair_messages": sum(e.repair_messages for e in cluster.churn_events),
        "records_moved": sum(e.records_moved for e in cluster.churn_events),
        "congestion_rounds": congestion.rounds,
        "congestion_messages": congestion.total_messages,
        "max_round_congestion": congestion.max_host_round_load,
    }
    for kind, count in sorted(stats["messages_by_kind"].items()):
        row[f"messages_{kind}"] = count
    return row


def run_workload(
    structure: str = "skipweb1d",
    steps: int = 12,
    seed: int = 0,
    storage: "str | StorageBackend | None" = None,
    snapshot_every: int = 0,
    kill_after: int | None = None,
) -> list[dict[str, Any]]:
    """Run the seeded workload from genesis; returns the one-row report.

    ``kill_after=K`` SIGKILLs the *current process* the instant step K
    has committed — the recovery-gate CI job uses it to crash a run at a
    randomized-but-logged offset and then resume it from ``storage``.
    """
    specs = workload_specs()
    if structure not in specs:
        raise StorageError(
            f"no workload defined for structure {structure!r}; "
            f"choose from {sorted(specs)}"
        )
    if kill_after is not None and storage is None:
        raise StorageError("kill_after requires storage= (nothing would survive)")
    spec = specs[structure]
    items = spec.items(seed)
    from repro.api import Cluster

    cluster = Cluster(
        structure=structure,
        items=items,
        seed=seed,
        storage=storage,
        snapshot_every=snapshot_every,
        **spec.kwargs(),
    )
    cluster._workload_items = items
    if storage is not None:
        cluster._durability.record_note(
            {"workload": {"structure": structure, "steps": steps, "seed": seed}}
        )
    for step in range(steps):
        _run_step(cluster, spec, seed, step)
        if kill_after is not None and step + 1 >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)
    row = _report_row(cluster, structure, steps, seed)
    cluster.close()
    return [row]


def resume_workload(
    storage: "str | StorageBackend",
    *,
    trim_torn_tail: bool = False,
) -> list[dict[str, Any]]:
    """Recover a killed workload run and drive it to completion.

    Reads the workload parameters from the journal's ``note`` record,
    recovers the cluster (snapshot + tail replay), computes how many
    steps committed before the crash from the action count, and runs the
    remainder.  The resulting report row is byte-identical to an
    uninterrupted run's.
    """
    from repro.api import Cluster

    backend = open_storage(storage)
    params: dict[str, Any] | None = None
    try:
        records = backend.records()
    except StorageError as exc:
        if not (trim_torn_tail and exc.torn_tail):
            raise
        backend.trim_torn_tail()
        records = backend.records()
    for record in records:
        if record.kind == "note" and "workload" in record.payload:
            params = record.payload["workload"]
            break
    if params is None:
        raise StorageError(
            f"{backend.path!r} holds no workload note record; was this store "
            "written by `repro.cli workload --save`?"
        )
    cluster = Cluster.recover(backend, trim_torn_tail=trim_torn_tail)
    structure, steps, seed = params["structure"], params["steps"], params["seed"]
    spec = workload_specs()[structure]
    cluster._workload_items = spec.items(seed)
    done = cluster.applied_operations - 1  # minus the create record
    print(
        f"resumed {structure!r} workload from step {done}/{steps} "
        f"({backend.path})",
        file=sys.stderr,
    )
    for step in range(done, steps):
        _run_step(cluster, spec, seed, step)
    row = _report_row(cluster, structure, steps, seed)
    cluster.close()
    return [row]


def report_json(rows: list[dict[str, Any]]) -> str:
    """Canonical JSON for byte-comparison (sorted keys, no whitespace drift)."""
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))
