"""Quickstart: the ``repro.api.Cluster`` façade in five minutes.

Deploys a one-dimensional skip-web over 200 numeric keys through the
public API — one constructor instead of hand-wiring network, structure,
executor and churn control — then runs queries, a concurrent batch, an
update, a range report and a membership change, printing the message
costs the paper's Theorem 2 bounds.

Run with:  python examples/quickstart.py
(after ``pip install -e .``, or with ``PYTHONPATH=src`` from the repo root)
"""

import random
import shutil
import tempfile
from pathlib import Path

from repro.api import Cluster, available_structures
from repro.workloads import uniform_keys


def main() -> None:
    rng = random.Random(42)
    keys = uniform_keys(200, seed=7)

    print("== structure families constructible via Cluster(structure=...) ==")
    print("  " + ", ".join(available_structures()))

    print("\n== deploying a 1-d skip-web over", len(keys), "keys (one host per key) ==")
    with Cluster(structure="skipweb1d", items=keys, seed=7) as cluster:
        stats = cluster.stats()
        print(f"hosts: {stats.hosts}, max records per host: {stats.max_memory_per_host}")

        print("\n== nearest-neighbour queries ==")
        for _ in range(5):
            query = rng.uniform(0, 1_000_000)
            handle = cluster.nearest(query, origin_host=rng.randrange(stats.hosts))
            result = handle.result()
            print(
                f"  query {query:12.1f} -> nearest {result.answer.nearest:12.1f} "
                f"({handle.messages} messages, {len(result.hosts_visited)} hosts on path)"
            )

        print("\n== a concurrent batch through the round engine ==")
        report = cluster.batch(
            [("search", rng.uniform(0, 1_000_000)) for _ in range(40)]
        )
        print(
            f"  {report.completed}/{report.ops} ok in {report.rounds} rounds, "
            f"{report.messages_per_op:.2f} msgs/op, "
            f"worst per-host per-round load {report.max_round_congestion}"
        )

        print("\n== updates and range reporting ==")
        insert = cluster.insert(424242.42)
        print(f"  insert 424242.42: {insert.status} ({insert.messages} messages)")
        window = cluster.range((420000.0, 430000.0))
        print(
            f"  range [420000, 430000]: {window.result().count} keys "
            f"({window.messages} messages)"
        )
        delete = cluster.delete(keys[10])
        print(f"  delete {keys[10]}: {delete.status} ({delete.messages} messages)")

        print("\n== live membership change with self-repair ==")
        join = cluster.join_host()
        print(
            f"  join: {join.records_moved} records rebalanced "
            f"({join.repair_messages} messages)"
        )
        crash = cluster.crash_host()
        print(
            f"  crash + repair: {crash.records_moved} records re-homed "
            f"({crash.repair_messages} messages)"
        )

    print("\n== bucket skip-web (§2.4.1) bulk-loaded via build_from_sorted ==")
    bucket = Cluster(structure="bucket-skipweb1d", memory_size=64, seed=7)
    load = bucket.bulk_load(sorted(set(float(key) for key in keys)))
    stats = bucket.stats()
    print(
        f"hosts: {stats.hosts}, max items per host: {stats.max_memory_per_host}, "
        f"construction messages: {load.messages}"
    )
    costs = [bucket.nearest(rng.uniform(0, 1_000_000)).messages for _ in range(20)]
    print(
        f"  mean query messages: {sum(costs) / len(costs):.2f} "
        "(vs the plain skip-web's O(log n))"
    )

    print("\n== error taxonomy: what a DHT cannot do ==")
    chord = Cluster(structure="chord", items=keys)
    handle = chord.range((0.0, 1000.0))
    print(f"  range query on Chord: status={handle.status!r} " "(hashing destroys order, §1.2)")

    print("\n== durable runs: journal, kill, recover (DESIGN.md §9) ==")
    store = tempfile.mkdtemp(prefix="quickstart-") + "/run.sqlite"
    durable = Cluster(structure="skipweb1d", items=keys[:50], seed=7, storage=store)
    durable.batch([("search", 123.0), ("insert", 1.5)])
    durable.crash_host()
    digest_before = durable.stats().messages_total
    durable.close()  # or a SIGKILL: every committed operation is already logged
    recovered = Cluster.recover(store)
    print(f"  recovered {recovered.applied_operations} operations from {store}")
    print(f"  message counters match: {recovered.stats().messages_total == digest_before}")
    recovered.close()
    shutil.rmtree(str(Path(store).parent))


if __name__ == "__main__":
    main()
