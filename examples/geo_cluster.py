"""Geo-distributed deployment: the same skip-web priced under three topologies.

Every hop a skip-web walk takes costs 1 message in the paper's model.
This example deploys the *same* 1-d skip-web under three link-cost
models — the flat default, a data-center layout (cheap intra-rack,
expensive inter-rack), and a geo-distributed layout (hosts placed into
regions by a seeded generator, links priced by a per-region weight
matrix) — and runs one identical query batch under each.  Routing never
changes, so the message counts match exactly; what changes is what the
traffic *costs*: the weighted latency and the busiest link.

Run with:  python examples/geo_cluster.py
(after ``pip install -e .``, or with ``PYTHONPATH=src`` from the repo root)
"""

import random

from repro.api import Cluster, GeoTopology
from repro.workloads import uniform_keys


def run_batch(topology):
    """One seeded query batch over a fresh deployment; returns the report."""
    cluster = Cluster(
        structure="skipweb1d",
        items=uniform_keys(128, seed=7),
        seed=7,
        topology=topology,
    )
    rng = random.Random(7)
    queries = [("search", rng.uniform(0.0, 1_000_000.0)) for _ in range(60)]
    return cluster, cluster.batch(queries)


def main() -> None:
    print("== one skip-web, three cost models ==")
    reports = {}
    for name in ("flat", "clustered", "geo"):
        cluster, report = run_batch(name)
        reports[name] = report
        congestion = report.round_congestion()
        print(
            f"  {name:9s}: {report.messages} msgs in {report.rounds} rounds, "
            f"weighted latency {report.latency} "
            f"({report.latency_per_op:.1f}/op), "
            f"max link load {congestion.max_link_round_load}"
        )

    assert reports["flat"].messages == reports["geo"].messages  # routing unchanged
    assert reports["flat"].latency == reports["flat"].messages  # flat: cost 1/hop

    print("\n== who lives where under the geo layout? ==")
    geo = GeoTopology(regions=3, seed=7)
    cluster, report = run_batch(geo)
    placement = geo.placement(cluster.network.alive_host_ids())
    for region in range(geo.regions):
        hosts = sorted(host for host, where in placement.items() if where == region)
        preview = ", ".join(str(host) for host in hosts[:8])
        more = f", … ({len(hosts)} total)" if len(hosts) > 8 else ""
        print(f"  region {region}: hosts {preview}{more}")

    print("\n== inter-region link prices (seeded weight matrix) ==")
    for i, row in enumerate(geo.weights):
        print(f"  from region {i}: {list(row)}")

    summary = cluster.network.topology_congestion_summary()
    src, dst = summary["busiest_link"]
    print(
        f"\nbusiest link: {src} -> {dst} "
        f"(region {geo.cluster_of(src)} -> {geo.cluster_of(dst)}), "
        f"load {summary['busiest_link_load']} in round "
        f"{summary['busiest_link_round']}"
    )
    print(
        f"whole batch: weight {summary['weight']} over {summary['rounds']} rounds, "
        f"busiest region {summary['busiest_cluster']} "
        f"(load {summary['busiest_cluster_load']})"
    )


if __name__ == "__main__":
    main()
