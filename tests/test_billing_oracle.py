"""Every host an update writes is a host it billed (write side of the billing oracle).

Forty façade updates at n = 128 alternate an insert of a fresh item with
a delete of a random live one, and alternate a pinned origin (a random
origin host) with an unpinned one (the executor's default).  Around each
one :mod:`billing_oracle` snapshots every host's stored items; the hosts
whose contents changed must lie in ``Network.measure().hosts_touched``
plus the origin.  A new item's records land on its owner, the
least-loaded host, and the propagation pass bills that host like any
other whose records changed, so no origin choice leaves a write unbilled.

The bucket skip-web re-deals every block on each update and bills only
the basic-level hosts it charged before, so most of its writes are
unbilled: a strict expected failure until its blocks are maintained
locally (ROADMAP item 8).
"""

from __future__ import annotations

import random

import pytest

from repro.api import Cluster
from repro.spatial import HyperCube
from repro.workloads import random_strings, uniform_keys, uniform_points
from billing_oracle import changed_hosts, host_contents

N = 128
OPS = 40


def _point(rng):
    return (rng.random(), rng.random())


def _string(rng):
    return "".join(rng.choice("abcdefgh") for _ in range(rng.randint(6, 20)))


def _key(rng):
    return rng.uniform(0.0, 1_000_000.0)


#: family -> (inputs, options, fresh item from an rng)
FAMILIES = {
    "skipweb1d": (lambda: uniform_keys(N, 3), {}, _key),
    "skipquadtree": (
        lambda: uniform_points(N, seed=3),
        {"bounding_cube": HyperCube((0.0, 0.0), 1.0)},
        _point,
    ),
    "skiptrie": (lambda: random_strings(N, seed=3), {}, _string),
    "bucket-skipweb1d": (lambda: uniform_keys(N, 3), {"memory_size": 16}, _key),
}


def unbilled_writes(family):
    """(op index, kind, hosts written but not billed) for every op that has any."""
    make_items, options, fresh = FAMILIES[family]
    items = make_items()
    cluster = Cluster(family, items, seed=3, **options)
    network = cluster.network
    rng = random.Random(f"billing:{family}")
    live, present = list(items), set(items)
    found = []
    contents = host_contents(network)
    for index in range(OPS):
        if index % 2 == 0:
            kind, item = "insert", fresh(rng)
            while item in present:
                item = fresh(rng)
            present.add(item)
            live.append(item)
        else:
            kind, item = "delete", live.pop(rng.randrange(len(live)))
            present.discard(item)
        origin = rng.choice(cluster.structure.origin_hosts()) if index % 4 < 2 else None
        with network.measure() as stats:
            handle = getattr(cluster, kind)(item, origin_host=origin)
        assert handle.ok, handle.error
        before, contents = contents, host_contents(network)
        unbilled = changed_hosts(before, contents) - stats.hosts_touched - {handle.origin_host}
        if unbilled:
            found.append((index, kind, sorted(unbilled)))
    return found


@pytest.mark.parametrize(
    "family",
    [
        "skipquadtree",
        "skiptrie",
        "skipweb1d",
        pytest.param(
            "bucket-skipweb1d",
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 8: the bucket web re-deals every block per "
                "update and bills only its basic-level hosts",
            ),
        ),
    ],
)
def test_every_written_host_is_billed(family):
    assert unbilled_writes(family) == []
