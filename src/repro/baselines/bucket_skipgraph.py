"""Bucket skip graphs (Aspnes, Kirsch, Krishnamurthy) — Table 1 row 5.

When fewer hosts than keys are available (``H < n``), keys are grouped
into contiguous buckets — one bucket per host — and a skip graph is built
over the buckets rather than over the individual keys.  Each host then
stores its bucket's ``n/H`` keys plus ``O(log H)`` routing entries, and a
search costs ``Õ(log H)`` messages: route to the responsible bucket, then
answer locally.  The paper's bucket skip-web improves the query cost
further to ``Õ(log_M H)``; the Table 1 benchmark measures both.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Any, Sequence

from repro.baselines.base import DistributedOrderedStructure, SearchOutcome
from repro.engine.steps import StepCursor, StepGenerator
from repro.errors import QueryError
from repro.net.naming import HostId
from repro.net.network import Network


class BucketSkipGraph(DistributedOrderedStructure):
    """A skip graph over contiguous key buckets, one bucket per host."""

    name = "bucket skip graph"

    def __init__(
        self,
        keys: Sequence[float],
        host_count: int | None = None,
        network: Network | None = None,
        seed: int = 0,
    ) -> None:
        self._requested_hosts = host_count
        self._vectors: dict[int, tuple[int, ...]] = {}
        self._vector_rng = random.Random(seed)
        self._bucket_bounds: list[float] = []
        super().__init__(keys, network=network, seed=seed)

    # ------------------------------------------------------------------ #
    # host layout: H buckets of contiguous keys
    # ------------------------------------------------------------------ #
    def _target_host_count(self) -> int:
        if self._requested_hosts is not None:
            return max(1, self._requested_hosts)
        n = len(self._keys)
        return max(1, n // max(1, math.ceil(math.log2(max(2, n)))))

    def _setup_hosts(self) -> None:
        host_count = self._target_host_count()
        existing = [host.host_id for host in self.network.hosts()]
        needed = host_count - len(existing)
        if needed > 0:
            self.network.add_hosts(needed)
        self._assign_buckets()

    def _assign_buckets(self) -> None:
        host_ids = [host.host_id for host in self.network.hosts()]
        host_count = len(host_ids)
        self._host_of_key.clear()
        self._bucket_bounds = []
        bucket_size = max(1, math.ceil(len(self._keys) / host_count))
        for bucket_index in range(host_count):
            bucket_keys = self._keys[
                bucket_index * bucket_size : (bucket_index + 1) * bucket_size
            ]
            if not bucket_keys:
                continue
            self._bucket_bounds.append(bucket_keys[0])
            for key in bucket_keys:
                self._host_of_key[key] = host_ids[bucket_index]

    def _assign_new_key(self, key: float) -> None:
        # The new key joins the bucket responsible for its position; no new
        # host is created (bucket sizes grow by one, as in the original
        # structure between rebalancing rounds).
        index = max(0, bisect.bisect_right(self._bucket_bounds, key) - 1)
        host_ids = [host.host_id for host in self.network.hosts()]
        bucket_host = host_ids[min(index, len(host_ids) - 1)]
        self._host_of_key[key] = bucket_host

    def _after_ground_set_change(self) -> None:
        # Keep existing bucket assignment; only ensure every key has a host.
        for key in self._keys:
            if key not in self._host_of_key:
                self._assign_new_key(key)

    # ------------------------------------------------------------------ #
    # routing tables: skip graph over bucket representatives
    # ------------------------------------------------------------------ #
    def _buckets(self) -> dict[HostId, list[float]]:
        buckets: dict[HostId, list[float]] = {}
        for key in self._keys:
            buckets.setdefault(self._host_of_key[key], []).append(key)
        for members in buckets.values():
            members.sort()
        return buckets

    def _vector(self, bucket_index: int, length: int) -> tuple[int, ...]:
        existing = self._vectors.get(bucket_index, ())
        while len(existing) < length:
            existing = existing + (self._vector_rng.randrange(2),)
        self._vectors[bucket_index] = existing
        return existing[:length]

    def _routing_tables(self) -> dict[HostId, Any]:
        buckets = self._buckets()
        ordered_hosts = sorted(buckets, key=lambda host_id: buckets[host_id][0])
        representatives = [buckets[host_id][0] for host_id in ordered_hosts]
        length = max(1, math.ceil(math.log2(max(2, len(ordered_hosts)))))
        levels: list[dict[tuple[int, ...], list[int]]] = []
        for level in range(length + 1):
            groups: dict[tuple[int, ...], list[int]] = {}
            for bucket_index in range(len(ordered_hosts)):
                groups.setdefault(self._vector(bucket_index, length)[:level], []).append(
                    bucket_index
                )
            levels.append(groups)
        tables: dict[HostId, Any] = {}
        for bucket_index, host_id in enumerate(ordered_hosts):
            neighbor_levels: list[dict[str, float | None]] = []
            for level in range(length + 1):
                members = levels[level][self._vector(bucket_index, length)[:level]]
                position = members.index(bucket_index)
                left = (
                    representatives[members[position - 1]] if position > 0 else None
                )
                right = (
                    representatives[members[position + 1]]
                    if position + 1 < len(members)
                    else None
                )
                neighbor_levels.append({"left": left, "right": right})
            tables[host_id] = {
                "key": representatives[bucket_index],
                "bucket": buckets[host_id],
                "levels": neighbor_levels,
            }
        return tables

    # ------------------------------------------------------------------ #
    # routing: to the responsible bucket, then answer locally
    # ------------------------------------------------------------------ #
    def _route(self, table: Any, current_key: float, query: float) -> float | None:
        bucket: list[float] = table["bucket"]
        levels = table["levels"]
        # Done when the query falls inside this bucket's responsibility:
        # at or after the bucket's first key and before the next bucket.
        right_rep = None
        for level in levels:
            if level["right"] is not None:
                right_rep = (
                    level["right"] if right_rep is None else min(right_rep, level["right"])
                )
        if (query >= bucket[0] or all(level["left"] is None for level in levels)) and (
            right_rep is None or query < right_rep
        ):
            return None
        if query > table["key"]:
            for level in range(len(levels) - 1, -1, -1):
                right = levels[level]["right"]
                if right is not None and table["key"] < right <= query:
                    return right
            return None
        for level in range(len(levels) - 1, -1, -1):
            left = levels[level]["left"]
            if left is not None and query <= left < table["key"]:
                return left
        # The query lies below this bucket's first key but above the
        # previous bucket's representative: that previous bucket (the
        # largest left neighbour, which is the level-0 left) is the
        # responsible one, so take the final one-bucket hop.
        lefts = [level["left"] for level in levels if level["left"] is not None]
        if lefts:
            return max(lefts)
        return None

    def search_steps(
        self,
        query: float,
        origin_host: HostId | None = None,
        origin_key: float | None = None,
    ) -> StepGenerator:
        """Route to the responsible bucket, then answer from its local keys.

        Overrides the base generator so that *every* execution path — the
        eager :meth:`search` below, the batched executor, and the searches
        inside inherited ``insert_steps`` / ``delete_steps`` — finishes
        with the bucket-local bisection rather than the per-key finish of
        the base class.
        """
        query = float(query)
        origin_key = self._origin_key_for(origin_host, origin_key)
        if origin_key not in self._host_of_key:
            raise QueryError(f"{self.name}: origin key {origin_key!r} is not stored")
        cursor = StepCursor(self._host_of_key[origin_key])
        current_key = origin_key
        safety = 4 * self.network.host_count + 16
        for _ in range(safety):
            host = self._host_of_key.get(current_key)
            if host is None:
                # Deleted by an update of the same batch: a retryable conflict.
                raise QueryError(f"{self.name}: key {current_key!r} was deleted mid-walk")
            table = self.network.load(self._table_addresses[host])
            next_key = self._route(table, current_key, query)
            if next_key is None:
                bucket: list[float] = table["bucket"]
                index = bisect.bisect_left(bucket, query)
                predecessor = bucket[index - 1] if index > 0 else self._global_predecessor(query)
                exact = index < len(bucket) and bucket[index] == query
                successor = (
                    bucket[index]
                    if index < len(bucket)
                    else self._global_successor(query)
                )
                candidates = [value for value in (predecessor, successor) if value is not None]
                nearest = min(candidates, key=lambda value: abs(value - query))
                return SearchOutcome(
                    query=query,
                    nearest=nearest,
                    predecessor=predecessor,
                    successor=successor,
                    exact=exact,
                    messages=cursor.hops,
                    hosts_visited=cursor.path_tuple(),
                )
            yield from cursor.hop_to(self._host_of_key[next_key])
            current_key = next_key
        raise QueryError(f"{self.name}: routing did not converge for query {query!r}")

    def _global_predecessor(self, query: float) -> float | None:
        index = bisect.bisect_right(self._keys, query)
        return self._keys[index - 1] if index > 0 else None

    def _global_successor(self, query: float) -> float | None:
        index = bisect.bisect_left(self._keys, query)
        return self._keys[index] if index < len(self._keys) else None
