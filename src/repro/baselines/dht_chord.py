"""A Chord distributed hash table.

Chord is the archetypal DHT the paper contrasts against in §1.2: exact-key
lookups route in ``O(log n)`` messages over finger tables, but because
keys are *hashed* onto the identifier ring, order is destroyed — Chord
cannot answer nearest-neighbour, range or prefix queries without flooding.
The ``bench_table1_comparison`` benchmark includes Chord for the
exact-match column only, to make that limitation measurable rather than
asserted.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.bulkload import charge_construction, is_strictly_increasing
from repro.engine.repair import MigrationSummary
from repro.engine.steps import StepCursor, StepGenerator, local_steps, run_immediate
from repro.errors import ChurnError, QueryError, UnsupportedOperationError, UpdateError
from repro.net.message import MessageKind
from repro.net.naming import Address, HostId
from repro.net.network import Network


def chord_id(value: object, bits: int) -> int:
    """Hash an arbitrary value onto the ``2^bits`` identifier ring."""
    digest = hashlib.blake2b(repr(value).encode("utf8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % (1 << bits)


@dataclass(frozen=True)
class ChordLookup:
    """Result of one Chord lookup."""

    key: float
    found: bool
    responsible_host: HostId
    messages: int
    hosts_visited: tuple[HostId, ...]


class ChordDHT:
    """A Chord ring storing numeric keys by hash.

    Parameters
    ----------
    keys:
        The stored keys; each key is hashed to a ring position and stored
        at its successor node.
    bits:
        Identifier-space size (``2^bits`` positions) and finger count.
    """

    name = "Chord DHT"

    def __init__(
        self,
        keys: Sequence[float],
        network: Network | None = None,
        bits: int = 32,
    ) -> None:
        converted = [float(key) for key in keys]
        if is_strictly_increasing(converted):
            self._keys = converted  # O(n) bulk-load fast path
        else:
            self._keys = sorted(set(converted))
        if not self._keys:
            raise QueryError("Chord needs at least one key")
        #: CONSTRUCTION messages charged by a bulk-load build (0 otherwise).
        self.construction_messages = 0
        self.bits = bits
        self.network = network if network is not None else Network()
        needed = len(self._keys) - self.network.host_count
        if needed > 0:
            self.network.add_hosts(needed)
        self._host_ids = [host.host_id for host in self.network.hosts()]
        self._origins = tuple(self._host_ids)
        # Node ids: one ring position per host.
        self._node_ids = sorted(
            (chord_id(("node", host_id), bits), host_id) for host_id in self._host_ids
        )
        self._ring = [node_id for node_id, _host in self._node_ids]
        # Key placement: each key lives at the successor of its hash.
        self._key_home: dict[float, HostId] = {}
        self._stored_keys: dict[HostId, list[float]] = {}
        for key in self._keys:
            host = self._successor_host(chord_id(("key", key), bits))
            self._key_home[key] = host
            self._stored_keys.setdefault(host, []).append(key)
        # Finger tables, stored on the hosts for memory accounting.
        self._table_addresses: dict[HostId, Address] = {}
        for node_id, host_id in self._node_ids:
            self._table_addresses[host_id] = self.network.store(
                host_id, self._table_for(node_id, host_id)
            )

    @classmethod
    def build_from_sorted(cls, keys: Sequence[float], **kwargs: Any) -> "ChordDHT":
        """Bulk-load constructor over pre-sorted, deduplicated ``keys``.

        Skips the defensive sort (verified in O(n)) and charges one
        CONSTRUCTION ledger message per finger table installed on a host
        other than the coordinator (the first ring node's host).
        """
        ring = cls(keys, **kwargs)
        coordinator = ring._node_ids[0][1]
        ring.construction_messages = charge_construction(
            ring.network, coordinator, ring._table_addresses
        )
        return ring

    def _table_for(self, node_id: int, host_id: HostId) -> dict[str, Any]:
        """The finger table host ``host_id`` should currently store."""
        fingers = []
        for exponent in range(self.bits):
            target = (node_id + (1 << exponent)) % (1 << self.bits)
            fingers.append(self._successor_entry(target))
        return {
            "node_id": node_id,
            "fingers": fingers,
            "keys": sorted(self._stored_keys.get(host_id, [])),
        }

    # ------------------------------------------------------------------ #
    # ring helpers
    # ------------------------------------------------------------------ #
    def _successor_entry(self, ring_position: int) -> tuple[int, HostId]:
        index = bisect_left(self._ring, ring_position)
        if index == len(self._ring):
            index = 0
        return self._node_ids[index]

    def _successor_host(self, ring_position: int) -> HostId:
        return self._successor_entry(ring_position)[1]

    @staticmethod
    def _in_arc(value: int, start: int, end: int, modulus: int) -> bool:
        """Whether ``value`` lies in the half-open arc ``(start, end]`` on the ring."""
        if start < end:
            return start < value <= end
        return value > start or value <= end

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def search_steps(
        self, key: float, origin_host: HostId | None = None
    ) -> StepGenerator:
        """Greedy finger routing as a resumable step generator."""
        key = float(key)
        target = chord_id(("key", key), self.bits)
        if origin_host is None:
            origin_host = self._host_ids[0]
        cursor = StepCursor(origin_host)
        current_host = origin_host
        modulus = 1 << self.bits
        safety = 4 * len(self._host_ids) + 16
        for _ in range(safety):
            table = self.network.load(self._table_addresses[current_host])
            node_id = table["node_id"]
            successor_id, successor_host = table["fingers"][0]
            if self._in_arc(target, node_id, successor_id, modulus):
                # The successor is responsible for the key.
                yield from cursor.hop_to(successor_host)
                final_table = self.network.load(self._table_addresses[successor_host])
                return ChordLookup(
                    key=key,
                    found=key in final_table["keys"],
                    responsible_host=successor_host,
                    messages=cursor.hops,
                    hosts_visited=cursor.path_tuple(),
                )
            # Closest preceding finger.
            next_host = successor_host
            for finger_id, finger_host in reversed(table["fingers"]):
                if self._in_arc(finger_id, node_id, target, modulus) and finger_id != target:
                    next_host = finger_host
                    break
            if next_host == current_host:
                next_host = successor_host
            yield from cursor.hop_to(next_host)
            current_host = next_host
        raise QueryError("Chord routing did not converge")

    def lookup(self, key: float, origin_host: HostId | None = None) -> ChordLookup:
        """Exact-match lookup of ``key`` via greedy finger routing."""
        if origin_host is None:
            origin_host = self._host_ids[0]
        gen = self.search_steps(key, origin_host=origin_host)
        return run_immediate(self.network, gen, origin_host, kind=MessageKind.QUERY)

    # ------------------------------------------------------------------ #
    # DistributedStructure protocol (batched execution; see repro.engine)
    # ------------------------------------------------------------------ #
    def origin_hosts(self) -> tuple[HostId, ...]:
        """Any ring node may originate lookups (the same tuple until the ring changes)."""
        return self._origins

    def seed_roots(self, origin_host: HostId) -> StepGenerator:
        """Step generator returning ``origin_host``'s finger table (local)."""
        return local_steps(self.network.load(self._table_addresses[origin_host]))

    def range_steps(
        self, query_range: Any, origin_host: HostId | None = None
    ) -> StepGenerator:
        """Chord cannot answer range queries — the paper's point about hashing.

        Consistent hashing destroys key locality: the keys of any value
        range are scattered uniformly around the ring, so reporting them
        would require contacting every node (Θ(H) messages), not
        O(log n + k).  The ordered structures (skip-webs and the Table 1
        overlays) support ranges precisely because they keep keys in
        order; this baseline raises instead of pretending otherwise.
        """
        raise UnsupportedOperationError(
            "Chord DHT cannot answer range queries: consistent hashing "
            "destroys key locality (§1.2)"
        )

    def insert_steps(self, item: Any, origin_host: HostId | None = None) -> StepGenerator:
        """Chord is measured as a static ring here; updates are unsupported."""
        raise UpdateError("Chord DHT baseline is static: updates are not supported")

    def delete_steps(self, item: Any, origin_host: HostId | None = None) -> StepGenerator:
        """Chord is measured as a static ring here; updates are unsupported."""
        raise UpdateError("Chord DHT baseline is static: updates are not supported")

    # ------------------------------------------------------------------ #
    # churn: ring membership and finger-table repair (see repro.engine.repair)
    # ------------------------------------------------------------------ #
    def _drop_from_ring(self, host_ids: set[HostId]) -> None:
        remaining = [
            (node_id, host_id)
            for node_id, host_id in self._node_ids
            if host_id not in host_ids
        ]
        if not remaining:
            # Validate before mutating: a refused drop must leave the
            # ring state untouched for callers that catch the error.
            raise ChurnError("Chord ring cannot lose its last node")
        self._node_ids = remaining
        self._ring = [node_id for node_id, _host in self._node_ids]
        self._host_ids = [
            host_id for host_id in self._host_ids if host_id not in host_ids
        ]
        self._origins = tuple(self._host_ids)

    def _join_ring(self, host_id: HostId) -> None:
        node_id = chord_id(("node", host_id), self.bits)
        self._node_ids = sorted(self._node_ids + [(node_id, host_id)])
        self._ring = [ring_id for ring_id, _host in self._node_ids]
        self._host_ids.append(host_id)
        self._origins = tuple(self._host_ids)
        self._stored_keys.setdefault(host_id, [])

    def _rehome_keys_by_hash(
        self, cursor: StepCursor, coordinator: HostId, lost_hosts: set[HostId]
    ) -> StepGenerator:
        """Move every key whose ring successor changed to its new home.

        One message per key hand-off.  Keys coming from a live host travel
        from that host (pull-style: a request leg is charged when the
        token is already at the destination); keys whose old home is in
        ``lost_hosts`` are reconstructed via the coordinator — the
        stand-in for the successor-list replication a production Chord
        deployment keeps.
        """
        moved = 0
        for key in self._keys:
            new_home = self._successor_host(chord_id(("key", key), self.bits))
            old_home = self._key_home.get(key)
            if new_home == old_home:
                continue
            source = coordinator if old_home in lost_hosts else old_home
            yield from cursor.hand_off(new_home, source)
            if old_home is not None and key in self._stored_keys.get(old_home, []):
                self._stored_keys[old_home].remove(key)
            self._stored_keys.setdefault(new_home, []).append(key)
            self._key_home[key] = new_home
            moved += 1
        return moved

    def _repair_finger_tables(self, cursor: StepCursor) -> StepGenerator:
        """Reinstall every finger table that changed; one message per host."""
        changed: list[HostId] = []
        wanted = {host_id: node_id for node_id, host_id in self._node_ids}
        for host_id in list(self._table_addresses):
            if host_id not in wanted:
                # The host left the ring: its table is gone with it.
                self.network.free(self._table_addresses.pop(host_id))
        for node_id, host_id in self._node_ids:
            table = self._table_for(node_id, host_id)
            address = self._table_addresses.get(host_id)
            if address is None:
                self._table_addresses[host_id] = self.network.store(host_id, table)
                changed.append(host_id)
            elif self.network.load(address, check_alive=False) != table:
                self.network.replace(address, table)
                changed.append(host_id)
        for host_id in changed:
            yield from cursor.hop_to(host_id)
        return len(changed)

    def migrate_host(
        self,
        host_id: HostId,
        targets: Sequence[HostId] | None = None,
        fraction: float = 1.0,
    ) -> StepGenerator:
        """Ring membership change as a resumable step generator.

        Hosts in ``targets`` that are not yet ring nodes *join* first:
        each is inserted at its hashed ring position and takes over the
        keys in its arc from their old successor (this is Chord's own
        rebalancing rule, so the ``host_id``/``fraction`` rebalance hints
        used by other structures are advisory here).  A full evacuation
        (``fraction == 1.0``) then retires ``host_id`` from the ring,
        handing its keys to their new successors.  Every finger table
        that changed is repaired at one message per host.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.network.host(host_id)  # validate early
        ring_hosts = {ring_host for _node_id, ring_host in self._node_ids}
        joining = [
            target
            for target in (targets or [])
            if target not in ring_hosts and target in self.network
        ]
        for newcomer in joining:
            self._join_ring(newcomer)
        evacuating = fraction >= 1.0
        if evacuating:
            self._drop_from_ring({host_id})
        elif not joining:
            raise ChurnError(
                "Chord rebalances only through ring membership: pass a joining "
                "target or a full evacuation"
            )
        cursor = StepCursor(host_id)
        yield from cursor.hop_to(host_id)  # announce the coordinator (free)
        moved = yield from self._rehome_keys_by_hash(cursor, host_id, set())
        rewired = yield from self._repair_finger_tables(cursor)
        return MigrationSummary(
            kind="migrate",
            hosts=(host_id,),
            records_moved=moved,
            pointers_rewired=rewired,
            hosts_touched=cursor.distinct_hosts(),
        )

    def repair(self, host_ids: Sequence[HostId]) -> StepGenerator:
        """Crash repair: drop dead nodes, re-home their keys, fix fingers."""
        dead = set(host_ids)
        if not dead:
            raise ChurnError("Chord repair needs at least one crashed host")
        self._drop_from_ring(dead)
        for host_id in dead:
            self._stored_keys.pop(host_id, None)
            address = self._table_addresses.pop(host_id, None)
            if address is not None:
                # Bookkeeping: the dead host's finger table is lost with it.
                self.network.free(address)
        coordinator = self._node_ids[0][1]
        cursor = StepCursor(coordinator)
        yield from cursor.hop_to(coordinator)  # announce the coordinator (free)
        moved = yield from self._rehome_keys_by_hash(cursor, coordinator, dead)
        rewired = yield from self._repair_finger_tables(cursor)
        return MigrationSummary(
            kind="repair",
            hosts=tuple(sorted(dead)),
            records_moved=moved,
            pointers_rewired=rewired,
            hosts_touched=cursor.distinct_hosts(),
        )

    # ------------------------------------------------------------------ #
    # the limitation the paper highlights
    # ------------------------------------------------------------------ #
    def nearest_neighbor(self, query: float) -> None:
        """Chord cannot answer nearest-neighbour queries; see §1.2 of the paper."""
        raise NotImplementedError(
            "Chord hashes keys onto the ring, destroying order: nearest-neighbour, "
            "range and prefix queries are not supported (this is the motivation "
            "for skip graphs and skip-webs)."
        )

    # ------------------------------------------------------------------ #
    # measurement
    # ------------------------------------------------------------------ #
    @property
    def keys(self) -> list[float]:
        return list(self._keys)

    @property
    def host_count(self) -> int:
        return self.network.host_count

    def max_memory_per_host(self) -> int:
        best = 0
        for address in self._table_addresses.values():
            table = self.network.load(address)
            best = max(best, len(table["fingers"]) + len(table["keys"]))
        return best
