"""Distributed blocking: assigning structure units to hosts (§2.4).

The paper's general framework only requires an *arbitrary* assignment in
which every host receives O(M) of the O(n log n) nodes and links.  Three
such policies are provided:

* :class:`RoundRobinBlocking` — deal units out cyclically; gives the most
  even item counts.
* :class:`HashBlocking` — place each unit by hashing its identity; what a
  real deployment without global coordination would do.
* :class:`OwnerBlocking` — place each unit on the host that owns one of
  the ground-set items it involves; mirrors how skip graphs store a key's
  whole tower at the key's home host, and is the policy under which the
  congestion measure of §1.1 is most meaningful.  A unit that involves
  no item (a trapezoid bounded only by the frame) goes by a hash of its
  key, as under :class:`HashBlocking`.

The *bucketed* strategy of §2.4.1 (contiguous blocks of the linked list,
with the conflicting ranges of the non-basic levels above stored on the
same host) is specific to one-dimensional data and lives with the
one-dimensional skip-web in :mod:`repro.onedim.skipweb1d`.
"""

from __future__ import annotations

import abc
import hashlib
import itertools
from typing import Any, Callable, Sequence

from repro.core.levels import BitPrefix
from repro.core.link_structure import RangeUnit
from repro.net.naming import HostId


class BlockingPolicy(abc.ABC):
    """Maps every unit of every level structure to a host."""

    @abc.abstractmethod
    def assign(self, level: int, prefix: BitPrefix, unit: RangeUnit) -> HostId:
        """Return the host that should store ``unit`` of level set ``prefix``."""

    def describe(self) -> str:
        """Short name used in benchmark output."""
        return type(self).__name__


class RoundRobinBlocking(BlockingPolicy):
    """Deal units to hosts cyclically, in assignment order.

    Produces the most even per-host unit counts, which makes it the
    natural choice when measuring the per-host memory bound ``M = O(log n)``
    of Theorem 2.
    """

    def __init__(self, host_ids: Sequence[HostId]) -> None:
        if not host_ids:
            raise ValueError("RoundRobinBlocking needs at least one host")
        self._host_ids = list(host_ids)
        self._cycle = itertools.cycle(self._host_ids)

    def assign(self, level: int, prefix: BitPrefix, unit: RangeUnit) -> HostId:
        return next(self._cycle)


class HashBlocking(BlockingPolicy):
    """Place each unit on ``hash(level, prefix, key) mod H``.

    Deterministic given the unit identity (so rebuilding a level after an
    update keeps unchanged units on the same hosts), and requires no
    global coordination — the closest analogue of consistent hashing in a
    real deployment.
    """

    def __init__(self, host_ids: Sequence[HostId]) -> None:
        if not host_ids:
            raise ValueError("HashBlocking needs at least one host")
        self._host_ids = list(host_ids)

    def assign(self, level: int, prefix: BitPrefix, unit: RangeUnit) -> HostId:
        return _stable_pick(repr((level, prefix, unit.key)), self._host_ids)


def _stable_pick(text: str, host_ids: Sequence[HostId]) -> HostId:
    """One of ``host_ids`` by a hash of ``text`` that no interpreter run salts."""
    digest = hashlib.blake2b(text.encode("utf8"), digest_size=8).digest()
    return host_ids[int.from_bytes(digest, "big") % len(host_ids)]


class OwnerBlocking(BlockingPolicy):
    """Place each unit on the home host of one of its ground-set items.

    Parameters
    ----------
    item_owner:
        Mapping from ground-set item to its home host (the host that
        "owns" the item: a skip-web gives a new item to its least-loaded
        host, see :meth:`repro.core.skipweb.SkipWeb._least_loaded_host`).
    anchor:
        Function extracting a representative item from a unit.  The
        default understands the conventions used by the structures in
        this package: a node's payload is its item, a link's payload is a
        tuple of the items it connects.
    fallback:
        Hosts for a unit with no anchor item (e.g. a trapezoid bounded
        only by the frame): it goes to one of them by a stable hash of
        its key, so such units spread evenly and every level's copy of
        one lands on the same host.
    """

    def __init__(
        self,
        item_owner: dict[Any, HostId],
        fallback: Sequence[HostId],
        anchor: Callable[[RangeUnit], Any] | None = None,
    ) -> None:
        if not item_owner:
            raise ValueError("OwnerBlocking needs a non-empty item_owner mapping")
        if not fallback:
            raise ValueError("OwnerBlocking needs at least one fallback host")
        # Deliberately keep a reference (not a copy): the skip-web update
        # protocol registers newly inserted items in the same mapping so
        # that their records are placed on their owner's host.
        self._item_owner = item_owner
        self._fallback = list(fallback)
        self._anchor = anchor or self._default_anchor

    def _default_anchor(self, unit: RangeUnit) -> Any:
        payload = unit.payload
        if payload is None:
            return None
        # The payload itself may be a ground-set item (note that items can
        # be tuples, e.g. points in R^d, so this check comes first).
        try:
            if payload in self._item_owner:
                return payload
        except TypeError:
            pass
        if isinstance(payload, tuple):
            for candidate in payload:
                try:
                    if candidate in self._item_owner:
                        return candidate
                except TypeError:
                    continue
        return None

    def assign(self, level: int, prefix: BitPrefix, unit: RangeUnit) -> HostId:
        owner = self._item_owner.get(self._anchor(unit))
        if owner is None:
            return _stable_pick(repr(unit.key), self._fallback)
        return owner


def evenly_owned_items(items: Sequence[Any], host_ids: Sequence[HostId]) -> dict[Any, HostId]:
    """Assign items to home hosts round-robin (one item per host when H == n).

    A convenience used by builders and benchmarks: with ``H == n`` this
    reproduces the paper's "one item per host" deployment; with fewer
    hosts it spreads ownership evenly.
    """
    if not host_ids:
        raise ValueError("need at least one host id")
    owners: dict[Any, HostId] = {}
    for index, item in enumerate(items):
        owners[item] = host_ids[index % len(host_ids)]
    return owners
