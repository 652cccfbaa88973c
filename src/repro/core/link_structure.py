"""Range-determined link structures (§2.1 of the paper).

A range-determined link structure ``D(S)`` is a deterministic data
structure built from a ground set ``S``: a collection of *nodes* and
*links*, each carrying a range of universe values, with a node and a link
incident exactly when their ranges intersect.

The skip-web framework never manipulates domain data structures
directly; it talks to them through the abstract interface defined here:

* :class:`RangeUnit` — one node or link together with its range and a
  hashable key.
* :class:`StructureDelta` — the units one §4 update added, removed and
  changed.
* :class:`OverlapView` — an overlap set answered key by key, for
  structures whose overlap sets are too large to build per update.
* :class:`RangeDeterminedLinkStructure` — the abstract structure: it can
  enumerate its units, report incidences, compute conflict lists against
  an arbitrary range, locate a query locally, pick the best unit among a
  candidate set and take a single navigation step.

Concrete subclasses live next to their domains:
:class:`repro.onedim.linked_list.SortedListStructure`,
:class:`repro.spatial.skip_quadtree.QuadtreeStructure`,
:class:`repro.strings.skip_trie.TrieStructure` and
:class:`repro.planar.skip_trapezoid.TrapezoidalMapStructure`.
"""

from __future__ import annotations

import abc
import enum
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from repro.core.ranges import (
    Interval,
    Range,
    Singleton,
    interval_anchor,
    ranges_conflict,
)
from repro.errors import QueryError, StructureError


class UnitKind(enum.Enum):
    """Whether a unit of the structure is a node or a link."""

    NODE = "node"
    LINK = "link"


@dataclass(frozen=True, slots=True)
class RangeUnit:
    """One node or link of a range-determined link structure.

    Attributes
    ----------
    key:
        A hashable identifier, unique within its structure, stable across
        rebuilds of the same element set (so that diffs after an update
        are meaningful).
    kind:
        Node or link.
    range:
        The unit's range (a :class:`repro.core.ranges.Range`).
    payload:
        Arbitrary structure-specific data (the stored item for a node,
        the endpoints for a link, the trapezoid geometry, ...).
    """

    key: Hashable
    kind: UnitKind
    range: Range
    payload: Any = None

    @property
    def is_node(self) -> bool:
        return self.kind is UnitKind.NODE

    @property
    def is_link(self) -> bool:
        return self.kind is UnitKind.LINK

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RangeUnit({self.kind.value}, key={self.key!r}, range={self.range!r})"


@dataclass(frozen=True, slots=True)
class StructureDelta:
    """What one :meth:`~RangeDeterminedLinkStructure.with_item` /
    :meth:`~RangeDeterminedLinkStructure.without_item` call changed.

    Attributes
    ----------
    structure:
        The updated structure — the receiver itself when it was updated
        in place, a fresh instance when it was rebuilt, ``None`` when its
        last item was removed.
    added / removed:
        The units whose *keys* appeared in / disappeared from the
        structure.
    refreshed:
        The units, as they are now, that kept their key but changed: a
        payload representative, a link's range or its incidences.
        In-place tree updates derive again the units of every node they
        touched and list those that came out different; a rebuild lists
        the surviving keys whose unit is no longer equal; the sorted list
        never has any.  Together with ``added`` and ``removed`` these are
        the only units whose own records, neighbours' records and
        hyperlink holders an update can make stale.
    """

    structure: "RangeDeterminedLinkStructure | None"
    added: Sequence[RangeUnit]
    removed: Sequence[RangeUnit]
    refreshed: Sequence[RangeUnit] = ()


class ChangedSurvivors(Sequence[RangeUnit]):
    """A delta's ``refreshed`` units: those of ``units`` whose key is in
    ``replaced`` with a different unit, compared on first use.

    Only updates whose overlap scans are too large to visit read them,
    and a level change re-derives many units that come out the same (a
    high-fan-out tree node's children, a whole rebuilt map).  Both maps
    must stay as they are until the delta has been consumed.
    """

    def __init__(
        self, units: Mapping[Hashable, RangeUnit], replaced: Mapping[Hashable, RangeUnit]
    ) -> None:
        self._pending = (units, replaced)
        self._changed: list[RangeUnit] | None = None

    def _units(self) -> list[RangeUnit]:
        if self._changed is None:
            units, replaced = self._pending
            self._changed = [
                unit for key, unit in units.items() if key in replaced and replaced[key] != unit
            ]
            self._pending = None
        return self._changed

    def __getitem__(self, index):
        return self._units()[index]

    def __len__(self) -> int:
        return len(self._units())

    def __iter__(self):
        return iter(self._units())


class OverlapView(AbstractSet):
    """The keys :meth:`RangeDeterminedLinkStructure.overlapping` returns for some
    ranges, answered one key at a time.

    Returned by :meth:`~RangeDeterminedLinkStructure.overlap_keys` where
    the overlap sets are too large to build for every update; subclasses
    decide membership without enumerating them.  Iterating enumerates.
    """

    def __init__(
        self, structure: "RangeDeterminedLinkStructure", query_ranges: Sequence[Range]
    ) -> None:
        self._structure = structure
        self._query_ranges = query_ranges

    @classmethod
    def _from_iterable(cls, iterable):
        return set(iterable)

    def __iter__(self):
        keys: dict[Hashable, None] = {}
        for query_range in self._query_ranges:
            keys.update((unit.key, None) for unit in self._structure.overlapping(query_range))
        return iter(keys)

    def __len__(self) -> int:
        return sum(1 for _key in self)


class RangeDeterminedLinkStructure(abc.ABC):
    """Abstract base class for the structures the skip-web framework uses.

    Subclasses must be *deterministic in the ground set*: building the
    structure twice from the same items must yield the same units with
    the same keys (§2.1 calls this a "unique link structure").
    """

    #: Human-readable name used in benchmark tables and reports.
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    @abc.abstractmethod
    def build(cls, items: Sequence[Any], **params: Any) -> "RangeDeterminedLinkStructure":
        """Build ``D(items)``.

        ``params`` carries structure-specific configuration shared across
        every level of a skip-web (e.g. the bounding box of a quadtree or
        the alphabet of a trie) so that levels are mutually compatible.
        """

    @property
    @abc.abstractmethod
    def items(self) -> Sequence[Any]:
        """The ground set this structure was built from."""

    # ------------------------------------------------------------------ #
    # units and incidences
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def units(self) -> list[RangeUnit]:
        """Every node and link of the structure."""

    @abc.abstractmethod
    def neighbors(self, key: Hashable) -> list[RangeUnit]:
        """Units incident to the unit identified by ``key``.

        Incidence follows §2.1: a node and a link are incident exactly
        when their ranges intersect.  Subclasses normally return the
        structural adjacency directly (a link's two endpoint nodes, a
        node's incident links) which coincides with the range definition.
        """

    def unit(self, key: Hashable) -> RangeUnit:
        """Return the unit with the given key (default: linear scan)."""
        for candidate in self.units():
            if candidate.key == key:
                return candidate
        raise StructureError(f"{self.name}: no unit with key {key!r}")

    def unit_map(self) -> Mapping[Hashable, RangeUnit]:
        """The key → unit mapping (default: built fresh from :meth:`units`).

        Subclasses that already index their units return the index
        directly, so diff-heavy callers (the §4 update protocol) do not
        rebuild a dictionary per level per operation.  Callers must not
        mutate the returned mapping.
        """
        return {unit.key: unit for unit in self.units()}

    def __len__(self) -> int:
        """Number of units (nodes plus links)."""
        return len(self.units())

    # ------------------------------------------------------------------ #
    # conflicts (§2.2)
    # ------------------------------------------------------------------ #
    def overlapping(self, query_range: Range) -> list[RangeUnit]:
        """The units of this structure an update touching ``query_range`` reaches.

        The default is the literal conflict list ``C(Q, S)`` of §2.2 —
        every unit whose range intersects ``query_range`` — found by a
        scan.  Subclasses override it with a structure-aware search:
        bisection for lists and a pruned tree walk for quadtrees return
        the same literal set, while the trie's root-path walk returns a
        subset of it (sibling edges that meet the probe only at a shared
        ancestor string are left out).  The update protocol rewires a
        record only when its unit is in this set for a changed range
        (:meth:`overlap_keys`), so the set is part of the measured cost
        model.
        """
        return [unit for unit in self.units() if ranges_conflict(query_range, unit.range)]

    def overlap_keys(self, query_ranges: Sequence[Range]) -> AbstractSet[Hashable]:
        """The keys of every unit :meth:`overlapping` returns for any of ``query_ranges``.

        This is the update protocol's rewire scan for a level change.  The
        default materialises it, and the protocol then compares every
        record it reaches.  Structures whose overlap sets are too large
        for that return an :class:`OverlapView`; the protocol then looks
        only at the records the delta can change, plus the skip-web's
        registry of stale copies, and needs :meth:`hyperlink_holders`.
        """
        keys: set[Hashable] = set()
        for query_range in query_ranges:
            for unit in self.overlapping(query_range):
                keys.add(unit.key)
        return keys

    def hyperlink_holders(self, target: Range, names: Callable[[Hashable], bool]) -> list[Hashable]:
        """Keys of units whose hyperlinks into the level below name a unit with range ``target``.

        ``names(key)`` reports whether the stored record of ``key`` names
        one of the units a level change one level down removed, changed or
        gave new neighbours; the result holds every unit of this structure
        whose hyperlinks (``conflicts`` of its range in the level below)
        may include the unit with range ``target`` and for which it is
        true.  The update protocol asks this instead of scanning, so a
        structure whose :meth:`overlap_keys` is an :class:`OverlapView`
        must implement it.
        """
        raise NotImplementedError(f"{self.name}: no hyperlink holder search")

    def conflicts(self, query_range: Range) -> list[RangeUnit]:
        """The units an external range's hyperlinks should point at.

        By default this is exactly :meth:`overlapping` — the paper's
        conflict list.  Structures whose overlap sets contain a long
        containment chain (compressed quadtrees: every ancestor of a cell
        intersects it) override this with the *search-relevant* subset
        (e.g. the smallest enclosing cell), which is what keeps hyperlink
        fan-out and update costs at the O(1)-per-level expectation the
        paper's analysis relies on.  Query correctness only requires that
        the level-below target be reachable from the returned units by
        :meth:`advance` steps.
        """
        return self.overlapping(query_range)

    # ------------------------------------------------------------------ #
    # range reporting (output-sensitive queries)
    # ------------------------------------------------------------------ #
    @classmethod
    def range_to_query(cls, query_range: Range) -> Any:
        """A representative query point of ``query_range``, anchoring the descent.

        A distributed range query first *locates* one point of the range
        in O(log n) expected messages, then fans out sub-walks over the
        matching records.  This hook supplies the point the locate phase
        descends toward.  The default understands the generic
        one-dimensional ranges; multi-dimensional structures override it
        for their own range types.
        """
        if isinstance(query_range, Singleton):
            return query_range.value
        if isinstance(query_range, Interval):
            return interval_anchor(query_range, 0.0)
        raise QueryError(
            f"{cls.name}: no descent anchor for range {query_range!r}"
        )

    def report_units(self, query_range: Range) -> list[RangeUnit]:
        """The node units a reporting query for ``query_range`` must visit.

        Returned in walk order (the order the report sub-walks traverse
        them), so contiguous chunks of the list make host-coherent
        sub-walks.  The default filters :meth:`overlapping` to nodes,
        which is correct for every structure whose items live on node
        units; structures with a cheaper structure-aware enumeration
        (pruned tree walks, prefix subtrees) override it.
        """
        return [unit for unit in self.overlapping(query_range) if unit.is_node]

    def report_values(self, query_range: Range, unit: RangeUnit) -> list[Any]:
        """The matched items stored at ``unit`` for a reporting query.

        Called on each record a report sub-walk visits; the returned
        values are concatenated into the query's match list.  The default
        reports the unit's payload when it lies inside the range (the
        sorted-list convention: a node's payload is its key).
        """
        payload = unit.payload
        if payload is not None and query_range.contains(payload):
            return [payload]
        return []

    # ------------------------------------------------------------------ #
    # searching
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def locate(self, query: Any) -> RangeUnit:
        """Full local search: the target unit for ``query`` in this structure.

        The *target* is the structure-specific answer location: the node
        or link whose range contains the query key for a sorted list, the
        smallest quadtree cell containing the query point, the deepest
        trie position matching the query string, the trapezoid containing
        the query point.  Used for the top level of a skip-web (whose
        expected size is O(1)), for the set-halving verifier, and as the
        reference answer in tests.
        """

    @classmethod
    @abc.abstractmethod
    def select(cls, query: Any, candidates: Sequence[RangeUnit]) -> RangeUnit:
        """Choose the best starting unit for ``query`` among ``candidates``.

        Called while descending a skip-web: ``candidates`` is the conflict
        list (hyperlinks) of the unit found one level above.  The returned
        unit is either already the target at this level or a good starting
        point for :meth:`advance`.
        """

    @classmethod
    @abc.abstractmethod
    def advance(
        cls,
        query: Any,
        current: RangeUnit,
        neighbors: Iterable[tuple[Hashable, Range]],
    ) -> Hashable | None:
        """One navigation step within a level.

        Given the unit the search currently occupies and the (key, range)
        pairs of its incident units -- an iterable read once, in the order
        the record stores them -- return the key of the unit to move to
        next, or ``None`` when ``current`` is already the target for
        ``query``.  The skip-web query engine charges one message
        whenever the returned unit lives on a different host.
        """

    @classmethod
    def item_to_query(cls, item: Any) -> Any:
        """The query point used to locate an *item* during updates (§4).

        For most structures the item is itself a valid query (a key, a
        point, a string).  Structures whose items are not points of the
        query universe — e.g. trapezoidal maps, whose items are segments
        but whose queries are planar points — override this to return a
        representative query point for the item.
        """
        return item

    @abc.abstractmethod
    def answer(self, query: Any, unit: RangeUnit) -> Any:
        """Decode the domain-specific answer once the level-0 target is found.

        For example, the one-dimensional structure returns the nearest
        stored key, the trie returns the longest matching prefix and the
        matching stored strings, the trapezoidal map returns the trapezoid.
        """

    # ------------------------------------------------------------------ #
    # updates (§4)
    # ------------------------------------------------------------------ #
    def with_item(self, item: Any) -> "StructureDelta":
        """Turn this structure into ``D(S ∪ {item})`` and report what changed.

        The default rebuilds from scratch, which is always correct because
        the structure is determined by its ground set; subclasses override
        it with an in-place update that touches only the units it changes.
        Either way the result must be field-for-field what a rebuild over
        the enlarged set produces — the skip-web update protocol places
        records by unit payload and charges messages per changed record,
        so any drift from the canonical structure moves the measured
        ``U(n)``.
        """
        if item in self.items:
            raise StructureError(f"{self.name}: item {item!r} already present")
        return self._rebuilt(list(self.items) + [item])

    def without_item(self, item: Any) -> "StructureDelta":
        """Turn this structure into ``D(S \\ {item})`` and report what changed.

        Same contract as :meth:`with_item`; removing the last item yields
        a delta whose ``structure`` is ``None``.
        """
        items = self.items
        remaining = [existing for existing in items if existing != item]
        if len(remaining) == len(items):
            raise StructureError(f"{self.name}: item {item!r} not present")
        return self._rebuilt(remaining)

    def _rebuilt(self, items: list[Any]) -> "StructureDelta":
        """``D(items)`` built from scratch, diffed against this structure.

        The one place a whole-level key difference is computed: in-place
        overrides know their delta and never come through here.
        """
        if not items:
            return self._emptied()
        rebuilt = type(self).build(items, **self.build_params())
        old_units = self.unit_map()
        new_units = rebuilt.unit_map()
        return StructureDelta(
            rebuilt,
            added=[unit for key, unit in new_units.items() if key not in old_units],
            removed=[unit for key, unit in old_units.items() if key not in new_units],
            refreshed=ChangedSurvivors(new_units, old_units),
        )

    def _emptied(self) -> "StructureDelta":
        """The delta of removing the last item: every unit goes, no structure is left."""
        return StructureDelta(None, added=(), removed=self.units())

    def build_params(self) -> dict[str, Any]:
        """The ``params`` needed to rebuild a compatible structure.

        Subclasses with configuration (bounding boxes, alphabets) override
        this so that :meth:`with_item` / :meth:`without_item` and the
        level builder construct compatible structures.
        """
        return {}

    # ------------------------------------------------------------------ #
    # conveniences
    # ------------------------------------------------------------------ #
    def node_units(self) -> list[RangeUnit]:
        """Only the node units."""
        return [unit for unit in self.units() if unit.is_node]

    def link_units(self) -> list[RangeUnit]:
        """Only the link units."""
        return [unit for unit in self.units() if unit.is_link]

    def keys(self) -> set[Hashable]:
        """The set of unit keys (used to diff structures across updates)."""
        return {unit.key for unit in self.units()}

    def validate(self) -> None:
        """Check basic invariants; raises :class:`StructureError` on violation.

        The default checks that keys are unique and that declared
        neighbours really do have intersecting ranges (the §2.1 incidence
        condition).  Tests call this after construction and after updates.
        """
        seen: set[Hashable] = set()
        for unit in self.units():
            if unit.key in seen:
                raise StructureError(f"{self.name}: duplicate unit key {unit.key!r}")
            seen.add(unit.key)
        for unit in self.units():
            for neighbor in self.neighbors(unit.key):
                if not ranges_conflict(unit.range, neighbor.range):
                    raise StructureError(
                        f"{self.name}: units {unit.key!r} and {neighbor.key!r} are "
                        "declared incident but their ranges do not intersect"
                    )

    def locate_or_none(self, query: Any) -> RangeUnit | None:
        """:meth:`locate` that returns ``None`` instead of raising."""
        try:
            return self.locate(query)
        except QueryError:
            return None
