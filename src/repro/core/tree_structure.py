"""Rooted trees as range-determined link structures.

Compressed quadtrees (§3.1) and compressed tries (§3.2) look the same
through the link-structure interface: every tree node is a *node* unit,
every non-root tree node also carries the *link* unit of the edge to its
parent, a node is incident to its own link and to the links of its
children, and a link is incident to its two end nodes.
:class:`TreeLinkStructure` keeps the unit index and the canonical unit
order for any such tree, and keeps them current when the tree is updated
in place: the tree reports which nodes an update touched
(:class:`TreeChange`) and only the units of those nodes are derived
again.  Neighbours are read off the tree itself, so there is no
adjacency map to keep.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Mapping

from repro.core.link_structure import (
    ChangedSurvivors,
    RangeDeterminedLinkStructure,
    RangeUnit,
    StructureDelta,
)
from repro.errors import StructureError


@dataclass
class TreeChange:
    """The tree nodes one in-place insertion or removal touched.

    ``changed`` lists live nodes that are new, that gained or lost a
    child, or whose unit-defining fields changed (a quadtree cell's cube
    or first point, a trie node's terminal flag); ``detached`` lists the
    roots of subtrees that left the tree, children still attached.
    """

    changed: list[Any] = field(default_factory=list)
    detached: list[Any] = field(default_factory=list)


class TreeLinkStructure(RangeDeterminedLinkStructure):
    """Unit bookkeeping shared by the tree-shaped link structures.

    Tree nodes must expose ``parent`` and two slots this class owns,
    ``nunit`` and ``lunit``: the node unit and the link-to-parent unit
    the node is currently indexed under.  Subclasses say how to walk the
    tree and how to derive one node's units; unit payloads may depend on
    the node, its parent and its children, which is why a changed node
    drags both into the resynchronisation.
    """

    def __init__(self) -> None:
        self._units: list[RangeUnit] | None = None
        self._units_by_key: dict[Hashable, RangeUnit] = {}
        self._node_by_key: dict[Hashable, Any] = {}
        self._resync(TreeChange(changed=list(self._preorder())))

    # ------------------------------------------------------------------ #
    # subclass contract
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _preorder(self) -> Iterable[Any]:
        """Every tree node, parents before children, children in order."""

    @staticmethod
    @abc.abstractmethod
    def _children(node: Any) -> Iterable[Any]:
        """The children of ``node`` in their canonical order."""

    @abc.abstractmethod
    def _node_unit(self, node: Any) -> RangeUnit:
        """The node unit of ``node`` as a fresh build would make it."""

    @abc.abstractmethod
    def _link_unit(self, node: Any) -> RangeUnit:
        """The unit of the edge from ``node`` to its parent.

        Called after the node units of ``node`` and its parent are
        current, so it may read their payloads.
        """

    # ------------------------------------------------------------------ #
    # keeping the index in step with the tree
    # ------------------------------------------------------------------ #
    def _resync(self, change: TreeChange) -> StructureDelta:
        """Derive again the units of the nodes ``change`` names.

        Returns the delta by unit key: a key dropped by one node and
        taken by another in the same update (a rebuilt subtree) survives.
        A surviving key is ``refreshed`` when its unit came out different;
        a node re-derived only because a neighbour changed usually does not.
        """
        stale: list[Any] = []
        for root in change.detached:
            stack = [root]
            while stack:
                node = stack.pop()
                stale.append(node)
                stack.extend(self._children(node))
        dirty: dict[int, Any] = {}
        for node in change.changed:
            dirty[id(node)] = node
            if node.parent is not None:
                dirty[id(node.parent)] = node.parent
            for child in self._children(node):
                dirty[id(child)] = child
        live = list(dirty.values())

        removed: dict[Hashable, RangeUnit] = {}
        for node in stale + live:
            for unit in (node.nunit, node.lunit):
                if unit is not None:
                    removed[unit.key] = unit
                    del self._units_by_key[unit.key]
                    del self._node_by_key[unit.key]
            node.nunit = node.lunit = None

        added: dict[Hashable, RangeUnit] = {}
        for node in live:
            node.nunit = self._node_unit(node)
        for node in live:
            if node.parent is not None:
                node.lunit = self._link_unit(node)
            for unit in (node.nunit, node.lunit):
                if unit is not None:
                    if unit.key in self._units_by_key:
                        raise StructureError(f"{self.name}: duplicate unit key {unit.key!r}")
                    added[unit.key] = unit
                    self._units_by_key[unit.key] = unit
                    self._node_by_key[unit.key] = node

        self._units = None
        return StructureDelta(
            self,
            added=[unit for key, unit in added.items() if key not in removed],
            removed=[unit for key, unit in removed.items() if key not in added],
            refreshed=ChangedSurvivors(added, removed),
        )

    # ------------------------------------------------------------------ #
    # RangeDeterminedLinkStructure interface
    # ------------------------------------------------------------------ #
    def units(self) -> list[RangeUnit]:
        """Node units in tree order, then link units grouped by parent in tree order."""
        if self._units is None:
            nodes = list(self._preorder())
            units = [node.nunit for node in nodes]
            for node in nodes:
                units.extend(child.lunit for child in self._children(node))
            self._units = units
        return list(self._units)

    def unit(self, key: Hashable) -> RangeUnit:
        try:
            return self._units_by_key[key]
        except KeyError as exc:
            raise StructureError(f"{self.name}: no unit with key {key!r}") from exc

    def unit_map(self) -> Mapping[Hashable, RangeUnit]:
        return self._units_by_key

    def keys(self) -> set[Hashable]:
        return set(self._units_by_key)

    def __len__(self) -> int:
        return len(self._units_by_key)

    def neighbors(self, key: Hashable) -> list[RangeUnit]:
        """A node's link to its parent, then its children's links; a link's two end nodes."""
        try:
            node = self._node_by_key[key]
        except KeyError as exc:
            raise StructureError(f"{self.name}: no unit with key {key!r}") from exc
        if node.nunit.key != key:
            return [node.parent.nunit, node.nunit]
        incident = [child.lunit for child in self._children(node)]
        if node.lunit is not None:
            incident.insert(0, node.lunit)
        return incident
