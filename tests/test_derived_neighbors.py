"""Neighbour lists derived from the structure equal the adjacency maps they replace.

The sorted list derives ``neighbors(key)`` from its key order and the
tree structures (quadtree, trie) from the tree; neither stores an
adjacency map.  A record copies its neighbour table in the order
``neighbors`` returns it and the query walk iterates it in that order,
so the derived lists must equal, *in order*, what the stored maps held.
The oracles below are those maps, built the way the structures used to
build them, and are compared after every step of random insert/delete
streams.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StructureError
from repro.onedim.linked_list import SortedListStructure, _link_key, _node_key
from repro.spatial import HyperCube
from repro.spatial.skip_quadtree import QuadtreeStructure
from repro.strings import DNA
from repro.strings.skip_trie import TrieStructure


def old_list_adjacency(structure: SortedListStructure) -> dict:
    """The sorted list's adjacency map as it was built from the key array."""
    keys = structure.keys_sorted
    adjacency = {unit.key: [] for unit in structure.units()}
    boundaries = [(-math.inf, keys[0])]
    boundaries.extend((keys[i], keys[i + 1]) for i in range(len(keys) - 1))
    boundaries.append((keys[-1], math.inf))
    for low, high in boundaries:
        link = _link_key(low, high)
        if low != -math.inf:
            adjacency[link].append(_node_key(low))
            adjacency[_node_key(low)].append(link)
        if high != math.inf:
            adjacency[link].append(_node_key(high))
            adjacency[_node_key(high)].append(link)
    return adjacency


def old_tree_adjacency(structure) -> dict:
    """A tree structure's adjacency map as its resynchronisation built it."""
    adjacency = {}
    for node in structure._preorder():
        incident = [child.lunit.key for child in structure._children(node)]
        if node.lunit is not None:
            incident.insert(0, node.lunit.key)
            adjacency[node.lunit.key] = [node.parent.nunit.key, node.nunit.key]
        adjacency[node.nunit.key] = incident
    return adjacency


def assert_neighbors_match(structure, oracle) -> None:
    adjacency = oracle(structure)
    assert adjacency.keys() == structure.keys()
    for key, expected in adjacency.items():
        neighbors = structure.neighbors(key)
        assert [neighbor.key for neighbor in neighbors] == expected
        assert all(neighbor is structure.unit(neighbor.key) for neighbor in neighbors)


def replay(structure, oracle, operations) -> None:
    """Apply ``(insert?, item, pick)`` steps in place, checking after each.

    An insert of a stored item must be refused and change nothing; a
    delete removes the ``pick``-th stored item unless only one is left.
    """
    assert_neighbors_match(structure, oracle)
    for insert, item, pick in operations:
        stored = list(structure.items)
        if insert and item in stored:
            with pytest.raises(StructureError):
                structure.with_item(item)
        elif insert:
            structure = structure.with_item(item).structure
        elif len(stored) > 1:
            structure = structure.without_item(stored[pick % len(stored)]).structure
        assert_neighbors_match(structure, oracle)


EXTREMES = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308, 1e-9]
keys = st.one_of(
    st.sampled_from(EXTREMES),
    st.integers(-4, 4).map(float),
    st.floats(-1e6, 1e6, allow_nan=False),
)
grid = st.integers(0, 15).map(lambda value: value / 16)
points = st.tuples(grid, grid) | st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999))
strings = st.text(alphabet="ACGT", min_size=1, max_size=6)


def steps(items):
    return st.lists(st.tuples(st.booleans(), items, st.integers(0, 64)), max_size=30)


class TestSortedList:
    def test_single_key(self):
        structure = SortedListStructure([3.0])
        low, high = _link_key(-math.inf, 3.0), _link_key(3.0, math.inf)
        assert [n.key for n in structure.neighbors(_node_key(3.0))] == [low, high]
        assert [n.key for n in structure.neighbors(low)] == [_node_key(3.0)]
        assert [n.key for n in structure.neighbors(high)] == [_node_key(3.0)]
        assert_neighbors_match(structure, old_list_adjacency)

    def test_unknown_key_is_refused(self):
        structure = SortedListStructure([1.0, 2.0])
        with pytest.raises(StructureError):
            structure.neighbors(_node_key(1.5))
        with pytest.raises(StructureError):
            structure.neighbors(_link_key(-math.inf, 2.0))

    @settings(max_examples=120, deadline=None)
    @given(initial=st.lists(keys, min_size=1, max_size=12), operations=steps(keys))
    def test_insert_delete_streams(self, initial, operations):
        replay(SortedListStructure(initial), old_list_adjacency, operations)


class TestTrees:
    @settings(max_examples=60, deadline=None)
    @given(initial=st.lists(points, min_size=1, max_size=12), operations=steps(points))
    def test_quadtree_streams(self, initial, operations):
        structure = QuadtreeStructure.build(
            list(dict.fromkeys(initial)), bounding_cube=HyperCube((0.0, 0.0), 1.0)
        )
        replay(structure, old_tree_adjacency, operations)

    @settings(max_examples=60, deadline=None)
    @given(initial=st.lists(strings, min_size=1, max_size=12), operations=steps(strings))
    def test_trie_streams(self, initial, operations):
        structure = TrieStructure.build(initial, alphabet=DNA)
        replay(structure, old_tree_adjacency, operations)

    def test_lowercase_trie(self):
        structure = TrieStructure.build(["car", "cart", "care", "cat", "dog", "do", "a"])
        operations = [(False, None, 0), (True, "cab", 3), (False, None, 2)]
        replay(structure, old_tree_adjacency, operations)
