"""Compressed digital tries (§3.2 of the paper).

A compressed trie (PATRICIA trie) over a set of strings from a fixed
alphabet keeps only the *branching* positions: every node is either the
root, a node where at least two stored strings diverge, or a node marking
the end of a stored string; chains of single-child nodes are collapsed
into labelled edges.  The tree therefore has ``O(n)`` nodes for ``n``
strings while its depth can be ``Θ(n)`` (long shared prefixes) — the
situation where the skip-web's ``O(log n)``-message search is interesting.

Every node is identified by the string spelled by the path from the root
to it; that string is also what the skip-web range of the node/edge is
built from (see :class:`repro.strings.skip_trie.TrieRange`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core.bulkload import is_strictly_increasing
from repro.core.tree_structure import TreeChange
from repro.errors import StructureError
from repro.strings.alphabet import Alphabet


@dataclass
class TrieNode:
    """One node of a compressed trie.

    ``prefix`` is the full string spelled from the root to this node;
    ``children`` maps the first character of each outgoing edge label to
    the child node; ``terminal`` records whether ``prefix`` itself is one
    of the stored strings.
    """

    prefix: str
    terminal: bool = False
    children: dict[str, "TrieNode"] = field(default_factory=dict)
    parent: "TrieNode | None" = None
    # The node / link-to-parent RangeUnits this node is indexed under;
    # owned by skip_trie.TrieStructure (see TreeLinkStructure).
    nunit: "object | None" = field(default=None, repr=False, compare=False)
    lunit: "object | None" = field(default=None, repr=False, compare=False)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def depth(self) -> int:
        """Length of the node's prefix (string depth, not edge count)."""
        return len(self.prefix)

    def edge_label_to(self, child: "TrieNode") -> str:
        """The label of the edge from this node to ``child``."""
        if not child.prefix.startswith(self.prefix):
            raise StructureError(
                f"{child.prefix!r} is not a descendant of {self.prefix!r}"
            )
        return child.prefix[len(self.prefix) :]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrieNode({self.prefix!r}, terminal={self.terminal}, "
            f"children={len(self.children)})"
        )


def longest_common_prefix(first: str, second: str) -> str:
    """The longest common prefix of two strings."""
    first_length = len(first)
    second_length = len(second)
    limit = first_length if first_length < second_length else second_length
    head = first[:limit]
    # Fast path: one string is a prefix of the other (one C-level compare).
    if second.startswith(head):
        return head
    index = 0
    while first[index] == second[index]:
        index += 1
    return first[:index]


class CompressedTrie:
    """A compressed trie over a set of strings.

    Parameters
    ----------
    strings:
        The stored strings (duplicates collapsed).  The empty string is
        allowed and simply marks the root as terminal.
    alphabet:
        The fixed alphabet; every string is validated against it.
    """

    def __init__(self, strings: Sequence[str], alphabet: Alphabet) -> None:
        self._sort_keys: list[tuple[int, ...]] | None = None
        values = list(strings)
        try:
            candidate_keys = [alphabet.sort_key(value) for value in values]
        except ValueError:  # invalid symbol: let validate_string report it below
            candidate_keys = None
        if candidate_keys is not None and is_strictly_increasing(candidate_keys):
            # Already strictly sorted in alphabet order (the O(n) bulk-load
            # fast path); the computed keys seed the insert-time cache.
            unique = values
            self._sort_keys = candidate_keys
        elif candidate_keys is not None:
            # Decorate-sort with the keys already computed (sort keys are
            # injective, so this matches sorted(set(...), key=sort_key)).
            key_of = dict(zip(values, candidate_keys))
            ordered = sorted(key_of.items(), key=lambda item: item[1])
            unique = [value for value, _key in ordered]
            self._sort_keys = [key for _value, key in ordered]
        else:
            unique = sorted(set(values), key=alphabet.sort_key)
        if not unique:
            raise StructureError("compressed trie requires at least one string")
        self.alphabet = alphabet
        for value in unique:
            alphabet.validate_string(value)
        self._strings = tuple(unique)
        self.root = TrieNode(prefix="", terminal=("" in set(unique)))
        self._node_by_prefix: dict[str, TrieNode] = {"": self.root}
        non_empty = [value for value in unique if value]
        self._build(self.root, non_empty)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self, node: TrieNode, strings: list[str]) -> None:
        """Recursively attach compressed children of ``node`` for ``strings``.

        Every string in ``strings`` is a proper extension of
        ``node.prefix``; strings are grouped by their next character and
        each group becomes one compressed edge.
        """
        groups: dict[str, list[str]] = {}
        for value in strings:
            groups.setdefault(value[len(node.prefix)], []).append(value)
        for first_character in sorted(groups, key=self.alphabet.index):
            group = groups[first_character]
            common = group[0]
            for value in group[1:]:
                common = longest_common_prefix(common, value)
            # ``common`` extends node.prefix by at least one character.
            child = TrieNode(prefix=common, parent=node)
            child.terminal = common in group
            node.children[first_character] = child
            self._node_by_prefix[common] = child
            remaining = [value for value in group if len(value) > len(common)]
            self._build(child, remaining)

    # ------------------------------------------------------------------ #
    # in-place updates (canonical: identical to a full rebuild)
    # ------------------------------------------------------------------ #
    def _position_of(self, value: str) -> tuple[int, tuple[int, ...]]:
        """Where ``value`` sorts among the stored strings, and its sort key."""
        if self._sort_keys is None:
            # Built lazily on the first update, then maintained in step
            # with ``_strings`` so later updates bisect instead of
            # recomputing every string's sort key.
            self._sort_keys = [self.alphabet.sort_key(value_) for value_ in self._strings]
        value_key = self.alphabet.sort_key(value)
        return bisect_left(self._sort_keys, value_key), value_key

    def insert(self, value: str) -> TreeChange:
        """Add ``value`` in place, producing exactly the rebuilt trie.

        Compressed tries are canonical in their string set, so the
        incremental edge split / child attach below yields the same nodes
        (prefixes, terminal flags, child order) a from-scratch
        :class:`CompressedTrie` over the enlarged set would.  Child
        dictionaries are kept in alphabet order — the order the
        rebuilding constructor inserts them in — because downstream unit
        collection and representative choice iterate them.
        """
        self.alphabet.validate_string(value)
        if value in self:
            raise StructureError(f"string {value!r} already stored")
        position, value_key = self._position_of(value)
        self._sort_keys.insert(position, value_key)
        self._strings = self._strings[:position] + (value,) + self._strings[position:]
        if value == "":
            self.root.terminal = True
            return TreeChange(changed=[self.root])
        node, matched = self.locate(value)
        if matched == len(value):
            if matched != node.depth:
                # ``value`` ends inside the edge leading to ``node``: split it.
                node = self._split_edge(node, matched)
            # else the node already exists (it was a branching point).
            node.terminal = True
            return TreeChange(changed=[node])
        if matched != node.depth:
            # Mismatch inside the edge leading to ``node``: split, then attach.
            node = self._split_edge(node, matched)
        # No child of ``node`` matches the next character: attach a fresh leaf.
        leaf = TrieNode(prefix=value, terminal=True, parent=node)
        self._node_by_prefix[value] = leaf
        node.children[value[matched]] = leaf
        self._sort_children(node)
        return TreeChange(changed=[node, leaf])

    def delete(self, value: str) -> TreeChange:
        """Remove ``value`` in place, producing exactly the rebuilt trie.

        The mirror of :meth:`insert`: the string's node stops being
        terminal; if that leaves a leaf it is dropped, and a non-root,
        non-terminal node left with a single child is merged into the
        edge above it.  Nothing higher changes shape, because the parent
        of a merged node keeps its child count.
        """
        if value not in self:
            raise StructureError(f"string {value!r} is not stored")
        if len(self._strings) == 1:
            raise StructureError("cannot delete the last string of a trie")
        position, _value_key = self._position_of(value)
        del self._sort_keys[position]
        self._strings = self._strings[:position] + self._strings[position + 1 :]
        node = self._node_by_prefix[value]
        node.terminal = False
        change = TreeChange()
        if node.is_leaf:
            parent = node.parent
            del parent.children[value[parent.depth]]
            del self._node_by_prefix[value]
            change.detached.append(node)
            node = parent
        if node.parent is not None and not node.terminal and len(node.children) == 1:
            # Merge ``node`` away: its only child hangs off its parent.
            parent = node.parent
            (child,) = node.children.values()
            parent.children[node.prefix[parent.depth]] = child
            child.parent = parent
            del self._node_by_prefix[node.prefix]
            node.children = {}
            change.detached.append(node)
            node = child
        change.changed.append(node)
        return change

    def _split_edge(self, node: TrieNode, depth: int) -> TrieNode:
        """Insert a node at string depth ``depth`` on the edge into ``node``."""
        parent = node.parent
        if parent is None:  # pragma: no cover - the root has no incoming edge
            raise StructureError("cannot split above the root")
        prefix = node.prefix[:depth]
        mid = TrieNode(prefix=prefix, terminal=False, parent=parent)
        parent.children[prefix[parent.depth]] = mid
        mid.children[node.prefix[depth]] = node
        node.parent = mid
        self._node_by_prefix[prefix] = mid
        return mid

    def _sort_children(self, node: TrieNode) -> None:
        """Restore the alphabet order a rebuild would have inserted children in."""
        if len(node.children) > 1:
            node.children = dict(
                sorted(node.children.items(), key=lambda entry: self.alphabet.index(entry[0]))
            )

    # ------------------------------------------------------------------ #
    # traversal and queries
    # ------------------------------------------------------------------ #
    @property
    def strings(self) -> tuple[str, ...]:
        return self._strings

    def nodes(self) -> Iterator[TrieNode]:
        """Pre-order iteration over all nodes."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(list(node.children.values())))

    def node_count(self) -> int:
        return sum(1 for _ in self.nodes())

    def depth(self) -> int:
        """Maximum string depth of any node."""
        return max(node.depth for node in self.nodes())

    def node(self, prefix: str) -> TrieNode:
        """The node whose root path spells ``prefix`` exactly."""
        try:
            return self._node_by_prefix[prefix]
        except KeyError as exc:
            raise StructureError(f"no trie node with prefix {prefix!r}") from exc

    def __contains__(self, value: str) -> bool:
        node = self._node_by_prefix.get(value)
        return bool(node and node.terminal)

    def locate(self, query: str) -> tuple[TrieNode, int]:
        """Where a search for ``query`` ends.

        Returns ``(node, matched)`` where ``node`` is the deepest node
        whose edge path matches ``query`` as far as possible and
        ``matched`` is the number of characters of ``query`` matched
        (``matched`` may fall inside the edge leading to ``node``, i.e.
        ``node.parent.depth < matched <= node.depth``, or equal
        ``node.depth`` when the match stops exactly at the node).
        """
        node = self.root
        matched = 0
        while matched < len(query):
            child = node.children.get(query[matched])
            if child is None:
                return node, matched
            label = node.edge_label_to(child)
            remaining = query[matched:]
            common = longest_common_prefix(label, remaining)
            matched += len(common)
            if len(common) < len(label):
                return child, matched
            node = child
        return node, matched

    def longest_matching_prefix(self, query: str) -> str:
        """The longest prefix of ``query`` that lies on some root path."""
        _node, matched = self.locate(query)
        return query[:matched]

    def strings_with_prefix(self, prefix: str) -> list[str]:
        """All stored strings that start with ``prefix`` (subtree walk)."""
        node, matched = self.locate(prefix)
        if matched < len(prefix):
            return []
        # ``node`` is the shallowest node at or below the end of ``prefix``.
        start = node if node.depth >= len(prefix) else node
        result = []
        stack = [start]
        while stack:
            current = stack.pop()
            if current.terminal and current.prefix.startswith(prefix):
                result.append(current.prefix)
            stack.extend(current.children.values())
        return sorted(result)

    def validate(self) -> None:
        """Check compressed-trie invariants (used by tests)."""
        stored = set(self._strings)
        found_terminals = set()
        for node in self.nodes():
            if node.terminal:
                found_terminals.add(node.prefix)
            if node.parent is not None:
                if not node.prefix.startswith(node.parent.prefix):
                    raise StructureError("child prefix does not extend parent prefix")
                if len(node.prefix) <= len(node.parent.prefix):
                    raise StructureError("edge label must be non-empty")
            if (
                node.parent is not None
                and not node.terminal
                and len(node.children) == 1
            ):
                raise StructureError(
                    f"non-terminal node {node.prefix!r} with one child is not compressed"
                )
        if found_terminals != stored:
            raise StructureError(
                "terminal nodes do not match the stored string set: "
                f"{sorted(found_terminals)} vs {sorted(stored)}"
            )
