"""Skip-webs over compressed tries (§3.2, Lemma 4).

:class:`TrieStructure` adapts :class:`~repro.strings.trie.CompressedTrie`
to the range-determined link structure interface.  Following §2.1, the
range of a node ``v`` is the singleton containing the string spelled by
the root path to ``v``, and the range of the edge ``(v, w)`` is the set
of strings ``x·y`` where ``x`` spells ``v`` and ``y`` is a non-empty
prefix of the edge label — i.e. the contiguous run of prefixes of ``w``'s
string that are longer than ``v``'s string.  Two ranges conflict exactly
when they share a prefix, which reduces to a longest-common-prefix test
(:class:`TrieRange`).

Lemma 4 (the set-halving lemma for tries) is verified empirically by
``benchmarks/bench_lemma4_trie_halving.py``.  :class:`SkipTrieWeb` is the
distributed structure: locating an arbitrary string — and hence prefix
search — in ``O(log n)`` expected messages even when the trie has depth
``O(n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Sequence

from repro.core.link_structure import RangeUnit, StructureDelta, UnitKind
from repro.core.query import QueryResult
from repro.core.ranges import Range
from repro.core.skipweb import SkipWeb, SkipWebConfig
from repro.core.tree_structure import TreeChange, TreeLinkStructure
from repro.errors import StructureError
from repro.net.naming import HostId
from repro.net.network import Network
from repro.strings.alphabet import Alphabet, LOWERCASE
from repro.strings.trie import CompressedTrie, TrieNode, longest_common_prefix


@dataclass(frozen=True, slots=True)
class TrieRange:
    """The set of prefixes ``{high[:k] : low < k <= len(high)}``.

    ``low == len(high) - 1`` gives a node's singleton range; ``low`` equal
    to the parent's depth gives an edge's range.  Conflict (non-empty
    intersection) between two such prefix runs reduces to comparing the
    longest common prefix of the two ``high`` strings against both lower
    bounds.
    """

    low: int
    high: str

    def __post_init__(self) -> None:
        if not -1 <= self.low < len(self.high) or (self.high == "" and self.low != -1):
            if not (self.high == "" and self.low == -1):
                raise ValueError(f"invalid TrieRange(low={self.low}, high={self.high!r})")

    def contains(self, point: Any) -> bool:
        """Whether the string ``point`` is one of the prefixes in this range."""
        if not isinstance(point, str):
            return False
        return (
            self.low < len(point) <= len(self.high) and self.high.startswith(point)
        ) or (self.high == "" and point == "")

    def intersects(self, other: Range) -> bool:
        if isinstance(other, TrieRange):
            shared = len(longest_common_prefix(self.high, other.high))
            if self.high == "" and other.high == "":
                return True
            return shared > max(self.low, other.low)
        return other.intersects(self)

    def match_length(self, query: str) -> int:
        """How many characters of ``query`` this range can match."""
        # The common prefix is never longer than ``high`` itself, so its
        # length needs no clamping.
        return len(longest_common_prefix(self.high, query))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TrieRange({self.high!r}[{self.low + 1}:])"


@dataclass(frozen=True, slots=True)
class PrefixRange:
    """All strings extending ``prefix`` — the range of a prefix-enumeration query.

    Dual to :class:`TrieRange` (which holds *prefixes of* its ``high``
    string): a reporting query for ``PrefixRange(p)`` asks for every
    stored string that starts with ``p``.
    """

    prefix: str

    def contains(self, point: Any) -> bool:
        return isinstance(point, str) and point.startswith(self.prefix)

    def intersects(self, other: Range) -> bool:
        if isinstance(other, TrieRange):
            # ``other`` holds the prefixes high[:k] for low < k <= len(high);
            # one of them extends ``prefix`` exactly when high does and the
            # run reaches at least len(prefix) characters.
            return other.high.startswith(self.prefix) and len(other.high) >= max(
                other.low + 1, len(self.prefix)
            )
        if isinstance(other, PrefixRange):
            return self.prefix.startswith(other.prefix) or other.prefix.startswith(
                self.prefix
            )
        return other.intersects(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PrefixRange({self.prefix!r}*)"


@dataclass(frozen=True)
class PrefixSearchAnswer:
    """Answer to a string-location query in the trie."""

    query: str
    matched_prefix: str
    exact: bool
    completions: tuple[str, ...]


def _node_key(prefix: str) -> Hashable:
    return ("snode", prefix)


def _link_key(child_prefix: str) -> Hashable:
    return ("slink", child_prefix)


class TrieStructure(TreeLinkStructure):
    """A compressed trie viewed as a range-determined link structure.

    Construction parameter (shared across skip-web levels):

    ``alphabet``
        The fixed :class:`~repro.strings.alphabet.Alphabet`.
    """

    name = "compressed-trie"

    def __init__(self, strings: Sequence[str], alphabet: Alphabet) -> None:
        self._alphabet = alphabet
        self.trie = CompressedTrie(strings, alphabet)
        super().__init__()

    @classmethod
    def build(cls, items: Sequence[Any], **params: Any) -> "TrieStructure":
        alphabet = params.get("alphabet", LOWERCASE)
        return cls([str(item) for item in items], alphabet)

    def build_params(self) -> dict[str, Any]:
        return {"alphabet": self._alphabet}

    def with_item(self, item: Any) -> StructureDelta:
        """``D(S ∪ {x})`` via an in-place canonical trie insert.

        Compressed tries are canonical in their string set, so
        :meth:`repro.strings.trie.CompressedTrie.insert` yields exactly
        the trie a rebuild over the enlarged set would (same nodes, same
        child order), and only the units of the nodes it touched — and of
        the ancestors they represent — are derived again.
        """
        return self._resync(self._with_represented(self.trie.insert(str(item))))

    def check_insert(self, item: Any) -> None:
        try:
            self._alphabet.validate_string(str(item))
        except ValueError as exc:
            raise StructureError(str(exc)) from exc

    def without_item(self, item: Any) -> StructureDelta:
        """``D(S \\ {x})`` via an in-place canonical trie delete."""
        text = str(item)
        if self.trie.strings == (text,):
            return self._emptied()
        return self._resync(self._with_represented(self.trie.delete(text)))

    # ------------------------------------------------------------------ #
    # TreeLinkStructure contract
    # ------------------------------------------------------------------ #
    def _preorder(self) -> Iterable[TrieNode]:
        return self.trie.nodes()

    @staticmethod
    def _children(node: TrieNode) -> Iterable[TrieNode]:
        return node.children.values()

    @staticmethod
    def _representative(node: TrieNode) -> str:
        """A stored string below ``node`` (used by owner blocking).

        Terminal nodes represent themselves; the others inherit their
        first child's representative.
        """
        current = node
        while not current.terminal:
            current = next(iter(current.children.values()))
        return current.prefix

    @staticmethod
    def _with_represented(change: TreeChange) -> TreeChange:
        """Extend ``change`` by the ancestors whose representative it may move.

        A node's representative is read through its chain of first
        children, so a changed node affects every ancestor reached by
        climbing while it is a non-terminal parent's first child.
        """
        for node in list(change.changed):
            parent = node.parent
            while (
                parent is not None
                and not parent.terminal
                and next(iter(parent.children.values())) is node
            ):
                change.changed.append(parent)
                node, parent = parent, parent.parent
        return change

    def _node_unit(self, node: TrieNode) -> RangeUnit:
        prefix = node.prefix
        return RangeUnit(
            key=_node_key(prefix),
            kind=UnitKind.NODE,
            range=TrieRange(low=len(prefix) - 1, high=prefix),
            payload=self._representative(node),
        )

    def _link_unit(self, node: TrieNode) -> RangeUnit:
        # §2.1: the edge range is the set of strings x·y where y is a
        # *possibly empty* prefix of the edge label, so it also contains
        # the parent node's own string — hence ``low`` is one less than
        # the parent's depth.
        parent = node.parent
        return RangeUnit(
            key=_link_key(node.prefix),
            kind=UnitKind.LINK,
            range=TrieRange(low=len(parent.prefix) - 1, high=node.prefix),
            payload=(node.nunit.payload, parent.nunit.payload),
        )

    # ------------------------------------------------------------------ #
    # RangeDeterminedLinkStructure interface
    # ------------------------------------------------------------------ #
    @property
    def items(self) -> Sequence[str]:
        return list(self.trie.strings)

    def overlapping(self, query_range: Range) -> list[RangeUnit]:
        """Units on the root path of ``query_range.high`` that intersect it.

        A path-restricted subset of the literal conflict list: an edge
        leaving a path node sideways also meets the range when it starts
        at or above the range's first string (the two share the path
        node's string), but the walk leaves it out.  The update protocol's
        counted costs are defined by this set, so it stays as it is.
        """
        if not isinstance(query_range, TrieRange):
            return super().overlapping(query_range)
        result: list[RangeUnit] = []
        node, matched = self.trie.locate(query_range.high)
        # Collect nodes and edges along the path from the root to ``node``.
        path: list[TrieNode] = []
        current: TrieNode | None = node
        while current is not None:
            path.append(current)
            current = current.parent
        for path_node in reversed(path):
            if path_node.nunit.range.intersects(query_range):
                result.append(path_node.nunit)
            if path_node.parent is not None and path_node.lunit.range.intersects(query_range):
                result.append(path_node.lunit)
        return result

    # ------------------------------------------------------------------ #
    # range reporting
    # ------------------------------------------------------------------ #
    @classmethod
    def range_to_query(cls, query_range: Range) -> Any:
        """Anchor a prefix enumeration's descent at the prefix itself."""
        if isinstance(query_range, PrefixRange):
            return query_range.prefix
        return super().range_to_query(query_range)

    def report_units(self, query_range: Range) -> list[RangeUnit]:
        """The terminal nodes of every stored string extending the prefix."""
        if not isinstance(query_range, PrefixRange):
            return super().report_units(query_range)
        matches = sorted(self.trie.strings_with_prefix(query_range.prefix))
        return [self._units_by_key[_node_key(text)] for text in matches]

    def report_values(self, query_range: Range, unit: RangeUnit) -> list[Any]:
        """The stored string at a visited terminal node, if it matches."""
        node = self._node_by_key.get(unit.key)
        if node is not None and node.terminal and query_range.contains(node.prefix):
            return [node.prefix]
        return []

    def locate(self, query: Any) -> RangeUnit:
        """The unit where a search for ``query`` stops (deepest match)."""
        text = str(query)
        node, matched = self.trie.locate(text)
        if matched == node.depth or node.parent is None:
            return node.nunit
        # The match ends inside the edge leading to ``node``.
        return node.lunit

    @classmethod
    def select(cls, query: Any, candidates: Sequence[RangeUnit]) -> RangeUnit:
        text = str(query)

        def score(unit: RangeUnit) -> tuple[int, int]:
            rng: TrieRange = unit.range
            match = rng.match_length(text)
            # Prefer the deepest match; among equal matches prefer the unit
            # whose range does not overshoot the match (nodes over edges).
            overshoot = len(rng.high) - match
            return (match, -overshoot)

        return max(candidates, key=score)

    @classmethod
    def advance(
        cls,
        query: Any,
        current: RangeUnit,
        neighbors: Iterable[tuple[Hashable, Range]],
    ) -> Hashable | None:
        text = str(query)
        current_range: TrieRange = current.range
        current_match = current_range.match_length(text)
        best_key: Hashable | None = None
        best_match = current_match
        for key, rng in neighbors:
            if not isinstance(rng, TrieRange):
                continue
            match = rng.match_length(text)
            if match > best_match:
                best_match = match
                best_key = key
        return best_key

    def answer(self, query: Any, unit: RangeUnit) -> PrefixSearchAnswer:
        text = str(query)
        matched = self.trie.longest_matching_prefix(text)
        completions = tuple(self.trie.strings_with_prefix(matched))
        return PrefixSearchAnswer(
            query=text,
            matched_prefix=matched,
            exact=text in self.trie,
            completions=completions,
        )


class SkipTrieWeb(SkipWeb):
    """A distributed skip-web over a compressed trie.

    Supports locating an arbitrary string (the deepest stored prefix that
    matches it) and prefix searches, with ``O(log n)`` expected messages.
    """

    def _coerce_query(self, query: Any) -> str:
        return str(query)

    def _coerce_item(self, item: Any) -> str:
        return str(item)

    def _coerce_range(self, query_range: Any) -> PrefixRange:
        if isinstance(query_range, PrefixRange):
            return query_range
        return PrefixRange(str(query_range))

    def __init__(
        self,
        strings: Sequence[str],
        alphabet: Alphabet = LOWERCASE,
        network: Network | None = None,
        host_count: int | None = None,
        blocking: str = "owner",
        seed: int = 0,
    ) -> None:
        config = SkipWebConfig(
            host_count=host_count,
            blocking=blocking,
            seed=seed,
            structure_params={"alphabet": alphabet},
        )
        self.alphabet = alphabet
        super().__init__(TrieStructure, list(strings), network=network, config=config)

    def locate(self, text: str, origin_host: HostId | None = None) -> QueryResult:
        """Find the deepest stored prefix matching ``text``."""
        return self.query(text, origin_host=origin_host)

    def contains(self, text: str, origin_host: HostId | None = None) -> bool:
        """Exact-membership query."""
        return bool(self.locate(text, origin_host=origin_host).answer.exact)

    def prefix_search(
        self, prefix: str, origin_host: HostId | None = None
    ) -> tuple[QueryResult, list[str]]:
        """All stored strings starting with ``prefix``.

        The distributed part is locating ``prefix``; enumerating the
        matching subtree is then local to the hosts storing it (returned
        from the level-0 trie).
        """
        result = self.locate(prefix, origin_host=origin_host)
        matches = self.level0_trie.strings_with_prefix(str(prefix))
        return result, matches

    @property
    def strings(self) -> list[str]:
        return sorted(self.items)

    @property
    def level0_trie(self) -> CompressedTrie:
        structure: TrieStructure = self.level_structure(0, ())
        return structure.trie

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SkipTrieWeb(n={self.ground_set_size}, alphabet={self.alphabet.name}, "
            f"hosts={self.host_count})"
        )
