"""Tests for alphabets, compressed tries and trie skip-webs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StructureError
from repro.strings import BINARY, DNA, LOWERCASE, Alphabet, CompressedTrie, SkipTrieWeb
from repro.strings.skip_trie import TrieRange
from repro.strings.trie import longest_common_prefix
from repro.workloads import dna_reads, random_strings
from repro.workloads.strings import isbn_like_keys, prefix_queries


def reference_longest_prefix(strings, query):
    """Longest prefix of ``query`` that is a prefix of some stored string."""
    best = 0
    for stored in strings:
        shared = len(longest_common_prefix(stored, query))
        best = max(best, shared)
    return query[:best]


class TestAlphabet:
    def test_validation(self):
        assert DNA.validate_string("ACGT") == "ACGT"
        with pytest.raises(ValueError):
            DNA.validate_string("ACGU")

    def test_bad_alphabets(self):
        with pytest.raises(ValueError):
            Alphabet("empty", ())
        with pytest.raises(ValueError):
            Alphabet("dup", ("a", "a"))
        with pytest.raises(ValueError):
            Alphabet("long", ("ab",))

    def test_sort_key_follows_alphabet_order(self):
        assert BINARY.sort_key("10") == (1, 0)
        assert LOWERCASE.index("c") == 2


class TestCompressedTrie:
    def test_membership_and_terminals(self):
        strings = ["car", "cart", "cat", "dog"]
        trie = CompressedTrie(strings, LOWERCASE)
        trie.validate()
        assert "cat" in trie and "car" in trie
        assert "ca" not in trie

    def test_compression_no_unary_nonterminal_nodes(self):
        trie = CompressedTrie(["abcdefgh", "abcdxyz"], LOWERCASE)
        trie.validate()
        # root + branching node "abcd" + 2 leaves
        assert trie.node_count() == 4

    def test_requires_nonempty(self):
        with pytest.raises(StructureError):
            CompressedTrie([], LOWERCASE)

    def test_empty_string_marks_root(self):
        trie = CompressedTrie(["", "a"], LOWERCASE)
        assert "" in trie
        trie.validate()

    def test_locate_partial_edge_match(self):
        trie = CompressedTrie(["abcdef"], LOWERCASE)
        node, matched = trie.locate("abcxyz")
        assert matched == 3
        assert node.prefix == "abcdef"

    def test_longest_matching_prefix(self):
        strings = ["banana", "bandana", "bank"]
        trie = CompressedTrie(strings, LOWERCASE)
        assert trie.longest_matching_prefix("bandit") == "band"
        assert trie.longest_matching_prefix("zzz") == ""
        assert trie.longest_matching_prefix("banana") == "banana"

    def test_strings_with_prefix(self):
        strings = ["banana", "bandana", "bank", "zebra"]
        trie = CompressedTrie(strings, LOWERCASE)
        assert trie.strings_with_prefix("ban") == ["banana", "bandana", "bank"]
        assert trie.strings_with_prefix("band") == ["bandana"]
        assert trie.strings_with_prefix("x") == []

    def test_depth_with_shared_motifs(self):
        reads = dna_reads(80, seed=1)
        trie = CompressedTrie(reads, DNA)
        trie.validate()
        assert trie.depth() >= 12

    @given(
        strings=st.lists(st.text(alphabet="ab", min_size=1, max_size=10), min_size=1, max_size=30),
        query=st.text(alphabet="ab", max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_longest_prefix_matches_reference(self, strings, query):
        alphabet = Alphabet("ab", ("a", "b"))
        trie = CompressedTrie(strings, alphabet)
        assert trie.longest_matching_prefix(query) == reference_longest_prefix(
            set(strings), query
        )

    @given(
        strings=st.lists(st.text(alphabet="abc", min_size=1, max_size=8), min_size=1, max_size=25)
    )
    @settings(max_examples=40, deadline=None)
    def test_membership_matches_set(self, strings):
        alphabet = Alphabet("abc", ("a", "b", "c"))
        trie = CompressedTrie(strings, alphabet)
        trie.validate()
        stored = set(strings)
        for candidate in list(stored)[:10]:
            assert candidate in trie
        assert ("zzz" in trie) is False


class TestTrieRange:
    def test_node_range_contains_only_its_string(self):
        rng = TrieRange(low=2, high="abc")
        assert rng.contains("abc")
        assert not rng.contains("ab")

    def test_edge_range_contains_intermediate_prefixes(self):
        rng = TrieRange(low=1, high="abcd")
        assert rng.contains("ab") and rng.contains("abcd")
        assert not rng.contains("a")

    def test_intersection_along_path(self):
        edge = TrieRange(low=0, high="abcd")
        node = TrieRange(low=1, high="ab")
        assert edge.intersects(node) and node.intersects(edge)
        other_branch = TrieRange(low=1, high="axyz")
        assert not edge.intersects(other_branch) or longest_common_prefix("abcd", "axyz") != "a"

    def test_root_range(self):
        root = TrieRange(low=-1, high="")
        assert root.contains("")
        assert root.intersects(TrieRange(low=-1, high="abc"))


@pytest.fixture(scope="module")
def trie_web():
    strings = random_strings(120, alphabet=LOWERCASE, seed=31)
    return strings, SkipTrieWeb(strings, alphabet=LOWERCASE, seed=9)


class TestSkipTrieWeb:
    def test_validate(self, trie_web):
        _strings, web = trie_web
        web.validate()

    def test_locate_matches_reference(self, trie_web):
        strings, web = trie_web
        for query in prefix_queries(strings, 25, seed=2):
            expected = web.level0_trie.longest_matching_prefix(query)
            assert web.locate(query).answer.matched_prefix == expected

    def test_contains(self, trie_web):
        strings, web = trie_web
        assert web.contains(strings[0])
        assert not web.contains(strings[0] + "xx")

    def test_prefix_search_returns_all_matches(self, trie_web):
        strings, web = trie_web
        prefix = strings[10][:3]
        _result, matches = web.prefix_search(prefix)
        assert matches == sorted(s for s in strings if s.startswith(prefix))

    def test_messages_logarithmic(self, trie_web):
        strings, web = trie_web
        costs = [web.locate(q).messages for q in prefix_queries(strings, 20, seed=3)]
        assert max(costs) <= 35

    def test_isbn_publisher_prefix_query(self):
        keys = isbn_like_keys(150, seed=4)
        web = SkipTrieWeb(
            keys, alphabet=__import__("repro.strings", fromlist=["PRINTABLE"]).PRINTABLE, seed=1
        )
        publisher_prefix = keys[0][:5]
        _result, matches = web.prefix_search(publisher_prefix)
        assert matches == sorted(k for k in keys if k.startswith(publisher_prefix))
        assert len(matches) >= 1

    def test_insert_and_delete(self):
        strings = random_strings(60, alphabet=LOWERCASE, seed=32)
        web = SkipTrieWeb(strings, alphabet=LOWERCASE, seed=2)
        web.insert("zzzbrandnew")
        assert web.contains("zzzbrandnew")
        web.delete(strings[3])
        assert not web.contains(strings[3])
        web.validate()

    def test_insert_outside_the_alphabet_fails_typed_and_changes_nothing(self):
        from repro.api import Cluster
        from repro.storage import content_digest

        cluster = Cluster("skiptrie", random_strings(40, seed=33), seed=3)
        web = cluster.structure
        digest, records = content_digest(web), web.record_count()
        handle = cluster.insert("ACGT")
        assert isinstance(handle.error, StructureError)
        assert content_digest(web) == digest and web.record_count() == records
        assert cluster.insert("acgt").ok
        web.validate()

    def test_dna_reads_deep_trie_queries(self):
        reads = dna_reads(100, seed=5)
        web = SkipTrieWeb(reads, alphabet=DNA, seed=3)
        trie = web.level0_trie
        assert trie.depth() >= 12
        for query in dna_reads(10, seed=6):
            assert web.locate(query).answer.matched_prefix == trie.longest_matching_prefix(query)


class TestPrefixRangeReporting:
    """Prefix enumeration on the trie skip-web (O(log n + k) messages)."""

    def test_prefix_range_matches_reference(self):
        reads = dna_reads(48, seed=41)
        web = SkipTrieWeb(reads, alphabet=DNA, seed=41)
        for prefix in ("A", "AC", "G", ""):
            expected = sorted(set(text for text in reads if text.startswith(prefix)))
            result = web.range_report(prefix)
            assert sorted(result.matches) == expected
            assert result.messages == result.descent_messages + result.report_messages

    def test_prefix_range_intersections(self):
        from repro.strings.skip_trie import PrefixRange

        assert PrefixRange("ab").contains("abc")
        assert not PrefixRange("ab").contains("a")
        assert PrefixRange("ab").intersects(TrieRange(low=0, high="abcd"))
        assert not PrefixRange("ab").intersects(TrieRange(low=0, high="ax"))
        assert PrefixRange("ab").intersects(PrefixRange("a"))
        assert not PrefixRange("ab").intersects(PrefixRange("ba"))
