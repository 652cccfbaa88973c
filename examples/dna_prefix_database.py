"""A distributed DNA / ISBN prefix database on a trie skip-web.

The paper motivates string skip-webs with DNA databases and ISBN prefix
queries ("a prefix query for ISBN numbers in a book database could return
all titles by a certain publisher").  This example builds both: a DNA-read
store queried by motif prefix, and an ISBN-like catalogue queried by
publisher prefix, each over a distributed compressed trie.

Run with:  python examples/dna_prefix_database.py
(after ``pip install -e .``, or with ``PYTHONPATH=src`` from the repo root)
"""

from repro.api import Cluster
from repro.strings import DNA, PRINTABLE
from repro.workloads import dna_reads, isbn_like_keys


def main() -> None:
    print("== DNA read store ==")
    reads = dna_reads(250, seed=5, motif_count=6)
    dna = Cluster(structure="skiptrie", items=reads, alphabet=DNA, seed=5)
    dna_web = dna.structure  # prefix_search lives on the trie structure
    print(
        f"reads: {len(reads)}, hosts: {dna.stats().hosts}, "
        f"trie depth: {dna_web.level0_trie.depth()}"
    )

    motif = reads[0][:12]
    result, matches = dna_web.prefix_search(motif)
    print(f"prefix search for motif {motif}: {len(matches)} reads, " f"{result.messages} messages")

    probe = reads[10][:20] + "A"
    located = dna.nearest(probe).result()
    print(
        f"locate {probe[:24]}...: longest stored prefix has length "
        f"{len(located.answer.matched_prefix)}, {located.messages} messages"
    )

    print("\n== ISBN catalogue ==")
    isbns = isbn_like_keys(300, seed=9, publisher_count=8)
    isbn = Cluster(structure="skiptrie", items=isbns, alphabet=PRINTABLE, seed=9)
    publisher = isbns[0].rsplit("-", 2)[0]
    result, titles = isbn.structure.prefix_search(publisher)
    print(f"publisher prefix {publisher!r}: {len(titles)} titles, " f"{result.messages} messages")

    print("\n== catalogue updates ==")
    new_isbn = publisher + "-99999-0"
    insert = isbn.insert(new_isbn)
    print(
        f"insert {new_isbn}: {insert.status} ({insert.messages} messages); "
        f"now stored: {isbn.structure.contains(new_isbn)}"
    )


if __name__ == "__main__":
    main()
