"""The skip-web framework (the paper's primary contribution).

The framework follows §2 of the paper:

1.  A *range-determined link structure* (§2.1) is a deterministic data
    structure ``D(S)`` built from a ground set ``S``, whose nodes and
    links carry *ranges* (sets of universe values), with incidence
    defined by range intersection.  See
    :mod:`repro.core.link_structure` and :mod:`repro.core.ranges`;
    :mod:`repro.core.tree_structure` is the shared base of the
    tree-shaped structures (quadtrees, tries).

2.  A *set-halving lemma* (§2.2) bounds the expected number of ranges of
    ``D(S)`` that conflict with the maximal range of ``D(T)`` containing
    a query, when ``T`` is a random half of ``S``.  The empirical
    verifier lives in :mod:`repro.core.halving`.

3.  *Skip-web levels* (§2.3) are built by repeatedly halving the ground
    set at random; :mod:`repro.core.levels` assigns each item a random
    membership word and groups items by prefix.

4.  *Distributed blocking* (§2.4) assigns the nodes and links of every
    level to hosts; :mod:`repro.core.blocking` provides the arbitrary
    assignment of §2.4 (round-robin, hash and owner-based variants) and
    the contiguous-block strategy of §2.4.1 used by the one-dimensional
    bucket skip-web.

5.  *Queries* (§2.5) and *updates* (§4) route through the distributed
    records; :mod:`repro.core.skipweb`, :mod:`repro.core.query` and
    :mod:`repro.core.update` implement the protocols, and
    :mod:`repro.core.stats` measures the resulting costs.
"""

from repro.core.ranges import Range, Interval, Singleton, EverythingRange
from repro.core.link_structure import (
    RangeDeterminedLinkStructure,
    RangeUnit,
    StructureDelta,
    UnitKind,
)
from repro.core.levels import MembershipAssignment, LevelSets
from repro.core.blocking import (
    BlockingPolicy,
    RoundRobinBlocking,
    HashBlocking,
    OwnerBlocking,
)
from repro.core.halving import HalvingReport, verify_halving
from repro.core.skipweb import SkipWeb, SkipWebConfig
from repro.core.query import QueryResult
from repro.core.range_query import RangeQueryResult
from repro.core.update import UpdateResult
from repro.core.stats import StructureCosts, measure_costs

__all__ = [
    "Range",
    "Interval",
    "Singleton",
    "EverythingRange",
    "RangeUnit",
    "UnitKind",
    "RangeDeterminedLinkStructure",
    "StructureDelta",
    "MembershipAssignment",
    "LevelSets",
    "BlockingPolicy",
    "RoundRobinBlocking",
    "HashBlocking",
    "OwnerBlocking",
    "HalvingReport",
    "verify_halving",
    "SkipWeb",
    "SkipWebConfig",
    "QueryResult",
    "RangeQueryResult",
    "UpdateResult",
    "StructureCosts",
    "measure_costs",
]
