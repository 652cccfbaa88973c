"""API-surface lock: ``repro.api.__all__`` and its public signatures.

The names and signatures below are the *supported* surface declared by
``repro.api`` (see its module docstring's stability policy).  This test
runs in the CI lint job: changing the public API makes it fail, turning
every surface change into an explicit, reviewed edit of this snapshot
rather than an accident.

To update the snapshot after an intentional API change, re-run::

    PYTHONPATH=src python tests/test_api_surface.py --regenerate

and paste the output over the constants below.
"""

import inspect

import repro.api as api
from repro.api.results import OperationHandle

EXPECTED_ALL = [
    "Cluster",
    "ClusterSession",
    "Operation",
    "OperationHandle",
    "BatchReport",
    "ClusterStats",
    "StructureSpec",
    "register_structure",
    "resolve_structure",
    "available_structures",
    "structure_specs",
    "Topology",
    "FlatTopology",
    "ClusteredTopology",
    "GeoTopology",
    "resolve_topology",
    "FaultPlan",
    "FaultRule",
    "resolve_faults",
]

#: Structure families every release must keep resolvable by these names.
EXPECTED_STRUCTURES = [
    "bucket-skipgraph",
    "bucket-skipweb1d",
    "chord",
    "det-skipnet",
    "family-tree",
    "non-skipgraph",
    "skipgraph",
    "skipnet",
    "skipquadtree",
    "skiptrapezoid",
    "skiptrie",
    "skipweb1d",
]

EXPECTED_SIGNATURES = {
    "Cluster.__init__": (
        "(self, structure: 'str' = 'skipweb1d', items: 'Sequence[Any] | None' = None, "
        "*, hosts: 'int | None' = None, memory_size: 'int | None' = None, "
        "seed: 'int' = 0, network: 'Network | None' = None, "
        "topology: \"'Topology | str | None'\" = None, "
        "faults: \"'FaultPlan | str | Mapping[str, Any] | None'\" = None, "
        "round_budget: 'int | None' = None, max_retries: 'int' = 5, "
        "churn_rng: 'random.Random | None' = None, join_fraction: 'float' = 0.5, "
        "min_hosts: 'int' = 2, storage: \"'str | StorageBackend | None'\" = None, "
        "snapshot_every: 'int' = 0, **options: 'Any') -> 'None'"
    ),
    "Cluster.bulk_load": "(self, sorted_items: 'Sequence[Any]') -> 'OperationHandle'",
    "Cluster.get": "(self, key: 'Any', origin_host: 'HostId | None' = None) -> 'OperationHandle'",
    "Cluster.nearest": (
        "(self, query: 'Any', origin_host: 'HostId | None' = None) -> 'OperationHandle'"
    ),
    "Cluster.range": (
        "(self, query_range: 'Any', origin_host: 'HostId | None' = None) -> 'OperationHandle'"
    ),
    "Cluster.insert": (
        "(self, item: 'Any', origin_host: 'HostId | None' = None) -> 'OperationHandle'"
    ),
    "Cluster.delete": (
        "(self, item: 'Any', origin_host: 'HostId | None' = None) -> 'OperationHandle'"
    ),
    "Cluster.batch": "(self, operations: 'Sequence[Any]') -> 'BatchReport'",
    "Cluster.configure_churn": (
        "(self, rng: 'random.Random | None' = None, join_fraction: 'float | None' = None, "
        "min_hosts: 'int | None' = None) -> 'None'"
    ),
    "Cluster.join_host": "(self) -> 'ChurnEvent'",
    "Cluster.leave_host": "(self, host_id: 'HostId | None' = None) -> 'ChurnEvent'",
    "Cluster.crash_host": "(self, host_id: 'HostId | None' = None) -> 'ChurnEvent'",
    "Cluster.recover_host": "(self, host_id: 'HostId | None' = None) -> 'ChurnEvent'",
    "Cluster.run_churn_schedule": "(self, kinds: 'Sequence[str]') -> 'list[ChurnEvent]'",
    "Cluster.repair": "(self, host_ids: 'Sequence[HostId]') -> 'RepairResult'",
    "Cluster.save": "(self) -> 'None'",
    "Cluster.load": "(path: \"'str | StorageBackend'\") -> \"'Cluster'\"",
    "Cluster.recover": (
        "(path: \"'str | StorageBackend'\", *, trim_torn_tail: 'bool' = False, "
        "from_snapshot: 'bool' = True) -> \"'Cluster'\""
    ),
    "Cluster.session": "(self) -> 'Iterator[ClusterSession]'",
    "Cluster.close": "(self) -> 'None'",
    "OperationHandle.to_dict": (
        "(self, include_value: 'bool' = True) -> 'dict[str, Any]'"
    ),
    "BatchReport.to_dict": (
        "(self, include_values: 'bool' = True) -> 'dict[str, Any]'"
    ),
    "Cluster.stats": "(self) -> 'ClusterStats'",
    "Cluster.congestion": "(self) -> 'Any'",
    "Cluster.round_congestion": "(self) -> 'RoundCongestionReport'",
    "Cluster.from_structure": (
        "(structure: 'Any', *, max_retries: 'int' = 5, "
        "churn_rng: 'random.Random | None' = None, "
        "join_fraction: 'float' = 0.5, min_hosts: 'int' = 2) -> \"'Cluster'\""
    ),
    "register_structure": "(spec: 'StructureSpec') -> 'StructureSpec'",
    "resolve_topology": (
        "(spec: \"'str | Topology | None'\", seed: 'int' = 0) -> 'Topology | None'"
    ),
    "resolve_faults": (
        "(spec: \"'str | FaultRule | Sequence[FaultRule] | FaultPlan | None'\", "
        "seed: 'int' = 0) -> 'FaultPlan | None'"
    ),
    "resolve_structure": "(name: 'str') -> 'StructureSpec'",
    "available_structures": "() -> 'list[str]'",
    "structure_specs": "() -> 'dict[str, StructureSpec]'",
}

#: The fields an OperationHandle is guaranteed to carry.
EXPECTED_HANDLE_FIELDS = [
    "kind",
    "payload",
    "origin_host",
    "status",
    "value",
    "error",
    "messages",
    "rounds",
    "retries",
    "index",
    "latency",
]


def _actual_signatures() -> dict[str, str]:
    actual = {}
    for qualified in EXPECTED_SIGNATURES:
        if "." in qualified:
            owner_name, attribute = qualified.split(".", 1)
            target = getattr(getattr(api, owner_name), attribute)
        else:
            target = getattr(api, qualified)
        actual[qualified] = str(inspect.signature(target))
    return actual


def test_public_names_are_locked():
    assert list(api.__all__) == EXPECTED_ALL
    for name in api.__all__:
        assert hasattr(api, name)


def test_registered_structure_names_are_locked():
    assert api.available_structures() == EXPECTED_STRUCTURES


def test_public_signatures_are_locked():
    actual = _actual_signatures()
    for qualified, expected in EXPECTED_SIGNATURES.items():
        assert actual[qualified] == expected, (
            f"signature of {qualified} changed:\n"
            f"  expected {expected}\n  actual   {actual[qualified]}\n"
            "If intentional, update tests/test_api_surface.py."
        )


def test_operation_handle_fields_are_locked():
    fields = list(OperationHandle.__dataclass_fields__)
    assert fields == EXPECTED_HANDLE_FIELDS


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        print("EXPECTED_ALL =", list(api.__all__))
        print("EXPECTED_STRUCTURES =", api.available_structures())
        for qualified, signature in _actual_signatures().items():
            print(f'    "{qualified}": "{signature}",')
