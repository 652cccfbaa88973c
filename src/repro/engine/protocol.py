"""The ``DistributedStructure`` protocol: one executor for every structure.

Skip-webs, their four instantiations, and the Table 1 baselines all
search and update by walking pointers over the simulated network.  The
protocol below captures that common shape as *step generators* (see
:mod:`repro.engine.steps`): a structure exposes its operations as
resumable generators and in exchange runs unmodified under both the
immediate single-operation drivers and the round-based
:class:`~repro.engine.executor.BatchExecutor`.

A structure implements:

* ``search_steps(query, origin_host)`` — the query descent;
* ``range_steps(query_range, origin_host)`` — output-sensitive range
  reporting (O(log n + k) messages via forked report sub-walks;
  hash-based structures raise
  :class:`~repro.errors.UnsupportedOperationError`);
* ``insert_steps(item, origin_host)`` / ``delete_steps(item,
  origin_host)`` — updates (structures that cannot update, e.g. the Chord
  baseline, raise :class:`~repro.errors.UpdateError`);
* ``seed_roots(origin_host)`` — the local routing state an operation at
  ``origin_host`` starts from (root entries, a routing table, a finger
  table), returned through a step generator so that structures whose
  roots require remote fetches can charge them;
* ``origin_hosts()`` — hosts from which operations may originate, used by
  workload drivers to spread a batch across the network.  It returns the
  *same* immutable sequence object until the origins change (and a new
  one when they do): the executor detects a change by identity;
* ``migrate_host(host_id, targets, fraction)`` / ``repair(host_ids)`` —
  the churn hooks (see :mod:`repro.engine.repair`): migration hands
  records off a live host (a graceful leave, or a rebalance toward a
  newly joined target), repair re-homes the records orphaned by crashed
  hosts and rewires the pointers that referenced them.  Both are step
  generators, so their traffic is billed through the same immediate or
  round-based accounting as queries and updates.

The protocol is ``runtime_checkable`` so tests can assert conformance
with ``isinstance``.
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence, runtime_checkable

from repro.engine.steps import StepGenerator
from repro.net.naming import HostId


@runtime_checkable
class DistributedStructure(Protocol):
    """A distributed data structure whose operations are step generators."""

    @property
    def network(self) -> Any:
        """The :class:`repro.net.network.Network` the structure lives on."""
        ...  # pragma: no cover - protocol

    def origin_hosts(self) -> Sequence[HostId]:
        """Hosts from which operations may originate."""
        ...  # pragma: no cover - protocol

    def seed_roots(self, origin_host: HostId) -> StepGenerator:
        """Step generator returning the local routing state of ``origin_host``."""
        ...  # pragma: no cover - protocol

    def search_steps(self, query: Any, origin_host: HostId | None = None) -> StepGenerator:
        """Step generator answering ``query`` from ``origin_host``."""
        ...  # pragma: no cover - protocol

    def range_steps(
        self, query_range: Any, origin_host: HostId | None = None
    ) -> StepGenerator:
        """Step generator reporting every stored item inside ``query_range``.

        Output-sensitive: O(log n + k) expected messages for output size
        ``k``, achieved by locating one point of the range and then
        forking parallel report sub-walks (:class:`~repro.engine.steps
        .Fork`) over the matching records.  Structures that cannot
        support range queries at all (hash-based overlays such as the
        Chord baseline — the paper's point about hashing) raise
        :class:`~repro.errors.UnsupportedOperationError`.
        """
        ...  # pragma: no cover - protocol

    def insert_steps(self, item: Any, origin_host: HostId | None = None) -> StepGenerator:
        """Step generator inserting ``item`` from ``origin_host``."""
        ...  # pragma: no cover - protocol

    def delete_steps(self, item: Any, origin_host: HostId | None = None) -> StepGenerator:
        """Step generator deleting ``item`` from ``origin_host``."""
        ...  # pragma: no cover - protocol

    def migrate_host(
        self,
        host_id: HostId,
        targets: Sequence[HostId] | None = None,
        fraction: float = 1.0,
    ) -> StepGenerator:
        """Step generator handing records off ``host_id`` (leave / rebalance).

        ``fraction`` of the host's records move to ``targets`` (default:
        every other live host, round-robin).  A full evacuation
        (``fraction == 1.0``, no targets) prepares a graceful leave; a
        partial migration toward a single fresh target rebalances load
        onto a newly joined host.  Returns a
        :class:`~repro.engine.repair.MigrationSummary`.
        """
        ...  # pragma: no cover - protocol

    def repair(self, host_ids: Sequence[HostId]) -> StepGenerator:
        """Step generator re-homing the records orphaned by crashed ``host_ids``.

        Reconstructs each orphaned record on a live host and rewires the
        neighbour/hyperlink (or routing-table / finger-table) pointers
        that referenced the dead hosts.  Returns a
        :class:`~repro.engine.repair.MigrationSummary`.
        """
        ...  # pragma: no cover - protocol
