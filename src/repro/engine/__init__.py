"""The unified batched execution engine.

Three pieces turn the one-at-a-time simulator into a concurrent one:

* :mod:`repro.engine.steps` — operations as *resumable step generators*
  that yield :class:`Visit` / :class:`HopTo` effects per host crossing;
  :func:`run_immediate` drives one synchronously (the classic path).
* :mod:`repro.engine.protocol` — the :class:`DistributedStructure`
  protocol every structure (skip-webs, their four instantiations, the
  Table 1 baselines) implements so a single executor can run them all.
* :mod:`repro.engine.executor` — :class:`BatchExecutor`, which interleaves
  a batch of mixed operations round by round over the network's queued
  delivery mode, measuring throughput and per-host per-round congestion
  directly.

A fourth piece, :mod:`repro.engine.repair`, drives the churn hooks of the
protocol (``migrate_host`` / ``repair``) through the same round-based
accounting, so live join/leave/crash repair traffic is measured exactly
like query traffic; see :mod:`repro.net.churn` for the controller.
"""

from repro.engine.steps import (
    Fork,
    HopTo,
    Resolution,
    Step,
    StepCursor,
    StepGenerator,
    Visit,
    local_steps,
    run_immediate,
)
from repro.engine.protocol import DistributedStructure
from repro.engine.executor import BatchExecutor, BatchResult, Operation, OpOutcome
from repro.engine.repair import MigrationSummary, RepairEngine, RepairResult

__all__ = [
    "MigrationSummary",
    "RepairEngine",
    "RepairResult",
    "Fork",
    "HopTo",
    "Resolution",
    "Step",
    "StepCursor",
    "StepGenerator",
    "Visit",
    "local_steps",
    "run_immediate",
    "DistributedStructure",
    "BatchExecutor",
    "BatchResult",
    "Operation",
    "OpOutcome",
]
