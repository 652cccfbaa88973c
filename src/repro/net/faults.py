"""Deterministic, seeded fault injection: chaos plans for the simulator.

The paper assumes hosts never fail and messages always arrive (§1.1).
The churn subsystem already relaxes the first assumption (crash-stop
with self-repair); this module relaxes the second, and does it the same
way everything else in this repository works: **seeded and replayable**.

A :class:`FaultPlan` is an ordered list of scoped :class:`FaultRule`\\ s
plus one ``random.Random(seed)``.  The network consults the plan at a
single choke point per delivery (``Network.run_round`` for the round
engine, ``Network.send`` for immediate mode), and the plan consults its
rng *only* for rules whose scope matches — so the decision stream is a
pure function of ``(seed, rules, delivery sequence)``.  Deliveries are
processed in queue order, queue order is a pure function of the seeded
workload, and therefore two identical runs make byte-identical fault
decisions.  The plan's rng is pickled with the network, so a recovered
snapshot resumes the *same* decision stream.

Two rule families:

* **Message rules** (``drop`` / ``duplicate`` / ``delay``) fire
  per-delivery with ``probability``, scoped by link (``src``/``dst``),
  by :class:`~repro.net.message.MessageKind` value, by topology cluster
  (either endpoint, via :meth:`~repro.net.topology.Topology.cluster_of`)
  and/or by a burst ``window`` of session-relative round indices.
  A drop resolves the delivery ticket with
  :class:`~repro.errors.FaultInjectedError` (uncharged — the message
  never arrived); a duplicate charges the delivery twice; a delay parks
  the ticket for ``delay_rounds`` rounds.
* **Host rules** (``crash`` / ``outage``) fire once per plan instance at
  ``at_round``: ``crash`` fails an explicit ``host`` or ``victims``
  rng-sampled alive hosts, ``outage`` fails every alive host of one
  topology ``cluster`` (a *correlated* failure).  ``recover_after``
  schedules the inverse ``recover_host`` calls that many rounds later.

``resolve_faults`` accepts ``None`` (the default — the network keeps its
zero-overhead fast path and stays byte-identical to a build without this
module), a preset name from :data:`FAULT_NAMES`, a single rule, a rule
sequence, or a plan instance.  ``faults_from_config`` rebuilds a plan
from the portable ``describe()`` dict the durability layer journals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.net.naming import HostId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network -> faults)
    from repro.net.message import MessageKind
    from repro.net.network import Network

#: Per-delivery fault verbs.
MESSAGE_FAULTS = ("drop", "duplicate", "delay")
#: Membership fault verbs.
HOST_FAULTS = ("crash", "outage")


@dataclass(frozen=True)
class FaultRule:
    """One scoped fault: what goes wrong, to whom, when, how often.

    ``kind`` selects the verb (see :data:`MESSAGE_FAULTS` /
    :data:`HOST_FAULTS`); the remaining fields scope it.  Unset scopes
    match everything.  ``window`` bounds a message rule to session-
    relative rounds ``start <= round < stop`` (a burst); ``at_round`` is
    the session-relative trigger round of a host rule.
    """

    kind: str
    probability: float = 1.0
    src: HostId | None = None
    dst: HostId | None = None
    message_kind: str | None = None
    cluster: int | None = None
    window: tuple[int, int] | None = None
    delay_rounds: int = 1
    at_round: int = 0
    host: HostId | None = None
    victims: int = 1
    recover_after: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in MESSAGE_FAULTS + HOST_FAULTS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{MESSAGE_FAULTS + HOST_FAULTS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.window is not None:
            window = tuple(int(bound) for bound in self.window)
            if len(window) != 2 or window[0] < 0 or window[0] >= window[1]:
                raise ValueError(
                    f"window must be (start, stop) with 0 <= start < stop, got {self.window}"
                )
            object.__setattr__(self, "window", window)
        if self.delay_rounds < 1:
            raise ValueError(f"delay_rounds must be >= 1, got {self.delay_rounds}")
        if self.at_round < 0:
            raise ValueError(f"at_round must be >= 0, got {self.at_round}")
        if self.victims < 1:
            raise ValueError(f"victims must be >= 1, got {self.victims}")
        if self.recover_after is not None and self.recover_after < 1:
            raise ValueError(f"recover_after must be >= 1, got {self.recover_after}")

    def describe(self) -> dict[str, Any]:
        """Portable JSON-able record (non-default fields only)."""
        record: dict[str, Any] = {"kind": self.kind}
        for spec in fields(self):
            if spec.name == "kind":
                continue
            value = getattr(self, spec.name)
            if value == spec.default:
                continue
            record[spec.name] = list(value) if spec.name == "window" else value
        return record


def rule_from_config(config: Mapping[str, Any]) -> FaultRule:
    """Rebuild one rule from its :meth:`FaultRule.describe` dict."""
    record = dict(config)
    kind = record.pop("kind", None)
    if kind is None:
        raise ValueError(f"fault rule config is missing 'kind': {config!r}")
    window = record.get("window")
    if window is not None:
        record["window"] = tuple(window)
    return FaultRule(kind=kind, **record)


# -- rule factories ------------------------------------------------------- #
def drop(
    probability: float = 1.0,
    *,
    src: HostId | None = None,
    dst: HostId | None = None,
    message_kind: str | None = None,
    cluster: int | None = None,
    window: tuple[int, int] | None = None,
) -> FaultRule:
    """A message-loss rule: matching deliveries never arrive."""
    return FaultRule(
        "drop",
        probability=probability,
        src=src,
        dst=dst,
        message_kind=message_kind,
        cluster=cluster,
        window=window,
    )


def duplicate(
    probability: float = 1.0,
    *,
    src: HostId | None = None,
    dst: HostId | None = None,
    message_kind: str | None = None,
    cluster: int | None = None,
    window: tuple[int, int] | None = None,
) -> FaultRule:
    """A duplication rule: matching deliveries are charged twice."""
    return FaultRule(
        "duplicate",
        probability=probability,
        src=src,
        dst=dst,
        message_kind=message_kind,
        cluster=cluster,
        window=window,
    )


def delay(
    delay_rounds: int = 1,
    probability: float = 1.0,
    *,
    src: HostId | None = None,
    dst: HostId | None = None,
    message_kind: str | None = None,
    cluster: int | None = None,
    window: tuple[int, int] | None = None,
) -> FaultRule:
    """A delay rule: matching deliveries arrive ``delay_rounds`` rounds late."""
    return FaultRule(
        "delay",
        probability=probability,
        src=src,
        dst=dst,
        message_kind=message_kind,
        cluster=cluster,
        window=window,
        delay_rounds=delay_rounds,
    )


def crash(
    host: HostId | None = None,
    *,
    at_round: int = 0,
    victims: int = 1,
    recover_after: int | None = None,
) -> FaultRule:
    """A crash-stop rule: fail one explicit host or ``victims`` sampled ones."""
    return FaultRule(
        "crash", host=host, at_round=at_round, victims=victims, recover_after=recover_after
    )


def outage(
    cluster: int = 0, *, at_round: int = 0, recover_after: int | None = None
) -> FaultRule:
    """A correlated outage: fail every alive host of one topology cluster."""
    return FaultRule(
        "outage", cluster=cluster, at_round=at_round, recover_after=recover_after
    )


def inject_host_faults(network: "Network", host_ids: Iterable[HostId]) -> list[HostId]:
    """Fail the listed hosts, skipping unknown or already-failed ids.

    The single host-fault choke point: :meth:`FaultPlan.begin_round` and
    scripted crashes route through it, so "never re-fail a failed host"
    holds everywhere.  :meth:`Network.recover_host` is the inverse.
    Returns the ids actually failed, in input order.
    """
    failed: list[HostId] = []
    already_failed = network.failed_hosts
    for host_id in host_ids:
        if host_id in already_failed or host_id not in network:
            continue
        network.fail_host(host_id)
        failed.append(host_id)
    return failed


class FaultPlan:
    """An ordered, seeded set of fault rules — the unit of chaos.

    Rules are consulted in order; the first matching message rule whose
    probability draw fires decides the delivery.  All randomness comes
    from one ``random.Random(seed)``, consumed only for scope-matching
    rules with ``0 < probability < 1`` and for sampled crash victims, so
    the decision stream is deterministic given the workload.  The plan
    pickles with its network (rng state included): a recovered snapshot
    resumes the exact decision stream.
    """

    def __init__(self, rules: "FaultRule | Iterable[FaultRule]" = (), seed: int = 0) -> None:
        if isinstance(rules, FaultRule):
            rules = (rules,)
        self.rules: tuple[FaultRule, ...] = tuple(rules)
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise ValueError(f"expected FaultRule instances, got {rule!r}")
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._message_rules = tuple(
            rule for rule in self.rules if rule.kind in MESSAGE_FAULTS
        )
        self._host_rules = tuple(
            (index, rule)
            for index, rule in enumerate(self.rules)
            if rule.kind in HOST_FAULTS
        )
        #: Host rules fire once per plan instance; indices already fired.
        self._fired: set[int] = set()
        #: Monotone count of begin_round calls (spans round sessions), so
        #: a scheduled recovery survives a session boundary.
        self._clock = 0
        self._recoveries: list[tuple[int, HostId]] = []

    # -- delivery-time decisions ----------------------------------------- #
    def decide(
        self,
        network: "Network",
        round_index: int | None,
        src: HostId,
        dst: HostId,
        kind: "MessageKind",
    ) -> tuple[Any, ...] | None:
        """Decide one delivery: ``None`` (deliver normally), ``("drop",)``,
        ``("duplicate",)`` or ``("delay", rounds)``.

        ``round_index`` is the session-relative round (``None`` in
        immediate mode, where burst windows never match).
        """
        for rule in self._message_rules:
            if rule.window is not None:
                if round_index is None:
                    continue
                start, stop = rule.window
                if not start <= round_index < stop:
                    continue
            if rule.src is not None and rule.src != src:
                continue
            if rule.dst is not None and rule.dst != dst:
                continue
            if rule.message_kind is not None and rule.message_kind != kind.value:
                continue
            if rule.cluster is not None:
                topology = network.topology
                if topology is None:
                    continue
                if (
                    topology.cluster_of(src) != rule.cluster
                    and topology.cluster_of(dst) != rule.cluster
                ):
                    continue
            probability = rule.probability
            if probability <= 0.0:
                continue
            if probability < 1.0 and self._rng.random() >= probability:
                continue
            if rule.kind == "delay":
                return ("delay", rule.delay_rounds)
            return (rule.kind,)
        return None

    # -- round-start membership faults ----------------------------------- #
    def begin_round(self, network: "Network", round_index: int) -> None:
        """Apply due recoveries, then any host rules triggering this round."""
        clock = self._clock
        self._clock = clock + 1
        if self._recoveries:
            due = [host for when, host in self._recoveries if when <= clock]
            if due:
                self._recoveries = [
                    (when, host) for when, host in self._recoveries if when > clock
                ]
                for host in due:
                    if host in network and host in network.failed_hosts:
                        network.recover_host(host)
        for index, rule in self._host_rules:
            if index in self._fired or round_index < rule.at_round:
                continue
            self._fired.add(index)
            failed = inject_host_faults(network, self._pick_victims(network, rule))
            if rule.recover_after is not None:
                for host in failed:
                    self._recoveries.append((clock + rule.recover_after, host))

    def _pick_victims(self, network: "Network", rule: FaultRule) -> list[HostId]:
        alive = sorted(network.alive_host_ids())
        if rule.kind == "outage":
            topology = network.topology
            if topology is None:
                raise ValueError(
                    "an 'outage' rule needs a topology on the network to "
                    "define its cluster; install one via Cluster(topology=...)"
                )
            cluster = rule.cluster if rule.cluster is not None else 0
            victims = [host for host in alive if topology.cluster_of(host) == cluster]
            # Never take the whole network down: leave one host standing so
            # the surviving operations have somewhere to run.
            if len(victims) == len(alive) and victims:
                victims = victims[:-1]
            return victims
        if rule.host is not None:
            return [rule.host]
        count = min(rule.victims, max(0, len(alive) - 1))
        if count <= 0:
            return []
        return self._rng.sample(alive, count)

    # -- portability ------------------------------------------------------ #
    def describe(self) -> dict[str, Any]:
        """Portable JSON-able construction record (rules + seed).

        Like :meth:`repro.net.topology.Topology.describe`, this captures
        the plan's *construction*, not its consumed rng state — the
        durability layer journals it in the create record and refuses
        recovery on a mismatch; live rng state travels in snapshots via
        pickling.
        """
        return {
            "kind": "plan",
            "seed": self.seed,
            "rules": [rule.describe() for rule in self.rules],
        }

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, FaultPlan) and self.describe() == other.describe()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan(rules={self.rules!r}, seed={self.seed})"


#: Preset plan names accepted by :func:`resolve_faults` (and the CLI).
FAULT_NAMES = ("lossy", "flaky", "blackout")


def resolve_faults(
    spec: "str | FaultRule | Sequence[FaultRule] | FaultPlan | None",
    seed: int = 0,
) -> FaultPlan | None:
    """Resolve a faults argument: ``None``, a preset name, rule(s), or a plan.

    ``None`` stays ``None`` — the network's zero-overhead default, with
    delivery fast paths intact.  A preset name builds that named plan
    seeded from ``seed``; a rule or rule sequence is wrapped in a plan;
    a plan instance passes through.
    """
    if spec is None or isinstance(spec, FaultPlan):
        return spec
    if isinstance(spec, FaultRule):
        return FaultPlan((spec,), seed=seed)
    if isinstance(spec, str):
        if spec == "lossy":
            return FaultPlan((drop(0.05, message_kind="query"),), seed=seed)
        if spec == "flaky":
            return FaultPlan(
                (
                    drop(0.02, message_kind="query"),
                    duplicate(0.02),
                    delay(2, 0.02),
                ),
                seed=seed,
            )
        if spec == "blackout":
            return FaultPlan((crash(at_round=1, recover_after=4),), seed=seed)
        raise ValueError(
            f"unknown fault preset {spec!r}; expected one of {FAULT_NAMES}, "
            "a FaultRule, a sequence of rules, or a FaultPlan instance"
        )
    try:
        rules = tuple(spec)
    except TypeError:
        raise ValueError(f"cannot resolve faults from {spec!r}") from None
    return FaultPlan(rules, seed=seed)


def faults_from_config(config: "Mapping[str, Any] | None") -> FaultPlan | None:
    """Rebuild a fault plan from a journaled ``describe()`` dict.

    The inverse of :meth:`FaultPlan.describe` (``None`` means no plan).
    """
    if config is None:
        return None
    if config.get("kind") != "plan":
        raise ValueError(f"unknown fault config kind {config.get('kind')!r}")
    rules = tuple(rule_from_config(rule) for rule in config.get("rules", ()))
    return FaultPlan(rules, seed=config.get("seed", 0))
