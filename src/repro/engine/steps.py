"""Resumable step generators: the execution currency of the engine.

Every distributed operation in this package — a query descent, an insert,
a Chord lookup — is expressed *once*, as a Python generator that yields
:class:`Visit` and :class:`HopTo` effects whenever it wants to cross
hosts and receives a :class:`Resolution` telling it where it now runs and
whether the crossing cost a message.  The same generator can then be
driven two ways:

* :func:`run_immediate` resolves every effect synchronously against the
  network, one message per host crossing — this is the structure-level
  single-operation path used by ``structure.query(...)`` and friends;
* :class:`repro.engine.executor.BatchExecutor` interleaves many
  generators round by round over the network's queued delivery mode, so
  per-host per-round congestion is measured directly.

One walk at a time needs no scheduler: :func:`_drive` is the single
linear walk loop, parameterised by how one crossing is charged.
:func:`run_immediate` charges with ``network.send``; the executor's
lone operations and :class:`repro.engine.repair.RepairEngine` charge with
``network.deliver`` (one crossing, one closed round).

Generators do not talk to the network themselves for remote state; they
use a :class:`StepCursor` (``yield from cursor.visit(address)``) which
forwards the effect to whichever driver is in charge.  Local work between
effects is free, matching the paper's cost model, and that includes a
read of an address on the walk's current host: the query walks read such
an address themselves (:func:`read_local`, the same uncharged
``Network.load`` a driver would call) and yield a :class:`Visit` only
for a remote address, or for a local read that raised so the driver can
re-raise or handle the error exactly as it would for any visit.

The effect classes are deliberately *not* dataclasses: they are plain
``__slots__`` classes carrying an integer ``op`` class attribute
(:data:`OP_VISIT` / :data:`OP_HOP` / :data:`OP_FORK`), so drivers
dispatch on one integer compare instead of an ``isinstance`` ladder and
construction skips the dataclass ``__init__`` machinery.  This is the
ledger hot path: every message the benchmarks count flows through
:func:`_drive` or the executor's multi-operation scheduler.
"""

from __future__ import annotations

from typing import Any, Generator, Union

from repro.errors import ReproError
from repro.net.message import MessageKind
from repro.net.naming import Address, HostId

#: Integer opcodes for table-driven effect dispatch.  Stable public
#: constants: drivers compare ``effect.op`` against these instead of
#: running ``isinstance`` chains.
OP_VISIT = 0
OP_HOP = 1
OP_FORK = 2


class Visit:
    """Effect: dereference ``address``, moving the operation to its host.

    Resolves to the stored item.  Costs one message when the address lives
    on a different host than the operation's current position.
    """

    __slots__ = ("address",)
    op = OP_VISIT

    def __init__(self, address: Address) -> None:
        self.address = address

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Visit(address={self.address!r})"


class HopTo:
    """Effect: move the operation to ``host`` explicitly (one message if remote)."""

    __slots__ = ("host",)
    op = OP_HOP

    def __init__(self, host: HostId) -> None:
        self.host = host

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HopTo(host={self.host!r})"


class Fork:
    """Effect: split the operation into parallel sub-walks.

    ``branches`` are step generators; each starts at the operation's
    current host and is driven to completion by the driver.  Forking
    itself is free — only the host crossings the branches perform are
    charged, each billed to the forking operation.  Under
    :func:`run_immediate` the branches run back to back; under the
    :class:`~repro.engine.executor.BatchExecutor` each branch advances by
    at most one host crossing per round, so a fan-out of ``b`` lets one
    logical operation inject up to ``b`` messages into a round — exactly
    the concurrency the output-sensitive range queries rely on.

    The effect resolves to the tuple of branch return values (in branch
    order); the forking operation stays at the host it forked from.
    Branches are flat walks: a branch yielding a nested ``Fork`` is a
    programming error and raises ``TypeError`` under both drivers.
    """

    __slots__ = ("branches",)
    op = OP_FORK

    def __init__(self, branches: "tuple[StepGenerator, ...]") -> None:
        self.branches = branches

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Fork(branches={len(self.branches)})"


#: Effects a step generator may yield.
Step = Union[Visit, HopTo, Fork]


class Resolution:
    """What the driver hands back into the generator for one effect.

    ``host`` is where the operation executes after the effect,
    ``charged`` says whether a message was spent, and ``value`` is the
    dereferenced item for :class:`Visit` effects.
    ``cost`` is the link cost of the charged crossing — 1 for a charged
    hop unless the driver's network carries an explicit
    :class:`~repro.net.topology.Topology` pricing the link differently,
    0 when nothing was charged.
    """

    __slots__ = ("value", "host", "charged", "cost")

    def __init__(
        self, value: Any, host: HostId, charged: bool, cost: int | None = None
    ) -> None:
        self.value = value
        self.host = host
        self.charged = charged
        self.cost = (1 if charged else 0) if cost is None else cost

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Resolution(value={self.value!r}, host={self.host!r}, "
            f"charged={self.charged!r}, cost={self.cost!r})"
        )


#: A resumable distributed operation: yields effects, receives resolutions,
#: and returns its final result via ``StopIteration.value``.
StepGenerator = Generator[Step, Resolution, Any]


class StepCursor:
    """Generator-side bookkeeping of a step-driven traversal.

    Tracks the current host, hop count and visited path, and delegates
    the actual message charging to the driver through yielded effects, so
    the same routing code is honest under both immediate and round-based
    execution.
    """

    __slots__ = ("_current", "_hops", "_latency", "_path")

    def __init__(self, origin: HostId) -> None:
        self._current: HostId = origin
        self._hops = 0
        self._latency = 0
        self._path: list[HostId] = [origin]

    @property
    def current_host(self) -> HostId:
        """The host currently executing the operation."""
        return self._current

    @property
    def hops(self) -> int:
        """Number of messages charged so far to this operation."""
        return self._hops

    @property
    def latency(self) -> int:
        """Sum of link costs of the charged crossings (equals
        :attr:`hops` under the flat cost model)."""
        return self._latency

    @property
    def path(self) -> list[HostId]:
        """Sequence of hosts visited (consecutive duplicates collapsed).

        Returns a fresh copy on every access; hot callers should use
        :meth:`path_tuple` (one immutable snapshot) or
        :meth:`distinct_hosts` / :attr:`path_length` (no copy at all).
        """
        return list(self._path)

    def path_tuple(self) -> tuple[HostId, ...]:
        """The visited path as one immutable snapshot (single copy)."""
        return tuple(self._path)

    def distinct_hosts(self) -> int:
        """Number of distinct hosts visited, without copying the path."""
        return len(set(self._path))

    @property
    def path_length(self) -> int:
        """Length of the visited path, without copying it."""
        return len(self._path)

    def _absorb(self, resolution: Resolution) -> None:
        if resolution.charged:
            self._hops += 1
            self._latency += resolution.cost
        host = resolution.host
        if host != self._current:
            self._current = host
            self._path.append(host)

    def visit(self, address: Address) -> StepGenerator:
        """Dereference ``address`` through the driver; use as ``yield from``."""
        resolution = yield Visit(address)
        self._absorb(resolution)
        return resolution.value

    def hop_to(self, host: HostId) -> StepGenerator:
        """Move to ``host`` through the driver; use as ``yield from``."""
        resolution = yield HopTo(host)
        self._absorb(resolution)
        return None

    def fork(self, branches: "tuple[StepGenerator, ...] | list[StepGenerator]") -> StepGenerator:
        """Split into parallel sub-walks through the driver; use as ``yield from``.

        Returns the tuple of branch return values.  The fork itself is
        free and leaves the cursor at its current host — each branch
        tracks its own crossings (typically through a private
        :class:`StepCursor` seeded at ``self.current_host``).
        """
        resolution = yield Fork(tuple(branches))
        self._absorb(resolution)
        return resolution.value

    def hand_off(self, destination: HostId, origin: HostId) -> StepGenerator:
        """One record hand-off from ``origin``'s data to ``destination``.

        The billing idiom shared by every churn migration/repair
        generator: a cross-host hand-off costs one message, and when the
        cursor already sits at ``destination`` (consecutive hand-offs to
        the same host) a request leg back to ``origin`` is charged first —
        the pull half of the transfer — so repeated deliveries are never
        accidentally free.  The one genuinely free case is a hand-off
        that both originates and lands on the cursor's current host
        (``origin == destination == current``, e.g. a repair coordinator
        reconstructing a record for itself): that is local work, which
        the paper's cost model does not charge.
        """
        if self._current == destination:
            yield from self.hop_to(origin)
        yield from self.hop_to(destination)


def read_local(load, cursor: StepCursor, address: Address) -> Any:
    """Read ``address`` in place when it lives on the cursor's host.

    ``load`` is the network's uncharged dereference
    (:meth:`repro.net.network.Network.load`).  Returns the stored item,
    or ``None`` when the address is remote or the read raised; the
    walk then yields ``cursor.visit(address)``, so a failed read reaches
    the driver as an ordinary local :class:`Visit`, which re-reads and
    raises (or handles) the error the same way.  Stored records are
    never ``None``.
    """
    if address.host != cursor._current:
        return None
    try:
        return load(address)
    except ReproError:
        return None


def local_steps(value: Any) -> StepGenerator:
    """Wrap an already-local value as a zero-effect step generator.

    Structures whose ``seed_roots`` state lives on the origin host return
    it through this helper, keeping the protocol uniformly
    generator-based without each implementation repeating the
    unreachable-``yield`` idiom.
    """
    return value
    yield  # pragma: no cover - intentionally unreachable: makes this a generator


def run_immediate(
    network,
    gen: StepGenerator,
    origin: HostId,
    kind: MessageKind = MessageKind.QUERY,
) -> Any:
    """Drive a step generator to completion synchronously.

    Every cross-host effect is charged one message on the spot through
    :meth:`repro.net.network.Network.send`.  A
    :class:`Fork` effect drives each branch to completion (back to back,
    every branch starting at the fork host) and resolves to the tuple of
    branch results — the same billing the round-based executor applies,
    so immediate and batched totals match.
    """
    return _drive(network, network.send, gen, origin, kind, allow_fork=True)


def _drive(
    network,
    charge,
    gen: StepGenerator,
    current: HostId,
    kind: MessageKind,
    allow_fork: bool,
    resolution: Resolution | None = None,
) -> Any:
    """The one linear walk loop: run ``gen`` to completion from ``current``.

    ``charge(src, dst, kind)`` pays for one host crossing before the walk
    moves: :meth:`~repro.net.network.Network.send` under
    :func:`run_immediate`, :meth:`~repro.net.network.Network.deliver`
    (one crossing, one round) for the executor's lone operations and for
    repair.  ``resolution``, when given, answers an effect the caller
    already took off ``gen`` and resumes the walk from there.
    """
    # Flattened table-driven loop: one integer compare per effect, network
    # entry points bound once, and consecutive same-host resolutions never
    # re-enter the network layer (a local HopTo touches nothing at all; a
    # local Visit pays only the dereference).
    load = network.load
    advance = gen.send
    # Bound once: None keeps the flat fast path (Resolution defaults its
    # charged cost to 1); an explicit topology prices each crossing.
    topology = network.topology
    try:
        effect = next(gen) if resolution is None else advance(resolution)
        while True:
            op = effect.op
            if op == OP_VISIT:
                target = effect.address.host
                if target != current:
                    charge(current, target, kind)
                    if topology is None:
                        resolution = Resolution(load(effect.address), target, True)
                    else:
                        resolution = Resolution(
                            load(effect.address),
                            target,
                            True,
                            topology.link_cost(current, target),
                        )
                    current = target
                    effect = advance(resolution)
                else:
                    effect = advance(Resolution(load(effect.address), current, False))
            elif op == OP_HOP:
                target = effect.host
                if target != current:
                    charge(current, target, kind)
                    if topology is None:
                        resolution = Resolution(None, target, True)
                    else:
                        resolution = Resolution(
                            None, target, True, topology.link_cost(current, target)
                        )
                    current = target
                    effect = advance(resolution)
                else:
                    effect = advance(Resolution(None, current, False))
            elif op == OP_FORK:
                if not allow_fork:
                    raise TypeError(
                        "nested Fork effects are not supported "
                        "(nor a Fork in a search, update or repair walk)"
                    )
                value = tuple(
                    _drive(network, charge, branch, current, kind, allow_fork=False)
                    for branch in effect.branches
                )
                effect = advance(Resolution(value, current, False))
            else:  # pragma: no cover - defensive
                raise TypeError(f"step generator yielded a non-effect: {effect!r}")
    except StopIteration as stop:
        return stop.value
