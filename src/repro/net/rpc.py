"""Traversal helpers: walking distributed structures honestly.

Every distributed structure in this package searches by following
pointers (addresses).  Whether a pointer dereference costs a message
depends only on whether the pointer crosses hosts.  Writing that charging
logic by hand in every structure invites mistakes, so structures use a
:class:`Traversal` cursor instead:

* the cursor remembers the host currently executing the search,
* :meth:`Traversal.visit` dereferences an address, charging exactly one
  message when the address lives on a different host, and moves the
  cursor there,
* :meth:`Traversal.peek` dereferences without moving (used by
  neighbour-of-neighbour routing, where a host *stores copies of* its
  neighbours' pointers and therefore consults them locally).

:class:`RemoteRef` is a tiny convenience wrapper pairing an address with
the network, for structures that want attribute-style dereferencing.
"""

from __future__ import annotations

from typing import Any

from repro.net.message import MessageKind
from repro.net.naming import Address, HostId


class Traversal:
    """A cursor over the network that charges messages for host crossings.

    Parameters
    ----------
    network:
        The :class:`repro.net.network.Network` to account against.
    origin:
        Host where the operation starts (the paper assumes every host has
        a local "root" pointer from which its searches begin).
    kind:
        The :class:`MessageKind` to charge hops under; queries and updates
        use different kinds so ``Q(n)`` and ``U(n)`` can be measured
        independently.
    """

    def __init__(
        self,
        network,
        origin: HostId,
        kind: MessageKind = MessageKind.QUERY,
    ) -> None:
        self._network = network
        self._current: HostId = origin
        self._kind = kind
        self._hops = 0
        self._path: list[HostId] = [origin]

    @property
    def current_host(self) -> HostId:
        """The host currently executing the operation."""
        return self._current

    @property
    def hops(self) -> int:
        """Number of messages charged so far by this traversal."""
        return self._hops

    @property
    def path(self) -> list[HostId]:
        """Sequence of hosts visited (consecutive duplicates collapsed)."""
        return list(self._path)

    def visit(self, address: Address) -> Any:
        """Dereference ``address``, moving the cursor to its host.

        Charges one message when the address is on a different host than
        the cursor's current position; local dereferences are free.
        """
        if address.host != self._current:
            self._network.send(self._current, address.host, kind=self._kind)
            self._hops += 1
            self._current = address.host
            self._path.append(address.host)
        return self._network.load(address)

    def peek(self, address: Address) -> Any:
        """Dereference ``address`` without moving and without charging.

        Only correct when the caller holds a *local copy* of the data at
        ``address`` (e.g. neighbour-of-neighbour tables, §1.2) or when the
        address is local; the structures document which case applies.
        """
        return self._network.load(address)

    def hop_to(self, host: HostId) -> None:
        """Move the cursor to ``host`` explicitly, charging one message if remote."""
        if host != self._current:
            self._network.send(self._current, host, kind=self._kind)
            self._hops += 1
            self._current = host
            self._path.append(host)

    def reply_to(self, host: HostId) -> None:
        """Send a final answer back to ``host`` (one message if remote).

        Query benchmarks in the paper count only the forward routing path,
        so structures call this only when a caller explicitly asks for the
        answer to be returned to the originator.
        """
        self.hop_to(host)


class RemoteRef:
    """An address bound to its network, dereferencable on demand.

    ``RemoteRef`` does *not* charge messages — it is a convenience for
    construction-time code and tests.  Runtime search paths must go
    through :class:`Traversal`.
    """

    __slots__ = ("_network", "address")

    def __init__(self, network, address: Address) -> None:
        self._network = network
        self.address = address

    def get(self) -> Any:
        """Return the referenced item."""
        return self._network.load(self.address)

    @property
    def host(self) -> HostId:
        return self.address.host

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteRef({self.address!r})"
