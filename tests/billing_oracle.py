"""Which hosts an operation wrote, read off the hosts themselves: a test oracle.

An operation's *write set* is the hosts whose stored items differ after
it.  :func:`host_contents` snapshots every host as the pickled bytes of
its ``(address, item)`` pairs, and :func:`changed_hosts` compares two
snapshots.  Nothing here reuses the code under test: hosts are read only
through ``Network.hosts()`` and ``Host.items()``, and a host's content is
what ``pickle`` makes of it, not what the structure says changed.  A
host whose records the update leaves untouched keeps their object
graphs, so its bytes do not move; a rewired record's host's do.

The tests compare the write set with the hosts the operation billed
(``Network.measure().hosts_touched``, plus the origin host, which holds
state the operation may change without sending a message).
"""

from __future__ import annotations

import pickle
from typing import Any


def host_contents(network: Any) -> dict[Any, bytes]:
    """host id -> its pickled ``(address, item)`` pairs, for every registered host."""
    return {
        host.host_id: pickle.dumps(list(host.items()), protocol=pickle.HIGHEST_PROTOCOL)
        for host in network.hosts()
    }


def changed_hosts(before: dict, after: dict) -> set:
    """Hosts whose slots or stored bytes differ between two snapshots."""
    return {
        host_id
        for host_id in before.keys() | after.keys()
        if before.get(host_id) != after.get(host_id)
    }
