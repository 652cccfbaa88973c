"""Switch the query walks' in-place reads off, for twin comparisons.

The query and range walks read an address on their own host in place
(:func:`repro.engine.steps.read_local`) and yield a ``Visit`` effect
only for a remote address.  :func:`driver_reads` patches that read out,
so every dereference goes through the driver as a ``Visit`` again; a
test runs the same workload with and without it and compares every
observable number.
"""

from __future__ import annotations


def driver_reads(monkeypatch) -> None:
    """Make the query walks yield a ``Visit`` for every read, local ones too."""
    from repro.core import query, range_query

    def never(load, cursor, address):
        return None

    monkeypatch.setattr(query, "read_local", never)
    monkeypatch.setattr(range_query, "read_local", never)
