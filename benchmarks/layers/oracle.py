"""Answer oracles: every answer the benchmark times is checked against these.

Both oracles are trivial models — a sorted list with ``bisect`` for the
one-dimensional structures, a brute-force scan of the live point set for
the quadtree — and share no code with the program under test.  Answers
arrive as plain values (the drivers unpack handles and JSON bodies), so
the same oracle checks the library and the server.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any


@dataclass
class Tally:
    """Attempted / failed operation counts and the messages they were billed."""

    attempted: int = 0
    failed: int = 0
    messages: int = 0

    def record(self, correct: bool, messages: int = 0) -> None:
        self.attempted += 1
        self.messages += messages
        if not correct:
            self.failed += 1

    @property
    def correct(self) -> int:
        return self.attempted - self.failed


class SortedOracle:
    """Sorted-list model of a one-dimensional structure."""

    def __init__(self, keys: list[float]) -> None:
        self.keys = sorted(keys)

    def check(self, kind: str, payload: Any, answer: Any) -> bool:
        """Whether ``answer`` is right; an ``insert`` / ``delete`` is applied."""
        keys = self.keys
        if kind == "search":
            # answer = (predecessor, successor, exact)
            index = bisect.bisect_left(keys, payload)
            if index < len(keys) and keys[index] == payload:
                return tuple(answer) == (payload, payload, True)
            below = keys[index - 1] if index > 0 else None
            above = keys[index] if index < len(keys) else None
            return tuple(answer) == (below, above, False)
        if kind == "range":
            low, high = payload
            expected = keys[bisect.bisect_left(keys, low) : bisect.bisect_right(keys, high)]
            return sorted(answer) == expected
        index = bisect.bisect_left(keys, payload)
        stored = index < len(keys) and keys[index] == payload
        if kind == "insert":
            if stored:
                return False
            keys.insert(index, payload)
            return True
        if kind == "delete":
            if not stored:
                return False
            del keys[index]
            return True
        raise ValueError(f"unknown operation kind {kind!r}")

    def items(self) -> list[float]:
        return list(self.keys)


class PointOracle:
    """Brute-force model of the quadtree's live point set."""

    def __init__(self, points: list[tuple[float, ...]]) -> None:
        self.points = set(points)

    def check(self, kind: str, payload: Any, answer: Any) -> bool:
        points = self.points
        if kind == "search":
            # answer = (cell lower corner, cell side, points the cell reports)
            lower, side, reported = answer
            upper = tuple(low + side for low in lower)
            if not _inside(payload, lower, upper, closed=True):
                return False
            reported = set(reported)
            if not reported <= points:
                return False
            if not all(_inside(point, lower, upper, closed=True) for point in reported):
                return False
            # Every live point strictly inside the cell must be reported; a
            # point exactly on a far face may belong to the neighbour cell.
            return all(
                point in reported
                for point in points
                if _inside(point, lower, upper, closed=False)
            )
        if kind == "range":
            lower, upper = payload
            expected = [p for p in points if _inside(p, lower, upper, closed=True)]
            return sorted(answer) == sorted(expected)
        if kind == "insert":
            if payload in points:
                return False
            points.add(payload)
            return True
        if kind == "delete":
            if payload not in points:
                return False
            points.remove(payload)
            return True
        raise ValueError(f"unknown operation kind {kind!r}")

    def items(self) -> list[tuple[float, ...]]:
        return sorted(self.points)


def _inside(point: Any, lower: Any, upper: Any, closed: bool) -> bool:
    for coordinate, low, high in zip(point, lower, upper):
        if coordinate < low or coordinate > high or (not closed and coordinate == high):
            return False
    return True


def self_check() -> None:
    """Hand the checkers one corrupted answer each and insist it is counted."""
    tally = Tally()
    sorted_oracle = SortedOracle([1.0, 2.0, 3.0])
    tally.record(sorted_oracle.check("search", 2.5, (2.0, 3.0, False)))
    tally.record(sorted_oracle.check("search", 2.5, (1.0, 3.0, False)))  # wrong predecessor
    tally.record(sorted_oracle.check("range", (1.5, 3.0), [2.0]))  # 3.0 missing
    stored = [(0.1, 0.1), (0.3, 0.3)]
    point_oracle = PointOracle(stored)
    tally.record(point_oracle.check("search", (0.2, 0.2), ((0.0, 0.0), 0.5, stored)))
    tally.record(point_oracle.check("search", (0.2, 0.2), ((0.0, 0.0), 0.5, stored[:1])))
    if (tally.attempted, tally.failed) != (5, 3):
        raise AssertionError(
            f"oracle self-check: expected 3 of 5 corrupted answers counted, got "
            f"{tally.failed} of {tally.attempted}"
        )
