"""Barrier conflict analysis (Section 4.3).

"Two barriers are said to be conflicting if their live ranges overlap in a
non-inclusive manner, i.e. neither one is a complete subset of the other.
If a region has conflicting barriers, threads may wait for each other at
two different places within the region resulting in unpredictable
behavior."

A barrier's live range "extends from the moment threads join the barrier
until the barrier is cleared either by waiting or exiting threads" — the
*joined* interval of Equation 1, computed at instruction granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.joined_barriers import JoinedBarriers
from repro.ir.instructions import BARRIER_OPS, Barrier


@dataclass(frozen=True)
class Conflict:
    """A non-inclusive overlap between two barriers' live ranges."""

    first: str
    second: str
    shared_points: int
    only_first: int
    only_second: int

    def involves(self, barrier):
        return barrier in (self.first, self.second)

    def other(self, barrier):
        if barrier == self.first:
            return self.second
        if barrier == self.second:
            return self.first
        raise ValueError(f"{barrier} not part of this conflict")

    def describe(self):
        return (
            f"{self.first} x {self.second}: share {self.shared_points} "
            f"points, exclusive {self.only_first}/{self.only_second}"
        )


def literal_barriers(function):
    """All literal barrier names referenced by barrier ops, in first-use order."""
    seen = {}
    for block in function.blocks:
        for instr in block.instructions:
            if instr.opcode in BARRIER_OPS and instr.operands:
                operand = instr.operands[0]
                if isinstance(operand, Barrier):
                    seen.setdefault(operand.name)
    return list(seen)


class ConflictAnalysis:
    """Pairwise live-range conflicts among a function's barriers."""

    def __init__(self, function, joined=None):
        self.function = function
        self.joined = joined or JoinedBarriers(function)
        self.barriers = literal_barriers(function)
        self._ranges = self.joined.joined_points_of(self.barriers)
        self.conflicts = self._find_conflicts()

    def live_range(self, barrier):
        return self._ranges.get(barrier, set())

    def _find_conflicts(self):
        conflicts = []
        for i, a in enumerate(self.barriers):
            for b in self.barriers[i + 1 :]:
                ra, rb = self._ranges[a], self._ranges[b]
                shared = ra & rb
                if not shared:
                    continue
                only_a = ra - rb
                only_b = rb - ra
                if only_a and only_b:
                    conflicts.append(
                        Conflict(
                            first=a,
                            second=b,
                            shared_points=len(shared),
                            only_first=len(only_a),
                            only_second=len(only_b),
                        )
                    )
        return conflicts

    def conflicts_with(self, barrier):
        """Barriers conflicting with ``barrier``."""
        return [c.other(barrier) for c in self.conflicts if c.involves(barrier)]

    def interferes(self, a, b):
        """True when the two barriers' ranges overlap at all (for the
        allocation pass: overlapping barriers need distinct registers)."""
        return bool(self._ranges.get(a, set()) & self._ranges.get(b, set()))
