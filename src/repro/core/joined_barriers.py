"""Joined Barrier Analysis (Section 4.2.1, Equation 1).

A barrier is *joined* at a program point P if at least one path from the
program start to P contains a ``JoinBarrier`` (BSSY) not followed by a
``WaitBarrier`` (BSYNC). Forward may-analysis:

    Gen(BB)  = JoinBarrier        Kill(BB) = WaitBarrier
    IN(BB)   = ∪ OUT(p), p ∈ preds(BB)
    OUT(BB)  = (IN(BB) − Kill(BB)) ∪ Gen(BB)

``CancelBarrier`` (BREAK) also clears membership, so it kills too; the
paper's equations omit cancels only because they are not yet inserted when
the analysis first runs. Program points are ``(block, index)`` pairs
meaning "immediately before instruction ``index``"; ``index == len(block)``
is the block's end.
"""

from __future__ import annotations

from repro.analysis.cfg_utils import CFGView
from repro.analysis.dataflow import solve_forward
from repro.core.primitives import barrier_name_of, is_cancel, is_join, is_wait


def _block_effects(block):
    """(gen, kill) of one block under forward joined semantics."""
    gen, kill = set(), set()
    for instr in block:
        if is_join(instr):
            name = barrier_name_of(instr)
            if name is not None:
                gen.add(name)
                kill.discard(name)
        elif is_wait(instr) or is_cancel(instr):
            name = barrier_name_of(instr)
            if name is not None:
                kill.add(name)
                gen.discard(name)
    return gen, kill


class JoinedBarriers:
    """Joined-barrier facts for one function."""

    def __init__(self, function):
        self.function = function
        view = CFGView.of_function(function)
        gen, kill = {}, {}
        for block in function.blocks:
            gen[block.name], kill[block.name] = _block_effects(block)
        self._result = solve_forward(view, gen, kill)

    def joined_in(self, block_name):
        """Barriers that may be joined at block entry."""
        return self._result.in_of(block_name)

    def joined_out(self, block_name):
        """Barriers that may be joined at block exit."""
        return self._result.out_of(block_name)

    def joined_before(self, block, index):
        """Barriers that may be joined immediately before instruction ``index``."""
        live = set(self.joined_in(block.name))
        for instr in block.instructions[:index]:
            if is_join(instr):
                name = barrier_name_of(instr)
                if name is not None:
                    live.add(name)
            elif is_wait(instr) or is_cancel(instr):
                name = barrier_name_of(instr)
                if name is not None:
                    live.discard(name)
        return frozenset(live)

    def joined_points(self, barrier):
        """All program points where ``barrier`` may be joined.

        Returns a set of (block_name, index) "before instruction" points,
        used by the conflict analysis of Section 4.3 (a live range "extends
        from the moment threads join the barrier until the barrier is
        cleared by waiting or exiting threads").
        """
        return self.joined_points_of([barrier])[barrier]

    def joined_points_of(self, barriers):
        """:meth:`joined_points` of every name in ``barriers`` from one
        walk of the function: name -> set of points."""
        points = {name: set() for name in barriers}
        if not points:
            return points
        for block in self.function.blocks:
            joined = {name for name in self.joined_in(block.name) if name in points}
            for index, instr in enumerate(block.instructions):
                for name in joined:
                    points[name].add((block.name, index))
                if is_join(instr):
                    name = barrier_name_of(instr)
                    if name in points:
                        joined.add(name)
                elif is_wait(instr) or is_cancel(instr):
                    joined.discard(barrier_name_of(instr))
            for name in joined:
                points[name].add((block.name, len(block.instructions)))
        return points
