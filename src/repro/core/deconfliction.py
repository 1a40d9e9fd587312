"""Deconfliction strategies (Section 4.3, Figure 5).

When a Speculative Reconvergence barrier conflicts with a compiler-inserted
PDOM barrier, threads may end up waiting for each other at two different
points — in this simulator that is an actual cross-barrier deadlock (see
``tests/test_deconfliction.py``). Two remedies:

* **static** — delete every operation of the conflicting PDOM barrier
  (Figure 5b). Cheapest at runtime, but if the predicted convergence point
  is rarely entered, the program loses its original reconvergence.
* **dynamic** — keep everything; threads about to wait on the SR barrier
  first withdraw from the conflicting barrier (Figure 5c), removing the
  conflict only on executions that actually reach the convergence point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.conflicts import ConflictAnalysis, Conflict, literal_barriers
from repro.core.joined_barriers import JoinedBarriers
from repro.core.primitives import barrier_name_of, cancel_barrier, is_wait
from repro.errors import DeconflictionError
from repro.ir.instructions import BARRIER_OPS, FuncRef, Opcode

ORIGIN = "deconflict"

STATIC = "static"
DYNAMIC = "dynamic"


@dataclass
class DeconflictionReport:
    strategy: str = DYNAMIC
    conflicts: list = field(default_factory=list)       # Conflict records
    removed_barriers: list = field(default_factory=list)
    cancels_inserted: list = field(default_factory=list)  # (block, barrier)

    def describe(self):
        if not self.conflicts:
            return "no conflicts"
        lines = [f"strategy={self.strategy}"]
        lines += [c.describe() for c in self.conflicts]
        return "; ".join(lines)


def remove_barrier_ops(function, barrier):
    """Delete every op referencing ``barrier`` (static deconfliction)."""
    removed = 0
    for block in function.blocks:
        kept = []
        for instr in block.instructions:
            if (
                instr.opcode in BARRIER_OPS
                and barrier_name_of(instr) == barrier
            ):
                removed += 1
                continue
            kept.append(instr)
        block.instructions = kept
    return removed


def _insert_cancels_before_waits(function, sr_barrier, victim, report):
    """Dynamic deconfliction: withdraw from ``victim`` before each wait on
    ``sr_barrier`` (Figure 5c)."""
    for block in function.blocks:
        index = 0
        while index < len(block.instructions):
            instr = block.instructions[index]
            if is_wait(instr) and barrier_name_of(instr) == sr_barrier:
                previous = block.instructions[index - 1] if index else None
                already = (
                    previous is not None
                    and previous.opcode.value == "bbreak"
                    and barrier_name_of(previous) == victim
                )
                if not already:
                    block.insert(index, cancel_barrier(victim, ORIGIN))
                    report.cancels_inserted.append((block.name, victim))
                    index += 1
            index += 1


def _call_sites(function, callee):
    """(block, index) of each direct call to ``callee`` in ``function``."""
    sites = []
    for block in function.blocks:
        for index, instr in enumerate(block.instructions):
            if (
                instr.opcode is Opcode.CALL
                and instr.operands
                and isinstance(instr.operands[0], FuncRef)
                and instr.operands[0].name == callee
            ):
                sites.append((block, index))
    return sites


def deconflict_interprocedural(
    function, barrier, callee, exit_barrier=None, strategy=DYNAMIC
):
    """Resolve conflicts with a *soft* interprocedural SR barrier.

    ``barrier``'s wait sits at ``callee``'s entry, so the intra-function
    conflict analysis never sees it — its caller-side joined range is not
    truncated at the wait and every overlap looks inclusive. Dynamically
    the call instruction *is* the wait point: a thread parks inside the
    callee while still a member of every barrier joined at the call site.
    With a soft threshold that deadlocks — the parked pool can sit under
    threshold while the members needed to reach it (or to trigger the
    parked == members escape, which they defeat by rejoining after their
    own release) are parked behind a conflicting barrier's wait.

    The remedy mirrors Figure 5c with the call site standing in for the
    wait: withdraw from every barrier still joined at a call to ``callee``
    immediately before the call (dynamic), or delete the victim's ops
    (static). Hard interprocedural waits are left untouched: every member
    either returns to a call site or withdraws through the region-exit
    cancels, so parked == members always fires — the paper's observation
    that the Figure 2(c) pattern "does not conflict with the compiler
    inserted reconvergence point". ``exit_barrier`` (the same prediction's
    region-exit barrier) is exempt for the same reason: the region-exit
    cancels keep the SR membership inside the region.
    """
    if strategy not in (STATIC, DYNAMIC):
        raise DeconflictionError(f"unknown deconfliction strategy {strategy!r}")
    report = DeconflictionReport(strategy=strategy)
    joined = JoinedBarriers(function)
    exempt = {barrier, exit_barrier}
    victims = []
    shared_counts = {}
    for block, index in _call_sites(function, callee):
        for name in joined.joined_before(block, index):
            if name in exempt:
                continue
            shared_counts[name] = shared_counts.get(name, 0) + 1
            if name not in victims:
                victims.append(name)
    # First-use order keeps the inserted cancel sequence deterministic.
    order = {name: i for i, name in enumerate(literal_barriers(function))}
    victims.sort(key=lambda name: order.get(name, len(order)))
    for victim in victims:
        report.conflicts.append(
            Conflict(
                first=barrier,
                second=victim,
                shared_points=shared_counts[victim],
                only_first=1,  # the callee-side wait, outside this function
                only_second=len(joined.joined_points(victim))
                - shared_counts[victim],
            )
        )
    if not victims:
        return report
    if strategy == STATIC:
        for victim in victims:
            removed = remove_barrier_ops(function, victim)
            if removed:
                report.removed_barriers.append(victim)
        return report
    for block in function.blocks:
        index = 0
        while index < len(block.instructions):
            instr = block.instructions[index]
            if (
                instr.opcode is Opcode.CALL
                and instr.operands
                and isinstance(instr.operands[0], FuncRef)
                and instr.operands[0].name == callee
            ):
                here = joined.joined_before(block, index)
                for victim in victims:
                    if victim not in here:
                        continue
                    block.insert(index, cancel_barrier(victim, ORIGIN))
                    report.cancels_inserted.append((block.name, victim))
                    index += 1
            index += 1
    return report


def deconflict(function, sr_barriers, strategy=DYNAMIC):
    """Resolve conflicts between SR barriers and any other barriers.

    Args:
        sr_barriers: barrier names inserted by the SR pass (they have
            priority: "user-specified convergence hints should receive
            priority over any standard GPU convergence synchronization").
        strategy: ``"static"`` or ``"dynamic"``.
    Returns a :class:`DeconflictionReport`.
    """
    if strategy not in (STATIC, DYNAMIC):
        raise DeconflictionError(f"unknown deconfliction strategy {strategy!r}")
    report = DeconflictionReport(strategy=strategy)
    analysis = ConflictAnalysis(function)
    relevant = [
        c for c in analysis.conflicts if any(c.involves(b) for b in sr_barriers)
    ]
    report.conflicts = relevant
    for conflict in relevant:
        sr_side = conflict.first if conflict.first in sr_barriers else conflict.second
        victim = conflict.other(sr_side)
        if victim in sr_barriers:
            # Two user predictions conflict with each other: dynamic
            # deconfliction still applies (Section 6, "multiple concurrent
            # predictions ... can be supported using deconfliction").
            _insert_cancels_before_waits(function, sr_side, victim, report)
            continue
        if strategy == STATIC:
            removed = remove_barrier_ops(function, victim)
            if removed:
                report.removed_barriers.append(victim)
        else:
            _insert_cancels_before_waits(function, sr_side, victim, report)
    return report
