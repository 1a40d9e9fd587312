"""Barrier register allocation.

Volta exposes 16 convergence-barrier registers (B0–B15). The passes above
work with unlimited abstract barrier names; this pass maps them onto
physical registers by graph coloring: two barriers interfere when their
joined live ranges overlap at any program point, in which case they must
not share a register.

Raises :class:`repro.errors.AllocationError` when a function genuinely
needs more than 16 simultaneously-live barriers.
"""

from __future__ import annotations

from repro.core.conflicts import ConflictAnalysis, literal_barriers
from repro.errors import AllocationError
from repro.ir.instructions import BARRIER_OPS, Barrier, Opcode

PHYSICAL_BARRIERS = 16


def color_barriers(function, analysis=None, limit=PHYSICAL_BARRIERS):
    """Compute barrier -> physical register name mapping ("B0".."B15")."""
    analysis = analysis or ConflictAnalysis(function)
    names = literal_barriers(function)
    assignment = {}
    for name in names:  # first-use order: deterministic
        taken = {
            assignment[other]
            for other in names
            if other in assignment and analysis.interferes(name, other)
        }
        for color in range(limit):
            physical = f"B{color}"
            if physical not in taken:
                assignment[name] = physical
                break
        else:
            raise AllocationError(
                f"@{function.name}: needs more than {limit} simultaneous "
                f"convergence barriers (allocating {name})"
            )
    return assignment


def apply_allocation(function, assignment):
    """Rewrite literal barrier operands to their physical names."""
    for block in function.blocks:
        for instr in block.instructions:
            if instr.opcode in BARRIER_OPS or instr.opcode is Opcode.BMOV:
                if instr.operands and isinstance(instr.operands[0], Barrier):
                    abstract = instr.operands[0].name
                    if abstract in assignment:
                        instr.operands[0] = Barrier(assignment[abstract])
    function.attrs["barrier_allocation"] = dict(assignment)
    return assignment


def allocate_barriers(function, limit=PHYSICAL_BARRIERS, reserved=None):
    """Color and rewrite in one step; returns the mapping used.

    ``reserved`` pre-assigns abstract names to physical registers (used for
    barriers that span functions — see :func:`allocate_module`).
    """
    names = literal_barriers(function)
    # Coloring only asks whether two of the function's own barriers
    # interfere; most functions have fewer than two and skip the
    # joined-barrier dataflow.
    analysis = ConflictAnalysis(function) if len(names) > 1 else None
    assignment = dict(reserved or {})
    pinned = set(assignment.values())
    for name in names:
        if name in assignment:
            continue
        taken = set(pinned)
        taken.update(
            assignment[other]
            for other in names
            if other in assignment and analysis.interferes(name, other)
        )
        for color in range(limit):
            physical = f"B{color}"
            if physical not in taken:
                assignment[name] = physical
                break
        else:
            raise AllocationError(
                f"@{function.name}: needs more than {limit} simultaneous "
                f"convergence barriers (allocating {name})"
            )
    return apply_allocation(function, assignment)


def allocate_module(module, limit=PHYSICAL_BARRIERS):
    """Allocate all functions consistently.

    Barriers referenced from more than one function (interprocedural SR,
    Section 4.4) must land on the same physical register everywhere; they
    are pinned first, from B15 downward, then each function colors its
    local barriers around the pinned set.
    """
    uses = {}
    for function in module:
        for name in literal_barriers(function):
            uses.setdefault(name, set()).add(function.name)
    shared = sorted(name for name, fns in uses.items() if len(fns) > 1)
    reserved = {}
    next_high = limit - 1
    for name in shared:
        if next_high < 0:
            raise AllocationError(
                f"more than {limit} cross-function barriers ({shared})"
            )
        reserved[name] = f"B{next_high}"
        next_high -= 1
    assignments = {}
    for function in module:
        local_reserved = {
            name: phys
            for name, phys in reserved.items()
            if function.name in uses.get(name, set())
        }
        assignments[function.name] = allocate_barriers(
            function, limit=limit, reserved=local_reserved
        )
    return assignments
