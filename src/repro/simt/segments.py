"""Segment-fused execution: straight-line superinstructions for converged warps.

The fast path (:mod:`repro.simt.fastpath`) removes per-issue *decode* cost,
but a converged warp still pays the full machine loop — scheduler pick,
release drain, profiler record, groups-cache patch — for every single
instruction of a straight-line run. Profiling the Table 2 corpus shows that
per-slot loop overhead, not instruction semantics, dominates runtime.

This module fuses each maximal straight-line **segment** of a basic block
into one superinstruction. A segment is a run of instructions that cannot
park, release, diverge, call, exit, or emit per-lane observability events
(``FUSABLE_OPS``); executing one therefore cannot change the warp's group
structure or barrier state mid-run, so the machine may legally charge the
whole run in one step. Each segment is compiled to specialized Python
when it is built (:mod:`repro.simt.jit`): register-pure runs execute
thread-major with a single frame index write per thread, while memory
operations and the terminating branch run instruction-major through their
existing decoded handlers, preserving lane-ordered memory semantics and
dynamic coalescing costs bit-for-bit. A run codegen vetoes is simply not
fused.

Fusion runs the segment that starts at the scheduler's pick when no other
group could merge into the segment's interior (``Segment.conflicts``): the
pick then stays the same for the whole run (``SchedulerBase.pick``). A
policy with state shared across slots (round-robin) fuses lone groups
only. Fusion happens only on a warp nothing can interleave with: the last
live warp, or any warp of a launch whose warps run independently
(``GPUMachine``).
Anything else — an attached sink, stall metrics, an issue trace, a
disabled fastpath, several interleaved live warps — falls back to
per-instruction issue with identical results. ``REPRO_SEGMENTS=0`` (or
``engine_config(segments=False)``, :mod:`repro.engine`) turns fusion off;
the conformance suite pins segments-on against segments-off over the full
corpus.
"""

from __future__ import annotations

from repro.ir.instructions import Opcode
from repro.simt import jit as _jit
from repro.simt.executor import _UNIFORM_OPS

__all__ = [
    "FUSABLE_OPS",
    "Segment",
    "SegmentTable",
]

#: Opcodes legal inside a segment. Uniform ops keep the group intact and
#: cannot park/exit/release; CALL is excluded because it pushes a frame
#: (the callee's blocks issue at different PCs, ending the straight line).
FUSABLE_OPS = _UNIFORM_OPS - {Opcode.CALL}


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------
class Segment:
    """One fused straight-line run of ``n`` instructions at one PC.

    ``fn`` is its compiled function (:func:`repro.simt.jit.lower_segment`);
    ``end_pc`` is where every thread of the group sits after execution.
    """

    __slots__ = ("fname", "bname", "start", "n", "end_pc", "opcode_counts",
                 "fn", "__weakref__")

    def __init__(self, fname, bname, start, entries):
        self.fname = fname
        self.bname = bname
        self.start = start
        self.n = len(entries)
        self.fn = None

        last = entries[-1]
        if last.opcode is Opcode.BRA:
            self.end_pc = (fname, last.instr.operands[0].name, 0)
        else:
            self.end_pc = (fname, bname, start + self.n)

        counts = {}
        for entry in entries:
            counts[entry.opcode] = counts.get(entry.opcode, 0) + 1
        self.opcode_counts = tuple(counts.items())

    def execute(self, executor, warp, group):
        """Apply the whole segment to ``group``; returns total cycles."""
        fn = self.fn
        _jit.LAST_EXECUTED = fn
        return fn(executor, warp, group)

    def conflicts(self, groups):
        """True if another group sits strictly inside this segment's range.

        The slow path would merge that group with the fused one mid-run
        (uniform carry-over lands on an already-populated PC); fusing past
        the merge point would charge the merged lanes' issues separately.
        A group exactly at ``end_pc`` is fine — the machine's carry-over
        patch merges there, as the slow path would.
        """
        fname = self.fname
        bname = self.bname
        start = self.start
        end = start + self.n
        for pc in groups:
            if pc[0] == fname and pc[1] == bname and start < pc[2] < end:
                return True
        return False

    def __repr__(self):
        return (
            f"<Segment @{self.fname}/{self.bname}:{self.start} "
            f"n={self.n} -> {self.end_pc}>"
        )


#: Cache sentinel for "no segment starts at this index".
_NO_SEGMENT = object()


class SegmentTable:
    """Per-block segment lookup: ``at(index)`` -> Segment or None.

    Segments are maximal: ``at(i)`` covers from ``i`` to the end of the
    fusable run containing ``i`` (a warp can enter a run mid-way, e.g. the
    resume point after a barrier release). Runs shorter than two
    instructions are not worth a fused dispatch, and runs codegen vetoes
    cannot be fused; both return None.
    """

    def __init__(self, fname, bname, entries, slots):
        self.fname = fname
        self.bname = bname
        self.entries = entries
        self.slots = slots
        # _run_end[i]: end index (exclusive) of the maximal fusable run
        # containing i, or -1 when entries[i] is not fusable.
        n = len(entries)
        run_end = [-1] * n
        end = -1
        for i in range(n - 1, -1, -1):
            if entries[i].opcode in FUSABLE_OPS:
                if end < 0:
                    end = i + 1
                run_end[i] = end
            else:
                end = -1
        self._run_end = run_end
        self._cache = {}

    def at(self, index):
        segment = self._cache.get(index, _NO_SEGMENT)
        if segment is not _NO_SEGMENT:
            return segment
        end = self._run_end[index] if index < len(self._run_end) else -1
        segment = None
        if end - index >= 2:
            entries = self.entries[index:end]
            segment = Segment(self.fname, self.bname, index, entries)
            segment.fn = _jit.lower_segment(segment, entries, self.slots)
            if segment.fn is None:
                segment = None
        self._cache[index] = segment
        return segment
