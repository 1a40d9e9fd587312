"""Segment-fused execution: traces through a basic block for converged warps.

The fast path (:mod:`repro.simt.fastpath`) removes per-issue *decode* cost,
but a converged warp still pays the full machine loop — scheduler pick,
release drain, profiler record, group-table patch — for every single
instruction of a straight-line run. Profiling the Table 2 corpus shows that
per-slot loop overhead, not instruction semantics, dominates runtime.

This module fuses each maximal **segment** of a basic block into one
superinstruction: a trace that may leave early. A segment is a run of
instructions that cannot park, release, split, call, exit, or emit
per-lane observability events, plus the paper's barrier bookkeeping
that provably cannot either:

* uniform ops (``FUSABLE_OPS``): the group moves as one, forward;
* ``bssy`` on a literal barrier: a join. Every issue that can make a
  barrier releasable ends in a drain of that barrier, so nothing is
  releasable when a join issues, and adding a runnable member makes
  nothing releasable;
* ``bbreak`` on a literal barrier, guarded at run time: the trace leaves
  just before it unless no lane is parked on its barrier. A withdraw from
  a barrier with no parked lane cannot complete a release;
* a block-ending ``cbr`` checked over the whole group: when every lane
  agrees the group jumps to one target, and that jump is the trace's last
  slot. When lanes disagree, or the predicate raises (UNDEF), the trace
  leaves before the ``cbr`` and the machine issues it the ordinary way.

Executing a segment therefore changes no other group and never needs a
drain, so the machine may charge the slots it ran in one step. Each way
out is a static :class:`SegmentExit` record (slots run, where the group
sits, their opcodes); the compiled function (:mod:`repro.simt.jit`)
returns ``(cycles, exit)``. An exit that ran no slot (a guard that fails
at the segment's first op) leaves the slot to the machine's ordinary
issue. Register-pure runs execute thread-major with a single frame index
write per thread, while memory operations and barrier ops run
instruction-major through their existing decoded handlers, preserving
lane-ordered memory semantics and dynamic coalescing costs bit-for-bit.
A run codegen vetoes is simply not fused.

Fusion runs the segment that starts at the scheduler's pick when no other
group could merge into the segment's interior (``Segment.conflicts``): the
pick then stays the same for the whole run (``SchedulerBase.pick``). A
policy with state shared across slots (round-robin) fuses lone groups
only. Fusion happens wherever no other warp can see the segment run: on
the last live warp, on every warp of a launch whose warps run
independently, and inside the interleave of a launch that stays
interleaved for its scheduler or its memory, where the warp runs the
segment at once and owes its remaining rounds (``GPUMachine``). In that
interleave a segment with a global memory op fuses only when the
launch's footprints are proven disjoint;
:meth:`SegmentTable.memory_free_at` rejects the others from the decoded
entries, before lowering them.
Anything else — an attached sink, stall metrics, a disabled fastpath,
several live warps with ``warp_batch`` off or in a CTA-coupled launch —
falls back to per-instruction issue with identical results.
``REPRO_SEGMENTS=0`` (or ``engine_config(segments=False)``,
:mod:`repro.engine`) turns fusion off; the conformance suite pins
segments-on against segments-off over the full corpus.
"""

from __future__ import annotations

from repro.ir.instructions import Barrier, Opcode
from repro.simt import jit as _jit
from repro.simt.executor import _UNIFORM_OPS

__all__ = [
    "FUSABLE_OPS",
    "Segment",
    "SegmentExit",
    "SegmentTable",
]

#: Uniform opcodes legal inside a segment. Uniform ops keep the group
#: intact and cannot park/exit/release; CALL is excluded because it pushes
#: a frame (the callee's blocks issue at different PCs, ending the trace).
FUSABLE_OPS = _UNIFORM_OPS - {Opcode.CALL}

#: Barrier ops a segment runs through when their barrier is a literal
#: (``bbreak`` behind its run-time guard).
_BARRIER_TRACE_OPS = frozenset((Opcode.BSSY, Opcode.BBREAK))

#: Segment ops another warp can observe: global memory accesses.
_MEMORY_OPS = frozenset((Opcode.LD, Opcode.ST, Opcode.ATOMADD))


def _traceable(entry):
    """True if the decoded ``entry`` may sit inside a segment."""
    opcode = entry.opcode
    if opcode in FUSABLE_OPS or opcode is Opcode.CBR:
        return True
    return opcode in _BARRIER_TRACE_OPS and isinstance(
        entry.instr.operands[0], Barrier
    )


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------
class SegmentExit:
    """One static way out of a segment: its first ``n`` instructions ran
    and the group sits at ``end_pc``. ``opcode_counts`` and
    ``barrier_ops`` describe those ``n`` slots; the profiler accounts a
    fused run by its exit."""

    __slots__ = ("fname", "bname", "start", "n", "end_pc", "opcode_counts",
                 "barrier_ops")

    def __init__(self, fname, bname, start, entries, end_pc):
        self.fname = fname
        self.bname = bname
        self.start = start
        self.n = len(entries)
        self.end_pc = end_pc
        counts = {}
        for entry in entries:
            counts[entry.opcode] = counts.get(entry.opcode, 0) + 1
        self.opcode_counts = tuple(counts.items())
        self.barrier_ops = sum(1 for entry in entries if entry.is_barrier_op)

    def __repr__(self):
        return (
            f"<SegmentExit @{self.fname}/{self.bname}:{self.start} "
            f"n={self.n} -> {self.end_pc}>"
        )


class Segment:
    """One fused trace of up to ``n`` instructions at one PC.

    ``fn`` is its compiled function (:func:`repro.simt.jit.lower_segment`);
    ``exits`` are its :class:`SegmentExit` records.
    """

    __slots__ = ("fname", "bname", "start", "n", "exits", "fn",
                 "__weakref__")

    def __init__(self, fname, bname, start, n):
        self.fname = fname
        self.bname = bname
        self.start = start
        self.n = n
        self.exits = ()
        self.fn = None

    def exit(self, entries, end_pc):
        """A new exit after the segment's first ``len(entries)`` decoded
        ``entries`` (the group then sits at ``end_pc``)."""
        record = SegmentExit(self.fname, self.bname, self.start, entries,
                             end_pc)
        self.exits += (record,)
        return record

    def execute(self, executor, warp, group):
        """Run the segment on ``group``; returns ``(cycles, exit)``."""
        fn = self.fn
        _jit.LAST_EXECUTED = fn
        return fn(executor, warp, group)

    def conflicts(self, groups):
        """True if another group sits strictly inside this segment's range.

        The slow path would merge that group with the fused one mid-run
        (a uniform op's bucket lands on an already-populated PC); fusing
        past the merge point would charge the merged lanes' issues
        separately. A group exactly at the end of the range is fine — the
        machine's table patch merges there, as the slow path would.
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
            f"<Segment @{self.fname}/{self.bname}:{self.start} n={self.n} "
            f"exits={len(self.exits)}>"
        )


#: Cache sentinel for "no segment starts at this index".
_NO_SEGMENT = object()


class SegmentTable:
    """Per-block segment lookup: ``at(index)`` -> Segment or None.

    Segments are maximal: ``at(i)`` covers from ``i`` to the end of the
    traceable run containing ``i`` (a warp can enter a run mid-way, e.g.
    the resume point after a barrier release). Runs shorter than two
    instructions are not worth a fused dispatch, and runs codegen vetoes
    cannot be fused; both return None.
    """

    def __init__(self, fname, bname, entries, slots):
        self.fname = fname
        self.bname = bname
        self.entries = entries
        self.slots = slots
        # _run_end[i]: end index (exclusive) of the maximal traceable run
        # containing i, or -1 when entries[i] is not traceable.
        n = len(entries)
        run_end = [-1] * n
        end = -1
        for i in range(n - 1, -1, -1):
            if _traceable(entries[i]):
                if end < 0:
                    end = i + 1
                run_end[i] = end
            else:
                end = -1
        self._run_end = run_end
        self._cache = {}
        # index -> no global memory op in entries[index:_run_end[index]],
        # filled on first ask (only interleaved launches ask)
        self._memory_free = {}

    def at(self, index):
        segment = self._cache.get(index, _NO_SEGMENT)
        if segment is not _NO_SEGMENT:
            return segment
        end = self._run_end[index] if index < len(self._run_end) else -1
        segment = None
        if end - index >= 2:
            segment = Segment(self.fname, self.bname, index, end - index)
            segment.fn = _jit.lower_segment(
                segment, self.entries[index:end], self.slots
            )
            if segment.fn is None:
                segment = None
        self._cache[index] = segment
        return segment

    def memory_free_at(self, index):
        """``at(index)`` when that segment touches no global memory, else
        None. The check reads the decoded entries, so a segment it
        rejects is never lowered."""
        free = self._memory_free.get(index)
        if free is None:
            end = self._run_end[index] if index < len(self._run_end) else -1
            free = self._memory_free[index] = end - index >= 2 and not any(
                entry.opcode in _MEMORY_OPS
                for entry in self.entries[index:end]
            )
        return self.at(index) if free else None
