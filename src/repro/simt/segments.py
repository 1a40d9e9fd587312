"""Segment-fused execution: straight-line superinstructions for converged warps.

The fast path (:mod:`repro.simt.fastpath`) removes per-issue *decode* cost,
but a converged warp still pays the full machine loop — scheduler pick,
release drain, profiler record, groups-cache patch — for every single
instruction of a straight-line run. Profiling the Table 2 corpus shows that
per-slot loop overhead, not instruction semantics, dominates runtime, and
that ~99% of issue slots are *forced*: the scheduler's pick is uniquely
determined before looking at the instruction.

This module fuses each maximal straight-line **segment** of a basic block
into one superinstruction. A segment is a run of instructions that cannot
park, release, diverge, call, exit, or emit per-lane observability events
(``FUSABLE_OPS``); executing one therefore cannot change the warp's group
structure or barrier state mid-run, so the machine may legally charge the
whole run in one step. Within a segment, runs of *register-pure*
instructions (no memory traffic, no branch) touch only thread-private state
— registers, the RNG stream, the frame index — so they execute
**thread-major** (threads outer, instructions inner) with a single frame
index write per thread, while memory operations and the terminating branch
run instruction-major through their existing decoded handlers, preserving
lane-ordered memory semantics and dynamic coalescing costs bit-for-bit.

Fusion only fires when the machine can *prove* the scheduler's picks were
forced for the whole run (``SchedulerBase.forced_pick``) and no other group
could merge into the segment's interior (``Segment.conflicts``), and
only on a warp nothing can interleave with: the last live warp, or any
warp of a launch whose warps run independently (``GPUMachine``).
Anything else — an attached sink, stall metrics, an issue trace, a
disabled fastpath, several interleaved live warps — falls back to
per-instruction issue with identical results. ``REPRO_SEGMENTS=0`` (or
``engine_config(segments=False)``, :mod:`repro.engine`) turns fusion off;
the conformance suite pins segments-on against segments-off over the full
corpus.
"""

from __future__ import annotations

from repro.ir.instructions import Imm, Opcode, Reg
from repro.simt import jit as _jit
from repro.simt.executor import _BINARY_EVAL, _UNARY_EVAL, _UNIFORM_OPS

__all__ = [
    "FUSABLE_OPS",
    "Segment",
    "SegmentTable",
]

#: Opcodes legal inside a segment. Uniform ops keep the group intact and
#: cannot park/exit/release; CALL is excluded because it pushes a frame
#: (the callee's blocks issue at different PCs, ending the straight line).
FUSABLE_OPS = _UNIFORM_OPS - {Opcode.CALL}

#: Fusable ops whose effects are *thread-private*: registers, the RNG
#: stream, and the frame index only. These reorder freely across threads,
#: so a run of them executes thread-major. LD/ST/ATOMADD touch shared
#: memory (lane order and dynamic coalescing cost matter) and BRA rewrites
#: the PC, so they stay instruction-major via their decoded handlers.
#: DELAY is pure here: it only charges static cycles and advances the PC.
_PURE_OPS = FUSABLE_OPS - {Opcode.LD, Opcode.ST, Opcode.ATOMADD, Opcode.BRA}


# ---------------------------------------------------------------------------
# Micro-ops: (thread, regs) closures for register-pure instructions
# ---------------------------------------------------------------------------
def _value_getter(operand, slots):
    """A ``(thread, regs) -> value`` accessor for pure-op operands."""
    if isinstance(operand, Imm):
        value = operand.value
        return lambda thread, regs: value
    slot = slots[operand.name]
    return lambda thread, regs: regs[slot]


def _pure_micro(entry, slots):
    """The (thread, regs) micro-op for one pure instruction.

    Returns None for instructions with no register effect (NOP, PREDICT,
    DELAY) — their only action, advancing the frame index, is folded into
    the chunk's single end-of-run index write.
    """
    instr = entry.instr
    opcode = instr.opcode
    if opcode in (Opcode.NOP, Opcode.PREDICT, Opcode.DELAY):
        return None

    if opcode in _BINARY_EVAL:
        fn = _BINARY_EVAL[opcode]
        dst = slots[instr.dst.name]
        a, b = instr.operands
        if isinstance(a, Reg) and isinstance(b, Reg):
            sa, sb = slots[a.name], slots[b.name]

            def op(thread, regs):
                regs[dst] = fn(regs[sa], regs[sb])

        elif isinstance(a, Reg) and isinstance(b, Imm):
            sa, bv = slots[a.name], b.value

            def op(thread, regs):
                regs[dst] = fn(regs[sa], bv)

        elif isinstance(a, Imm) and isinstance(b, Reg):
            av, sb = a.value, slots[b.name]

            def op(thread, regs):
                regs[dst] = fn(av, regs[sb])

        else:
            get_a = _value_getter(a, slots)
            get_b = _value_getter(b, slots)

            def op(thread, regs):
                regs[dst] = fn(get_a(thread, regs), get_b(thread, regs))

        return op

    if opcode in _UNARY_EVAL:
        fn = _UNARY_EVAL[opcode]
        dst = slots[instr.dst.name]
        operand = instr.operands[0]
        if isinstance(operand, Reg):
            src = slots[operand.name]

            def op(thread, regs):
                regs[dst] = fn(regs[src])

        else:
            value = operand.value

            def op(thread, regs):
                regs[dst] = fn(value)

        return op

    if opcode is Opcode.CONST:
        dst = slots[instr.dst.name]
        value = instr.operands[0].value

        def op(thread, regs):
            regs[dst] = value

        return op

    if opcode is Opcode.SEL:
        dst = slots[instr.dst.name]
        get_pred = _value_getter(instr.operands[0], slots)
        get_true = _value_getter(instr.operands[1], slots)
        get_false = _value_getter(instr.operands[2], slots)

        def op(thread, regs):
            regs[dst] = (
                get_true(thread, regs)
                if get_pred(thread, regs) != 0
                else get_false(thread, regs)
            )

        return op

    if opcode is Opcode.FMA:
        dst = slots[instr.dst.name]
        a, b, c = instr.operands
        if isinstance(a, Reg) and isinstance(b, Imm) and isinstance(c, Imm):
            sa, bv, cv = slots[a.name], b.value, c.value

            def op(thread, regs):
                regs[dst] = regs[sa] * bv + cv

        elif isinstance(a, Reg) and isinstance(b, Reg) and isinstance(c, Reg):
            sa, sb, sc = slots[a.name], slots[b.name], slots[c.name]

            def op(thread, regs):
                regs[dst] = regs[sa] * regs[sb] + regs[sc]

        else:
            get_a = _value_getter(a, slots)
            get_b = _value_getter(b, slots)
            get_c = _value_getter(c, slots)

            def op(thread, regs):
                regs[dst] = get_a(thread, regs) * get_b(thread, regs) + get_c(
                    thread, regs
                )

        return op

    if opcode is Opcode.TID:
        dst = slots[instr.dst.name]

        def op(thread, regs):
            regs[dst] = thread.tid

        return op

    if opcode is Opcode.LANE:
        dst = slots[instr.dst.name]

        def op(thread, regs):
            regs[dst] = thread.lane

        return op

    if opcode is Opcode.WARPID:
        dst = slots[instr.dst.name]

        def op(thread, regs):
            regs[dst] = thread.warp_id

        return op

    if opcode is Opcode.RAND:
        dst = slots[instr.dst.name]

        def op(thread, regs):
            regs[dst] = thread.rng.uniform()

        return op

    raise AssertionError(f"no micro-op for pure opcode {opcode.value}")


def _static_cycles(entry):
    """The fixed issue cost of a pure instruction (DELAY carries its own)."""
    if entry.opcode is Opcode.DELAY:
        return int(entry.instr.operands[0].value)
    return entry.latency


def _make_chunk(micro_ops, end_index):
    """Compile a run of pure micro-ops into one thread-major closure.

    The slow path advances ``frame.index`` once per instruction; the end
    index after the run is statically known, so the chunk writes it once
    per thread instead.
    """
    ops = tuple(micro_ops)
    if not ops:

        def chunk(group):
            for thread in group:
                thread.frames[-1].index = end_index

    elif len(ops) == 1:
        op = ops[0]

        def chunk(group):
            for thread in group:
                frame = thread.frames[-1]
                op(thread, frame.regs)
                frame.index = end_index

    else:

        def chunk(group):
            for thread in group:
                frame = thread.frames[-1]
                regs = frame.regs
                for op in ops:
                    op(thread, regs)
                frame.index = end_index

    return chunk


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------
class Segment:
    """One fused straight-line run of ``n`` instructions at one PC.

    ``steps`` alternates thread-major pure chunks (pre-summed static
    cycles) with instruction-major decoded handlers for memory ops and the
    terminating branch (dynamic cycles). ``end_pc`` is where every thread
    of the group sits after execution.
    """

    __slots__ = ("fname", "bname", "start", "n", "steps", "end_pc",
                 "opcode_counts", "jit_ir", "jit_hits",
                 "jit_fn", "__weakref__")

    def __init__(self, fname, bname, start, entries, slots):
        self.fname = fname
        self.bname = bname
        self.start = start
        self.n = len(entries)

        steps = []
        jit_records = []  # per-step lowering IR for the segment JIT
        micro = []
        pure = []  # decoded entries of the pending chunk (JIT lowering IR)
        static = 0
        index = start

        def flush_chunk():
            steps.append((True, _make_chunk(micro, index), static))
            jit_records.append((True, tuple(pure), index))

        for entry in entries:
            if entry.opcode in _PURE_OPS:
                op = _pure_micro(entry, slots)
                if op is not None:
                    micro.append(op)
                pure.append(entry)
                static += _static_cycles(entry)
                index += 1
            else:
                if pure:
                    # Even an op-free chunk (all NOPs) must advance the
                    # frame index, so flush on pending entries, not ops.
                    flush_chunk()
                    micro = []
                    pure = []
                    static = 0
                steps.append((False, entry.run, 0))
                jit_records.append((False, entry.run))
                index += 1
        if pure:
            flush_chunk()
        self.steps = tuple(steps)
        # Lowering IR for the segment JIT (repro.simt.jit): the decoded
        # entries of each pure chunk plus each handler step, aligned
        # one-to-one with ``steps``, and the function's slot map.
        self.jit_ir = (tuple(jit_records), slots)
        self.jit_hits = 0
        # Tier-up memo: None until the segment crosses the threshold, then
        # the compiled function, or False when codegen vetoed (deopt).
        self.jit_fn = None

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
        # Tiered JIT dispatch (repro.simt.jit): below the hotness
        # threshold (or after a deopt) the interpreted step loop runs;
        # past it, the generated function replaces the whole loop.
        threshold = executor.jit_threshold
        if threshold is not None:
            fn = self.jit_fn
            if fn is None:
                self.jit_hits += 1
                if self.jit_hits > threshold:
                    fn = _jit.tier_up(self, executor)
            if fn:
                executor.profiler.jit_segments += 1
                _jit.LAST_EXECUTED = fn
                return fn(executor, warp, group)
        total = 0
        for is_chunk, payload, cycles in self.steps:
            if is_chunk:
                payload(group)
                total += cycles
            else:
                total += payload(executor, warp, group)
        return total

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
    instructions are not worth a fused dispatch and return None.
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
        if end - index < 2:
            self._cache[index] = None
            return None
        segment = Segment(
            self.fname,
            self.bname,
            index,
            self.entries[index:end],
            self.slots,
        )
        self._cache[index] = segment
        return segment
