"""Pre-decoded, table-driven kernel execution — the simulator fast path.

:class:`~repro.simt.executor.Executor` normally dispatches every issued
instruction through an ``Opcode``-comparison chain and resolves each operand
with ``isinstance`` checks. That is robust but slow: the dispatch cost is
paid once per issue slot, of which a single sweep point executes millions.

This module flattens each basic block once into a dense tuple of
:class:`DecodedInstruction` records, each carrying the static issue
latency from the cost model and a ``run`` handler. Register operands
resolve at decode time to *slot indices* in the owning function's
register allocation, the slot map its frames are laid out by
(:class:`repro.simt.warp.FrameTemplate`), so a register access is a
single C-speed list index — no name hashing at all.
The warp issue loop then becomes a table lookup plus one handler call
per issue (``GPUMachine._issuer``).

Each entry also reports where its group went (``DecodedInstruction.move``),
so the machine moves the issued bucket in the warp's group table instead
of re-bucketing its threads one by one: a static PC for every op whose
whole group lands on one place, built when its block decodes, and the
buckets ``cbr`` (taken and fallen lanes) and a literal ``bsync``/
``bsync.soft`` (the lanes that did not park) report per issue in
``executor.moved``. ``call``, ``ret``, ``exit`` and interpreted entries
report nothing, and the machine re-buckets their group.

Pure ops (:data:`repro.simt.jit._PURE_OPS`: arithmetic, compares,
``const``, ``sel``, ``fma``, the thread intrinsics, ``nop``/``predict``/
``delay``) have one fast semantics, the segment compiler's templates. Their
``run`` is lowered to generated Python on the op's first issue
(:func:`repro.simt.jit.lower_op`), never at decode, so only ops that do
issue alone pay for codegen.

A hand-written closure is kept only for the ops the shipped workloads
issue in bulk: ``ld``, ``st``, ``atomadd``, ``bra``, ``cbr`` and ``exit``;
``bssy``, ``bsync`` and ``bbreak`` on a literal barrier; and ``bsync.soft``
on a literal barrier with an immediate threshold. The literal forms are
what the reconvergence compiler emits (the ``BSSY``/``BSYNC`` pairs Volta
runs). Each closure interns its operands, pre-resolves branch targets, and
is a line-for-line specialization of the corresponding
``Executor._execute_slow`` branch, applying per-thread effects in the same
lane order and charging the same cycle costs. Semantics are therefore
**bit-identical** to the slow path (``tests/test_conformance.py`` pins
this differentially over the Table 2 corpus).

Every other op and operand form — the CTA and shared-memory ops,
``ctasync``, ``warpsync``, ``call``, ``ret``, ``bmov``, ``barcnt``, barrier
ops naming a barrier register, ``bsync.soft`` with a register threshold —
decodes to an entry whose ``run`` is the interpreter itself
(:func:`repro.simt.executor.interpreted`), as is a pure op whose codegen
vetoes. Of those, the ``divergent`` and ``grid`` benchmark workloads issue
none, and ``figures`` issues only ``call`` and ``ret``, 235 times in its
41,721 unfused slots (``docs/performance.md``): a specialization would be
code that no measurement pays for.

Decoded programs are cached per ``(module, cost model)`` in the module's
``"decode"`` cache (:func:`~repro.ir.function.module_cache`), so
repeated launches of the same compiled module — threshold sweeps,
scheduler ablations, golden-trace regeneration — decode once, and
rebuilding a module or appending blocks invalidates stale entries.
In-place mutation of an existing instruction's operands is *not*
tracked; compiler passes always run on clones before launch, which is
why this is safe.

On top of the per-instruction decode, :meth:`DecodedProgram.segment_at`
exposes the block's straight-line *segments* for the fused execution layer
(:mod:`repro.simt.segments`); segment tables are built lazily per block,
so machines that never fuse pay nothing.

The fast path is on by default. ``REPRO_FASTPATH=0`` (or
``engine_config(fastpath=False)``, :mod:`repro.engine`) falls back to the
interpreted path, which the conformance suite uses as its reference.
"""

from __future__ import annotations

import weakref

from repro.errors import SimulationError
from repro.ir.function import module_cache
from repro.obs.counters import ENGINE_COUNTERS
from repro.ir.instructions import Barrier, Imm, Opcode, Reg
from repro.simt.barrier_state import ALL_MEMBERS
from repro.simt.costs import cost_key
from repro.simt.executor import interpreted
from repro.simt.jit import _PURE_OPS, lower_op
from repro.simt.segments import SegmentTable
from repro.simt.warp import UNDEF, ThreadState, frame_templates

__all__ = [
    "DecodedInstruction",
    "DecodedProgram",
    "decode_program",
]


# ---------------------------------------------------------------------------
# Operand access: interned closures instead of per-issue isinstance checks
# ---------------------------------------------------------------------------
def _getter(operand, slots):
    """A ``thread -> value`` accessor mirroring ``Executor._value``."""
    if isinstance(operand, Imm):
        value = operand.value
        return lambda thread: value
    if isinstance(operand, Reg):
        def read(thread, _slot=slots[operand.name], _reg=operand):
            frame = thread.frames[-1]
            value = frame.regs[_slot]
            if value is UNDEF:
                frame.read(_reg)  # raises, as the interpreter's read does
            return value

        return read
    if isinstance(operand, Barrier):
        name = operand.name
        return lambda thread: name
    raise SimulationError(f"cannot evaluate operand {operand!r}")


class DecodedInstruction:
    """One pre-decoded instruction: the original record, its handler, and
    where its group goes.

    ``run(executor, warp, group)`` applies the instruction to every thread
    of ``group`` (in lane order) and returns the cycle cost of the issue;
    a pure op's ``run`` replaces itself with generated code on its first
    call.

    ``move`` is the move report of an op whose whole group lands on one
    static PC: ``(f, b, i + 1)`` for the pure ops, ``ld``/``st``/
    ``atomadd``, and ``bssy``, ``bbreak`` and a trivial ``bsync.soft`` on
    a literal barrier; ``(f, target, 0)`` for ``bra``. The machine moves
    the issued bucket there as a whole. It reads ``move`` after ``run``,
    so a pure op sets it with its lowering on its first lone issue, and
    the many pure ops that only ever run fused hold none. ``move`` is
    None for the rest: ``cbr`` and a literal ``bsync``/``bsync.soft``
    report their buckets per issue in ``executor.moved`` (``((pc,
    threads in lane order), ...)``: the taken and fallen lanes, or the
    lanes that did not park), and ``call``, ``ret``, ``exit`` and every
    interpreted entry report nothing, so the machine re-buckets their
    group thread by thread (``Warp.rebucket``).
    """

    __slots__ = ("instr", "opcode", "latency", "run", "move",
                 "is_barrier_op")

    def __init__(self, instr, latency, run):
        self.instr = instr
        self.opcode = instr.opcode
        self.latency = latency
        self.run = run
        self.move = None
        # Read per issue; a property call on the instruction otherwise.
        self.is_barrier_op = instr.is_barrier_op


# ---------------------------------------------------------------------------
# Per-opcode specializations
# ---------------------------------------------------------------------------
def _decode_ld(instr, cost_model, slots):
    dst = slots[instr.dst.name]
    get_addr = _getter(instr.operands[0], slots)
    memory_cost = cost_model.memory_cost

    def run(executor, warp, group):
        load = executor.memory.load
        addresses = []
        append = addresses.append
        for thread in group:
            addr = get_addr(thread)
            append(addr)
            frame = thread.frames[-1]
            frame.regs[dst] = load(addr)
            frame.index += 1
        return memory_cost(Opcode.LD, addresses)

    return run


def _decode_st(instr, cost_model, slots):
    get_addr = _getter(instr.operands[0], slots)
    get_value = _getter(instr.operands[1], slots)
    memory_cost = cost_model.memory_cost

    def run(executor, warp, group):
        store = executor.memory.store
        addresses = []
        append = addresses.append
        for thread in group:
            addr = get_addr(thread)
            value = get_value(thread)
            append(addr)
            store(addr, value)
            thread.store_trace.append((int(addr), value))
            thread.frames[-1].index += 1
        return memory_cost(Opcode.ST, addresses)

    return run


def _decode_atomadd(instr, cost_model, slots):
    dst = slots[instr.dst.name]
    get_addr = _getter(instr.operands[0], slots)
    get_value = _getter(instr.operands[1], slots)
    memory_cost = cost_model.memory_cost

    def run(executor, warp, group):
        atom_add = executor.memory.atom_add
        addresses = []
        append = addresses.append
        for thread in group:
            addr = get_addr(thread)
            value = get_value(thread)
            append(addr)
            frame = thread.frames[-1]
            frame.regs[dst] = atom_add(addr, value)
            frame.index += 1
        return memory_cost(Opcode.ATOMADD, addresses)

    return run


def _decode_bra(instr, latency):
    target = instr.operands[0].name

    def run(executor, warp, group):
        for thread in group:
            frame = thread.frames[-1]
            frame.block_name = target
            frame.index = 0
        return latency

    return run


def _decode_cbr(instr, latency, slots, fname):
    """Reports its taken and fallen lanes at their targets' first PCs."""
    get_pred = _getter(instr.operands[0], slots)
    true_target = instr.operands[1].name
    false_target = instr.operands[2].name
    true_pc = (fname, true_target, 0)
    false_pc = (fname, false_target, 0)

    def run(executor, warp, group):
        taken = []
        fallen = []
        for thread in group:
            frame = thread.frames[-1]
            if get_pred(thread) != 0:
                frame.block_name = true_target
                taken.append(thread)
            else:
                frame.block_name = false_target
                fallen.append(thread)
            frame.index = 0
        executor.moved = ((true_pc, taken), (false_pc, fallen))
        return latency

    return run


def _decode_exit(latency):
    exited_state = ThreadState.EXITED

    def run(executor, warp, group):
        exited = 0
        for thread in group:
            # Thread.exit, inlined: every thread of a launch passes here.
            thread.frames.clear()
            thread.state = exited_state
            exited |= 1 << thread.lane
        executor.touched = warp.barriers.withdraw_from_all(exited) or None
        return latency

    return run


# The barrier handlers take a literal barrier: they build the group's lane
# mask in their per-thread loop and make one barrier call per issue. A
# handler that may have made its barrier releasable hands it to the
# machine's drain in ``executor.touched``; ``bssy`` only adds members,
# which cannot.
def _decode_bssy(name, latency):
    def run(executor, warp, group):
        mask = 0
        for thread in group:
            mask |= 1 << thread.lane
            thread.frames[-1].index += 1
        warp.barriers.get(name).join(mask)
        return latency

    return run


def _trivial_wait(threshold):
    """True for a ``bsync.soft`` threshold of at most 1: never worth
    parking, so no lane parks."""
    return threshold is not ALL_MEMBERS and threshold <= 1


def _decode_wait(name, threshold, latency, next_pc):
    """``bsync`` (threshold :data:`ALL_MEMBERS`) or ``bsync.soft`` with its
    immediate threshold. A non-trivial wait reports the lanes that did
    not park, at ``next_pc``."""
    waiting = ThreadState.WAITING
    if _trivial_wait(threshold):
        def run(executor, warp, group):
            # No lane parks, but the record is created as before, so
            # barrier-file order (the drain's order) does not move.
            warp.barriers.get(name)
            for thread in group:
                thread.frames[-1].index += 1
            return latency

        return run

    def run(executor, warp, group):
        barrier = warp.barriers.get(name)
        members = barrier.members_mask
        mask = 0
        passed = []
        for thread in group:
            thread.frames[-1].index += 1  # resume past the wait
            bit = 1 << thread.lane
            if members & bit:
                mask |= bit
                # Thread.park, inlined: every parking lane passes here.
                thread.state = waiting
                thread.waiting_on = name
            else:
                passed.append(thread)  # not a member: hardware pass-through
        executor.moved = ((next_pc, passed),)
        if mask:
            barrier.park(mask, threshold)
            executor.touched = (barrier,)
        return latency

    return run


def _decode_bbreak(name, latency):
    def run(executor, warp, group):
        barrier = warp.barriers.get(name)
        mask = 0
        for thread in group:
            mask |= 1 << thread.lane
            thread.frames[-1].index += 1
        barrier.withdraw(mask)
        # A fused trace runs this only with no lane parked here.
        if barrier.parked_mask:
            executor.touched = (barrier,)
        return latency

    return run


def _lowered_on_first_issue(entry, slots, pc):
    """``entry.run`` of a pure op until its first issue, which lowers it
    (:func:`~repro.simt.jit.lower_op`) and installs the result and the
    op's move report."""

    def run(executor, warp, group):
        entry.run = lower_op(entry, slots, pc)
        entry.move = (pc[0], pc[1], pc[2] + 1)
        return entry.run(executor, warp, group)

    return run


def _decode_run(instr, latency, cost_model, slots, pc):
    """``(run, move)`` of a non-pure ``instr`` at ``pc``: its specialized
    ``run``, or the interpreter's when its op or operand form has no
    closure, and its move report (:class:`DecodedInstruction`)."""
    opcode = instr.opcode
    operands = instr.operands
    fname = pc[0]
    next_pc = (fname, pc[1], pc[2] + 1)
    if opcode is Opcode.LD:
        return _decode_ld(instr, cost_model, slots), next_pc
    if opcode is Opcode.ST:
        return _decode_st(instr, cost_model, slots), next_pc
    if opcode is Opcode.ATOMADD:
        return _decode_atomadd(instr, cost_model, slots), next_pc
    if opcode is Opcode.BRA:
        return _decode_bra(instr, latency), (fname, operands[0].name, 0)
    if opcode is Opcode.CBR:
        return _decode_cbr(instr, latency, slots, fname), None
    if opcode is Opcode.EXIT:
        return _decode_exit(latency), None
    if operands and isinstance(operands[0], Barrier):
        name = operands[0].name
        if opcode is Opcode.BSSY:
            return _decode_bssy(name, latency), next_pc
        if opcode is Opcode.BBREAK:
            return _decode_bbreak(name, latency), next_pc
        if opcode is Opcode.BSYNC:
            return _decode_wait(name, ALL_MEMBERS, latency, next_pc), None
        if opcode is Opcode.BSYNCSOFT and isinstance(operands[1], Imm):
            threshold = int(operands[1].value)
            return (
                _decode_wait(name, threshold, latency, next_pc),
                next_pc if _trivial_wait(threshold) else None,
            )
    return interpreted(instr), None


def _decode_instruction(instr, cost_model, slots, pc):
    """Build the handler for the instruction at ``pc``.

    ``slots`` is the owning function's register allocation; every register
    operand is resolved to its slot index here, at decode time. A pure op
    is lowered from the segment compiler's templates on its first issue.
    """
    entry = DecodedInstruction(instr, cost_model.latency(instr.opcode), None)
    if instr.opcode in _PURE_OPS:
        entry.run = _lowered_on_first_issue(entry, slots, pc)
    else:
        entry.run, entry.move = _decode_run(
            instr, entry.latency, cost_model, slots, pc
        )
    return entry


# ---------------------------------------------------------------------------
# Program-level decode with lazy per-block flattening
# ---------------------------------------------------------------------------
class DecodedProgram:
    """All decoded blocks of one module under one cost model.

    Blocks decode lazily on first execution, so modules with unexecuted
    functions pay nothing for them. ``entry(pc)`` is the per-issue lookup;
    ``segment_at(pc)`` is the fused layer's segment lookup.
    """

    def __init__(self, module, cost_model):
        # Weak: the program lives in its module's cache, so a strong
        # reference here would keep the module alive forever.
        self._module = weakref.ref(module)
        # Register operands resolve against the slot maps the frames are
        # laid out by (the module's "launch_template" cache).
        self._templates = frame_templates(module)
        self.cost_model = cost_model
        self._blocks = {}    # (function name, block name) -> tuple of decoded
        self._segments = {}  # (function name, block name) -> SegmentTable

    def entry(self, pc):
        """The :class:`DecodedInstruction` at ``pc``."""
        function, block, index = pc
        entries = self._blocks.get((function, block))
        if entries is None:
            entries = self._decode_block(function, block)
        if index >= len(entries):
            raise SimulationError(
                f"PC past end of block @{function}/{block}:{index} "
                "(missing terminator?)"
            )
        return entries[index]

    def segment_at(self, pc):
        """The :class:`~repro.simt.segments.Segment` starting at ``pc``, or
        None when no fusable segment (length >= 2) starts there."""
        function, block, index = pc
        return self._segment_table(function, block).at(index)

    def memory_free_segment_at(self, pc):
        """``segment_at(pc)`` when that segment touches no global memory,
        else None (:meth:`~repro.simt.segments.SegmentTable.memory_free_at`)."""
        function, block, index = pc
        return self._segment_table(function, block).memory_free_at(index)

    def _segment_table(self, function, block):
        table = self._segments.get((function, block))
        if table is None:
            entries = self._blocks.get((function, block))
            if entries is None:
                entries = self._decode_block(function, block)
            table = SegmentTable(
                function, block, entries, self._templates[function].slots
            )
            self._segments[(function, block)] = table
        return table

    def _decode_block(self, function, block):
        fn = self._module().function(function)
        slots = self._templates[function].slots
        entries = tuple(
            _decode_instruction(
                instr, self.cost_model, slots, (function, block, index)
            )
            for index, instr in enumerate(fn.block(block).instructions)
        )
        self._blocks[(function, block)] = entries
        return entries


def decode_program(module, cost_model):
    """The (cached) :class:`DecodedProgram` for ``module``/``cost_model``."""
    programs = module_cache(module, "decode")
    key = cost_key(cost_model)
    program = programs.get(key)
    if program is None:
        ENGINE_COUNTERS.fastpath_decode_cache_miss += 1
        program = programs[key] = DecodedProgram(module, cost_model)
    else:
        ENGINE_COUNTERS.fastpath_decode_cache_hit += 1
    return program
