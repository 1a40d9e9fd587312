"""Pre-decoded, table-driven kernel execution — the simulator fast path.

:class:`~repro.simt.executor.Executor` normally dispatches every issued
instruction through an ``Opcode``-comparison chain and resolves each operand
with ``isinstance`` checks. That is robust but slow: the dispatch cost is
paid once per issue slot, of which a single sweep point executes millions.

This module flattens each basic block once into a dense tuple of
:class:`DecodedInstruction` records, each carrying the static issue
latency from the cost model and a ``run`` handler. Register operands
resolve at decode time to *slot indices* in the owning function's
register allocation (:meth:`repro.ir.function.Function.reg_slots`), so a
register access is a single C-speed list index — no name hashing at all.
The warp issue loop then becomes a table lookup plus one handler call
per issue.

Pure ops (:data:`repro.simt.jit._PURE_OPS`: arithmetic, compares,
``const``, ``sel``, ``fma``, the thread intrinsics, ``nop``/``predict``/
``delay``) have one fast semantics, the segment compiler's templates. Their
``run`` is lowered to generated Python on the op's first issue
(:func:`repro.simt.jit.lower_op`), never at decode, so only ops that do
issue alone pay for codegen; an op codegen vetoes runs the interpreter's
``Executor._execute_slow`` instead. Every other op — memory, control,
barrier, grid — gets a closure that interns its operands, pre-resolves
branch targets and call entry points, and is a line-for-line
specialization of the corresponding ``Executor._execute_slow`` branch,
applying per-thread effects in the same lane order and charging the same
cycle costs. Semantics are therefore **bit-identical** to the slow path
(``tests/test_conformance.py`` pins this differentially over the Table 2
corpus).

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
from repro.simt.executor import _UNIFORM_OPS, _WARPSYNC_BARRIER
from repro.simt.jit import _PURE_OPS, lower_op
from repro.simt.segments import SegmentTable
from repro.simt.warp import UNDEF, Frame

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


def _barrier_getter(operand, slots):
    """A ``thread -> barrier name`` accessor (literal or barrier register)."""
    if isinstance(operand, Barrier):
        name = operand.name
        return lambda thread: name
    get = _getter(operand, slots)

    def resolve(thread):
        name = get(thread)
        if not isinstance(name, str):
            raise SimulationError(
                f"barrier register holds non-barrier value {name!r}"
            )
        return name

    return resolve


class DecodedInstruction:
    """One pre-decoded instruction: the original record plus its handler.

    ``run(executor, warp, group)`` applies the instruction to every thread
    of ``group`` (in lane order) and returns the cycle cost of the issue;
    a pure op's ``run`` replaces itself with generated code on its first
    call.
    """

    __slots__ = ("instr", "opcode", "latency", "run", "uniform",
                 "is_barrier_op")

    def __init__(self, instr, latency, run):
        self.instr = instr
        self.opcode = instr.opcode
        self.latency = latency
        self.run = run
        # Per-issue flags the executor would otherwise recompute with enum
        # set lookups / a property call on every slot.
        self.uniform = instr.opcode in _UNIFORM_OPS
        self.is_barrier_op = instr.is_barrier_op


# ---------------------------------------------------------------------------
# Per-opcode specializations
# ---------------------------------------------------------------------------
def _decode_cta_value(instr, latency, slots, attr):
    # CTA identity is launch-uniform but *not* decode-time constant: the
    # decoded program is shared across every launch (and every CTA) of the
    # module, so the value must come from the executor's CTA context at run
    # time, never be baked into the closure.
    dst = slots[instr.dst.name]
    opcode = instr.opcode

    def run(executor, warp, group):
        value = getattr(executor._cta_ctx(opcode), attr)
        for thread in group:
            frame = thread.frames[-1]
            frame.regs[dst] = value
            frame.index += 1
        return latency

    return run


def _decode_shld(instr, latency, slots):
    dst = slots[instr.dst.name]
    get_addr = _getter(instr.operands[0], slots)
    opcode = instr.opcode

    def run(executor, warp, group):
        load = executor._cta_ctx(opcode).shared().load
        for thread in group:
            frame = thread.frames[-1]
            frame.regs[dst] = load(get_addr(thread))
            frame.index += 1
        return latency

    return run


def _decode_shst(instr, latency, slots):
    get_addr = _getter(instr.operands[0], slots)
    get_value = _getter(instr.operands[1], slots)
    opcode = instr.opcode

    def run(executor, warp, group):
        store = executor._cta_ctx(opcode).shared().store
        for thread in group:
            store(get_addr(thread), get_value(thread))
            thread.frames[-1].index += 1
        return latency

    return run


def _decode_shatom(instr, latency, slots):
    dst = slots[instr.dst.name]
    get_addr = _getter(instr.operands[0], slots)
    get_value = _getter(instr.operands[1], slots)
    opcode = instr.opcode

    def run(executor, warp, group):
        atom_add = executor._cta_ctx(opcode).shared().atom_add
        for thread in group:
            frame = thread.frames[-1]
            frame.regs[dst] = atom_add(get_addr(thread), get_value(thread))
            frame.index += 1
        return latency

    return run


def _decode_ctasync(instr, latency):
    opcode = instr.opcode

    def run(executor, warp, group):
        ctx = executor._cta_ctx(opcode)
        for thread in group:
            thread.frames[-1].index += 1  # resume past the wait when released
            ctx.arrive(thread)
        ctx.maybe_release(group)
        return latency

    return run


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


def _decode_bra(instr, latency, slots):
    target = instr.operands[0].name

    def run(executor, warp, group):
        for thread in group:
            frame = thread.frames[-1]
            frame.block_name = target
            frame.index = 0
        return latency

    return run


def _decode_cbr(instr, latency, slots):
    get_pred = _getter(instr.operands[0], slots)
    true_target = instr.operands[1].name
    false_target = instr.operands[2].name

    def run(executor, warp, group):
        for thread in group:
            frame = thread.frames[-1]
            frame.block_name = (
                true_target if get_pred(thread) != 0 else false_target
            )
            frame.index = 0
        return latency

    return run


def _decode_call(instr, latency, slots, module):
    callee = module.function(instr.operands[0].name)
    entry_name = callee.entry.name
    # Callee registers resolve in the *callee's* slot space; the argument
    # getters resolve in the caller's.
    param_slots = [callee.reg_slots()[p.name] for p in callee.params]
    getters = [_getter(arg, slots) for arg in instr.operands[1:]]
    # ret_dst stays a Reg: Frame linkage writes it back via Frame.write.
    ret_dst = instr.dst

    def run(executor, warp, group):
        for thread in group:
            values = [get(thread) for get in getters]
            frame = Frame(callee, entry_name, ret_dst=ret_dst)
            thread.frames.append(frame)
            regs = frame.regs
            for slot, value in zip(param_slots, values):
                regs[slot] = value
        return latency

    return run


def _decode_ret(instr, latency, slots):
    get_value = _getter(instr.operands[0], slots) if instr.operands else None

    def run(executor, warp, group):
        exited = 0
        for thread in group:
            value = get_value(thread) if get_value is not None else None
            if thread.pop_frame(value):
                exited |= 1 << thread.lane
        if exited:
            executor.touched = warp.barriers.withdraw_from_all(exited) or None
        return latency

    return run


def _decode_exit(instr, latency):
    def run(executor, warp, group):
        exited = 0
        for thread in group:
            thread.exit()
            exited |= 1 << thread.lane
        executor.touched = warp.barriers.withdraw_from_all(exited) or None
        return latency

    return run


# The barrier handlers build the group's lane mask in their per-thread
# loop and make one barrier call per barrier named. A handler that may
# have made a barrier releasable hands it to the machine's drain in
# ``executor.touched``; ``bssy`` only adds members, which cannot.
def _decode_bssy(instr, latency, slots):
    operand = instr.operands[0]
    if isinstance(operand, Barrier):
        # Literal barrier (the common compiler output): one join per issue.
        name = operand.name

        def run(executor, warp, group):
            mask = 0
            for thread in group:
                mask |= 1 << thread.lane
                thread.frames[-1].index += 1
            warp.barriers.get(name).join(mask)
            return latency

        return run
    get_name = _barrier_getter(operand, slots)

    def run(executor, warp, group):
        barriers = warp.barriers
        for thread in group:
            barriers.get(get_name(thread)).join(1 << thread.lane)
            thread.frames[-1].index += 1
        return latency

    return run


def _decode_wait(instr, latency, slots):
    """``bsync``, and ``bsync.soft`` with its threshold (a threshold of
    at most 1 is trivial: never worth parking)."""
    operand = instr.operands[0]
    soft = instr.opcode is Opcode.BSYNCSOFT
    threshold = ALL_MEMBERS
    get_threshold = None
    if soft:
        if isinstance(instr.operands[1], Imm):
            threshold = int(instr.operands[1].value)
        else:
            get_threshold = _getter(instr.operands[1], slots)
    if isinstance(operand, Barrier) and get_threshold is None:
        name = operand.name
        if soft and threshold <= 1:
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
            for thread in group:
                thread.frames[-1].index += 1  # resume past the wait
                bit = 1 << thread.lane
                if members & bit:
                    mask |= bit
                    thread.park(name)
                # Not a member: hardware pass-through.
            if mask:
                barrier.park(mask, threshold)
                executor.touched = (barrier,)
            return latency

        return run
    get_name = _barrier_getter(operand, slots)

    def run(executor, warp, group):
        barriers = warp.barriers
        parks = {}  # (barrier, threshold) -> lanes parking there
        for thread in group:
            name = get_name(thread)
            lane_threshold = threshold
            if get_threshold is not None:
                lane_threshold = int(get_threshold(thread))
            thread.frames[-1].index += 1  # resume past the wait
            if soft and lane_threshold <= 1:
                continue
            barrier = barriers.get(name)
            bit = 1 << thread.lane
            if barrier.members_mask & bit:
                thread.park(name)
                key = (barrier, lane_threshold)
                parks[key] = parks.get(key, 0) | bit
        for (barrier, lane_threshold), mask in parks.items():
            barrier.park(mask, lane_threshold)
        if parks:
            executor._touch(warp, {barrier for barrier, _ in parks})
        return latency

    return run


def _decode_bbreak(instr, latency, slots):
    operand = instr.operands[0]
    if isinstance(operand, Barrier):
        name = operand.name

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
    get_name = _barrier_getter(operand, slots)

    def run(executor, warp, group):
        barriers = warp.barriers
        withdrawn = {}  # barrier -> lanes leaving it
        for thread in group:
            barrier = barriers.get(get_name(thread))
            withdrawn[barrier] = withdrawn.get(barrier, 0) | 1 << thread.lane
            thread.frames[-1].index += 1
        for barrier, mask in withdrawn.items():
            barrier.withdraw(mask)
        executor._touch(warp, withdrawn)
        return latency

    return run


def _decode_bmov(instr, latency, slots):
    dst = slots[instr.dst.name]
    get_name = _barrier_getter(instr.operands[0], slots)

    def run(executor, warp, group):
        for thread in group:
            frame = thread.frames[-1]
            frame.regs[dst] = get_name(thread)
            frame.index += 1
        return latency

    return run


def _decode_barcnt(instr, latency, slots):
    dst = slots[instr.dst.name]
    get_name = _barrier_getter(instr.operands[0], slots)

    def run(executor, warp, group):
        barriers = warp.barriers
        for thread in group:
            frame = thread.frames[-1]
            frame.regs[dst] = barriers.get(get_name(thread)).arrived_count
            frame.index += 1
        return latency

    return run


def _decode_warpsync(instr, latency):
    def run(executor, warp, group):
        barrier = warp.barriers.get(_WARPSYNC_BARRIER)
        # Every live thread participates in a full-warp sync, so every
        # lane of the (runnable) group parks.
        live = 0
        for thread in warp.threads:
            if not thread.is_exited:
                live |= 1 << thread.lane
        barrier.join(live)
        mask = 0
        for thread in group:
            thread.frames[-1].index += 1
            mask |= 1 << thread.lane
            thread.park(_WARPSYNC_BARRIER)
        barrier.park(mask)
        executor.touched = (barrier,)
        return latency

    return run


def _decode_unhandled(instr):
    opcode = instr.opcode

    def run(executor, warp, group):
        raise SimulationError(f"unhandled opcode {opcode.value}")

    return run


def _lowered_on_first_issue(entry, slots, pc):
    """``entry.run`` of a pure op until its first issue, which lowers it
    (:func:`~repro.simt.jit.lower_op`) and installs the result."""

    def run(executor, warp, group):
        entry.run = lower_op(entry, slots, pc)
        return entry.run(executor, warp, group)

    return run


def _decode_instruction(instr, cost_model, module, slots, pc):
    """Build the specialized handler for the instruction at ``pc``.

    ``slots`` is the owning function's register allocation; every register
    operand is resolved to its slot index here, at decode time. A pure op
    is lowered from the segment compiler's templates on its first issue.
    """
    opcode = instr.opcode
    latency = cost_model.latency(opcode)
    if opcode in _PURE_OPS:
        entry = DecodedInstruction(instr, latency, None)
        entry.run = _lowered_on_first_issue(entry, slots, pc)
        return entry
    if opcode is Opcode.CTAID:
        run = _decode_cta_value(instr, latency, slots, "cta_id")
    elif opcode is Opcode.CTADIM:
        run = _decode_cta_value(instr, latency, slots, "cta_dim")
    elif opcode is Opcode.NCTA:
        run = _decode_cta_value(instr, latency, slots, "grid_dim")
    elif opcode is Opcode.SHLD:
        run = _decode_shld(instr, latency, slots)
    elif opcode is Opcode.SHST:
        run = _decode_shst(instr, latency, slots)
    elif opcode is Opcode.SHATOM:
        run = _decode_shatom(instr, latency, slots)
    elif opcode is Opcode.LD:
        run = _decode_ld(instr, cost_model, slots)
    elif opcode is Opcode.ST:
        run = _decode_st(instr, cost_model, slots)
    elif opcode is Opcode.ATOMADD:
        run = _decode_atomadd(instr, cost_model, slots)
    elif opcode is Opcode.BRA:
        run = _decode_bra(instr, latency, slots)
    elif opcode is Opcode.CBR:
        run = _decode_cbr(instr, latency, slots)
    elif opcode is Opcode.CALL:
        run = _decode_call(instr, latency, slots, module)
    elif opcode is Opcode.RET:
        run = _decode_ret(instr, latency, slots)
    elif opcode is Opcode.EXIT:
        run = _decode_exit(instr, latency)
    elif opcode is Opcode.BSSY:
        run = _decode_bssy(instr, latency, slots)
    elif opcode in (Opcode.BSYNC, Opcode.BSYNCSOFT):
        run = _decode_wait(instr, latency, slots)
    elif opcode is Opcode.BBREAK:
        run = _decode_bbreak(instr, latency, slots)
    elif opcode is Opcode.BMOV:
        run = _decode_bmov(instr, latency, slots)
    elif opcode is Opcode.BARCNT:
        run = _decode_barcnt(instr, latency, slots)
    elif opcode is Opcode.WARPSYNC:
        run = _decode_warpsync(instr, latency)
    elif opcode is Opcode.CTASYNC:
        run = _decode_ctasync(instr, latency)
    else:
        run = _decode_unhandled(instr)
    return DecodedInstruction(instr, latency, run)


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
                function,
                block,
                entries,
                self._module().function(function).reg_slots(),
            )
            self._segments[(function, block)] = table
        return table

    def _decode_block(self, function, block):
        module = self._module()
        fn = module.function(function)
        slots = fn.reg_slots()
        entries = tuple(
            _decode_instruction(
                instr, self.cost_model, module, slots, (function, block, index)
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
