"""Warp-level instruction execution.

The executor applies one instruction to a group of threads that share a PC,
charging one issue slot (the SIMT execution model: one instruction, many
threads). Per-thread effects — register writes, branch targets, barrier
membership — are applied lane by lane in lane order, which makes atomics
deterministic.
"""

from __future__ import annotations

import math

from repro.engine import current_engine
from repro.errors import SimulationError
from repro.ir.function import module_cache
from repro.ir.instructions import Barrier, Imm, Opcode, Reg
from repro.obs.events import (
    BarrierArriveEvent,
    BarrierReleaseEvent,
    DivergeEvent,
    IssueEvent,
    ReconvergeEvent,
)
from repro.obs.sinks import NULL_SINK
from repro.simt.barrier_state import ALL_MEMBERS
from repro.simt.cta import CTASYNC_BARRIER

_WARPSYNC_BARRIER = "__warpsync__"

#: Opcodes whose execution can park lanes on a convergence barrier.
_PARK_OPS = frozenset(
    (Opcode.BSYNC, Opcode.BSYNCSOFT, Opcode.WARPSYNC, Opcode.CTASYNC)
)


def _as_int(value):
    return int(value)


def _truthy(value):
    return value != 0


_BINARY_EVAL = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIV: lambda a, b: a / b if b != 0 else 0.0,
    Opcode.REM: lambda a, b: _as_int(a) % _as_int(b) if _as_int(b) != 0 else 0,
    Opcode.MIN: min,
    Opcode.MAX: max,
    Opcode.AND: lambda a, b: _as_int(a) & _as_int(b),
    Opcode.OR: lambda a, b: _as_int(a) | _as_int(b),
    Opcode.XOR: lambda a, b: _as_int(a) ^ _as_int(b),
    Opcode.SHL: lambda a, b: _as_int(a) << _as_int(b),
    Opcode.SHR: lambda a, b: _as_int(a) >> _as_int(b),
    Opcode.CMPLT: lambda a, b: 1 if a < b else 0,
    Opcode.CMPLE: lambda a, b: 1 if a <= b else 0,
    Opcode.CMPGT: lambda a, b: 1 if a > b else 0,
    Opcode.CMPGE: lambda a, b: 1 if a >= b else 0,
    Opcode.CMPEQ: lambda a, b: 1 if a == b else 0,
    Opcode.CMPNE: lambda a, b: 1 if a != b else 0,
}

_UNARY_EVAL = {
    Opcode.MOV: lambda a: a,
    Opcode.NEG: lambda a: -a,
    Opcode.NOT: lambda a: 0 if _truthy(a) else 1,
    Opcode.SQRT: lambda a: math.sqrt(a) if a > 0 else 0.0,
    Opcode.SIN: math.sin,
    Opcode.COS: math.cos,
    Opcode.EXP: lambda a: math.exp(min(a, 60.0)),
    Opcode.LOG: lambda a: math.log(a) if a > 0 else 0.0,
    Opcode.FLOOR: lambda a: int(math.floor(a)),
    Opcode.ABS: abs,
}

#: Opcodes that move every thread of a group to the same next PC with no
#: park/exit/barrier side effect. After issuing one of these, the machine
#: moves the group's bucket in the warp's group table as a whole instead
#: of re-bucketing its threads (CBR can split, RET/EXIT can retire lanes,
#: and the b* ops mutate barrier state).
_UNIFORM_OPS = (
    frozenset(_BINARY_EVAL)
    | frozenset(_UNARY_EVAL)
    | frozenset((
        Opcode.CONST, Opcode.SEL, Opcode.FMA, Opcode.TID, Opcode.LANE,
        Opcode.WARPID, Opcode.RAND, Opcode.LD, Opcode.ST, Opcode.ATOMADD,
        Opcode.BRA, Opcode.CALL, Opcode.PREDICT, Opcode.NOP, Opcode.DELAY,
    ))
)


class _ProgramOrder(dict):
    """pc -> sortable program position, memoized on first lookup."""

    def __init__(self, module):
        super().__init__()
        self._block_pos = {
            fn.name: {block.name: pos for pos, block in enumerate(fn.blocks)}
            for fn in module
        }

    def __missing__(self, pc):
        function, block, index = pc
        order = self[pc] = (function, self._block_pos[function][block], index)
        return order


def interpreted(instr):
    """A decoded ``run`` that issues ``instr`` through the interpreter
    (:meth:`Executor._execute_slow`, the reference semantics): the entry
    of every op the fast path does not specialize, and of a pure op whose
    codegen vetoed."""

    def run(executor, warp, group):
        return executor._execute_slow(warp, instr, group)

    return run


class Executor:
    """Executes instructions for thread groups of one launch."""

    def __init__(self, module, memory, cost_model, profiler, sink=None,
                 metrics=None, cta=None):
        self.module = module
        self.memory = memory
        self.cost_model = cost_model
        self.profiler = profiler
        self._pc_stats = profiler.pc_stats
        # CTA launch context (repro.simt.cta): grid identity, per-CTA shared
        # memory, and the CTA-wide ctasync barrier. None only for executors
        # built outside a GPUMachine launch; grid opcodes then raise.
        self.cta = cta
        # Observability: a pluggable event sink plus a stall-metrics
        # registry. With the defaults, the per-issue cost is one boolean
        # check and no allocations.
        self.sink = sink if sink is not None else NULL_SINK
        self.metrics = metrics
        self.observing = bool(self.sink.enabled or metrics is not None)
        # True when the last executed opcode was in _UNIFORM_OPS.
        self.issued_uniform = False
        # The barriers an issue may have made releasable, in barrier-file
        # order: set by the barrier, exit and ret handlers, drained and
        # cleared by the machine after the issue (None: nothing to drain).
        self.touched = None
        # The engine layers for this launch (repro.engine), read once here
        # and never on the issue path.
        self.engine = engine = current_engine()
        # Pre-decoded dispatch table (repro.simt.fastpath), shared across
        # executors of the same module + cost model. Imported here rather
        # than at module level because fastpath builds on this module's
        # eval tables (through repro.simt.jit).
        from repro.simt.fastpath import decode_program

        self._decoded = (
            decode_program(module, cost_model) if engine.fastpath else None
        )
        # Segment fusion (repro.simt.segments): only legal on the decoded
        # path with no per-issue observers — an attached sink or stall
        # metrics both need to see every individual slot, so either forces
        # per-instruction issue.
        # ``memory_free_segment_at`` is the same lookup restricted to
        # segments with no global memory op (GPUMachine's run-ahead).
        self.segment_at = self.memory_free_segment_at = None
        if (engine.segments and self._decoded is not None
                and not self.observing):
            self.segment_at = self._decoded.segment_at
            self.memory_free_segment_at = self._decoded.memory_free_segment_at
        # Program order for scheduler picks and tie-breaking:
        # pc -> (function, block position, index), built once per PC and
        # kept in the module's cache across launches.
        self.program_order = module_cache(
            module, "program_order", lambda: _ProgramOrder(module)
        ).__getitem__

    # ------------------------------------------------------------------
    def _touch(self, warp, barriers):
        """Record the barriers among ``barriers`` that the issue may have
        made releasable (those with a parked lane), in file order, for
        the machine's drain."""
        touched = warp.barriers.in_file_order(
            {b for b in barriers if b.parked_mask}
        )
        if touched:
            self.touched = touched

    def fetch(self, pc):
        function, block, index = pc
        instructions = self.module.function(function).block(block).instructions
        if index >= len(instructions):
            raise SimulationError(
                f"PC past end of block @{function}/{block}:{index} "
                "(missing terminator?)"
            )
        return instructions[index]

    def _value(self, thread, operand):
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, Reg):
            return thread.frame.read(operand)
        if isinstance(operand, Barrier):
            return operand.name
        raise SimulationError(f"cannot evaluate operand {operand!r}")

    def _barrier_name(self, thread, operand):
        """Resolve a barrier operand: literal barrier or barrier register."""
        name = self._value(thread, operand)
        if not isinstance(name, str):
            raise SimulationError(
                f"barrier register holds non-barrier value {name!r}"
            )
        return name

    def _cta_ctx(self, opcode):
        """The CTA context, required by the grid opcodes."""
        ctx = self.cta
        if ctx is None:
            raise SimulationError(
                f"{opcode.value} needs a CTA context "
                "(this execution engine does not model grid launches)"
            )
        return ctx

    # ------------------------------------------------------------------
    def execute(self, warp, pc, group):
        """Execute the instruction at ``pc`` for ``group``; returns cycles."""
        decoded = self._decoded
        if decoded is not None:
            entry = decoded.entry(pc)
            cycles = entry.run(self, warp, group)
            # Lets the machine move the issued bucket as a whole.
            self.issued_uniform = entry.uniform
        else:
            entry = self.fetch(pc)
            cycles = self._execute_slow(warp, entry, group)
            self.issued_uniform = entry.opcode in _UNIFORM_OPS

        for thread in group:
            thread.retired += 1

        if self.observing:
            self._observe_issue(warp, pc, entry.opcode, group, cycles)
        # Profiler.record inlined for the common case: a PC that has issued
        # before.
        stats = self._pc_stats.get(pc)
        if stats is None:
            self.profiler.record(
                pc, entry.opcode, len(group), cycles, entry.is_barrier_op
            )
        else:
            stats[0] += 1
            stats[1] += len(group)
            stats[2] += cycles
            self.profiler.derived = None
        warp.cycles += cycles
        return cycles

    def _execute_slow(self, warp, instr, group):
        """Interpreted execution of one instruction; returns its cycles.

        This is the reference semantics: the decoded handlers of
        :mod:`repro.simt.fastpath` and the generated code of
        :mod:`repro.simt.jit` are specializations of these branches and
        must stay bit-identical (pinned by ``tests/test_conformance.py``);
        every other decoded entry runs it (:func:`interpreted`).
        """
        opcode = instr.opcode
        cycles = self.cost_model.latency(opcode)

        if opcode in _BINARY_EVAL:
            fn = _BINARY_EVAL[opcode]
            for thread in group:
                a = self._value(thread, instr.operands[0])
                b = self._value(thread, instr.operands[1])
                thread.frame.write(instr.dst, fn(a, b))
                thread.advance()
        elif opcode in _UNARY_EVAL:
            fn = _UNARY_EVAL[opcode]
            for thread in group:
                thread.frame.write(
                    instr.dst, fn(self._value(thread, instr.operands[0]))
                )
                thread.advance()
        elif opcode is Opcode.CONST:
            value = instr.operands[0].value
            for thread in group:
                thread.frame.write(instr.dst, value)
                thread.advance()
        elif opcode is Opcode.SEL:
            for thread in group:
                pred = self._value(thread, instr.operands[0])
                picked = instr.operands[1] if _truthy(pred) else instr.operands[2]
                thread.frame.write(instr.dst, self._value(thread, picked))
                thread.advance()
        elif opcode is Opcode.FMA:
            for thread in group:
                a = self._value(thread, instr.operands[0])
                b = self._value(thread, instr.operands[1])
                c = self._value(thread, instr.operands[2])
                thread.frame.write(instr.dst, a * b + c)
                thread.advance()
        elif opcode is Opcode.TID:
            for thread in group:
                thread.frame.write(instr.dst, thread.tid)
                thread.advance()
        elif opcode is Opcode.LANE:
            for thread in group:
                thread.frame.write(instr.dst, thread.lane)
                thread.advance()
        elif opcode is Opcode.WARPID:
            for thread in group:
                thread.frame.write(instr.dst, thread.warp_id)
                thread.advance()
        elif opcode is Opcode.RAND:
            for thread in group:
                thread.frame.write(instr.dst, thread.rng.uniform())
                thread.advance()
        elif opcode is Opcode.CTAID:
            value = self._cta_ctx(opcode).cta_id
            for thread in group:
                thread.frame.write(instr.dst, value)
                thread.advance()
        elif opcode is Opcode.CTADIM:
            value = self._cta_ctx(opcode).cta_dim
            for thread in group:
                thread.frame.write(instr.dst, value)
                thread.advance()
        elif opcode is Opcode.NCTA:
            value = self._cta_ctx(opcode).grid_dim
            for thread in group:
                thread.frame.write(instr.dst, value)
                thread.advance()
        elif opcode is Opcode.SHLD:
            shared = self._cta_ctx(opcode).shared()
            for thread in group:
                addr = self._value(thread, instr.operands[0])
                thread.frame.write(instr.dst, shared.load(addr))
                thread.advance()
        elif opcode is Opcode.SHST:
            shared = self._cta_ctx(opcode).shared()
            for thread in group:
                addr = self._value(thread, instr.operands[0])
                value = self._value(thread, instr.operands[1])
                shared.store(addr, value)
                thread.advance()
        elif opcode is Opcode.SHATOM:
            shared = self._cta_ctx(opcode).shared()
            for thread in group:
                addr = self._value(thread, instr.operands[0])
                value = self._value(thread, instr.operands[1])
                thread.frame.write(instr.dst, shared.atom_add(addr, value))
                thread.advance()
        elif opcode is Opcode.LD:
            addresses = []
            for thread in group:
                addr = self._value(thread, instr.operands[0])
                addresses.append(addr)
                thread.frame.write(instr.dst, self.memory.load(addr))
                thread.advance()
            cycles = self.cost_model.memory_cost(opcode, addresses)
        elif opcode is Opcode.ST:
            addresses = []
            for thread in group:
                addr = self._value(thread, instr.operands[0])
                value = self._value(thread, instr.operands[1])
                addresses.append(addr)
                self.memory.store(addr, value)
                thread.store_trace.append((int(addr), value))
                thread.advance()
            cycles = self.cost_model.memory_cost(opcode, addresses)
        elif opcode is Opcode.ATOMADD:
            addresses = []
            for thread in group:
                addr = self._value(thread, instr.operands[0])
                value = self._value(thread, instr.operands[1])
                addresses.append(addr)
                thread.frame.write(instr.dst, self.memory.atom_add(addr, value))
                thread.advance()
            cycles = self.cost_model.memory_cost(opcode, addresses)
        elif opcode is Opcode.BRA:
            target = instr.operands[0].name
            for thread in group:
                thread.jump(target)
        elif opcode is Opcode.CBR:
            true_target = instr.operands[1].name
            false_target = instr.operands[2].name
            for thread in group:
                pred = self._value(thread, instr.operands[0])
                thread.jump(true_target if _truthy(pred) else false_target)
        elif opcode is Opcode.CALL:
            callee = self.module.function(instr.operands[0].name)
            args = instr.operands[1:]
            for thread in group:
                values = [self._value(thread, arg) for arg in args]
                thread.push_frame(callee, instr.dst)
                for param, value in zip(callee.params, values):
                    thread.frame.write(param, value)
        elif opcode is Opcode.RET:
            touched = set()
            for thread in group:
                value = (
                    self._value(thread, instr.operands[0])
                    if instr.operands
                    else None
                )
                if thread.pop_frame(value):
                    touched.update(
                        warp.barriers.withdraw_from_all(1 << thread.lane)
                    )
            self._touch(warp, touched)
        elif opcode is Opcode.EXIT:
            touched = set()
            for thread in group:
                thread.exit()
                touched.update(
                    warp.barriers.withdraw_from_all(1 << thread.lane)
                )
            self._touch(warp, touched)
        elif opcode is Opcode.BSSY:
            for thread in group:
                name = self._barrier_name(thread, instr.operands[0])
                warp.barriers.get(name).join(1 << thread.lane)
                thread.advance()
        elif opcode is Opcode.BSYNC:
            touched = set()
            for thread in group:
                name = self._barrier_name(thread, instr.operands[0])
                thread.advance()  # resume past the wait when released
                barrier = warp.barriers.get(name)
                if barrier.park(1 << thread.lane, ALL_MEMBERS):
                    thread.park(name)
                    touched.add(barrier)
                # Not a member: hardware pass-through.
            self._touch(warp, touched)
        elif opcode is Opcode.BSYNCSOFT:
            touched = set()
            for thread in group:
                name = self._barrier_name(thread, instr.operands[0])
                threshold = int(self._value(thread, instr.operands[1]))
                thread.advance()
                if threshold <= 1:
                    # Trivial threshold: never worth parking.
                    continue
                barrier = warp.barriers.get(name)
                if barrier.park(1 << thread.lane, threshold):
                    thread.park(name)
                    touched.add(barrier)
            self._touch(warp, touched)
        elif opcode is Opcode.BBREAK:
            touched = set()
            for thread in group:
                name = self._barrier_name(thread, instr.operands[0])
                barrier = warp.barriers.get(name)
                barrier.withdraw(1 << thread.lane)
                touched.add(barrier)
                thread.advance()
            self._touch(warp, touched)
        elif opcode is Opcode.BMOV:
            for thread in group:
                thread.frame.write(
                    instr.dst, self._barrier_name(thread, instr.operands[0])
                )
                thread.advance()
        elif opcode is Opcode.BARCNT:
            for thread in group:
                name = self._barrier_name(thread, instr.operands[0])
                thread.frame.write(
                    instr.dst, warp.barriers.get(name).arrived_count
                )
                thread.advance()
        elif opcode is Opcode.WARPSYNC:
            barrier = warp.barriers.get(_WARPSYNC_BARRIER)
            # Every live thread participates in a full-warp sync.
            for live in warp.live_threads():
                barrier.join(1 << live.lane)
            for thread in group:
                thread.advance()
                if barrier.park(1 << thread.lane, ALL_MEMBERS):
                    thread.park(_WARPSYNC_BARRIER)
            self._touch(warp, (barrier,))
        elif opcode is Opcode.CTASYNC:
            # CTA-wide barrier: arrivals park across warp boundaries; the
            # last live arrival opens the barrier for the whole CTA (the
            # exit-path re-check lives in GPUMachine._step).
            ctx = self._cta_ctx(opcode)
            for thread in group:
                thread.advance()  # resume past the wait when released
                ctx.arrive(thread)
            ctx.maybe_release(group)
        elif opcode in (Opcode.NOP, Opcode.PREDICT):
            for thread in group:
                thread.advance()
        elif opcode is Opcode.DELAY:
            cycles = int(instr.operands[0].value)
            for thread in group:
                thread.advance()
        else:
            raise SimulationError(f"unhandled opcode {opcode.value}")

        return cycles

    # ------------------------------------------------------------------
    # Observability (cold path: only runs with a live sink or metrics)
    # ------------------------------------------------------------------
    def _observe_issue(self, warp, pc, opcode, group, cycles):
        """Emit events / update metrics for one just-executed issue.

        Runs after the instruction's effects but before ``warp.cycles``
        advances, so ``warp.cycles`` is the issue's start timestamp.
        """
        ts = warp.cycles
        function, block, index = pc
        metrics = self.metrics
        sink = self.sink
        if metrics is not None:
            metrics.on_issue(warp, pc, opcode, group, cycles)
        if sink.enabled:
            sink.emit(
                IssueEvent(
                    warp_id=warp.warp_id,
                    function=function,
                    block=block,
                    index=index,
                    opcode=opcode,
                    lanes=frozenset(t.lane for t in group),
                    ts=ts,
                    dur=cycles,
                    active=len(group),
                )
            )
            if opcode is Opcode.CBR:
                targets = {}
                for thread in group:
                    targets.setdefault(thread.frame.block_name, set()).add(
                        thread.lane
                    )
                if len(targets) > 1:
                    sink.emit(
                        DivergeEvent(
                            warp_id=warp.warp_id,
                            function=function,
                            block=block,
                            ts=ts,
                            targets={
                                t: frozenset(l) for t, l in targets.items()
                            },
                        )
                    )
        if opcode in _PARK_OPS:
            # Lanes that just parked are WAITING with waiting_on set.
            parked = {}
            for thread in group:
                if thread.waiting_on is not None and not thread.is_runnable:
                    parked.setdefault(thread.waiting_on, []).append(
                        thread.lane
                    )
            for name, lanes in parked.items():
                if name == CTASYNC_BARRIER:
                    # The CTA barrier lives on the CTA context, not in the
                    # warp's barrier file (it spans warps); occupancy is the
                    # CTA-wide arrival count.
                    occupancy = len(self.cta.arrived) if self.cta else 0
                else:
                    occupancy = warp.barriers.get(name).parked_mask.bit_count()
                if metrics is not None:
                    metrics.on_park(warp.warp_id, name, lanes, ts, occupancy)
                if sink.enabled:
                    sink.emit(
                        BarrierArriveEvent(
                            warp_id=warp.warp_id,
                            barrier=name,
                            ts=ts,
                            lanes=frozenset(lanes),
                            parked=occupancy,
                        )
                    )

    def observe_release(self, warp, barrier, lanes):
        """Hook for barrier releases (driven by the machine's drain)."""
        ts = warp.cycles
        if self.metrics is not None:
            self.metrics.on_release(warp.warp_id, barrier.name, lanes, ts)
        if self.sink.enabled:
            self.sink.emit(
                BarrierReleaseEvent(
                    warp_id=warp.warp_id,
                    barrier=barrier.name,
                    ts=ts,
                    lanes=frozenset(lanes),
                )
            )
            # The released lanes merge with whoever is already runnable at
            # their resume PC — that merged group is the reconvergence.
            resume = warp.threads[min(lanes)]
            pc = resume.pc()
            merged = frozenset(
                t.lane
                for t in warp.threads
                if t.is_runnable and t.pc() == pc
            )
            self.sink.emit(
                ReconvergeEvent(
                    warp_id=warp.warp_id,
                    function=pc[0],
                    block=pc[1],
                    ts=ts,
                    lanes=merged,
                )
            )
