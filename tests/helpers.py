"""Shared builders for the test suite."""

from __future__ import annotations

import os
import signal
from dataclasses import fields

from repro.engine import EngineConfig
from repro.ir import Function, IRBuilder, Module, verifier
from repro.ir.instructions import (
    BARRIER_OPS,
    BINARY_OPS,
    HAS_DST,
    UNARY_OPS,
    Barrier,
    BlockRef,
    FuncRef,
    Opcode,
    Reg,
)

ENGINE_FIELDS = frozenset(field.name for field in fields(EngineConfig))


def split_engine(kwargs):
    """Split keyword arguments into ``engine_config`` overrides and the
    rest (machine arguments)."""
    engine = {k: v for k, v in kwargs.items() if k in ENGINE_FIELDS}
    rest = {k: v for k, v in kwargs.items() if k not in ENGINE_FIELDS}
    return engine, rest


def simple_kernel(name="k", body=None):
    """A kernel with a single block: body(builder) then exit."""
    module = Module("test")
    fn = Function(name, is_kernel=True)
    module.add(fn)
    builder = IRBuilder(fn)
    builder.new_block("entry", switch=True)
    if body is not None:
        body(builder)
    builder.exit()
    return module


def diamond_function(divergent=True):
    """entry -> (then|else) -> join -> exit, with an optionally divergent
    branch predicate."""
    module = Module("test")
    fn = Function("k", is_kernel=True)
    module.add(fn)
    b = IRBuilder(fn)
    b.new_block("entry", switch=True)
    pred_src = b.tid() if divergent else b.const(1)
    pred = b.lt(pred_src, 16)
    then_block = b.new_block("then")
    else_block = b.new_block("else")
    join = b.new_block("join")
    b.cbr(pred, then_block, else_block)
    b.set_block(then_block)
    b.const(1.0, hint="x")
    b.bra(join)
    b.set_block(else_block)
    b.const(2.0, hint="y")
    b.bra(join)
    b.set_block(join)
    b.store(b.tid(), 0.0)
    b.exit()
    return module, fn


def loop_function(trip_reg_divergent=True, n=4):
    """entry -> head -> body -> head; head -> exit. Divergent or uniform
    trip count."""
    module = Module("test")
    fn = Function("k", is_kernel=True)
    module.add(fn)
    b = IRBuilder(fn)
    b.new_block("entry", switch=True)
    tid = b.tid()
    limit = b.add(b.rem(tid, n), 1) if trip_reg_divergent else b.const(n)
    i = b.mov(0, hint="i")
    head = b.new_block("head")
    body = b.new_block("body")
    exit_block = b.new_block("exit")
    b.bra(head)
    b.set_block(head)
    b.cbr(b.lt(i, limit), body, exit_block)
    b.set_block(body)
    b.mov_to(i, b.add(i, 1))
    b.bra(head)
    b.set_block(exit_block)
    b.store(tid, i)
    b.exit()
    return module, fn


def listing1_module(n_iters=16, expensive=12, prob=0.25, with_predict=True):
    """The paper's Listing 1: loop with a divergent condition guarding an
    expensive then-block, labeled L1."""
    module = Module("listing1")
    fn = Function("k", is_kernel=True)
    module.add(fn)
    b = IRBuilder(fn)
    b.new_block("entry", switch=True)
    tid = b.tid()
    i = b.mov(0, hint="i")
    acc = b.mov(0.0, hint="acc")
    if with_predict:
        b.predict("L1")
    head = b.new_block("head")
    prolog = b.new_block("prolog")
    then_block = b.new_block("then", attrs={"label": "L1"})
    epilog = b.new_block("epilog")
    exit_block = b.new_block("exit")
    b.bra(head)
    b.set_block(head)
    b.cbr(b.lt(i, n_iters), prolog, exit_block)
    b.set_block(prolog)
    cond = b.lt(b.rand(), prob)
    b.cbr(cond, then_block, epilog)
    b.set_block(then_block)
    for _ in range(expensive):
        b.mov_to(acc, b.fma(acc, 1.0000001, 0.5))
    b.bra(epilog)
    b.set_block(epilog)
    b.mov_to(i, b.add(i, 1))
    b.bra(head)
    b.set_block(exit_block)
    b.store(tid, acc)
    b.exit()
    return module


def loop_merge_source(tasks=6, trip_hi=24, inner_fma=8, epilog_fma=2):
    """Textual Loop Merge kernel used across tests."""
    body = "\n".join(
        "            acc = fma(acc, 1.0000001, 0.5);" for _ in range(inner_fma)
    )
    epilog = "\n".join(
        "        acc = fma(acc, 0.999, 0.01);" for _ in range(epilog_fma)
    )
    return f"""
kernel lm(n_tasks) {{
    let acc = 0.0;
    let t = tid();
    predict L1;
    while (t < n_tasks) {{
        let u = hash01(t * 1.7);
        let trips = floor(u * u * {trip_hi}.0) + 1;
        let j = 0;
        while (j < trips) {{
            label L1: acc = fma(acc, 1.0000001, 0.5);
{body}
            j = j + 1;
        }}
{epilog}
        t = t + 32;
    }}
    store(tid(), acc);
}}
"""


def die_in_worker(kind):
    """End the calling process abruptly: ``os._exit(3)`` for ``"exit"``,
    a self-sent ``SIGKILL`` for ``"sigkill"``. A pool task that kills
    its worker."""
    if kind == "exit":
        os._exit(3)
    os.kill(os.getpid(), signal.SIGKILL)


class DiesWhenUnpickled:
    """A task argument that kills whichever process unpickles it: passed
    to a pool, it takes down the worker that receives the task."""

    def __init__(self, kind):
        self.kind = kind

    def __reduce__(self):
        return die_in_worker, (self.kind,)


# ----------------------------------------------------------------------
# Reference verifier: the per-instruction checks and the set-based
# defs-before-use fixpoint that repro.ir.verifier replaced. The verifier
# differential runs both on mutated IR and demands the same VerifierError
# message (or none) from each.
# ----------------------------------------------------------------------


def _oracle_terminators(function):
    for block in function.blocks:
        if not block.instructions:
            verifier._fail(function, block, "empty block (no terminator)")
        for index, instr in enumerate(block.instructions):
            last = index == len(block.instructions) - 1
            if instr.is_terminator and not last:
                verifier._fail(
                    function,
                    block,
                    f"terminator {instr.opcode.value} not at block end",
                )
            if last and not instr.is_terminator:
                verifier._fail(function, block, "block does not end in a terminator")


def _oracle_targets(function, module):
    known = {block.name for block in function.blocks}
    for block in function.blocks:
        for instr in block:
            for target in instr.block_targets():
                if target not in known:
                    verifier._fail(function, block, f"branch to unknown block ^{target}")
            if instr.opcode is Opcode.CALL and module is not None:
                callee = instr.operands[0].name
                if callee not in module.functions:
                    verifier._fail(function, block, f"call to unknown function @{callee}")


def _oracle_operand_shapes(function, block, instr):
    opcode = instr.opcode
    if opcode in BINARY_OPS:
        expected = 2
    elif opcode in UNARY_OPS:
        expected = 1
    else:
        expected = verifier._ARITY.get(opcode)
    if expected is not None and len(instr.operands) != expected:
        verifier._fail(
            function,
            block,
            f"{opcode.value} expects {expected} operands, "
            f"got {len(instr.operands)}: {instr!r}",
        )
    if opcode is Opcode.RET and len(instr.operands) > 1:
        verifier._fail(function, block, f"ret takes at most one operand: {instr!r}")
    if opcode is Opcode.CALL:
        if not instr.operands or not isinstance(instr.operands[0], FuncRef):
            verifier._fail(function, block, f"call must name a function: {instr!r}")
    if opcode is Opcode.BRA and not isinstance(instr.operands[0], BlockRef):
        verifier._fail(function, block, f"bra target must be a block: {instr!r}")
    if opcode is Opcode.CBR:
        if not isinstance(instr.operands[1], BlockRef) or not isinstance(
            instr.operands[2], BlockRef
        ):
            verifier._fail(function, block, f"cbr targets must be blocks: {instr!r}")
    if opcode in BARRIER_OPS or opcode is Opcode.BMOV:
        bar = instr.operands[0] if instr.operands else None
        if not isinstance(bar, (Barrier, Reg)):
            verifier._fail(
                function,
                block,
                f"{opcode.value} needs a barrier or barrier register: {instr!r}",
            )
    has_dst = instr.dst is not None
    wants_dst = opcode in HAS_DST or opcode is Opcode.BMOV
    if opcode is Opcode.CALL:
        pass  # call dst optional
    elif has_dst and not wants_dst:
        verifier._fail(function, block, f"{opcode.value} must not define a register")
    elif wants_dst and not has_dst:
        verifier._fail(
            function, block, f"{opcode.value} must define a register: {instr!r}"
        )


def _oracle_must_defined_in(function):
    """Forward must-defined analysis: IN[b] = ∩ OUT[preds], optimistic init."""
    preds = function.predecessors()
    params = set(function.params)
    universe = set(function.all_registers()) | params
    gen = {}
    for block in function.blocks:
        defs = set()
        for instr in block:
            defs.update(instr.defs())
        gen[block.name] = defs
    defined_out = {block.name: set(universe) for block in function.blocks}
    defined_out[function.entry.name] = params | gen[function.entry.name]
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            name = block.name
            if name == function.entry.name:
                live_in = set(params)
            else:
                incoming = [defined_out[p] for p in preds[name]]
                if incoming:
                    live_in = set(incoming[0])
                    for s in incoming[1:]:
                        live_in &= s
                    live_in |= params
                else:
                    live_in = set(params)  # unreachable block: be lenient
            new_out = live_in | gen[name]
            if new_out != defined_out[name]:
                defined_out[name] = new_out
                changed = True
    defined_in = {}
    for block in function.blocks:
        name = block.name
        if name == function.entry.name:
            defined_in[name] = set(params)
        else:
            incoming = [defined_out[p] for p in preds[name]]
            if incoming:
                live_in = set(incoming[0])
                for s in incoming[1:]:
                    live_in &= s
                defined_in[name] = live_in | params
            else:
                defined_in[name] = set(universe)  # unreachable: skip checking
    return defined_in


def _oracle_defs_before_use(function):
    defined_in = _oracle_must_defined_in(function)
    for block in function.blocks:
        live = set(defined_in[block.name])
        for instr in block:
            for reg in instr.uses():
                if reg not in live:
                    verifier._fail(
                        function,
                        block,
                        f"register %{reg.name} used before any definition "
                        f"in {instr!r}",
                    )
            live.update(instr.defs())


def oracle_verify_module(module):
    """The reference ``verify_module``: raises the same
    :class:`VerifierError` messages as the verifier it replaced."""
    for function in module:
        if not function.blocks:
            verifier._fail(function, None, "function has no blocks")
        _oracle_terminators(function)
        _oracle_targets(function, module)
        for block in function.blocks:
            for instr in block:
                _oracle_operand_shapes(function, block, instr)
        _oracle_defs_before_use(function)
    return True


def oracle_joined_points(joined, barrier):
    """The reference per-barrier live-range walk that
    ``JoinedBarriers.joined_points_of`` replaced: every (block, index)
    point where ``barrier`` may be joined, given a ``JoinedBarriers``."""
    from repro.core.primitives import barrier_name_of, is_cancel, is_join, is_wait

    points = set()
    for block in joined.function.blocks:
        live = barrier in joined.joined_in(block.name)
        for index, instr in enumerate(block.instructions):
            if live:
                points.add((block.name, index))
            if is_join(instr) and barrier_name_of(instr) == barrier:
                live = True
            elif (is_wait(instr) or is_cancel(instr)) and barrier_name_of(
                instr
            ) == barrier:
                live = False
        if live:
            points.add((block.name, len(block.instructions)))
    return points
