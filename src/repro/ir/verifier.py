"""IR structural verifier.

Checks, per function:

* every block ends with exactly one terminator, and terminators appear only
  at block ends;
* branch targets and callees resolve;
* instruction operand shapes match their opcodes (arity, operand kinds);
* registers are defined before use on every path (conservative: a register
  must be defined on *some* path; strict mode requires all paths);
* barrier operands are barriers or registers.

The verifier is used by tests and by the pass pipeline after each transform.
"""

from __future__ import annotations

from repro.errors import VerifierError
from repro.ir.instructions import (
    BARRIER_OPS,
    BINARY_OPS,
    HAS_DST,
    TERMINATORS,
    UNARY_OPS,
    Barrier,
    BlockRef,
    FuncRef,
    Opcode,
    Reg,
)

#: Expected operand count per opcode; None means variadic/special-cased.
_ARITY = {
    Opcode.CONST: 1,
    Opcode.SEL: 3,
    Opcode.FMA: 3,
    Opcode.TID: 0,
    Opcode.LANE: 0,
    Opcode.WARPID: 0,
    Opcode.RAND: 0,
    Opcode.CTAID: 0,
    Opcode.CTADIM: 0,
    Opcode.NCTA: 0,
    Opcode.LD: 1,
    Opcode.ST: 2,
    Opcode.ATOMADD: 2,
    Opcode.SHLD: 1,
    Opcode.SHST: 2,
    Opcode.SHATOM: 2,
    Opcode.BRA: 1,
    Opcode.CBR: 3,
    Opcode.RET: None,
    Opcode.EXIT: 0,
    Opcode.CALL: None,
    Opcode.BSSY: 1,
    Opcode.BSYNC: 1,
    Opcode.BSYNCSOFT: 2,
    Opcode.BBREAK: 1,
    Opcode.BMOV: 1,
    Opcode.BARCNT: 1,
    Opcode.PREDICT: None,
    Opcode.WARPSYNC: 0,
    Opcode.CTASYNC: 0,
    Opcode.NOP: 0,
    Opcode.DELAY: 1,
}


def _fail(function, block, message):
    where = f"@{function.name}"
    if block is not None:
        where += f"/{block.name}"
    raise VerifierError(f"{where}: {message}")


def _check_ret(function, block, instr):
    if len(instr.operands) > 1:
        _fail(function, block, f"ret takes at most one operand: {instr!r}")


def _check_call(function, block, instr):
    if not instr.operands or not isinstance(instr.operands[0], FuncRef):
        _fail(function, block, f"call must name a function: {instr!r}")


def _check_bra(function, block, instr):
    if not isinstance(instr.operands[0], BlockRef):
        _fail(function, block, f"bra target must be a block: {instr!r}")


def _check_cbr(function, block, instr):
    if not isinstance(instr.operands[1], BlockRef) or not isinstance(
        instr.operands[2], BlockRef
    ):
        _fail(function, block, f"cbr targets must be blocks: {instr!r}")


def _check_barrier_operand(function, block, instr):
    bar = instr.operands[0] if instr.operands else None
    if not isinstance(bar, (Barrier, Reg)):
        _fail(
            function,
            block,
            f"{instr.opcode.value} needs a barrier or barrier register: "
            f"{instr!r}",
        )


def _shape_rule(opcode):
    """``(operand count or None, wants a dst or None, extra check)``."""
    if opcode in BINARY_OPS:
        expected = 2
    elif opcode in UNARY_OPS:
        expected = 1
    else:
        expected = _ARITY.get(opcode)
    if opcode is Opcode.CALL:
        wants_dst = None  # call dst optional
    else:
        wants_dst = opcode in HAS_DST or opcode is Opcode.BMOV
    if opcode in BARRIER_OPS or opcode is Opcode.BMOV:
        extra = _check_barrier_operand
    else:
        extra = {
            Opcode.RET: _check_ret,
            Opcode.CALL: _check_call,
            Opcode.BRA: _check_bra,
            Opcode.CBR: _check_cbr,
        }.get(opcode)
    return expected, wants_dst, extra


#: Opcode -> its shape rule, checked in order: operand count, the
#: opcode's own operand check, then the destination.
_SHAPES = {opcode: _shape_rule(opcode) for opcode in Opcode}


def _check_operand_shapes(function):
    for block in function.blocks:
        for instr in block.instructions:
            expected, wants_dst, extra = _SHAPES[instr.opcode]
            if expected is not None and len(instr.operands) != expected:
                _fail(
                    function,
                    block,
                    f"{instr.opcode.value} expects {expected} operands, "
                    f"got {len(instr.operands)}: {instr!r}",
                )
            if extra is not None:
                extra(function, block, instr)
            if wants_dst is None or (instr.dst is not None) is wants_dst:
                continue
            if wants_dst:
                _fail(
                    function,
                    block,
                    f"{instr.opcode.value} must define a register: {instr!r}",
                )
            _fail(
                function, block, f"{instr.opcode.value} must not define a register"
            )


def _check_terminators(function):
    for block in function.blocks:
        instrs = block.instructions
        if not instrs:
            _fail(function, block, "empty block (no terminator)")
        for instr in instrs[:-1]:
            if instr.opcode in TERMINATORS:
                _fail(
                    function,
                    block,
                    f"terminator {instr.opcode.value} not at block end",
                )
        if instrs[-1].opcode not in TERMINATORS:
            _fail(function, block, "block does not end in a terminator")


def _check_targets(function, module):
    known = {block.name for block in function.blocks}
    for block in function.blocks:
        for instr in block.instructions:
            for operand in instr.operands:
                if isinstance(operand, BlockRef) and operand.name not in known:
                    _fail(
                        function, block, f"branch to unknown block ^{operand.name}"
                    )
            if instr.opcode is Opcode.CALL and module is not None:
                callee = instr.operands[0].name
                if callee not in module.functions:
                    _fail(function, block, f"call to unknown function @{callee}")


def _check_defs_before_use(function):
    """Every use must be preceded by a definition on all paths.

    A forward must-defined fixpoint, ``IN[b] = ∩ OUT[preds] ∪ params``
    from an optimistic start (every register defined everywhere), over
    int bitsets with one bit per register. The entry block starts with
    the parameters only; a block without predecessors is unreachable and
    not checked. A block passes when its upward-exposed uses (read before
    any definition in the block) all lie in its IN set; otherwise it is
    rescanned in order to name the first offending use.
    """
    bits = {}
    params = 0
    for param in function.params:
        params |= 1 << bits.setdefault(param, len(bits))
    gen = {}
    exposed = []
    for block in function.blocks:
        defined = used = 0
        for instr in block.instructions:
            for operand in instr.operands:
                if isinstance(operand, Reg):
                    bit = 1 << bits.setdefault(operand, len(bits))
                    if not defined & bit:
                        used |= bit
            if instr.dst is not None:
                defined |= 1 << bits.setdefault(instr.dst, len(bits))
        gen[block.name] = defined
        exposed.append((block, used))
    universe = (1 << len(bits)) - 1

    preds = function.predecessors()
    entry = function.entry.name

    def live_in(name, out):
        if name == entry:
            return params
        incoming = preds[name]
        if not incoming:
            return None
        joined = universe
        for pred in incoming:
            joined &= out[pred]
        return joined | params

    out = {block.name: universe for block in function.blocks}
    out[entry] = params | gen[entry]
    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            name = block.name
            entering = live_in(name, out)
            new_out = (params if entering is None else entering) | gen[name]
            if new_out != out[name]:
                out[name] = new_out
                changed = True

    for block, used in exposed:
        live = live_in(block.name, out)
        if live is None or not used & ~live:
            continue
        for instr in block.instructions:
            for operand in instr.operands:
                if isinstance(operand, Reg) and not live >> bits[operand] & 1:
                    _fail(
                        function,
                        block,
                        f"register %{operand.name} used before any definition "
                        f"in {instr!r}",
                    )
            if instr.dst is not None:
                live |= 1 << bits[instr.dst]


def verify_function(function, module=None, check_defs=True):
    """Verify one function; raises :class:`VerifierError` on violation."""
    if not function.blocks:
        _fail(function, None, "function has no blocks")
    _check_terminators(function)
    # Shapes first: _check_targets reads a call's callee operand.
    _check_operand_shapes(function)
    _check_targets(function, module)
    if check_defs:
        _check_defs_before_use(function)
    return True


def verify_module(module, check_defs=True):
    """Verify every function in the module."""
    for function in module:
        verify_function(function, module=module, check_defs=check_defs)
    return True
