"""Generated code: every fused segment, and every pure op issued alone,
runs as specialized Python.

Segment fusion (:mod:`repro.simt.segments`) finds the traces a converged
warp may execute as one superinstruction. This module turns each trace
into **generated Python source** the moment the segment is built, and
each pure op (:data:`_PURE_OPS`) on its first issue outside a segment
(:func:`lower_op`, called by the decoded program,
:mod:`repro.simt.fastpath`), so the templates below are the one fast
semantics of pure ops:
straight-line slot reads and writes on the ``Frame.regs`` list, one
statement per instruction, no closures, no dispatch. Lowering reuses the
executor's own eval tables as its semantic reference — every generated
expression is a textual specialization of the corresponding
``_BINARY_EVAL`` / ``_UNARY_EVAL`` lambda, preserving evaluation order
exactly (UNDEF raises at the same instruction — a copy checks its slot
read, as the interpreter's read does — ``DIV``/``REM``/``SQRT``/``LOG``
guards short-circuit identically, NaN and signed zeros flow through
untouched). Statically-known values (``CONST`` results and
anything computable from them) are folded at codegen time, vetoing the
fold on any exception or non-numeric result; folded slots are written
once at the end of their chunk ("virtual constants": readers inside the
chunk use the folded literal, so deferring the write is bit-identical).
Memory ops, ``bssy``, ``bbreak`` and ``bra`` keep their decoded handlers —
the generated function calls them in program order.

**Exits.** A trace may leave early. Before a ``bbreak`` the generated code
checks that no lane is parked on its barrier, and leaves just before the
``bbreak`` if one is. An ending ``cbr`` tests every lane's predicate
first: when all agree the group jumps to that target, and when they
disagree, or a test raises (UNDEF), the trace leaves before the branch.
Every way out returns ``(cycles, exit)``, where ``exit`` is a static
:class:`~repro.simt.segments.SegmentExit` bound into the function's
namespace, so the machine accounts exactly the slots that ran.

**Shared code.** Most segments generate the same source as some other
segment: the same shape at another PC, or the same kernel compiled
again; a lone op's source is the same at every PC. The process-wide
:class:`SegmentCodeCache` maps each source (without its ``# jit: segment
@where`` header line) to one code object, so every distinct source, op
or segment, goes through :func:`compile` once (``jit.compiled_segments``).
Each segment or op still runs that code (``exec``) in its own namespace,
so its decoded handlers and interned constants stay its own. The cache
also holds every live compiled segment (weakly) for telemetry and
post-mortems.

**Vetoes.** A run codegen cannot lower bit-identically is not fused:
:meth:`~repro.simt.segments.SegmentTable.at` returns None and the warp
issues it one instruction at a time, with identical results. A lone op
codegen cannot lower runs the interpreter's ``Executor._execute_slow``
from then on. Both are counted once in ``jit.deopts``.

``REPRO_SEGMENTS=0`` (or ``engine_config(segments=False)``,
:mod:`repro.engine`) turns fusion off; pure ops still run generated code.
The conformance matrix pins both against the interpreted reference over
the corpus, modes, schedulers, and fuzzed kernels.
"""

from __future__ import annotations

import math
import weakref

from repro.errors import SimulationError
from repro.ir.instructions import Imm, Opcode, Reg
from repro.obs.counters import ENGINE_COUNTERS
from repro.obs.spans import SpanRecorder
from repro.simt.executor import (
    _BINARY_EVAL,
    _UNARY_EVAL,
    _UNIFORM_OPS,
    interpreted,
)
from repro.simt.warp import UNDEF

__all__ = [
    "SegmentCodeCache",
    "CODE_CACHE",
    "clear_code_cache",
    "codegen_spans",
    "compiled_segments",
    "jit_post_mortem",
    "last_executed_source",
    "lower_op",
    "lower_segment",
]


# ---------------------------------------------------------------------------
# The code cache
# ---------------------------------------------------------------------------
#: Wall-time spans for every ``compile()`` call (repro.obs.spans shape);
#: pure timing spans — segments have no module-level IR to delta.
_CODEGEN_SPANS = SpanRecorder()


class SegmentCodeCache:
    """Process-wide memo from generated source to code object, plus a
    registry of the live compiled segments.

    Segments are held weakly — they live on the (weak) decode cache, so
    dead modules drop out of the registry. The code memo is keyed by
    source text and holds one code object per distinct source.
    """

    def __init__(self):
        self._segments = weakref.WeakSet()
        self._code = {}

    def code(self, source, where):
        """The code object for ``source``; compiles it on a miss (the
        codegen span is named after ``where``, the first segment to
        generate it)."""
        code = self._code.get(source)
        if code is None:
            with _CODEGEN_SPANS.span(f"jit:{where}"):
                code = compile(source, "<jit>", "exec")
            self._code[source] = code
            ENGINE_COUNTERS.jit_compiled_segments += 1
        return code

    def store(self, segment):
        self._segments.add(segment)

    def clear(self):
        """Drop every compiled segment and code object (tests and
        long-lived servers)."""
        self._segments.clear()
        self._code.clear()

    def stats(self):
        return {"segments": len(self._segments), "sources": len(self._code)}

    def segments(self):
        """The live compiled segments (telemetry)."""
        return list(self._segments)


#: The process-global code cache.
CODE_CACHE = SegmentCodeCache()


def clear_code_cache():
    """Drop every compiled segment (the decode-cache clear calls this)."""
    CODE_CACHE.clear()


def codegen_spans():
    """The codegen :class:`~repro.obs.spans.SpanRecorder` (telemetry)."""
    return _CODEGEN_SPANS


#: The compiled function of the last executed segment (set by
#: ``Segment.execute``); its ``__jit_source__`` feeds post-mortems.
LAST_EXECUTED = None


def last_executed_source():
    """``(segment description, generated source)`` of the most recently
    executed segment, or None."""
    fn = LAST_EXECUTED
    if fn is None:
        return None
    return fn.__jit_segment__, fn.__jit_source__


def jit_post_mortem():
    """The ``jit`` section post-mortem reports carry for launches that ran
    fused segments: the generated source of the last-executed one, or
    None."""
    last = last_executed_source()
    if last is None:
        return None
    segment, source = last
    return {"segment": segment, "source": source}


def compiled_segments():
    """Telemetry records for every live compiled segment, by location."""
    records = [
        {
            "segment": f"@{_where(segment)}",
            "slots": segment.n,
            "source": segment.fn.__jit_source__,
        }
        for segment in CODE_CACHE.segments()
    ]
    records.sort(key=lambda r: r["segment"])
    return records


# ---------------------------------------------------------------------------
# Lowering: segment -> specialized Python source
# ---------------------------------------------------------------------------
def _where(segment):
    """``function/block:index`` of a segment's first instruction."""
    return f"{segment.fname}/{segment.bname}:{segment.start}"


class CodegenVeto(Exception):
    """Raised when a segment cannot be lowered bit-identically; the run
    is not fused (it issues one instruction at a time) instead of
    risking drift."""


#: Fusable ops whose effects are *thread-private*: registers, the RNG
#: stream, and the frame index only. These reorder freely across threads,
#: so a run of them executes thread-major. LD/ST/ATOMADD touch shared
#: memory (lane order and dynamic coalescing cost matter) and BRA rewrites
#: the PC, so they stay instruction-major via their decoded handlers;
#: CALL never reaches a segment. DELAY is pure here: it only charges
#: static cycles and advances the PC.
_PURE_OPS = _UNIFORM_OPS - {
    Opcode.CALL, Opcode.LD, Opcode.ST, Opcode.ATOMADD, Opcode.BRA,
}


#: Expression templates, one per eval-table lambda, preserving the
#: lambda's evaluation order exactly: conditional expressions test their
#: guard first, so an UNDEF operand raises at the same read the lambda
#: raises at. ``int`` is the executor's ``_as_int``; ``{a} != 0`` is
#: its ``_truthy``.
_BINARY_EXPR = {
    Opcode.ADD: "({a} + {b})",
    Opcode.SUB: "({a} - {b})",
    Opcode.MUL: "({a} * {b})",
    Opcode.DIV: "({a} / {b} if {b} != 0 else 0.0)",
    Opcode.REM: "(int({a}) % int({b}) if int({b}) != 0 else 0)",
    Opcode.MIN: "min({a}, {b})",
    Opcode.MAX: "max({a}, {b})",
    Opcode.AND: "(int({a}) & int({b}))",
    Opcode.OR: "(int({a}) | int({b}))",
    Opcode.XOR: "(int({a}) ^ int({b}))",
    Opcode.SHL: "(int({a}) << int({b}))",
    Opcode.SHR: "(int({a}) >> int({b}))",
    Opcode.CMPLT: "(1 if {a} < {b} else 0)",
    Opcode.CMPLE: "(1 if {a} <= {b} else 0)",
    Opcode.CMPGT: "(1 if {a} > {b} else 0)",
    Opcode.CMPGE: "(1 if {a} >= {b} else 0)",
    Opcode.CMPEQ: "(1 if {a} == {b} else 0)",
    Opcode.CMPNE: "(1 if {a} != {b} else 0)",
}

_UNARY_EXPR = {
    Opcode.MOV: "{a}",
    Opcode.NEG: "(-{a})",
    Opcode.NOT: "(0 if {a} != 0 else 1)",
    Opcode.SQRT: "(_sqrt({a}) if {a} > 0 else 0.0)",
    Opcode.SIN: "_sin({a})",
    Opcode.COS: "_cos({a})",
    Opcode.EXP: "_exp(min({a}, 60.0))",
    Opcode.LOG: "(_log({a}) if {a} > 0 else 0.0)",
    Opcode.FLOOR: "int(_floor({a}))",
    Opcode.ABS: "abs({a})",
}

#: Thread-intrinsic expressions (``_t`` is the loop's thread).
_THREAD_EXPR = {
    Opcode.TID: "_t.tid",
    Opcode.LANE: "_t.lane",
    Opcode.WARPID: "_t.warp_id",
    Opcode.RAND: "_t.rng.uniform()",
}

#: Returned by :func:`_fold` when an instruction cannot be folded.
_NO_FOLD = object()


class _Namespace:
    """The generated function's global namespace builder: the math
    functions bound directly (no per-call attribute lookup), decoded
    handlers, and interned constants for values with no exact literal
    form."""

    def __init__(self):
        self.bindings = {
            "_sqrt": math.sqrt,
            "_sin": math.sin,
            "_cos": math.cos,
            "_exp": math.exp,
            "_log": math.log,
            "_floor": math.floor,
        }
        self._const_ids = {}

    def bind(self, prefix, value):
        name = f"{prefix}{len(self.bindings)}"
        self.bindings[name] = value
        return name

    def literal(self, value):
        """An expression producing exactly ``value``.

        ints and finite floats round-trip through ``repr`` (CPython float
        repr is shortest-exact); anything else — inf/nan, bools, strings
        — is interned as a namespace constant so the generated code
        reuses the decoded program's own object.
        """
        if type(value) is int or (
            type(value) is float and math.isfinite(value)
        ):
            text = repr(value)
            return f"({text})" if text.startswith("-") else text
        key = (type(value), id(value))
        name = self._const_ids.get(key)
        if name is None:
            name = self.bind("_k", value)
            self._const_ids[key] = name
        return name


def _fold(instr, known, slots):
    """Statically evaluate an instruction whose operands are all known
    scalars, via the executor's own eval tables; :data:`_NO_FOLD` (and a
    runtime statement) otherwise: lazy SEL, ``a * b + c`` FMA, veto on
    any exception or non-int/float result."""
    opcode = instr.opcode

    def value_of(operand):
        if isinstance(operand, Imm):
            value = operand.value
            return value if type(value) in (int, float) else _NO_FOLD
        if isinstance(operand, Reg):
            return known.get(slots[operand.name], _NO_FOLD)
        return _NO_FOLD

    if opcode is Opcode.CONST:
        return value_of(instr.operands[0])
    if opcode is Opcode.SEL:
        pred = value_of(instr.operands[0])
        if pred is _NO_FOLD:
            return _NO_FOLD
        # Only the picked operand is evaluated (the executor's SEL is
        # lazy), so an unpicked unknown must not block the fold.
        return value_of(instr.operands[1 if pred != 0 else 2])
    values = [value_of(operand) for operand in instr.operands]
    if any(value is _NO_FOLD for value in values):
        return _NO_FOLD
    try:
        if opcode is Opcode.FMA:
            a, b, c = values
            value = a * b + c
        elif opcode in _BINARY_EVAL:
            value = _BINARY_EVAL[opcode](values[0], values[1])
        elif opcode in _UNARY_EVAL:
            value = _UNARY_EVAL[opcode](values[0])
        else:
            return _NO_FOLD
    except Exception:
        return _NO_FOLD
    return value if type(value) in (int, float) else _NO_FOLD


def _lower_chunk(entries, end_index, slots, ns, lines, indent):
    """Emit one pure chunk as a straight-line per-thread loop body.

    Statements write ``_r`` (the thread's regs list) in program order;
    statically-known slots are folded at codegen time and written once at
    the end of the chunk ("virtual constant" containment), then the frame
    index advances once, to ``end_index`` (by one when ``end_index`` is
    None: a lone op, whose code is then the same at every PC). A value
    re-read later in its chunk is additionally bound to a local
    (``_s<n>``) so those reads are LOAD_FASTs instead of list subscripts
    — the regs write still happens in program order, so register state is
    untouched. Arithmetic on UNDEF raises by itself; a copy (``mov``, the
    picked ``sel`` operand) of a slot read checks for it, so every op
    raises where the interpreter's read does.
    """
    # Plan pass: resolve folding and operands. Each runtime op becomes
    # (instr, dst slot, operand descriptors) with descriptors already
    # resolved against the fold state: ("lit", value) | ("slot", n).
    known = {}
    plan = []
    regs = {}  # slot -> its Reg operand, for the UNDEF read's diagnostic

    def descriptor(operand):
        if isinstance(operand, Imm):
            return ("lit", operand.value)
        if isinstance(operand, Reg):
            slot = slots[operand.name]
            if slot in known:
                return ("lit", known[slot])
            regs[slot] = operand
            return ("slot", slot)
        raise CodegenVeto(f"unsupported operand {operand!r}")

    for entry in entries:
        instr = entry.instr
        opcode = instr.opcode
        if opcode in (Opcode.NOP, Opcode.PREDICT, Opcode.DELAY):
            continue  # no register effect; index advance folded below
        value = _fold(instr, known, slots)
        if value is not _NO_FOLD:
            known[slots[instr.dst.name]] = value
            continue
        operands = tuple(descriptor(op) for op in instr.operands)
        dst = slots[instr.dst.name]
        plan.append((instr, dst, operands))
        known.pop(dst, None)

    # Liveness pass: is the value defined at position i re-read before
    # the next definition of its slot? Only then is the local binding a
    # win (the ``_r`` write happens either way).
    reused = []
    for i, (_instr, dst, _operands) in enumerate(plan):
        live = False
        for _later, later_dst, later_operands in plan[i + 1:]:
            if any(kind == "slot" and payload == dst
                   for kind, payload in later_operands):
                live = True
                break
            if later_dst == dst:
                break
        reused.append(live)

    # Emit pass.
    body = []
    bound = {}  # slot -> local name holding its current value

    def operand_expr(operand, copied=False):
        kind, payload = operand
        if kind == "lit":
            return ns.literal(payload)
        name = bound.get(payload)
        if name is not None:
            return name  # computed in this chunk, so never UNDEF
        if not copied:
            return f"_r[{payload}]"
        return (
            f"(_v if (_v := _r[{payload}]) is not {ns.literal(UNDEF)} "
            f"else _f.read({ns.literal(regs[payload])}))"
        )

    for (instr, dst, operands), live in zip(plan, reused):
        opcode = instr.opcode
        if opcode in _BINARY_EXPR:
            a, b = operands
            expr = _BINARY_EXPR[opcode].format(
                a=operand_expr(a), b=operand_expr(b)
            )
        elif opcode in _UNARY_EXPR:
            expr = _UNARY_EXPR[opcode].format(
                a=operand_expr(operands[0], copied=opcode is Opcode.MOV)
            )
        elif opcode in _THREAD_EXPR:
            expr = _THREAD_EXPR[opcode]
        elif opcode is Opcode.CONST:
            expr = operand_expr(operands[0])
        elif opcode is Opcode.SEL:
            expr = "({t} if {p} != 0 else {f})".format(
                p=operand_expr(operands[0]),
                t=operand_expr(operands[1], copied=True),
                f=operand_expr(operands[2], copied=True),
            )
        elif opcode is Opcode.FMA:
            expr = "({a} * {b} + {c})".format(
                a=operand_expr(operands[0]),
                b=operand_expr(operands[1]),
                c=operand_expr(operands[2]),
            )
        else:
            raise CodegenVeto(f"no lowering for pure opcode {opcode.value}")
        bound.pop(dst, None)
        if live:
            name = f"_s{dst}"
            body.append(f"{name} = {expr}")
            body.append(f"_r[{dst}] = {name}")
            bound[dst] = name
        else:
            body.append(f"_r[{dst}] = {expr}")
    for slot in sorted(known):
        body.append(f"_r[{slot}] = {ns.literal(known[slot])}")

    advance = "+= 1" if end_index is None else f"= {end_index}"
    if not body:
        lines.append(f"{indent}for _t in group:")
        lines.append(f"{indent}    _t.frames[-1].index {advance}")
        return
    lines.append(f"{indent}for _t in group:")
    lines.append(f"{indent}    _f = _t.frames[-1]")
    lines.append(f"{indent}    _r = _f.regs")
    for statement in body:
        lines.append(f"{indent}    {statement}")
    lines.append(f"{indent}    _f.index {advance}")


def _static_cycles(entry):
    """The fixed issue cost of a pure instruction (DELAY carries its own)."""
    if entry.opcode is Opcode.DELAY:
        return int(entry.instr.operands[0].value)
    return entry.latency


def _lower_segment(segment, entries, slots):
    """The compiled function of ``segment`` over its decoded ``entries``.

    Runs of pure entries become thread-major chunks (:func:`_lower_chunk`)
    with their static cycles summed at codegen time; memory ops, barrier
    ops and ``bra`` are one call of their decoded handler each,
    instruction-major, preserving lane-ordered memory semantics and
    dynamic coalescing costs. A ``bbreak`` is guarded and an ending ``cbr``
    checked over the group (:func:`_lower_cbr`). Each way out returns
    ``(cycles, exit)`` with its own
    :class:`~repro.simt.segments.SegmentExit`: ``_total`` sums the
    handlers' cycles, and the pure ops' (and the ``cbr``'s) static cycles
    up to that exit are a literal in the return.
    """
    ns = _Namespace()
    fname, bname = segment.fname, segment.bname
    body = []
    static_total = 0
    pure = []
    index = segment.start

    def leave(n, end_pc, cycles):
        """The return statement of the exit after the first ``n``
        entries, where the group then sits at ``end_pc``."""
        name = ns.bind("_x", segment.exit(entries[:n], end_pc))
        return f"return _total + {cycles}, {name}"

    for position, entry in enumerate(entries):
        opcode = entry.opcode
        if opcode in _PURE_OPS:
            pure.append(entry)
            static_total += _static_cycles(entry)
            index += 1
            continue
        if pure:
            # Even an all-NOP chunk must advance the frame index.
            _lower_chunk(pure, index, slots, ns, body, "    ")
            pure = []
        if opcode in (Opcode.BRA, Opcode.CBR) and entry is not entries[-1]:
            raise CodegenVeto(f"{opcode.value} before the end of a trace")
        if opcode is Opcode.CBR:
            before = leave(position, (fname, bname, index), static_total)
            taken = [
                leave(position + 1, (fname, target.name, 0),
                      static_total + entry.latency)
                for target in entry.instr.operands[1:]
            ]
            _lower_cbr(entry, slots, ns, body, before, taken)
            break
        if opcode is Opcode.BBREAK:
            # Guard: a withdraw must not complete a release, so no lane
            # may be parked on the barrier. The lookup creates no record
            # (the handler creates it, as _step's issue would).
            barrier = ns.literal(entry.instr.operands[0].name)
            body.append(
                f"    _b = warp.barriers.barriers_dict().get({barrier})"
            )
            body.append("    if _b is not None and _b.parked_mask:")
            body.append(
                "        "
                + leave(position, (fname, bname, index), static_total)
            )
        handler = ns.bind("_h", entry.run)
        body.append(f"    _total += {handler}(executor, warp, group)")
        index += 1
    else:
        if pure:
            _lower_chunk(pure, index, slots, ns, body, "    ")
        last = entries[-1]
        if last.opcode is Opcode.BRA:
            end_pc = (fname, last.instr.operands[0].name, 0)
        else:
            end_pc = (fname, bname, index)
        body.append("    " + leave(len(entries), end_pc, static_total))
    lines = [
        "def _jit_segment(executor, warp, group):",
        "    _total = 0",
        *body,
    ]
    code_source = "\n".join(lines) + "\n"
    where = _where(segment)

    namespace = dict(ns.bindings)
    exec(CODE_CACHE.code(code_source, where), namespace)  # noqa: S102
    fn = namespace["_jit_segment"]
    fn.__jit_source__ = f"# jit: segment @{where} n={segment.n}\n{code_source}"
    fn.__jit_segment__ = f"@{where} n={segment.n}"
    return fn


def _lower_cbr(entry, slots, ns, body, before, taken):
    """Emit a trace's ending ``cbr``: ``before`` and ``taken`` (one per
    target, true first) are the return statements of its exits.

    Every lane's predicate is tested first. When all agree, the group
    jumps to that target. Otherwise, or when a test raises (an UNDEF
    predicate), the trace leaves before the branch, so the machine issues
    it, and raises from it, the ordinary way.
    """
    pred, true_target, false_target = entry.instr.operands
    if isinstance(pred, Reg):
        test = f"_t.frames[-1].regs[{slots[pred.name]}] != 0"
    elif isinstance(pred, Imm):
        test = f"{ns.literal(pred.value)} != 0"
    else:
        raise CodegenVeto(f"unsupported cbr predicate {pred!r}")
    body.extend([
        "    try:",
        f"        _q = [{test} for _t in group]",
        "    except Exception:",
        f"        {before}",
    ])
    for target, absent, leave in zip(
        (true_target, false_target), ("False", "True"), taken
    ):
        body.extend([
            f"    if {absent} not in _q:",
            "        for _t in group:",
            "            _f = _t.frames[-1]",
            f"            _f.block_name = {ns.literal(target.name)}",
            "            _f.index = 0",
            f"        {leave}",
        ])
    body.append(f"    {before}")


def _read_operands(instr, frame):
    """Read ``instr``'s register operands through ``frame`` in the order
    the interpreter reads them (``sel``: its predicate, then the picked
    operand), so the first UNDEF raises the interpreter's error."""
    operands = instr.operands
    if instr.opcode is Opcode.SEL:
        pred = operands[0]
        value = frame.read(pred) if isinstance(pred, Reg) else pred.value
        operands = (operands[1] if value != 0 else operands[2],)
    for operand in operands:
        if isinstance(operand, Reg):
            frame.read(operand)


def lower_op(entry, slots, pc):
    """The ``run`` of one pure decoded ``entry`` issued alone at ``pc``:
    its chunk, lowered over the lone entry, returning the op's static
    cycles. On a codegen veto, the interpreter's
    ``Executor._execute_slow`` instead, counted in ``jit.deopts``.

    Arithmetic on an UNDEF operand raises the sentinel's error; only then
    does the failing thread re-read the op's operands
    (:func:`_read_operands`), so the op fails with the interpreter's
    message at no cost to the issue path.
    """
    ns = _Namespace()
    lines = ["def _jit_op(executor, warp, group):", "    try:"]
    try:
        _lower_chunk((entry,), None, slots, ns, lines, "        ")
    except CodegenVeto:
        ENGINE_COUNTERS.jit_deopts += 1
        return interpreted(entry.instr)
    lines += [
        "    except _SimulationError:",
        "        _read_operands(_op, _t.frames[-1])",
        "        raise",
        f"    return {_static_cycles(entry)}",
    ]
    namespace = dict(
        ns.bindings, _SimulationError=SimulationError,
        _read_operands=_read_operands, _op=entry.instr,
    )
    where = "{}/{}:{}".format(*pc)
    exec(CODE_CACHE.code("\n".join(lines) + "\n", where), namespace)  # noqa: S102
    return namespace["_jit_op"]


def lower_segment(segment, entries, slots):
    """Compile ``segment`` (built over the decoded ``entries`` with the
    function's register ``slots``); returns its function, or None when
    codegen vetoed and the run must issue one instruction at a time.
    """
    try:
        fn = _lower_segment(segment, entries, slots)
    except CodegenVeto:
        ENGINE_COUNTERS.jit_deopts += 1
        return None
    ENGINE_COUNTERS.jit_tierups += 1
    CODE_CACHE.store(segment)
    return fn
