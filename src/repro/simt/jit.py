"""Tiered segment JIT: hot fused segments compiled to specialized Python.

Segment fusion (:mod:`repro.simt.segments`) already executes straight-line
runs as superinstructions, but each pure chunk is still *interpreted*: one
Python closure call per instruction per thread, dispatched through the
chunk's micro-op tuple. For the hot segments of a sweep — executed tens of
thousands of times against a handful of distinct shapes — that remaining
per-op dispatch is the dominant serial cost.

This module lowers a hot :class:`~repro.simt.segments.Segment` into
**generated Python source**: straight-line slot reads and writes on the
``Frame.regs`` list, one statement per instruction, no closures, no
dispatch, compiled once with :func:`compile`/``exec``. Lowering reuses the
executor's own eval tables as its semantic reference — every generated
expression is a textual specialization of the corresponding
``_BINARY_EVAL`` / ``_UNARY_EVAL`` lambda, preserving evaluation order
exactly (UNDEF raises at the same instruction, ``DIV``/``REM``/``SQRT``/
``LOG`` guards short-circuit identically, NaN and signed zeros flow
through untouched). Statically-known values (``CONST`` results and
anything computable from them) are folded at codegen time, vetoing the
fold on any exception or non-numeric result; folded slots are written
once at the end of their chunk ("virtual constants": readers inside the
chunk use the folded literal, so deferring the write is bit-identical).
Memory ops, barriers, and the terminating branch keep their decoded
handlers — the generated function calls them at exactly the
interpreter's split points.

**Tiering.** Codegen costs real time, so cold segments never pay it:
every segment execution below the tier-up threshold
(``EngineConfig.jit_threshold``, :mod:`repro.engine`) runs the interpreted
steps while a per-segment hit counter climbs; crossing the threshold
compiles the segment once and memoizes the result on the segment itself
(``Segment.jit_fn``). The process-wide :class:`SegmentCodeCache` holds
every compiled segment (weakly) with its generated source, for telemetry
and post-mortems. Any codegen failure **deopts** the segment — it runs
interpreted forever after, counted in ``jit.deopts``, never wrong.

Escape hatches mirror every prior layer: ``REPRO_JIT=0`` or
``engine_config(jit=False)``. The conformance matrix pins jit-on (with a
forced threshold of 0) against jit-off over the corpus, modes,
schedulers, and fuzzed kernels.
"""

from __future__ import annotations

import math
import weakref

from repro.ir.instructions import Imm, Opcode, Reg
from repro.obs.counters import ENGINE_COUNTERS
from repro.obs.spans import SpanRecorder
from repro.simt.executor import _BINARY_EVAL, _UNARY_EVAL

__all__ = [
    "SegmentCodeCache",
    "CODE_CACHE",
    "clear_code_cache",
    "codegen_spans",
    "compiled_segments",
    "jit_post_mortem",
    "last_executed_source",
    "tier_up",
]


# ---------------------------------------------------------------------------
# The compiled-segment registry
# ---------------------------------------------------------------------------
class SegmentCodeCache:
    """Process-wide registry of compiled segments and their source.

    Keyed by the :class:`~repro.simt.segments.Segment` itself, held
    weakly — segments live on the (weak) decode cache, so dead modules
    free their compiled code. Values are ``(fn, source)`` pairs; ``fn``
    is ``False`` for a segment codegen vetoed. Dispatch never reads this
    registry: each segment memoizes its own tier-up result.
    """

    def __init__(self):
        self._cache = weakref.WeakKeyDictionary()

    def store(self, segment, fn, source):
        self._cache[segment] = (fn, source)

    def clear(self):
        """Drop every compiled segment (tests and long-lived servers)."""
        self._cache.clear()

    def stats(self):
        return {"segments": len(self._cache)}

    def entries(self):
        """Live ``(segment, fn, source)`` records (telemetry)."""
        return [
            (segment, fn, source)
            for segment, (fn, source) in self._cache.items()
        ]


#: The process-global compiled-segment cache.
CODE_CACHE = SegmentCodeCache()


def clear_code_cache():
    """Drop every compiled segment (the decode-cache clear calls this)."""
    CODE_CACHE.clear()


#: Wall-time spans for every codegen run (repro.obs.spans shape); pure
#: timing spans — segments have no module-level IR to delta.
_CODEGEN_SPANS = SpanRecorder()


def codegen_spans():
    """The codegen :class:`~repro.obs.spans.SpanRecorder` (telemetry)."""
    return _CODEGEN_SPANS


#: The compiled function of the last JIT-executed segment (set by
#: ``Segment.execute``); its ``__jit_source__`` feeds post-mortems.
LAST_EXECUTED = None


def last_executed_source():
    """``(segment description, generated source)`` of the most recently
    executed JIT segment, or None."""
    fn = LAST_EXECUTED
    if fn is None:
        return None
    return fn.__jit_segment__, fn.__jit_source__


def jit_post_mortem():
    """The ``extra`` dict post-mortem reports carry for JIT launches:
    the generated source of the last-executed JIT segment, or None."""
    last = last_executed_source()
    if last is None:
        return None
    segment, source = last
    return {"jit": {"segment": segment, "source": source}}


def compiled_segments():
    """Telemetry records for every live compiled segment, hottest first.

    ``hits`` is the segment's interpreted execution count at tier-up
    (its hotness when codegen fired); deopted segments carry
    ``deopt: True`` and no source.
    """
    records = []
    for segment, fn, source in CODE_CACHE.entries():
        records.append(
            {
                "segment": f"@{_where(segment)}",
                "slots": segment.n,
                "hits": segment.jit_hits,
                "deopt": fn is False,
                "source": source if fn is not False else None,
            }
        )
    records.sort(key=lambda r: (-r["hits"], r["segment"]))
    return records


# ---------------------------------------------------------------------------
# Lowering: segment -> specialized Python source
# ---------------------------------------------------------------------------
def _where(segment):
    """``function/block:index`` of a segment's first instruction."""
    return f"{segment.fname}/{segment.bname}:{segment.start}"


class CodegenVeto(Exception):
    """Raised when a segment cannot be lowered bit-identically; the
    segment deopts (runs interpreted forever) instead of risking drift."""


#: Expression templates, one per eval-table lambda, preserving the
#: lambda's evaluation order exactly: conditional expressions test their
#: guard first, so an UNDEF operand raises at the same read the closure
#: path raises at. ``int`` is the executor's ``_as_int``; ``{a} != 0`` is
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
    index advances once. A value re-read later in its chunk is
    additionally bound to a local (``_s<n>``) so those reads are
    LOAD_FASTs instead of list subscripts — the regs write still happens
    in program order, so register state (and UNDEF raising, which only
    happens on *use*) is untouched.
    """
    # Plan pass: resolve folding and operands. Each runtime op becomes
    # (instr, dst slot, operand descriptors) with descriptors already
    # resolved against the fold state: ("lit", value) | ("slot", n).
    known = {}
    plan = []

    def descriptor(operand):
        if isinstance(operand, Imm):
            return ("lit", operand.value)
        if isinstance(operand, Reg):
            slot = slots[operand.name]
            if slot in known:
                return ("lit", known[slot])
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

    def operand_expr(operand):
        kind, payload = operand
        if kind == "lit":
            return ns.literal(payload)
        name = bound.get(payload)
        return name if name is not None else f"_r[{payload}]"

    for (instr, dst, operands), live in zip(plan, reused):
        opcode = instr.opcode
        if opcode in _BINARY_EXPR:
            a, b = operands
            expr = _BINARY_EXPR[opcode].format(
                a=operand_expr(a), b=operand_expr(b)
            )
        elif opcode in _UNARY_EXPR:
            expr = _UNARY_EXPR[opcode].format(a=operand_expr(operands[0]))
        elif opcode in _THREAD_EXPR:
            expr = _THREAD_EXPR[opcode]
        elif opcode is Opcode.CONST:
            expr = operand_expr(operands[0])
        elif opcode is Opcode.SEL:
            expr = "({t} if {p} != 0 else {f})".format(
                p=operand_expr(operands[0]),
                t=operand_expr(operands[1]),
                f=operand_expr(operands[2]),
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

    if not body:
        lines.append(f"{indent}for _t in group:")
        lines.append(f"{indent}    _t.frames[-1].index = {end_index}")
        return
    lines.append(f"{indent}for _t in group:")
    lines.append(f"{indent}    _f = _t.frames[-1]")
    lines.append(f"{indent}    _r = _f.regs")
    for statement in body:
        lines.append(f"{indent}    {statement}")
    lines.append(f"{indent}    _f.index = {end_index}")


def _lower_segment(segment):
    """Generate ``(fn, source)`` for one segment."""
    ir = segment.jit_ir
    if ir is None:
        raise CodegenVeto("segment retained no lowering IR")
    records, slots = ir
    where = _where(segment)

    ns = _Namespace()
    static_total = sum(cycles for _is_chunk, _payload, cycles in segment.steps)
    lines = [
        f"# jit: segment @{where} n={segment.n}",
        "def _jit_segment(executor, warp, group):",
        f"    _total = {static_total}",
    ]
    for record in records:
        if record[0]:  # pure chunk
            _lower_chunk(record[1], record[2], slots, ns, lines, "    ")
        else:  # decoded handler step (memory op or terminating branch)
            name = ns.bind("_h", record[1])
            lines.append(f"    _total += {name}(executor, warp, group)")
    lines.append("    return _total")
    source = "\n".join(lines) + "\n"

    namespace = dict(ns.bindings)
    exec(compile(source, f"<jit:{where}>", "exec"), namespace)  # noqa: S102
    fn = namespace["_jit_segment"]
    fn.__jit_source__ = source
    fn.__jit_segment__ = f"@{where} n={segment.n}"
    return fn, source


# ---------------------------------------------------------------------------
# Tier-up
# ---------------------------------------------------------------------------
def tier_up(segment, executor):
    """Compile ``segment``'s JIT function and memoize it on the segment.

    Returns the compiled function, or ``False`` when codegen vetoed (the
    segment deopts: it runs interpreted from now on). Either way the
    result is memoized in ``segment.jit_fn``, so the per-execution
    dispatch never calls back here for this segment (vetoes are
    deterministic, so retrying would only burn time).
    """
    profiler = executor.profiler
    profiler.jit_tierups += 1
    where = _where(segment)
    with _CODEGEN_SPANS.span(f"jit:{where}"):
        try:
            fn, source = _lower_segment(segment)
        except CodegenVeto as veto:
            fn, source = False, str(veto)
        except Exception as error:  # pragma: no cover - defensive
            fn, source = False, f"{type(error).__name__}: {error}"
    CODE_CACHE.store(segment, fn, source)
    if fn is False:
        profiler.jit_deopts += 1
    else:
        ENGINE_COUNTERS.jit_compiled_segments += 1
    recorder = executor.recorder
    if recorder is not None and recorder.verbose:
        recorder.record(
            "jit-compile",
            {"segment": f"@{where}", "slots": segment.n, "deopt": fn is False},
        )
    segment.jit_fn = fn
    return fn
