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
Memory ops, ``bssy`` and ``bbreak`` keep their decoded handlers — the
generated function calls them in program order.

**Branches.** A trace that ends at a branch pays one pass over its group
for it. When the branch directly follows the trace's last pure chunk —
a ``bra``, or a ``cbr`` whose predicate that chunk computes at run time
— the chunk *routes* it: each lane's tail in the chunk's lane loop sets
its block and index 0 at the target, and for ``cbr`` files the lane in
the taken or fallen list. Any other ending ``bra`` runs its decoded
handler, and any other ending ``cbr`` files the lanes in one loop over
the group, then moves them.

**Exits.** A trace may leave early. Before a ``bbreak`` the generated code
checks that no lane is parked on its barrier, and leaves just before the
``bbreak`` if one is. A ``cbr`` that is not routed leaves before the
branch when a predicate test raises (UNDEF), before any lane moved. A
trace that runs its ``cbr`` leaves at the one target when every lane
took it, and otherwise through a *split exit*: it reports the taken and
fallen lanes in ``executor.moved``, the decoded ``cbr``'s move report,
and the machine inserts both buckets. Every way out returns ``(cycles,
exit)``, where ``exit`` is a static
:class:`~repro.simt.segments.SegmentExit` bound into the function's
namespace, so the machine accounts exactly the slots that ran.

**Failures.** A segment that raises is not run again: its function
maps each source line to the op it runs (``__jit_ops__``; a routed
branch's lines, which cannot raise, map to None), and
:func:`fused_failure` works out from the raising line which slot the
reference fails at and with what error, on the failure path only.

**Shared code.** Most segments generate the same source as some other
segment: the same kernel compiled again, or another module of the same
shape; a lone op's source is the same at every PC. The process-wide
:class:`SegmentCodeCache` pays for each only once:

* *Shapes.* A segment is keyed, before any source is generated, on what
  its source depends on (:func:`_shape_key`: its start index, and per
  entry the opcode, register slots, immediates, latency, and which
  operand objects are shared; no function, block or register name). The
  first segment of a shape generates the source and a binding recipe
  (:func:`_recipe`); every later one only builds its own namespace from
  the recipe — its own handlers, its own exits at its own PCs, its own
  names and registers — and runs the shared code (``jit.shape_hits``). A
  shape codegen vetoed is vetoed for every segment of that shape.
* *Sources.* Each source (without its ``# jit: segment @where`` header
  line) maps to one code object, so every distinct source, op or
  segment, goes through :func:`compile` once (``jit.compiled_segments``).

``jit.tierups`` counts every segment lowered, from a shape hit or not.
Each segment or op runs the shared code (``exec``) in its own namespace,
so its decoded handlers and interned constants stay its own, and its
``__jit_source__``, ``__jit_segment__`` and ``__jit_ops__`` are what a
fresh lowering gives. ``clear_code_cache`` empties both memos. The cache
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

import marshal
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
    """Process-wide memos from segment shape to its lowering and from
    generated source to code object, plus a registry of the live
    compiled segments.

    Segments are held weakly — they live on the (weak) decode cache, so
    dead modules drop out of the registry. The code memo is keyed by
    source text and holds one code object per distinct source; the shape
    memo holds one :class:`_Shape` (or the veto) per shape key, which
    references no module.
    """

    def __init__(self):
        self._segments = weakref.WeakSet()
        self._code = {}
        self._line_ops = {}
        self._shapes = {}

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

    def shape(self, key):
        """The :class:`_Shape` (or the veto) lowered for a segment shape
        key (:func:`_shape_key`), or None; None for no key."""
        return None if key is None else self._shapes.get(key)

    def add_shape(self, key, shape):
        if key is not None:
            self._shapes[key] = shape

    def store(self, segment):
        self._segments.add(segment)

    def line_ops(self, ops):
        """One shared copy of a shape's line-to-op map (on ``figures``,
        394 shapes have 103 distinct maps)."""
        return self._line_ops.setdefault(ops, ops)

    def clear(self):
        """Drop every compiled segment, shape and code object (tests
        and long-lived servers)."""
        self._segments.clear()
        self._code.clear()
        self._line_ops.clear()
        self._shapes.clear()

    def stats(self):
        return {"segments": len(self._segments), "sources": len(self._code)}

    def shape_count(self):
        """Distinct segment shapes seen (lowered or vetoed)."""
        return len(self._shapes)

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
#: memory (lane order and dynamic coalescing cost matter), so they stay
#: instruction-major via their decoded handlers; BRA ends a trace, routed
#: by the chunk before it when there is one (:func:`_lower_chunk`);
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

#: The shape-cache entry of a shape codegen vetoed.
_VETOED = object()

#: Pure ops that write no register: a chunk only advances past them.
_NO_REGISTER_EFFECT = frozenset((Opcode.NOP, Opcode.PREDICT, Opcode.DELAY))


#: The math functions every generated function's namespace starts with,
#: bound directly (no per-call attribute lookup).
_MATH_BINDINGS = {
    "_sqrt": math.sqrt,
    "_sin": math.sin,
    "_cos": math.cos,
    "_exp": math.exp,
    "_log": math.log,
    "_floor": math.floor,
}


class _Namespace:
    """The generated function's global namespace builder: the math
    functions, decoded handlers, and interned constants for values with
    no exact literal form.

    A segment binds its handlers and exits with an ``origin`` (a binding
    recipe item, :func:`_recipe`) instead of a value: its namespace is
    built from the recipe, on its first lowering as on every later one.
    """

    def __init__(self):
        self.bindings = dict(_MATH_BINDINGS)
        self.origins = {}
        self._const_ids = {}

    def bind(self, prefix, value, origin=None):
        name = f"{prefix}{len(self.bindings)}"
        self.bindings[name] = value
        if origin is not None:
            self.origins[name] = origin
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


def _lower_chunk(entries, end_index, slots, ns, lines, indent, ops=None,
                 base=0, branch=None):
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

    ``branch``, when given, is the decoded ``bra`` or ``cbr`` right after
    the chunk. The chunk *routes* it when it can: each lane's tail then
    moves the lane to the branch target instead of advancing its index
    (a ``cbr`` also files the lane in ``_tk`` or ``_fl``, its taken and
    fallen lists, in lane order), so the branch costs no pass of its
    own. A ``cbr`` is routed only when the chunk computes its predicate
    at run time, so the predicate is never UNDEF; an empty body (all
    ``nop``/``predict``/``delay``) routes nothing. Returns True when the
    branch was routed.

    ``ops``, when given, gets one item per emitted line, in step with
    ``lines``: ``base`` plus the chunk position of the op the line
    computes, or None (:func:`fused_failure` reads it).
    """
    # Plan pass: resolve folding and operands. Each runtime op becomes
    # (position, instr, dst slot, operand descriptors) with descriptors
    # already resolved against the fold state: ("lit", value) |
    # ("slot", n).
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

    for position, entry in enumerate(entries):
        instr = entry.instr
        opcode = instr.opcode
        if opcode in _NO_REGISTER_EFFECT:
            continue  # index advance folded below
        value = _fold(instr, known, slots)
        if value is not _NO_FOLD:
            known[slots[instr.dst.name]] = value
            continue
        operands = tuple(descriptor(op) for op in instr.operands)
        dst = slots[instr.dst.name]
        plan.append((base + position, instr, dst, operands))
        known.pop(dst, None)

    # Liveness pass: is the value defined at position i re-read before
    # the next definition of its slot? Only then is the local binding a
    # win (the ``_r`` write happens either way).
    reused = []
    for i, (_position, _instr, dst, _operands) in enumerate(plan):
        live = False
        for _at, _later, later_dst, later_operands in plan[i + 1:]:
            if any(kind == "slot" and payload == dst
                   for kind, payload in later_operands):
                live = True
                break
            if later_dst == dst:
                break
        reused.append(live)

    # Routing: which branch the lane tail takes, and for a ``cbr``, the
    # slot of its predicate, whose last definition the tail re-reads.
    route = None
    if branch is not None and (plan or known):
        if branch.opcode is Opcode.BRA:
            route = branch
        else:
            pred = branch.instr.operands[0]
            pred_slot = slots[pred.name] if isinstance(pred, Reg) else None
            if pred_slot not in known:
                defs = [i for i, item in enumerate(plan)
                        if item[2] == pred_slot]
                if defs:
                    reused[defs[-1]] = True
                    route = branch

    # Emit pass.
    body = []
    body_ops = []  # per body statement, the position of its op
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

    for (position, instr, dst, operands), live in zip(plan, reused):
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
            body_ops += (position, None)
            bound[dst] = name
        else:
            body.append(f"_r[{dst}] = {expr}")
            body_ops.append(position)
    for slot in sorted(known):
        body.append(f"_r[{slot}] = {ns.literal(known[slot])}")
        body_ops.append(None)

    advance = "+= 1" if end_index is None else f"= {end_index}"
    if not body:
        lines.append(f"{indent}for _t in group:")
        lines.append(f"{indent}    _t.frames[-1].index {advance}")
        if ops is not None:
            ops += (None, None)
        return False
    head = []
    if route is None:
        tail = [f"_f.index {advance}"]
    elif route.opcode is Opcode.BRA:
        target = ns.literal(route.instr.operands[0].name)
        tail = [f"_f.block_name = {target}", "_f.index = 0"]
    else:
        _pred, true_target, false_target = route.instr.operands
        head = ["_tk = []", "_fl = []"]
        tail = [
            f"if {bound[pred_slot]} != 0:",
            f"    _f.block_name = {ns.literal(true_target.name)}",
            "    _tk.append(_t)",
            "else:",
            f"    _f.block_name = {ns.literal(false_target.name)}",
            "    _fl.append(_t)",
            "_f.index = 0",
        ]
    lines += [f"{indent}{line}" for line in head]
    lines.append(f"{indent}for _t in group:")
    lines.append(f"{indent}    _f = _t.frames[-1]")
    lines.append(f"{indent}    _r = _f.regs")
    for statement in body:
        lines.append(f"{indent}    {statement}")
    lines += [f"{indent}    {line}" for line in tail]
    if ops is not None:
        ops += (None,) * (len(head) + 3)
        ops += body_ops
        ops += (None,) * len(tail)
    return route is not None


def _static_cycles(entry):
    """The fixed issue cost of a pure instruction (DELAY carries its own)."""
    if entry.opcode is Opcode.DELAY:
        return int(entry.instr.operands[0].value)
    return entry.latency


class _Shape:
    """What every segment of one shape shares: its generated source (no
    header line), code object, line-to-op map, and the recipe that binds
    a segment's own namespace (:func:`_recipe`)."""

    __slots__ = ("source", "code", "ops", "recipe")

    def __init__(self, source, code, ops, recipe):
        self.source = source
        self.code = code
        self.ops = ops
        self.recipe = recipe


def _shape_key(start, entries, slots):
    """Everything a segment's generated source depends on, and no name,
    as bytes (``marshal``, which keeps ``1`` and ``1.0``, ``0.0`` and
    ``-0.0`` apart); None when an immediate cannot be marshalled.

    Per entry: opcode, destination slot, static latency, operand count,
    and each operand: a register as its slot, an immediate as a 1-tuple
    of its value. A value with no exact literal form, and every block,
    barrier or function name, is numbered by object identity within the
    segment instead (its value kept too), because
    :meth:`_Namespace.literal` interns by identity: the same pattern of
    shared objects gives the same bindings. ``start`` is in the key
    because chunks write absolute frame indices.
    """
    objects = {}
    items = [start]
    append = items.append
    for entry in entries:
        instr = entry.instr
        dst = instr.dst
        operands = instr.operands
        append(entry.opcode.value)
        append(None if dst is None else slots[dst.name])
        append(entry.latency)
        append(len(operands))
        for operand in operands:
            kind = type(operand)
            if kind is Reg:
                append(slots[operand.name])
            elif kind is Imm:
                value = operand.value
                if type(value) is int or (
                    type(value) is float and math.isfinite(value)
                ):
                    append((value,))
                else:
                    append((value, objects.setdefault(id(value), len(objects))))
            else:
                append(
                    f"{kind.__name__}"
                    f"{objects.setdefault(id(operand.name), len(objects))}"
                )
    try:
        # Version 2: no back-references, whose use depends on object
        # identity rather than value.
        return marshal.dumps(items, 2)
    except ValueError:
        return None  # lowered afresh every time


def _recipe(ns, entries):
    """The binding recipe of a generated segment: one ``(name, kind, a,
    b)`` per namespace binding past the math functions, in bind order.

    ``"run"``: ``entries[a].run``. ``"exit"``: a new exit after ``a``
    entries, at the end position ``b`` (:func:`_end_pc`). ``"split"``:
    the split exit through the ending ``cbr``, at both its targets.
    ``"pc"``: the first PC of the ending ``cbr``'s target operand ``a``.
    ``"operand"``,
    ``"value"``, ``"name"``: operand ``b`` of ``entries[a]``, its
    immediate value, or its name (an interned literal found among the
    segment's operands: a register named in an UNDEF diagnostic, a
    barrier or block name, an immediate with no literal form).
    ``"const"``: ``a`` itself (UNDEF, or a folded value no operand
    holds; equal keys fold equal values).
    """
    paths = {}
    for position, entry in enumerate(entries):
        for index, operand in enumerate(entry.instr.operands):
            kind = type(operand)
            if kind is Reg:
                held, how = operand, "operand"
            elif kind is Imm:
                held, how = operand.value, "value"
            else:
                held, how = operand.name, "name"
            paths.setdefault(id(held), (how, position, index))
    recipe = []
    for name, value in list(ns.bindings.items())[len(_MATH_BINDINGS):]:
        origin = ns.origins.get(name)
        if origin is None:
            origin = paths.get(id(value), ("const", value, None))
        recipe.append((name, *origin))
    return tuple(recipe)


def _end_pc(segment, entries, end):
    """Where an exit leaves the group: ``end`` is an index in the
    segment's block, or ``(position, operand)`` naming the block operand
    of the entry at ``position`` (index 0 of that block)."""
    if type(end) is int:
        return (segment.fname, segment.bname, end)
    position, operand = end
    return (segment.fname, entries[position].instr.operands[operand].name, 0)


def _generate(segment, entries, slots):
    """``(source, binding recipe, line-to-op map)`` of ``segment`` over
    its decoded ``entries``; raises :class:`CodegenVeto`.

    Runs of pure entries become thread-major chunks (:func:`_lower_chunk`)
    with their static cycles summed at codegen time; memory ops, barrier
    ops and ``bra`` are one call of their decoded handler each,
    instruction-major, preserving lane-ordered memory semantics and
    dynamic coalescing costs. A ``bbreak`` is guarded. An ending ``bra``
    or ``cbr`` right after a chunk is routed in the chunk's lane loop
    when it can be; an ending ``cbr`` that is not is tested over the
    group (:func:`_lower_cbr`), and either way leaves through
    :func:`_branch_exits`. Each way out returns ``(cycles, exit)`` with
    its own :class:`~repro.simt.segments.SegmentExit`: ``_total`` sums
    the handlers' cycles, and the pure ops' (and the branch's, when it
    runs no handler) static cycles up to that exit are a literal in the
    return.
    """
    ns = _Namespace()
    body = []
    ops = []  # per body line, the segment position of the op it runs
    static_total = 0
    pure = []
    index = segment.start
    last = entries[-1]
    branch = last if last.opcode in (Opcode.BRA, Opcode.CBR) else None

    def leave(n, end, cycles):
        """The return statement of the exit after the first ``n``
        entries, where the group then sits at ``end`` (:func:`_end_pc`)."""
        name = ns.bind("_x", None, ("exit", n, end))
        return f"return _total + {cycles}, {name}"

    for position, entry in enumerate(entries):
        opcode = entry.opcode
        if opcode in _PURE_OPS:
            pure.append(entry)
            static_total += _static_cycles(entry)
            index += 1
            continue
        if opcode in (Opcode.BRA, Opcode.CBR) and entry is not last:
            raise CodegenVeto(f"{opcode.value} before the end of a trace")
        routed = False
        if pure:
            # Even an all-NOP chunk must advance the frame index.
            routed = _lower_chunk(
                pure, index, slots, ns, body, "    ", ops,
                position - len(pure), branch if entry is branch else None,
            )
            pure = []
        if entry is branch and opcode is Opcode.CBR:
            if not routed:
                _lower_cbr(entry, slots, ns, body,
                           leave(position, index, static_total))
            _branch_exits(len(entries), static_total + entry.latency, ns,
                          body)
            break
        if entry is branch and routed:
            body.append("    " + leave(
                len(entries), (position, 0), static_total + entry.latency
            ))
            break
        if opcode is Opcode.BBREAK:
            # Guard: a withdraw must not complete a release, so no lane
            # may be parked on the barrier. The lookup creates no record
            # (the handler creates it, as an unfused issue would).
            barrier = ns.literal(entry.instr.operands[0].name)
            body.append(
                f"    _b = warp.barriers.barriers_dict().get({barrier})"
            )
            body.append("    if _b is not None and _b.parked_mask:")
            body.append("        " + leave(position, index, static_total))
            ops += (None, None, None)
        handler = ns.bind("_h", None, ("run", position, None))
        body.append(f"    _total += {handler}(executor, warp, group)")
        ops.append(position)
        index += 1
    else:
        if pure:
            _lower_chunk(pure, index, slots, ns, body, "    ", ops,
                         len(entries) - len(pure))
        end = (len(entries) - 1, 0) if branch is not None else index
        body.append("    " + leave(len(entries), end, static_total))
    ops += [None] * (len(body) - len(ops))  # exits raise nothing
    lines = [
        "def _jit_segment(executor, warp, group):",
        "    _total = 0",
        *body,
    ]
    # Source line -> position of the op it runs (None: no op's), for
    # fused_failure; the first two lines are the def and ``_total = 0``.
    return "\n".join(lines) + "\n", _recipe(ns, entries), (None, None, *ops)


def _instantiate(shape, segment, entries):
    """``segment``'s compiled function: ``shape``'s shared code run in a
    namespace of the segment's own handlers, exits and literals, bound
    in the recipe's order (so ``segment.exits`` keeps the exit order)."""
    namespace = dict(_MATH_BINDINGS)
    for name, kind, a, b in shape.recipe:
        if kind == "run":
            value = entries[a].run
        elif kind == "exit":
            value = segment.exit(entries[:a], _end_pc(segment, entries, b))
        elif kind == "split":
            value = segment.exit(entries, None, tuple(
                _end_pc(segment, entries, (len(entries) - 1, operand))
                for operand in (1, 2)
            ))
        elif kind == "pc":
            value = _end_pc(segment, entries, (len(entries) - 1, a))
        elif kind == "const":
            value = a
        else:
            value = entries[a].instr.operands[b]
            if kind == "value":
                value = value.value
            elif kind == "name":
                value = value.name
        namespace[name] = value
    exec(shape.code, namespace)  # noqa: S102
    fn = namespace["_jit_segment"]
    where = _where(segment)
    fn.__jit_source__ = f"# jit: segment @{where} n={segment.n}\n{shape.source}"
    fn.__jit_segment__ = f"@{where} n={segment.n}"
    fn.__jit_ops__ = shape.ops
    return fn


def _lower_cbr(entry, slots, ns, body, before):
    """Emit the group test of a trace's ending ``cbr`` whose predicate
    its last chunk does not compute (a register from before the trace or
    a handler op, or a literal): file every lane in ``_tk`` or ``_fl`` in
    lane order, then move them. When a test raises (an UNDEF predicate),
    no lane has moved, and the trace leaves through ``before``, the
    return statement of the exit before the branch, so the machine
    issues it, and raises from it, the ordinary way.
    """
    pred, true_target, false_target = entry.instr.operands
    if isinstance(pred, Reg):
        test = f"_t.frames[-1].regs[{slots[pred.name]}] != 0"
    elif isinstance(pred, Imm):
        test = f"{ns.literal(pred.value)} != 0"
    else:
        raise CodegenVeto(f"unsupported cbr predicate {pred!r}")
    body.extend([
        "    _tk = []",
        "    _fl = []",
        "    try:",
        "        for _t in group:",
        f"            if {test}:",
        "                _tk.append(_t)",
        "            else:",
        "                _fl.append(_t)",
        "    except Exception:",
        f"        {before}",
    ])
    for lanes, target in (("_tk", true_target), ("_fl", false_target)):
        body.extend([
            f"    for _t in {lanes}:",
            "        _f = _t.frames[-1]",
            f"        _f.block_name = {ns.literal(target.name)}",
            "        _f.index = 0",
        ])


def _branch_exits(n, cycles, ns, body):
    """Emit the ways out of a trace whose ending ``cbr`` (its ``n``-th
    slot) has moved its lanes and filed them in ``_tk`` and ``_fl``: to
    the true target when no lane fell through, to the false target when
    none was taken, and otherwise a split exit that reports both buckets
    in ``executor.moved``, the decoded ``cbr``'s move report."""
    taken, fallen = (
        ns.bind("_x", None, ("exit", n, (n - 1, operand)))
        for operand in (1, 2)
    )
    true_pc, false_pc = (ns.bind("_p", None, ("pc", operand, None))
                         for operand in (1, 2))
    split = ns.bind("_x", None, ("split", None, None))
    body.extend([
        "    if not _fl:",
        f"        return _total + {cycles}, {taken}",
        "    if not _tk:",
        f"        return _total + {cycles}, {fallen}",
        f"    executor.moved = (({true_pc}, _tk), ({false_pc}, _fl))",
        f"    return _total + {cycles}, {split}",
    ])


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


def fused_failure(segment, executor, warp, group, exc):
    """``(slots, error)`` for a fused run of ``segment`` by ``group`` that
    raised ``exc``: the slots the reference issues before the failing
    one, and the error it raises there.

    A handler op (memory, barrier, ``bra``) runs instruction-major, so
    every lane ran each op before it, and the handler raised the
    reference's error itself. A pure chunk runs thread-major: the lanes
    before the failing one ran the whole chunk without error, and the
    lanes after it none of it. The reference fails at the lowest op
    index at which any lane reads UNDEF, the lowest lane of that op
    first. So the chunk's ops before the failing lane's op are replayed
    through the interpreter, instruction-major, on the lanes after it;
    then that op on the failing lane alone, once the chunk's folded
    constants (written only at its end) are in its registers. Either
    replay raises the reference's error. This runs only on the failure
    path, and the launch is lost, so the replay may change lane state.
    """
    fn = segment.fn
    tb = exc.__traceback__
    frame = position = None
    while tb is not None:
        if tb.tb_frame.f_code is fn.__code__:
            frame = tb.tb_frame
            position = fn.__jit_ops__[tb.tb_lineno - 1]
        tb = tb.tb_next
    if position is None:
        return 0, exc
    decoded_entry = executor.decoded.entry
    entries = [
        decoded_entry((segment.fname, segment.bname, segment.start + i))
        for i in range(position + 1)
    ]
    if entries[position].opcode not in _PURE_OPS:
        return position, exc
    lane = frame.f_locals["_t"]
    start = position
    while start and entries[start - 1].opcode in _PURE_OPS:
        start -= 1
    after = group[[thread is lane for thread in group].index(True) + 1:]
    # The chunk's fold state before ``position`` (its plan pass).
    regs_frame = lane.frames[-1]
    slots = regs_frame.slots
    known = {}
    for entry in entries[start:position]:
        instr = entry.instr
        if instr.opcode in _NO_REGISTER_EFFECT:
            continue
        value = _fold(instr, known, slots)
        dst = slots[instr.dst.name]
        if value is _NO_FOLD:
            known.pop(dst, None)
        else:
            known[dst] = value
    index = start
    try:
        while index < position:
            interpreted(entries[index].instr)(executor, warp, after)
            index += 1
        for slot, value in known.items():
            regs_frame.regs[slot] = value
        interpreted(entries[position].instr)(executor, warp, [lane])
    except Exception as error:  # the reference's
        return index, error
    return position, exc


def lower_segment(segment, entries, slots):
    """Compile ``segment`` (built over the decoded ``entries`` with the
    function's register ``slots``); returns its function, or None when
    codegen vetoed and the run must issue one instruction at a time.

    The first segment of a shape (:func:`_shape_key`) generates the
    source and its binding recipe; every later one, in any module, only
    binds its own namespace and runs the shared code
    (``jit.shape_hits``). A shape codegen vetoed stays vetoed.
    """
    key = _shape_key(segment.start, entries, slots)
    shape = CODE_CACHE.shape(key)
    if shape is None:
        try:
            source, recipe, ops = _generate(segment, entries, slots)
        except CodegenVeto:
            shape = _VETOED
        else:
            shape = _Shape(
                source, CODE_CACHE.code(source, _where(segment)),
                CODE_CACHE.line_ops(ops), recipe,
            )
        CODE_CACHE.add_shape(key, shape)
    elif shape is not _VETOED:
        ENGINE_COUNTERS.jit_shape_hits += 1
    if shape is _VETOED:
        ENGINE_COUNTERS.jit_deopts += 1
        return None
    fn = _instantiate(shape, segment, entries)
    ENGINE_COUNTERS.jit_tierups += 1
    CODE_CACHE.store(segment)
    return fn
