"""Memory-effect analysis: which ``GlobalMemory`` addresses a kernel touches.

``GPUMachine`` may run the warps of a launch one at a time to completion,
instead of interleaving them one issue slot per round, only when no warp
can observe another. Apart from the scheduler (which must keep per-warp
state only) and the CTA channels (``ctasync`` and shared memory, see
:func:`cta_coupled`), the only cross-warp channel in the simulator is
global memory, so the question reduces to: *can two warps' memory
footprints overlap?*

This module answers it with an abstract interpretation of the kernel
over a small affine-address domain. Every abstract value is

    ``base + ct * tid + cw * warpid + X``

where ``base`` is a kernel parameter (compile time) or a concrete number
(launch time), ``ct``/``cw`` are non-negative coefficients, and ``X`` is
an integer-strided interval ``{lo + k * step} ∩ [lo, hi]`` (``step == 0``
means a dense, possibly fractional interval). The stride component is
what proves the corpus' task-loop pattern safe: a counter that starts at
``tid`` and advances by ``n_threads`` keeps ``ct == 1`` with offsets
strided by ``n_threads``, so distinct threads can never alias even
though the interval itself widens to infinity.

Two entry points share the interpreter:

* :func:`analyze_module` — compile-time summary with parameters kept
  symbolic. Registered as the ``"memeffects"`` analysis (cached by the
  pass manager's :class:`~repro.core.passmgr.AnalysisManager`) and
  surfaced on ``CompileReport.memory_effects``, computed there on first
  read or eagerly by a pipeline that names the ``mem-effects`` pass.
  Computed addresses degrade to the explicit top ``"unknown"``.
* :func:`classify_launch` — launch-time classification with concrete
  kernel arguments substituted for parameters, returning ``"disjoint"``
  when *no* two threads of *different* warps can touch a common address
  in a conflicting way, else ``"guarded"``. Results are memoized per
  module (weakly, validated by the structure token) and per
  ``(kernel, args, n_threads)``; :func:`cta_coupled` shares the memo.

Soundness notes. Addresses are truncated with ``int()`` at the memory
interface, so resolved intervals are widened to integer envelopes and
every injectivity rule additionally requires non-negative bounds (for
``x >= 0``, ``int`` is ``floor`` and a step of ``>= 1`` keeps truncated
addresses distinct). ``atom_add`` sites count as both read and write.
A call to any function that (transitively) contains a memory op makes
the kernel *opaque*: summaries record it and classification returns
``"guarded"``.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from dataclasses import dataclass

from repro.ir.function import structure_token
from repro.ir.instructions import Imm, Opcode, Reg

WARP_SIZE = 32

_INF = math.inf

# Sentinel base for "could be anything" (top of the base component).
_TOP_BASE = object()

#: Blocks are re-joined at most this many times before bounds widen to
#: infinity (the stride component survives widening, see ``_widen``).
_WIDEN_AFTER = 4

__all__ = [
    "AccessSite",
    "KernelEffects",
    "SHARED_REGION",
    "analyze_module",
    "classify_grid",
    "classify_launch",
    "clear_launch_cache",
    "cta_coupled",
]

#: Region name reported for per-CTA shared-memory access sites.
SHARED_REGION = "<shared>"


class _AbsVal:
    """``base + ct*tid + cw*warpid + {lo + k*step} ∩ [lo, hi]``."""

    __slots__ = ("base", "ct", "cw", "lo", "hi", "step")

    def __init__(self, base, ct, cw, lo, hi, step):
        self.base = base
        self.ct = ct
        self.cw = cw
        self.lo = lo
        self.hi = hi
        self.step = step

    def __eq__(self, other):
        if not isinstance(other, _AbsVal):
            return NotImplemented
        return (
            self.base is other.base
            or self.base == other.base
        ) and (
            self.ct == other.ct
            and self.cw == other.cw
            and self.lo == other.lo
            and self.hi == other.hi
            and self.step == other.step
        )

    def __hash__(self):
        return hash((id(self.base) if self.base is _TOP_BASE else self.base,
                     self.ct, self.cw, self.lo, self.hi, self.step))

    def __repr__(self):
        base = "?" if self.base is _TOP_BASE else self.base
        return (f"AbsVal(base={base}, ct={self.ct}, cw={self.cw}, "
                f"[{self.lo}, {self.hi}] step {self.step})")

    @property
    def is_top(self):
        return self.base is _TOP_BASE

    @property
    def is_point(self):
        return self.lo == self.hi

    @property
    def pure(self):
        """No symbolic base and no thread/warp dependence."""
        return self.base is None and self.ct == 0 and self.cw == 0


TOP = _AbsVal(_TOP_BASE, 0, 0, -_INF, _INF, 0)


def _point(value):
    """Abstract a known numeric constant."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return TOP
    return _AbsVal(None, 0, 0, value, value, 0)


def _interval(lo, hi, step=0):
    return _AbsVal(None, 0, 0, lo, hi, step)


def _is_int(x):
    return isinstance(x, int) or (isinstance(x, float) and x.is_integer())


def _residue_step(val):
    """The stride usable for congruence math, or None when the value
    carries no residue information (dense interval)."""
    if val.step > 0:
        return val.step
    if val.is_point and _is_int(val.lo):
        return 0  # a single integer: gcd-neutral
    return None


def _join(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a == b:
        return a
    if a.is_top or b.is_top:
        return TOP
    if a.base != b.base or a.ct != b.ct or a.cw != b.cw:
        return TOP
    sa, sb = _residue_step(a), _residue_step(b)
    if sa is None or sb is None or not math.isfinite(a.lo) or not math.isfinite(b.lo):
        step = 0
    else:
        step = math.gcd(int(sa), int(sb), abs(int(a.lo) - int(b.lo)))
    return _AbsVal(a.base, a.ct, a.cw, min(a.lo, b.lo), max(a.hi, b.hi), step)


def _widen(old, new):
    """Accelerate convergence: bounds that grew go straight to infinity.

    The stride survives (it only ever shrinks via gcd in ``_join``), but
    a widened lower bound loses its residue anchor, so the stride is
    dropped with it.
    """
    if old is None:
        return new
    joined = _join(old, new)
    if joined == old:
        return old
    if joined.is_top:
        return TOP
    lo = old.lo if joined.lo >= old.lo else -_INF
    hi = old.hi if joined.hi <= old.hi else _INF
    step = joined.step if math.isfinite(lo) else 0
    return _AbsVal(joined.base, joined.ct, joined.cw, lo, hi, step)


def _add(a, b):
    if a.is_top or b.is_top:
        return TOP
    if a.base is not None and b.base is not None:
        return TOP
    base = a.base if a.base is not None else b.base
    sa, sb = _residue_step(a), _residue_step(b)
    step = math.gcd(int(sa), int(sb)) if sa is not None and sb is not None else 0
    return _AbsVal(base, a.ct + b.ct, a.cw + b.cw,
                   a.lo + b.lo, a.hi + b.hi, step)


def _scale(val, c):
    """Multiply by a known non-negative constant ``c``."""
    if val.is_top or c < 0:
        return TOP
    if c == 0:
        return _point(0)
    if val.base is not None and c != 1:
        return TOP
    step = val.step * c if _is_int(c) else 0
    return _AbsVal(val.base, val.ct * c, val.cw * c,
                   val.lo * c, val.hi * c, int(step) if _is_int(step) else 0)


def _imul_bounds(a, b):
    """Interval product bounds, treating 0 * inf as 0."""
    def prod(x, y):
        if x == 0 or y == 0:
            return 0
        return x * y
    products = [prod(a.lo, b.lo), prod(a.lo, b.hi),
                prod(a.hi, b.lo), prod(a.hi, b.hi)]
    return min(products), max(products)


def _mul(a, b):
    for lhs, rhs in ((a, b), (b, a)):
        if lhs.pure and lhs.is_point and isinstance(lhs.lo, (int, float)):
            if lhs.lo >= 0:
                return _scale(rhs, lhs.lo)
            if rhs.pure:
                lo, hi = _imul_bounds(rhs, lhs)
                return _interval(lo, hi)
            return TOP
    if a.pure and b.pure:
        lo, hi = _imul_bounds(a, b)
        return _interval(lo, hi)
    return TOP


def _sub(a, b):
    if a.is_top or b.is_top:
        return TOP
    if b.pure and b.is_point:
        step = a.step if _is_int(b.lo) else 0
        return _AbsVal(a.base, a.ct, a.cw, a.lo - b.lo, a.hi - b.lo, step)
    if b.pure:
        return _AbsVal(a.base, a.ct, a.cw, a.lo - b.hi, a.hi - b.lo, 0)
    return TOP


def _rem(a, b):
    # The executor computes int(a) % int(b) (0 when the divisor is 0),
    # so the result lands in a divisor-bounded window regardless of how
    # wild the dividend is — this rescues table lookups like
    # ``ld(grid + floor(idx) % table_size)``.
    if b.pure and b.is_point and _is_int(b.lo):
        k = int(b.lo)
        if k > 0:
            return _interval(0, k - 1, 1)
        if k == 0:
            return _point(0)
        return _interval(k + 1, 0, 1)
    return TOP


def _and(a, b):
    for lhs, rhs in ((a, b), (b, a)):
        del rhs
        if lhs.pure and lhs.lo >= 0 and math.isfinite(lhs.hi):
            return _interval(0, int(lhs.hi), 1)
    return TOP


def _minmax(a, b, pick):
    if a.is_top or b.is_top:
        return TOP
    if a.base != b.base or a.ct != b.ct or a.cw != b.cw:
        return TOP
    joined = _join(a, b)
    return _AbsVal(joined.base, joined.ct, joined.cw,
                   pick(a.lo, b.lo), pick(a.hi, b.hi), joined.step)


def _floor(a):
    if not a.pure:
        return TOP
    lo = math.floor(a.lo) if math.isfinite(a.lo) else a.lo
    hi = math.floor(a.hi) if math.isfinite(a.hi) else a.hi
    return _interval(lo, hi, 1 if math.isfinite(lo) else 0)


def _abs(a):
    if not a.pure:
        return TOP
    if a.lo >= 0:
        return a
    hi = max(abs(a.lo), abs(a.hi))
    lo = 0 if a.lo <= 0 <= a.hi else min(abs(a.lo), abs(a.hi))
    return _interval(lo, hi, 0)


_CMP_OPS = frozenset({
    Opcode.CMPLT, Opcode.CMPLE, Opcode.CMPGT,
    Opcode.CMPGE, Opcode.CMPEQ, Opcode.CMPNE,
})

_MEMORY_OPS = frozenset({Opcode.LD, Opcode.ST, Opcode.ATOMADD})

#: Per-CTA shared-memory ops. CTA-private by construction: they are
#: summarized (region ``<shared>``) but excluded from cross-warp conflict
#: classification — no two CTAs share a scratchpad, and within a CTA the
#: engine keeps the warps of any kernel that can reach one interleaved
#: (:func:`cta_coupled`).
_SHARED_MEMORY_OPS = frozenset({Opcode.SHLD, Opcode.SHST, Opcode.SHATOM})

#: Ops through which the warps of one CTA meet outside global memory: the
#: CTA-wide barrier and the per-CTA scratchpad (see :func:`cta_coupled`).
_CTA_OPS = _SHARED_MEMORY_OPS | {Opcode.CTASYNC}

_SITE_KINDS = {
    Opcode.LD: "read",
    Opcode.ST: "write",
    Opcode.ATOMADD: "atom",
    Opcode.SHLD: "read",
    Opcode.SHST: "write",
    Opcode.SHATOM: "atom",
}


def _operand(env, op):
    if isinstance(op, Imm):
        return _point(op.value)
    if isinstance(op, Reg):
        return env.get(op.name, TOP)
    return TOP


def _transfer(instr, env):
    """Abstract value written by ``instr`` (None when it has no dst)."""
    op = instr.opcode
    if op is Opcode.CONST:
        return _point(instr.operands[0].value)
    if op is Opcode.MOV:
        return _operand(env, instr.operands[0])
    if op is Opcode.SEL:
        return _join(_operand(env, instr.operands[1]),
                     _operand(env, instr.operands[2]))
    if op is Opcode.ADD:
        return _add(_operand(env, instr.operands[0]),
                    _operand(env, instr.operands[1]))
    if op is Opcode.SUB:
        return _sub(_operand(env, instr.operands[0]),
                    _operand(env, instr.operands[1]))
    if op is Opcode.MUL:
        return _mul(_operand(env, instr.operands[0]),
                    _operand(env, instr.operands[1]))
    if op is Opcode.FMA:
        product = _mul(_operand(env, instr.operands[0]),
                       _operand(env, instr.operands[1]))
        return _add(product, _operand(env, instr.operands[2]))
    if op is Opcode.REM:
        return _rem(_operand(env, instr.operands[0]),
                    _operand(env, instr.operands[1]))
    if op is Opcode.AND:
        return _and(_operand(env, instr.operands[0]),
                    _operand(env, instr.operands[1]))
    if op is Opcode.MIN:
        return _minmax(_operand(env, instr.operands[0]),
                       _operand(env, instr.operands[1]), min)
    if op is Opcode.MAX:
        return _minmax(_operand(env, instr.operands[0]),
                       _operand(env, instr.operands[1]), max)
    if op in _CMP_OPS:
        return _interval(0, 1, 1)
    if op is Opcode.TID:
        return _AbsVal(None, 1, 0, 0, 0, 0)
    if op is Opcode.LANE:
        return _interval(0, WARP_SIZE - 1, 1)
    if op is Opcode.WARPID:
        return _AbsVal(None, 0, 1, 0, 0, 0)
    if op is Opcode.RAND:
        return _interval(0, 1, 0)
    if op is Opcode.BARCNT:
        return _interval(0, WARP_SIZE, 1)
    if op is Opcode.CTAID:
        # Launch-uniform but unknown at analysis time; non-negative by
        # construction. Addresses built from it degrade to "guarded",
        # which routes grid launches to the always-correct serial path.
        return _interval(0, _INF, 0)
    if op in (Opcode.CTADIM, Opcode.NCTA):
        return _interval(1, _INF, 0)
    if op in (Opcode.SIN, Opcode.COS):
        return _interval(-1, 1, 0)
    if op is Opcode.FLOOR:
        return _floor(_operand(env, instr.operands[0]))
    if op is Opcode.ABS:
        return _abs(_operand(env, instr.operands[0]))
    if op is Opcode.NEG:
        val = _operand(env, instr.operands[0])
        if val.pure:
            return _interval(-val.hi, -val.lo, 0)
        return TOP
    # DIV, SHL, SHR, OR, XOR, NOT, SQRT, EXP, LOG, LD, ATOMADD, CALL,
    # BMOV and anything else that defines a register: unknown.
    return TOP


# ----------------------------------------------------------------------
# Kernel interpretation
# ----------------------------------------------------------------------

def _abstract_run(fn, seed_env):
    """Worklist fixpoint over ``fn``; returns ``(global sites, shared
    sites)``, each ``{(block, index): (kind, AbsVal)}``, for every memory
    access site at the post-fixpoint input environment of its block."""
    in_envs = {fn.entry.name: dict(seed_env)}
    visits = {}
    sites = {}
    shared_sites = {}
    work = deque([fn.entry.name])
    queued = {fn.entry.name}
    while work:
        bname = work.popleft()
        queued.discard(bname)
        block = fn.block(bname)
        env = dict(in_envs[bname])
        for index, instr in enumerate(block.instructions):
            op = instr.opcode
            if op in _MEMORY_OPS:
                sites[(bname, index)] = (
                    _SITE_KINDS[op], _operand(env, instr.operands[0])
                )
            elif op in _SHARED_MEMORY_OPS:
                shared_sites[(bname, index)] = (
                    _SITE_KINDS[op], _operand(env, instr.operands[0])
                )
            if instr.dst is not None:
                env[instr.dst.name] = _transfer(instr, env)
        terminator = block.instructions[-1] if block.instructions else None
        if terminator is None:
            continue
        for succ in terminator.block_targets():
            current = in_envs.get(succ)
            count = visits.get(succ, 0)
            merge = _widen if count >= _WIDEN_AFTER else _join
            if current is None:
                merged = dict(env)
            else:
                merged = dict(current)
                changed = False
                for name, val in env.items():
                    new = merge(current.get(name), val)
                    if new != current.get(name):
                        merged[name] = new
                        changed = True
                if not changed:
                    continue
            in_envs[succ] = merged
            visits[succ] = count + 1
            if succ not in queued:
                work.append(succ)
                queued.add(succ)
    return sites, shared_sites


def _reachable(module, fn):
    """``fn`` followed by every function a call chain from it reaches
    (callee names that do not resolve are skipped)."""
    seen = {fn.name}
    stack = [fn]
    reached = [fn]
    while stack:
        current = stack.pop()
        for _block, _index, instr in current.instructions():
            if instr.opcode is Opcode.CALL:
                callee = instr.operands[0].name
                if callee in seen:
                    continue
                seen.add(callee)
                try:
                    target = module.function(callee)
                except KeyError:
                    continue
                reached.append(target)
                stack.append(target)
    return reached


def _memory_callees(module, fn):
    """Names of functions reachable from ``fn`` that contain memory ops."""
    return tuple(sorted(
        callee.name for callee in _reachable(module, fn)[1:]
        if any(i.opcode in _MEMORY_OPS for _b, _i, i in callee.instructions())
    ))


# ----------------------------------------------------------------------
# Compile-time summary (symbolic parameters)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AccessSite:
    """One static ``ld``/``st``/``atomadd`` with its abstract address."""

    kind: str          # "read" | "write" | "atom"
    block: str
    index: int
    region: str        # parameter name, "<absolute>", or "unknown"
    form: str          # "tid-strided" | "warp-strided" | "uniform" |
                       # "bounded" | "unknown"
    offset: tuple      # (lo, hi) relative to the region base, or None


class KernelEffects:
    """Compile-time memory-effect summary of one kernel."""

    def __init__(self, kernel, sites, opaque_calls):
        self.kernel = kernel
        self.sites = tuple(sites)
        self.opaque_calls = tuple(opaque_calls)

    def regions(self):
        """``{region: sorted set of access kinds}`` over all sites."""
        table = {}
        for site in self.sites:
            table.setdefault(site.region, set()).add(site.kind)
        return {name: tuple(sorted(kinds)) for name, kinds in sorted(table.items())}

    def describe(self):
        return {
            "regions": self.regions(),
            "sites": [
                {
                    "kind": site.kind,
                    "at": f"{site.block}[{site.index}]",
                    "region": site.region,
                    "form": site.form,
                    "offset": list(site.offset) if site.offset else None,
                }
                for site in self.sites
            ],
            "opaque_calls": list(self.opaque_calls),
        }

    def __repr__(self):
        return f"KernelEffects({self.kernel!r}, {self.regions()!r})"


def _shared_site_summary(kind, bname, index, val):
    """Summary of one shld/shst/shatom site: always region ``<shared>``
    (the scratchpad is CTA-private; its base is not parameter-rooted)."""
    if val.is_top:
        return AccessSite(kind, bname, index, SHARED_REGION, "unknown", None)
    finite = math.isfinite(val.lo) and math.isfinite(val.hi)
    offset = (val.lo, val.hi) if finite else None
    if val.ct >= 1:
        form = "tid-strided"
    elif val.cw >= 1:
        form = "warp-strided"
    elif val.is_point:
        form = "uniform"
    elif finite:
        form = "bounded"
    else:
        form = "unknown"
    return AccessSite(kind, bname, index, SHARED_REGION, form, offset)


def _site_summary(fn, kind, bname, index, val):
    if val.is_top:
        return AccessSite(kind, bname, index, "unknown", "unknown", None)
    if val.base is None:
        region = "<absolute>"
    else:
        # The lowerer suffixes every register with a numeric version
        # ("out.1"); report the source-level parameter name.
        name = fn.params[val.base].name
        stem, _, suffix = name.rpartition(".")
        region = stem if stem and suffix.isdigit() else name
    finite = math.isfinite(val.lo) and math.isfinite(val.hi)
    offset = (val.lo, val.hi) if finite else None
    if val.ct >= 1:
        form = "tid-strided"
    elif val.cw >= 1:
        form = "warp-strided"
    elif val.is_point:
        form = "uniform"
    elif finite:
        form = "bounded"
    else:
        form = "unknown"
    return AccessSite(kind, bname, index, region, form, offset)


def analyze_module(module):
    """Compile-time summary: ``{kernel name: KernelEffects}``.

    Parameters stay symbolic (each one is an opaque region base), so the
    summary names which parameter-rooted regions every block reads,
    writes, or atomically updates, with ``"unknown"`` as the explicit top
    for computed addresses. Registered as the ``"memeffects"`` analysis.
    """
    result = {}
    for fn in module:
        if not fn.is_kernel:
            continue
        seed = {
            param.name: _AbsVal(i, 0, 0, 0, 0, 0)
            for i, param in enumerate(fn.params)
        }
        raw, shared_raw = _abstract_run(fn, seed)
        sites = [
            _site_summary(fn, kind, bname, index, val)
            for (bname, index), (kind, val) in sorted(raw.items())
        ]
        sites.extend(
            _shared_site_summary(kind, bname, index, val)
            for (bname, index), (kind, val) in sorted(shared_raw.items())
        )
        result[fn.name] = KernelEffects(
            fn.name, sites, _memory_callees(module, fn)
        )
    return result


# ----------------------------------------------------------------------
# Launch-time classification (concrete arguments)
# ----------------------------------------------------------------------

def _envelope(val):
    """Integer (lo, hi) envelope of the truncated addresses a site can
    touch for one thread, or None when unknown or unbounded *below*.

    An infinite upper bound is fine: the task-loop pattern widens there,
    and every injectivity rule anchors on ``lo``/``step`` (span
    disjointness simply never separates on the unbounded side)."""
    if val.is_top or val.base is not None:
        return None
    if not math.isfinite(val.lo):
        return None
    hi = math.ceil(val.hi) if math.isfinite(val.hi) else _INF
    return math.floor(val.lo), hi


class _Site:
    __slots__ = ("kind", "lo", "hi", "ct", "cw", "step", "span")

    def __init__(self, kind, val, bounds, n_threads, max_warp):
        self.kind = kind
        self.lo, self.hi = bounds
        self.ct = val.ct
        self.cw = val.cw
        self.step = val.step
        self.span = (
            self.lo,
            self.hi + self.ct * (n_threads - 1) + self.cw * max_warp,
        )

    @property
    def writes(self):
        return self.kind != "read"

    def same_map(self, other):
        return (self.lo == other.lo and self.hi == other.hi
                and self.ct == other.ct and self.cw == other.cw
                and self.step == other.step)


def _write_self_safe(site, n_threads):
    """No two threads of different warps can hit a common truncated
    address through this one write site."""
    if site.lo < 0:
        return False
    if site.lo == site.hi:
        if site.ct >= 1:
            return True          # strictly tid-increasing: injective
        return site.ct == 0 and site.cw >= 1   # warp-private cell
    # Strided task-loop pattern: offsets move in multiples of `step`,
    # tid contributes less than one full step across the whole launch.
    return (site.step > 0 and site.ct >= 1 and site.cw == 0
            and site.step >= site.ct * n_threads)


def _pair_safe(a, b, n_threads):
    """Accesses through sites ``a`` and ``b`` (at least one a write)
    never put two threads of different warps on a common address."""
    if a.span[1] < b.span[0] or b.span[1] < a.span[0]:
        return True
    if a.same_map(b):
        # Identical address maps collide only same-tid / same-warp, and
        # intra-thread and intra-warp orders are preserved verbatim.
        if a.lo == a.hi and a.lo >= 0:
            if a.ct >= 1 or (a.ct == 0 and a.cw >= 1):
                return True
        if (a.lo >= 0 and a.step > 0 and a.ct >= 1 and a.cw == 0
                and a.step >= a.ct * n_threads):
            return True
    # Congruence separation: when every component of both address maps
    # moves in multiples of g, differing base residues mod g can never
    # meet (e.g. even-strided reads vs odd-strided writes).
    sa = a.step if a.step > 0 else (0 if a.lo == a.hi else None)
    sb = b.step if b.step > 0 else (0 if b.lo == b.hi else None)
    if sa is not None and sb is not None:
        g = math.gcd(int(sa), int(sb), int(a.ct), int(a.cw),
                     int(b.ct), int(b.cw))
        if g > 1 and (int(a.lo) - int(b.lo)) % g != 0:
            return True
    return False


_LAUNCH_CACHE = weakref.WeakKeyDictionary()


def clear_launch_cache():
    """Drop all memoized launch classifications and CTA-coupling answers
    (test hook)."""
    _LAUNCH_CACHE.clear()


def _classify(module, kernel_name, args, n_threads):
    fn = module.function(kernel_name)
    if _memory_callees(module, fn):
        return "guarded"
    seed = {}
    for i, param in enumerate(fn.params):
        value = args[i] if i < len(args) else None
        seed[param.name] = _point(value)
    # Shared sites are deliberately dropped here: the scratchpad is
    # CTA-private, so shld/shst/shatom can never couple two warps through
    # *global* memory (nor two CTAs through anything).
    raw, _shared = _abstract_run(fn, seed)
    max_warp = max(0, (n_threads - 1) // WARP_SIZE)
    sites = []
    writes = []
    for (_bname, _index), (kind, val) in sorted(raw.items()):
        bounds = _envelope(val)
        if bounds is None:
            if kind == "read":
                # An unknown read is only dangerous against a write; an
                # unknown *write* is dangerous against everything.
                sites.append(None)
                continue
            return "guarded"
        site = _Site(kind, val, bounds, n_threads, max_warp)
        sites.append(site)
        if site.writes:
            writes.append(site)
    if not writes:
        return "disjoint"
    if any(site is None for site in sites):
        return "guarded"
    for write in writes:
        if not _write_self_safe(write, n_threads):
            return "guarded"
    for i, write in enumerate(writes):
        for other in sites:
            if other is write:
                continue
            if other.writes and writes.index(other) < i:
                continue  # unordered pairs once
            if not _pair_safe(write, other, n_threads):
                return "guarded"
    return "disjoint"


def _module_entry(module):
    """The module's memo: ``(structure token, launch classifications,
    CTA coupling per kernel)``, rebuilt when the token moves."""
    token = structure_token(module)
    entry = _LAUNCH_CACHE.get(module)
    if entry is None or entry[0] != token:
        entry = (token, {}, {})
        _LAUNCH_CACHE[module] = entry
    return entry


def classify_launch(module, kernel_name, args, n_threads):
    """``"disjoint"`` when no two warps of this launch can conflict
    through global memory, else ``"guarded"``.

    The proof covers global tids ``[0, n_threads)`` with warp ids
    ``tid // 32``. ``"disjoint"`` (with a per-warp scheduler and no
    :func:`cta_coupled` channel) licenses ``GPUMachine`` to run the
    warps one at a time to completion; ``"guarded"`` keeps them
    interleaved. Memoized weakly per module, validated by the structure
    token.
    """
    entry = _module_entry(module)
    try:
        key = (kernel_name, tuple(args), n_threads)
        cached = entry[1].get(key)
    except TypeError:
        key = None
        cached = None
    if cached is not None:
        return cached
    result = _classify(module, kernel_name, tuple(args), n_threads)
    if key is not None:
        entry[1][key] = result
    return result


def cta_coupled(module, kernel_name):
    """True when the kernel, or any function it can call, contains a
    ``ctasync`` or a shared-memory op: channels between the warps of one
    CTA that :func:`classify_launch` does not look at. Memoized with the
    launch classifications."""
    coupled = _module_entry(module)[2]
    result = coupled.get(kernel_name)
    if result is None:
        result = coupled[kernel_name] = any(
            instr.opcode in _CTA_OPS
            for fn in _reachable(module, module.function(kernel_name))
            for _block, _index, instr in fn.instructions()
        )
    return result


def classify_grid(module, kernel_name, args, total_threads):
    """``"disjoint"`` when no two *CTAs* of a grid launch can conflict
    through global memory, else ``"guarded"``.

    This reuses :func:`classify_launch` over the grid's full global thread
    range: grid launches assign global tids/warp ids exactly as the flat
    launch of ``total_threads`` would (warps never span CTAs), so pairwise
    warp disjointness over the whole range implies CTA disjointness. Shared
    memory needs no check — each CTA owns its scratchpad. ``"disjoint"``
    licenses sharding provably-independent CTAs across the worker pool;
    ``"guarded"`` routes the grid to the serial in-process CTA loop.
    """
    return classify_launch(module, kernel_name, args, total_threads)
