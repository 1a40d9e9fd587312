"""Launch-time memory-effect proof: may the warps of a launch run apart?

``GPUMachine`` may run the warps of a launch one at a time to completion,
instead of interleaving them one issue slot per round, only when no warp
can observe another. Apart from the scheduler (which must keep per-warp
state only) and the CTA channels (``ctasync`` and shared memory, see
:func:`cta_coupled`), the only cross-warp channel in the simulator is
global memory, so the question reduces to: *can two warps' memory
footprints overlap?* ``GridLaunch`` asks the same question over the
grid's global thread range before it shards CTAs over the worker pool
(warps never span CTAs, so warp disjointness implies CTA disjointness).

:func:`classify_launch` answers it with an abstract interpretation of the
kernel, seeded with the launch's concrete arguments, over a small
affine-address domain. Every abstract value is either the explicit top
``TOP`` ("could be anything") or

    ``ct * tid + cw * warpid + X``

where ``ct``/``cw`` are non-negative coefficients and ``X`` is an
integer-strided interval ``{lo + k * step} ∩ [lo, hi]`` (``step == 0``
means a dense, possibly fractional interval). The stride component is
what proves the corpus' task-loop pattern safe: a counter that starts at
``tid`` and advances by ``n_threads`` keeps ``ct == 1`` with offsets
strided by ``n_threads``, so distinct threads can never alias even
though the interval itself widens to infinity. The verdict is
``"disjoint"`` when *no* two threads of *different* warps can touch a
common address in a conflicting way, else ``"guarded"``. Verdicts are
memoized in the module's ``"launch_class"`` cache
(:func:`~repro.ir.function.module_cache`) per ``(kernel, args,
n_threads)``; :func:`cta_coupled` keeps its answers in ``"cta_coupled"``.

Soundness notes. Addresses are truncated with ``int()`` at the memory
interface, so resolved intervals are widened to integer envelopes and
every injectivity rule additionally requires non-negative bounds (for
``x >= 0``, ``int`` is ``floor`` and a step of ``>= 1`` keeps truncated
addresses distinct). ``atom_add`` sites count as both read and write.
A call to any function that (transitively) contains a memory op makes
the kernel opaque, and its launches classify as ``"guarded"``. Shared
memory (``shld``/``shst``/``shatom``) is CTA-private and is left to
:func:`cta_coupled`.
"""

from __future__ import annotations

import math
from collections import deque

from repro.ir.function import module_cache
from repro.ir.instructions import Imm, Opcode, Reg

WARP_SIZE = 32

_INF = math.inf

#: Blocks are re-joined at most this many times before bounds widen to
#: infinity (the stride component survives widening, see ``_widen``).
_WIDEN_AFTER = 4

__all__ = ["classify_launch", "cta_coupled"]


class _AbsVal:
    """``ct*tid + cw*warpid + {lo + k*step} ∩ [lo, hi]``, or any value at
    all when ``is_top`` (set only on the :data:`TOP` singleton)."""

    __slots__ = ("ct", "cw", "lo", "hi", "step", "is_top")

    def __init__(self, ct, cw, lo, hi, step, is_top=False):
        self.ct = ct
        self.cw = cw
        self.lo = lo
        self.hi = hi
        self.step = step
        self.is_top = is_top

    def __eq__(self, other):
        return isinstance(other, _AbsVal) and (
            self.is_top == other.is_top and self.ct == other.ct
            and self.cw == other.cw and self.lo == other.lo
            and self.hi == other.hi and self.step == other.step
        )

    def __repr__(self):
        if self.is_top:
            return "AbsVal(TOP)"
        return (f"AbsVal(ct={self.ct}, cw={self.cw}, "
                f"[{self.lo}, {self.hi}] step {self.step})")

    @property
    def is_point(self):
        return self.lo == self.hi

    @property
    def pure(self):
        """Not top, and no thread/warp dependence."""
        return not self.is_top and self.ct == 0 and self.cw == 0


#: Top is distinct from the pure unbounded interval: ``_sub`` and
#: ``_floor`` (among others) treat the two differently.
TOP = _AbsVal(0, 0, -_INF, _INF, 0, is_top=True)


def _point(value):
    """Abstract a known numeric constant."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return TOP
    return _AbsVal(0, 0, value, value, 0)


def _interval(lo, hi, step=0):
    return _AbsVal(0, 0, lo, hi, step)


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
    if a.is_top or b.is_top or a.ct != b.ct or a.cw != b.cw:
        return TOP
    sa, sb = _residue_step(a), _residue_step(b)
    if sa is None or sb is None or not math.isfinite(a.lo) or not math.isfinite(b.lo):
        step = 0
    else:
        step = math.gcd(int(sa), int(sb), abs(int(a.lo) - int(b.lo)))
    return _AbsVal(a.ct, a.cw, min(a.lo, b.lo), max(a.hi, b.hi), step)


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
    return _AbsVal(joined.ct, joined.cw, lo, hi, step)


def _add(a, b):
    if a.is_top or b.is_top:
        return TOP
    sa, sb = _residue_step(a), _residue_step(b)
    step = math.gcd(int(sa), int(sb)) if sa is not None and sb is not None else 0
    return _AbsVal(a.ct + b.ct, a.cw + b.cw, a.lo + b.lo, a.hi + b.hi, step)


def _scale(val, c):
    """Multiply by a known non-negative constant ``c``."""
    if val.is_top or c < 0:
        return TOP
    if c == 0:
        return _point(0)
    step = val.step * c if _is_int(c) else 0
    return _AbsVal(val.ct * c, val.cw * c,
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
        return _AbsVal(a.ct, a.cw, a.lo - b.lo, a.hi - b.lo, step)
    if b.pure:
        return _AbsVal(a.ct, a.cw, a.lo - b.hi, a.hi - b.lo, 0)
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
    if a.is_top or b.is_top or a.ct != b.ct or a.cw != b.cw:
        return TOP
    joined = _join(a, b)
    return _AbsVal(joined.ct, joined.cw,
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


#: Per-CTA shared-memory ops. CTA-private by construction, so they are
#: excluded from cross-warp conflict classification: no two CTAs share a
#: scratchpad, and within a CTA the engine keeps the warps of any kernel
#: that can reach one interleaved (:func:`cta_coupled`).
_SHARED_MEMORY_OPS = frozenset({Opcode.SHLD, Opcode.SHST, Opcode.SHATOM})

#: Ops through which the warps of one CTA meet outside global memory: the
#: CTA-wide barrier and the per-CTA scratchpad (see :func:`cta_coupled`).
_CTA_OPS = _SHARED_MEMORY_OPS | {Opcode.CTASYNC}

_MEMORY_OPS = {
    Opcode.LD: "read",
    Opcode.ST: "write",
    Opcode.ATOMADD: "atom",
}


def _operand(env, op):
    if isinstance(op, Imm):
        return _point(op.value)
    if isinstance(op, Reg):
        return env.get(op.name, TOP)
    return TOP


def _neg(a):
    return _interval(-a.hi, -a.lo, 0) if a.pure else TOP


#: Transfer functions of the ops whose result depends on their operands
#: (``const`` and ``mov`` pass their operand through).
_UNARY = {
    Opcode.CONST: lambda a: a,
    Opcode.MOV: lambda a: a,
    Opcode.FLOOR: _floor,
    Opcode.ABS: _abs,
    Opcode.NEG: _neg,
}
_BINARY = {
    Opcode.ADD: _add,
    Opcode.SUB: _sub,
    Opcode.MUL: _mul,
    Opcode.REM: _rem,
    Opcode.AND: _and,
    Opcode.MIN: lambda a, b: _minmax(a, b, min),
    Opcode.MAX: lambda a, b: _minmax(a, b, max),
}

#: Results of the ops that read no operand.
_NULLARY = {
    **dict.fromkeys((Opcode.CMPLT, Opcode.CMPLE, Opcode.CMPGT, Opcode.CMPGE,
                     Opcode.CMPEQ, Opcode.CMPNE), _interval(0, 1, 1)),
    Opcode.TID: _AbsVal(1, 0, 0, 0, 0),
    Opcode.LANE: _interval(0, WARP_SIZE - 1, 1),
    Opcode.WARPID: _AbsVal(0, 1, 0, 0, 0),
    Opcode.RAND: _interval(0, 1, 0),
    Opcode.BARCNT: _interval(0, WARP_SIZE, 1),
    # Launch-uniform but unknown at analysis time; non-negative by
    # construction. Addresses built from it degrade to "guarded",
    # which routes grid launches to the always-correct serial path.
    Opcode.CTAID: _interval(0, _INF, 0),
    Opcode.CTADIM: _interval(1, _INF, 0),
    Opcode.NCTA: _interval(1, _INF, 0),
    Opcode.SIN: _interval(-1, 1, 0),
    Opcode.COS: _interval(-1, 1, 0),
}


def _transfer(instr, env):
    """Abstract value written by ``instr`` (which has a dst)."""
    op = instr.opcode
    operands = instr.operands
    if op in _NULLARY:
        return _NULLARY[op]
    if op in _UNARY:
        return _UNARY[op](_operand(env, operands[0]))
    if op in _BINARY:
        return _BINARY[op](_operand(env, operands[0]),
                           _operand(env, operands[1]))
    if op is Opcode.SEL:
        return _join(_operand(env, operands[1]), _operand(env, operands[2]))
    if op is Opcode.FMA:
        product = _mul(_operand(env, operands[0]), _operand(env, operands[1]))
        return _add(product, _operand(env, operands[2]))
    # DIV, SHL, SHR, OR, XOR, NOT, SQRT, EXP, LOG, LD, ATOMADD, CALL,
    # BMOV and anything else that defines a register: unknown.
    return TOP


# ----------------------------------------------------------------------
# Kernel interpretation
# ----------------------------------------------------------------------

def _abstract_run(fn, seed_env):
    """Worklist fixpoint over ``fn``; returns ``{(block, index): (kind,
    AbsVal)}`` for every global memory access site at the post-fixpoint
    input environment of its block."""
    in_envs = {fn.entry.name: dict(seed_env)}
    visits = {}
    sites = {}
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
                    _MEMORY_OPS[op], _operand(env, instr.operands[0])
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
    return sites


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


def _calls_memory(module, fn):
    """True when a function ``fn`` can call contains a memory op."""
    return any(
        instr.opcode in _MEMORY_OPS
        for callee in _reachable(module, fn)[1:]
        for _block, _index, instr in callee.instructions()
    )


# ----------------------------------------------------------------------
# Launch-time classification (concrete arguments)
# ----------------------------------------------------------------------

def _envelope(val):
    """Integer (lo, hi) envelope of the truncated addresses a site can
    touch for one thread, or None when unknown or unbounded *below*.

    An infinite upper bound is fine: the task-loop pattern widens there,
    and every injectivity rule anchors on ``lo``/``step`` (span
    disjointness simply never separates on the unbounded side)."""
    if val.is_top or not math.isfinite(val.lo):
        return None
    hi = math.ceil(val.hi) if math.isfinite(val.hi) else _INF
    return math.floor(val.lo), hi


class _Site:
    __slots__ = ("kind", "lo", "hi", "ct", "cw", "step", "map", "span")

    def __init__(self, kind, val, bounds, n_threads, max_warp):
        self.kind = kind
        self.lo, self.hi = bounds
        self.ct = val.ct
        self.cw = val.cw
        self.step = val.step
        self.map = (self.lo, self.hi, self.ct, self.cw, self.step)
        self.span = (
            self.lo,
            self.hi + self.ct * (n_threads - 1) + self.cw * max_warp,
        )

    @property
    def writes(self):
        return self.kind != "read"


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
    if a.map == b.map and _write_self_safe(a, n_threads):
        # Identical address maps collide only same-tid / same-warp, and
        # intra-thread and intra-warp orders are preserved verbatim.
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


def _classify(module, kernel_name, args, n_threads):
    fn = module.function(kernel_name)
    if _calls_memory(module, fn):
        return "guarded"
    seed = {}
    for i, param in enumerate(fn.params):
        value = args[i] if i < len(args) else None
        seed[param.name] = _point(value)
    raw = _abstract_run(fn, seed)
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


def classify_launch(module, kernel_name, args, n_threads):
    """``"disjoint"`` when no two warps of this launch can conflict
    through global memory, else ``"guarded"``.

    The proof covers global tids ``[0, n_threads)`` with warp ids
    ``tid // 32``. ``"disjoint"`` (with a per-warp scheduler and no
    :func:`cta_coupled` channel) licenses ``GPUMachine`` to run the
    warps one at a time to completion; ``"guarded"`` keeps them
    interleaved; ``GridLaunch`` shards CTAs over the worker pool only on
    ``"disjoint"``. Memoized in the module's cache.
    """
    verdicts = module_cache(module, "launch_class")
    try:
        key = (kernel_name, tuple(args), n_threads)
        cached = verdicts.get(key)
    except TypeError:
        key = None
        cached = None
    if cached is not None:
        return cached
    result = _classify(module, kernel_name, tuple(args), n_threads)
    if key is not None:
        verdicts[key] = result
    return result


def cta_coupled(module, kernel_name):
    """True when the kernel, or any function it can call, contains a
    ``ctasync`` or a shared-memory op: channels between the warps of one
    CTA that :func:`classify_launch` does not look at. Memoized in the
    module's cache."""
    coupled = module_cache(module, "cta_coupled")
    result = coupled.get(kernel_name)
    if result is None:
        result = coupled[kernel_name] = any(
            instr.opcode in _CTA_OPS
            for fn in _reachable(module, module.function(kernel_name))
            for _block, _index, instr in fn.instructions()
        )
    return result

