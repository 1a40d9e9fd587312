"""Threads, frames, and warps.

A thread's program counter is the top :class:`Frame` of its call stack:
``(function, block name, instruction index)``. The scheduler groups threads
by that PC, which is how threads arriving at a common function body from
different call sites converge (Section 4.4) — hardware converges on PC, not
on call history.
"""

from __future__ import annotations

import enum
import operator
import weakref

from repro.errors import SimulationError
from repro.ir.function import module_cache
from repro.simt.barrier_state import BarrierFile, lanes_of
from repro.simt.rng import XorShift32

WARP_SIZE = 32

_by_lane = operator.attrgetter("lane")


class ThreadState(enum.Enum):
    RUNNABLE = "runnable"
    WAITING = "waiting"
    EXITED = "exited"


class _Undef:
    """Fill value of fresh register files.

    Slot-indexed register files cannot signal an undefined read with a
    KeyError the way name-keyed dicts did, so unwritten slots hold this
    sentinel instead: any attempt to *compute* with it (arithmetic,
    comparison, coercion) raises :class:`SimulationError`, preserving the
    undefined-register diagnostic without a per-read branch on the hot
    path. Verified programs never read an unwritten slot, so the sentinel
    is inert in practice.
    """

    __slots__ = ()

    def _undefined(self, *_args):
        raise SimulationError(
            "use of undefined register value (read before any write)"
        )

    __add__ = __radd__ = __sub__ = __rsub__ = _undefined
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _undefined
    __mod__ = __rmod__ = __floordiv__ = __rfloordiv__ = _undefined
    __and__ = __rand__ = __or__ = __ror__ = __xor__ = __rxor__ = _undefined
    __lshift__ = __rlshift__ = __rshift__ = __rrshift__ = _undefined
    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _undefined
    __neg__ = __pos__ = __abs__ = __invert__ = _undefined
    __int__ = __float__ = __index__ = __bool__ = __floor__ = _undefined
    __hash__ = None

    def __repr__(self):
        return "<undef>"


#: The shared undefined-register sentinel (one instance, compared by ``is``).
UNDEF = _Undef()

_RUNNABLE = ThreadState.RUNNABLE


class FrameTemplate:
    """What every frame of one function starts from, worked out once per
    (module, function) (:func:`frame_templates`): the register slot map,
    a fresh register file, the parameters' slots and the entry PC.

    The slot map is :meth:`repro.ir.function.Function.reg_slots`, and the
    decoder resolves register operands against this same map
    (:class:`repro.simt.fastpath.DecodedProgram`), so a frame's register
    file and the decoded code always agree.
    """

    __slots__ = ("fname", "entry", "slots", "regs", "param_slots", "pc")

    def __init__(self, function):
        self.fname = function.name
        self.entry = function.entry.name
        self.slots = slots = function.reg_slots()
        self.regs = [UNDEF] * len(slots)
        self.param_slots = tuple(slots[param.name] for param in function.params)
        self.pc = (self.fname, self.entry, 0)

    def fill(self, values):
        """A fresh register file with the parameters set to ``values``."""
        regs = self.regs.copy()
        for slot, value in zip(self.param_slots, values):
            regs[slot] = value
        return regs


class _FrameTemplates(dict):
    """function name -> :class:`FrameTemplate` of one module, each built
    on its first lookup."""

    def __init__(self, module):
        super().__init__()
        # Weak: this lives in its module's cache (the lifetime rule of
        # repro.ir.function.module_cache).
        self._module = weakref.ref(module)

    def __missing__(self, name):
        template = self[name] = FrameTemplate(self._module().function(name))
        return template


def frame_templates(module):
    """The :class:`FrameTemplate` of each function of ``module``, keyed by
    name, in the module's ``"launch_template"`` cache: the kernel's for a
    launch, a callee's for a call frame. A structure change of the module
    empties it together with the decode cache, whose slots it matches."""
    return module_cache(
        module, "launch_template", lambda: _FrameTemplates(module)
    )


class Frame:
    """One activation record: function, PC, registers, return linkage.

    The register file is a fixed-size list indexed by the function's
    decode-time slot allocation (``FrameTemplate.slots``) — a C-speed
    list index per access instead of a hashed dict lookup.
    """

    __slots__ = ("fname", "block_name", "index", "regs", "slots", "ret_dst")

    def __init__(self, template, regs, ret_dst=None):
        """A frame at the entry of ``template``'s function, owning
        ``regs`` (a register file laid out by ``template.slots``)."""
        self.fname = template.fname  # read once per issue per lane
        self.block_name = template.entry
        self.index = 0
        self.regs = regs
        self.slots = template.slots
        self.ret_dst = ret_dst

    def pc(self):
        return (self.fname, self.block_name, self.index)

    def read(self, reg):
        value = self.regs[self.slots[reg.name]]
        if value is UNDEF:
            raise SimulationError(
                f"read of undefined register %{reg.name} "
                f"in @{self.fname}/{self.block_name}"
            )
        return value

    def write(self, reg, value):
        self.regs[self.slots[reg.name]] = value


class Thread:
    """One SIMT thread (lane) with its call stack and RNG stream."""

    __slots__ = ("tid", "lane", "warp_id", "state", "frames", "waiting_on",
                 "store_trace", "retired", "seed", "_rng")

    def __init__(self, tid, lane, warp_id, template, regs, seed):
        """A runnable thread at the entry of ``template``'s function, its
        frame holding a copy of ``regs`` (the launch's register file,
        arguments filled in once by :meth:`FrameTemplate.fill`)."""
        self.tid = tid
        self.lane = lane
        self.warp_id = warp_id
        self.state = _RUNNABLE
        self.frames = [Frame(template, regs.copy())]
        self.waiting_on = None       # barrier name while WAITING
        self.store_trace = []        # (addr, value) pairs, for result checks
        self.retired = 0             # per-thread executed instruction count
        self.seed = seed
        self._rng = None

    @property
    def rng(self):
        """The thread's stream, ``XorShift32(seed, tid)``, seeded on its
        first use (the thread's first ``rand``): most kernels never draw,
        and the stream does not depend on when it is seeded."""
        rng = self._rng
        if rng is None:
            rng = self._rng = XorShift32(self.seed, self.tid)
        return rng

    @property
    def frame(self):
        if not self.frames:
            raise SimulationError(f"thread {self.tid} has no active frame")
        return self.frames[-1]

    def pc(self):
        return self.frame.pc()

    def advance(self):
        self.frame.index += 1

    def jump(self, block_name):
        self.frame.block_name = block_name
        self.frame.index = 0

    def push_frame(self, template, values, ret_dst):
        """Call ``template``'s function with arguments ``values``. The
        caller's frame stays at the call instruction; the return path
        advances it past the call."""
        self.frames.append(Frame(template, template.fill(values), ret_dst))

    def pop_frame(self, value=None):
        """Return from the current function; returns True if thread exited."""
        finished = self.frames.pop()
        if not self.frames:
            self.state = ThreadState.EXITED
            return True
        caller = self.frame
        if finished.ret_dst is not None:
            caller.write(finished.ret_dst, value if value is not None else 0)
        caller.index += 1  # step past the call instruction
        return False

    def exit(self):
        self.frames.clear()
        self.state = ThreadState.EXITED

    def park(self, barrier_name):
        self.state = ThreadState.WAITING
        self.waiting_on = barrier_name

    def unpark(self):
        self.state = ThreadState.RUNNABLE
        self.waiting_on = None

    @property
    def is_runnable(self):
        return self.state is ThreadState.RUNNABLE

    @property
    def is_exited(self):
        return self.state is ThreadState.EXITED

    def __repr__(self):
        return f"<Thread tid={self.tid} lane={self.lane} {self.state.value}>"


def launch_warps(template, args, n_threads, seed, tid_base=0, warp_base=0):
    """The warps of a launch of ``n_threads`` threads of ``template``'s
    kernel with ``args``: the one place a launch builds its threads.

    The arguments are filled into one register file, which each thread
    copies. Tids and warp ids count from ``tid_base`` and ``warp_base``
    (a CTA's global bases; zero for a flat launch), so RNG streams and
    warp identity match the flat launch of the whole grid. Every thread
    starts runnable at the entry PC, so each warp's first table is one
    bucket there.
    """
    regs = template.fill(args)
    pc = template.pc
    warps = []
    for base in range(0, n_threads, WARP_SIZE):
        warp_id = warp_base + base // WARP_SIZE
        threads = [
            Thread(tid_base + tid, tid - base, warp_id, template, regs, seed)
            for tid in range(base, min(base + WARP_SIZE, n_threads))
        ]
        warps.append(Warp(warp_id, threads, pc))
    return warps


class Warp:
    """A co-scheduled group of up to WARP_SIZE threads.

    ``table`` is the warp's group table, ``{pc: [runnable threads in lane
    order]}``, valid at every issue boundary. It starts as one bucket of
    all ``threads`` at ``pc``, where a launch's fresh threads all stand
    (:func:`launch_warps`). The machine patches it after each issue from
    the issued group only (:meth:`rebucket`), and a barrier release
    inserts the released lanes at their resume PCs.
    """

    def __init__(self, warp_id, threads, pc):
        if len(threads) > WARP_SIZE:
            raise SimulationError(f"warp of {len(threads)} threads (max {WARP_SIZE})")
        self.warp_id = warp_id
        self.threads = threads
        self.barriers = BarrierFile()
        self.cycles = 0
        self.done = False
        self.table = {pc: list(threads)}

    def lane(self, lane_id):
        return self.threads[lane_id]

    def live_threads(self):
        return [t for t in self.threads if not t.is_exited]

    def groups(self):
        """Runnable threads grouped by PC, as {pc: [threads by lane]},
        rescanned from every thread: the oracle the patched ``table``
        must always equal (the tests check it before the first issue and
        after every issue)."""
        groups = {}
        lookup = groups.get
        runnable = ThreadState.RUNNABLE
        for thread in self.threads:
            if thread.state is runnable:
                frame = thread.frames[-1]
                pc = (frame.fname, frame.block_name, frame.index)
                bucket = lookup(pc)
                if bucket is None:
                    groups[pc] = [thread]
                else:
                    bucket.append(thread)
        return groups

    def rebucket(self, threads):
        """Insert the runnable ones among ``threads`` (in lane order, none
        of them in the table) at their PCs, merging each into a resident
        bucket in lane order."""
        table = self.table
        moved = {}
        runnable = ThreadState.RUNNABLE
        for thread in threads:
            if thread.state is runnable:
                frame = thread.frames[-1]
                pc = (frame.fname, frame.block_name, frame.index)
                bucket = moved.get(pc)
                if bucket is None:
                    moved[pc] = [thread]
                else:
                    bucket.append(thread)
        for pc, bucket in moved.items():
            insert_bucket(table, pc, bucket)

    def release(self, barrier, mask):
        """Release the parked lanes of ``mask`` from ``barrier``, make
        them runnable and insert them into the table."""
        barrier.release(mask)
        threads = self.threads
        waiting = ThreadState.WAITING
        runnable = ThreadState.RUNNABLE
        released = []
        for lane_id in lanes_of(mask):
            thread = threads[lane_id]
            if thread.state is not waiting:
                raise SimulationError(
                    f"lane {lane_id} released but not waiting "
                    f"(state {thread.state.value})"
                )
            # Thread.unpark, inlined: every released lane passes here.
            thread.state = runnable
            thread.waiting_on = None
            released.append(thread)
        self.rebucket(released)

    def drain(self, barriers, on_release=None):
        """Release each of ``barriers`` (in barrier-file order) whose
        condition holds.

        One pass suffices: a release changes only its own barrier's
        masks and makes its lanes runnable, and a barrier's condition
        reads only its own masks and parked lanes' thresholds, so no
        release can make another barrier releasable. ``on_release(barrier,
        lanes)`` is an optional observability hook (lanes as a set),
        invoked after each release (None on the fast path).
        """
        for barrier in barriers:
            mask = barrier.releasable()
            if mask:
                self.release(barrier, mask)
                if on_release is not None:
                    on_release(barrier, set(lanes_of(mask)))

    def __repr__(self):
        return f"<Warp {self.warp_id} ({len(self.threads)} threads)>"


def insert_bucket(table, pc, bucket):
    """Put ``bucket`` (threads in lane order) at ``pc`` in ``table``,
    merging it in lane order into a bucket already there."""
    resident = table.get(pc)
    if resident is None:
        table[pc] = bucket
    else:
        resident.extend(bucket)
        resident.sort(key=_by_lane)
