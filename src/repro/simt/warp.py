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

from repro.errors import SimulationError
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


class Frame:
    """One activation record: function, PC, registers, return linkage.

    The register file is a fixed-size list indexed by the function's
    decode-time slot allocation (:meth:`repro.ir.function.Function.reg_slots`)
    — a C-speed list index per access instead of a hashed dict lookup.
    """

    __slots__ = ("function", "fname", "block_name", "index", "regs", "slots",
                 "ret_dst")

    def __init__(self, function, block_name, index=0, ret_dst=None):
        self.function = function
        self.fname = function.name  # cached: read once per issue per lane
        self.block_name = block_name
        self.index = index
        slots = function.reg_slots()
        self.slots = slots
        self.regs = [UNDEF] * len(slots)
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

    def __init__(self, tid, lane, warp_id, kernel, args, seed):
        self.tid = tid
        self.lane = lane
        self.warp_id = warp_id
        self.state = ThreadState.RUNNABLE
        self.rng = XorShift32(seed, tid)
        self.frames = [Frame(kernel, kernel.entry.name)]
        for param, value in zip(kernel.params, args):
            self.frames[0].write(param, value)
        self.waiting_on = None       # barrier name while WAITING
        self.store_trace = []        # (addr, value) pairs, for result checks
        self.retired = 0             # per-thread executed instruction count

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

    def push_frame(self, function, ret_dst):
        # The caller's frame stays at the call instruction; the return path
        # advances it past the call.
        self.frames.append(Frame(function, function.entry.name, ret_dst=ret_dst))

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


class Warp:
    """A co-scheduled group of up to WARP_SIZE threads.

    ``table`` is the warp's group table, ``{pc: [runnable threads in lane
    order]}``, valid at every issue boundary. The machine patches it
    after each issue from the issued group only (:meth:`rebucket`), and a
    barrier release inserts the released lanes at their resume PCs.
    """

    def __init__(self, warp_id, threads):
        if len(threads) > WARP_SIZE:
            raise SimulationError(f"warp of {len(threads)} threads (max {WARP_SIZE})")
        self.warp_id = warp_id
        self.threads = threads
        self.barriers = BarrierFile()
        self.cycles = 0
        self.done = False
        self.table = self.groups()

    def lane(self, lane_id):
        return self.threads[lane_id]

    def live_threads(self):
        return [t for t in self.threads if not t.is_exited]

    def groups(self):
        """Runnable threads grouped by PC, as {pc: [threads by lane]},
        rescanned from every thread: the warp's first table, and the
        oracle the patched ``table`` must always equal (the tests check
        it after every issue)."""
        # Runs once per warp of every launch, so the PC tuple is built
        # inline rather than through Thread.pc()/Frame.pc().
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
