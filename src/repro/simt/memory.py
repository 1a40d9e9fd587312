"""Flat global memory shared by all warps of a launch.

Addresses are word indices (not bytes). A simple bump allocator hands out
array regions so workloads can build lookup tables; the coalescing cost is
computed by the :class:`repro.simt.costs.CostModel`, not here.
"""

from __future__ import annotations

from repro.errors import SimulationError


class GlobalMemory:
    """Word-addressed global memory with a bump allocator."""

    def __init__(self):
        self._cells = {}
        self._next_free = 0
        self._regions = {}

    def alloc(self, size, name=None, fill=0):
        """Reserve ``size`` words; returns the base address."""
        if size < 0:
            raise SimulationError(f"negative allocation size {size}")
        base = self._next_free
        self._next_free += size
        if fill != 0:
            for offset in range(size):
                self._cells[base + offset] = fill
        if name is not None:
            self._regions[name] = (base, size)
        return base

    def alloc_array(self, values, name=None):
        """Allocate and initialize a region from ``values``."""
        base = self.alloc(len(values), name=name)
        for offset, value in enumerate(values):
            self._cells[base + offset] = value
        return base

    def region(self, name):
        """(base, size) of a named region."""
        try:
            return self._regions[name]
        except KeyError:
            raise SimulationError(f"no memory region named {name!r}") from None

    def read_region(self, name):
        base, size = self.region(name)
        return [self.load(base + i) for i in range(size)]

    def load(self, addr):
        return self._cells.get(int(addr), 0)

    def store(self, addr, value):
        self._cells[int(addr)] = value

    def atom_add(self, addr, value):
        """Atomic fetch-and-add; returns the old value."""
        key = int(addr)
        old = self._cells.get(key, 0)
        self._cells[key] = old + value
        return old

    def snapshot(self):
        """Copy of all written cells (for result comparison in tests)."""
        return dict(self._cells)

    def __len__(self):
        return len(self._cells)


class SharedMemory:
    """Per-CTA on-chip scratchpad: fixed size, word-addressed, bounds-checked.

    Unlike :class:`GlobalMemory` there is no allocator and no sparse address
    space — a CTA declares ``shared_words`` up front (the grid launch's
    analogue of the kernel's static smem footprint) and every access must
    land inside ``[0, shared_words)``. Out-of-bounds accesses raise
    :class:`SimulationError` immediately: shared memory is CTA-private by
    construction, so an OOB index is always a kernel bug, never an aliasing
    question for the mem-effects analysis.
    """

    __slots__ = ("_words", "_cells")

    def __init__(self, words):
        if words < 0:
            raise SimulationError(f"negative shared memory size {words}")
        self._words = words
        self._cells = {}

    def _check(self, addr):
        key = int(addr)
        if key < 0 or key >= self._words:
            raise SimulationError(
                f"shared memory access out of bounds: address {key} "
                f"not in [0, {self._words})"
            )
        return key

    @property
    def words(self):
        return self._words

    def load(self, addr):
        return self._cells.get(self._check(addr), 0)

    def store(self, addr, value):
        self._cells[self._check(addr)] = value

    def atom_add(self, addr, value):
        """Atomic fetch-and-add; returns the old value."""
        key = self._check(addr)
        old = self._cells.get(key, 0)
        self._cells[key] = old + value
        return old

    def snapshot(self):
        """Copy of all written cells (for result comparison in tests)."""
        return dict(self._cells)

    def __len__(self):
        return len(self._cells)


class FootprintOverflow(Exception):
    """A guarded burst touched more addresses than the footprint cap."""


#: Absent-cell marker for the undo log (a popped key must be removed, not
#: restored to 0, so ``snapshot()`` stays bit-identical after rollback).
_ABSENT = object()


class FootprintMemory:
    """Optimistic-execution guard wrapped around a :class:`GlobalMemory`.

    While a warp runs a fused segment optimistically, the executor's
    memory reference is swapped to one of these. It applies every access
    to the real cells with identical semantics (so a conflict-free epoch
    commits for free) while recording:

    * per-burst **read/write address sets** (``take()`` drains them) —
      an ``atom_add`` address lands in the write set, which the
      batcher's conflict rule checks against both prior sets, covering
      its read half too;
    * an epoch-wide **undo log** of ``(addr, old value)`` pairs so a
      conflicting epoch can be rolled back exactly (``rollback()``
      replays it in reverse, distinguishing cells that did not exist).

    The footprint is capped: a burst touching more than ``limit``
    distinct addresses raises :class:`FootprintOverflow`, which the
    batcher treats as a conflict (roll back, replay per-slot).
    """

    __slots__ = ("_cells", "reads", "writes", "_undo", "_limit", "peak")

    def __init__(self, memory, limit=4096):
        self._cells = memory._cells
        self.reads = set()
        self.writes = set()
        self._undo = []
        self._limit = limit
        #: largest single-burst footprint drained so far (distinct words
        #: read + written between two ``take()`` calls), surfaced as the
        #: ``batch.peak_footprint`` counter.
        self.peak = 0

    def take(self):
        """Drain and return this burst's ``(reads, writes)`` sets."""
        reads, writes = self.reads, self.writes
        footprint = len(reads) + len(writes)
        if footprint > self.peak:
            self.peak = footprint
        self.reads, self.writes = set(), set()
        return reads, writes

    def load(self, addr):
        key = int(addr)
        reads = self.reads
        if key not in reads:
            reads.add(key)
            if len(reads) + len(self.writes) > self._limit:
                raise FootprintOverflow
        return self._cells.get(key, 0)

    def store(self, addr, value):
        key = int(addr)
        cells = self._cells
        writes = self.writes
        if key not in writes:
            writes.add(key)
            if len(writes) + len(self.reads) > self._limit:
                raise FootprintOverflow
        self._undo.append((key, cells.get(key, _ABSENT)))
        cells[key] = value

    def atom_add(self, addr, value):
        key = int(addr)
        cells = self._cells
        writes = self.writes
        if key not in writes:
            writes.add(key)
            if len(writes) + len(self.reads) > self._limit:
                raise FootprintOverflow
        old = cells.get(key, 0)
        self._undo.append((key, old if key in cells else _ABSENT))
        cells[key] = old + value
        return old

    def rollback(self):
        """Undo every write of the epoch, newest first."""
        cells = self._cells
        for key, old in reversed(self._undo):
            if old is _ABSENT:
                cells.pop(key, None)
            else:
                cells[key] = old
        self._undo.clear()

    def commit(self):
        """Accept the epoch's writes (drops the undo log)."""
        self._undo.clear()
