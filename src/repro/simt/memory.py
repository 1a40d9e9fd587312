"""Flat global memory shared by all warps of a launch.

Addresses are word indices (not bytes). A simple bump allocator hands out
array regions so workloads can build lookup tables; the coalescing cost is
computed by the :class:`repro.simt.costs.CostModel`, not here.
"""

from __future__ import annotations

import hashlib

from repro.errors import SimulationError

_ABSENT = object()


def _same(old, new):
    """True when a cell holding ``old`` is unchanged by holding ``new``
    (same type and value, and the same sign for a zero)."""
    return old is new or (
        type(old) is type(new)
        and old == new
        and (old != 0 or repr(old) == repr(new))
    )


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

    def digest(self):
        """sha256 of the written cells: their addresses, values, value
        types and order."""
        return hashlib.sha256(repr(self._cells).encode()).digest()

    def changes_since(self, before, written=None):
        """The cells whose value differs from ``before`` (a
        :meth:`snapshot`), in this memory's order: the writes that took
        ``before`` to now.

        ``written``, the addresses stored to since ``before`` in the
        order they were first stored to, limits the search to them; the
        new cells then come in the same order, at the cost of the writes
        instead of a pass over every cell."""
        if written is not None:
            cells = self._cells
            return {
                addr: cells[addr]
                for addr in written
                if not _same(before.get(addr, _ABSENT), cells[addr])
            }
        return {
            addr: value
            for addr, value in self._cells.items()
            if not _same(before.get(addr, _ABSENT), value)
        }

    def apply(self, writes):
        """Store every ``address -> value`` of ``writes``, in order."""
        self._cells.update(writes)

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
    question for the launch-time memory proof
    (:mod:`repro.analysis.memeffects`).
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
