"""Launch memo: each distinct flat launch is simulated once per process.

A flat launch on the fast path is a pure function of its inputs: the
program, the kernel, the thread count and arguments, the initial global
memory, the scheduler, the RNG seed (which reaches a kernel only through
``rand()``), the cost model, the issue budget and the engine
configuration. :meth:`GPUMachine.launch <repro.simt.machine.GPUMachine.launch>`
records every finished eligible launch under a key built from exactly
those inputs. A repeat returns the recorded result and applies the
recorded memory writes to the caller's
:class:`~repro.simt.memory.GlobalMemory` instead of simulating again.

The key:

* the program: sha256 of the module's printed IR
  (:func:`repro.ir.printer.format_module`), computed once per module
  object (again only if its structure token changes), so two modules with
  identical IR share entries;
* the kernel name, the thread count and the ``repr`` of the arguments;
* the digest of the initial memory cells (:meth:`GlobalMemory.digest`);
* the scheduler name, the seed, every cost-model field and ``max_issues``;
* :func:`~repro.engine.current_engine` and the flight-recorder level.

A launch is eligible when it is flat (no ``cta``: grid CTAs always
simulate), unobserved (no trace, no explicit or ambient sink, no metrics)
and on the fast path (``fastpath=False`` is the interpreted reference,
which always simulates), with a plain
:class:`~repro.simt.costs.CostModel`, a plain ``GlobalMemory`` and
int/float arguments. A launch that raises is never recorded, so a repeat
raises again.

An entry holds no copy of memory: the key holds a digest of the initial
cells and the entry only the cells the launch changed (its write delta).
It also holds the launch's profiler, its threads with their store
traces, its CTA context and its flight recorder. None of these reaches
the module (fused segments reach its functions, not the module), which
matters because the module holds the entry table: an entry that reached
its module would never be freed. The entries of one program digest sit
in one table that every module with that digest holds, so they are
freed with the last such module; :func:`clear` (called by
:func:`repro.simt.fastpath.clear_decode_cache`) drops them all.
"""

from __future__ import annotations

import hashlib
import weakref

from repro.engine import current_engine
from repro.ir.function import structure_token
from repro.ir.printer import format_module
from repro.obs.recorder import resolve_level
from repro.obs.sinks import ambient_sink
from repro.simt.costs import CostModel, cost_key
from repro.simt.memory import GlobalMemory

__all__ = ["Memo", "MemoEntry", "clear", "lookup", "stats"]

_ARG_TYPES = (int, float, bool)


class _Entries(dict):
    """launch key -> :class:`MemoEntry`, for one program digest."""

    __slots__ = ("__weakref__",)


#: module -> (structure token, the entry table of its digest); holding
#: the table here is what keeps it alive
_BY_MODULE = weakref.WeakKeyDictionary()
#: program digest -> entry table, while some module holds it
_BY_DIGEST = weakref.WeakValueDictionary()


class MemoEntry:
    """What a recorded launch returns on a hit."""

    __slots__ = ("profiler", "threads", "cta", "recorder", "writes")

    def __init__(self, result, writes):
        self.profiler = result.profiler
        self.threads = tuple(result.threads)
        self.cta = result.cta
        self.recorder = result.flight_recorder
        #: address -> value of every cell the launch changed, in the
        #: order the cells appear in the final memory
        self.writes = writes


class Memo:
    """One eligible launch: the recorded entry on a hit, else where to
    record it."""

    __slots__ = ("entry", "_entries", "_key", "_before")

    def __init__(self, entries, key, memory):
        self.entry = entries.get(key)
        self._entries = entries
        self._key = key
        # Only a miss needs the initial cells, to find its writes.
        self._before = memory.snapshot() if self.entry is None else None

    def store(self, result):
        """Record the finished launch ``result``."""
        writes = result.memory.changes_since(self._before)
        self._before = None
        self._entries[self._key] = MemoEntry(result, writes)


def _entries(module):
    """The entry table for ``module``'s program digest, or None when the
    module cannot be held weakly."""
    token = structure_token(module)
    try:
        cached = _BY_MODULE.get(module)
    except TypeError:
        return None
    if cached is not None and cached[0] == token:
        return cached[1]
    digest = hashlib.sha256(format_module(module).encode()).digest()
    entries = _BY_DIGEST.get(digest)
    if entries is None:
        entries = _BY_DIGEST[digest] = _Entries()
    _BY_MODULE[module] = (token, entries)
    return entries


def lookup(machine, kernel_name, n_threads, args, memory):
    """The :class:`Memo` of a flat launch of ``machine``, or None when
    the launch is not eligible."""
    if (
        machine.trace
        or machine.metrics
        or machine.sink is not None
        or ambient_sink() is not None
        or type(memory) is not GlobalMemory
        or type(machine.cost_model) is not CostModel
        or any(type(arg) not in _ARG_TYPES for arg in args)
    ):
        return None
    engine = current_engine()
    if not engine.fastpath:
        return None
    entries = _entries(machine.module)
    if entries is None:
        return None
    key = (
        kernel_name,
        n_threads,
        repr(tuple(args)),
        memory.digest(),
        machine.scheduler_name,
        machine.seed,
        cost_key(machine.cost_model),
        machine.max_issues,
        engine,
        resolve_level(machine.flight_recorder),
    )
    return Memo(entries, key, memory)


def stats():
    """``{"programs": live program digests, "entries": recorded launches}``."""
    tables = list(_BY_DIGEST.values())
    return {
        "programs": len(tables),
        "entries": sum(len(table) for table in tables),
    }


def clear():
    """Drop every recorded launch and every cached program digest."""
    for table in list(_BY_DIGEST.values()):
        table.clear()
    _BY_DIGEST.clear()
    _BY_MODULE.clear()
