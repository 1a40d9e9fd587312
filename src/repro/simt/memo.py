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

* the program: sha256 of a marshalled structural image of the module's
  IR (:func:`_program_digest`), computed once per module object (again
  only if its structure changes, see
  :func:`~repro.ir.function.module_cache`), so two modules with
  identical IR share entries;
* the kernel name, the thread count and the ``repr`` of the arguments;
* the digest of the initial memory cells (:meth:`GlobalMemory.digest`);
* the scheduler name, the seed, every cost-model field and ``max_issues``;
* :func:`~repro.engine.current_engine`.

A launch is eligible when it is flat (no ``cta``: grid CTAs always
simulate), unobserved (no explicit or ambient sink, no metrics)
and on the fast path (``fastpath=False`` is the interpreted reference,
which always simulates), with a plain
:class:`~repro.simt.costs.CostModel`, a plain ``GlobalMemory`` and
int/float arguments. A launch that raises is never recorded, so a repeat
raises again.

An entry holds no copy of memory: the key holds a digest of the initial
cells and the entry only the cells the launch changed (its write delta).
It also holds the launch's profiler, its threads with their store
traces and its CTA context. None of these reaches
the module (fused segments reach its functions, not the module), as the
module cache's lifetime rule requires. The entries of one program
digest sit in one table that the ``"launch_memo"`` cache of every module
with that digest holds, so they are freed with the last such module;
``clear_module_caches("launch_memo")`` drops them all.
"""

from __future__ import annotations

import hashlib
import marshal
import weakref

from repro.engine import current_engine
from repro.ir.function import module_cache
from repro.ir.instructions import Barrier, BlockRef, FuncRef, Imm, Reg
from repro.obs.sinks import ambient_sink
from repro.simt.costs import CostModel, cost_key
from repro.simt.memory import GlobalMemory

__all__ = ["Memo", "MemoEntry", "lookup", "stats"]

_ARG_TYPES = (int, float, bool)


class _Entries(dict):
    """launch key -> :class:`MemoEntry`, for one program digest."""

    __slots__ = ("__weakref__",)


#: program digest -> entry table, while some module's cache holds it
_BY_DIGEST = weakref.WeakValueDictionary()


class MemoEntry:
    """What a recorded launch returns on a hit."""

    __slots__ = ("profiler", "threads", "cta", "writes")

    def __init__(self, result, writes):
        self.profiler = result.profiler
        self.threads = tuple(result.threads)
        self.cta = result.cta
        #: address -> value of every cell the launch changed, in the
        #: order the cells appear in the final memory
        self.writes = writes


class Memo:
    """One eligible launch: the recorded entry on a hit, else where to
    record it."""

    __slots__ = ("entry", "_entries", "_key", "_before")

    def __init__(self, entries, key, memory):
        self.entry = entries.get(key)
        # Weak: only module caches may hold a table. A traceback that
        # keeps a failed launch's frame alive would otherwise keep the
        # table, out of reach of clear_module_caches, for the next
        # module with the same digest to adopt.
        self._entries = weakref.ref(entries)
        self._key = key
        # Only a miss needs the initial cells, to find its writes.
        self._before = memory.snapshot() if self.entry is None else None

    def store(self, result):
        """Record the finished launch ``result`` (unless its table was
        dropped while it ran)."""
        entries = self._entries()
        if entries is not None:
            writes = result.memory.changes_since(self._before)
            entries[self._key] = MemoEntry(result, writes)
        self._before = None


#: operand type -> its tag in the program image (an ``Imm`` keeps its
#: value, which marshal stores with its type: ``1``, ``1.0``, ``True``
#: and ``-0.0`` stay apart)
_OPERAND_TAGS = {Imm: "#", Reg: "%", Barrier: "$", BlockRef: "^",
                 FuncRef: "@"}


def _program_digest(module):
    """sha256 of ``module``'s IR as marshalled tuples: each function's
    name, kind and parameters, and each block's name and instructions
    (opcode, destination, tagged operands), in order. That is everything
    a launch reads, so equal digests mean identical IR (provenance
    attributes, which no engine reads, are left out). Building the tuples
    costs about half of printing the module."""
    tags = _OPERAND_TAGS
    image = tuple(
        (fn.name, fn.is_kernel, tuple(param.name for param in fn.params),
         tuple(
             (block.name, tuple(
                 (instr.opcode.value,
                  None if instr.dst is None else instr.dst.name,
                  tuple([
                      (tags[type(op)],
                       op.value if type(op) is Imm else op.name)
                      for op in instr.operands
                  ]))
                 for instr in block.instructions
             ))
             for block in fn.blocks
         ))
        for fn in module
    )
    return hashlib.sha256(marshal.dumps(image)).digest()


def _entries(module):
    """The entry table for ``module``'s program digest."""
    digest = _program_digest(module)
    entries = _BY_DIGEST.get(digest)
    if entries is None:
        entries = _BY_DIGEST[digest] = _Entries()
    return entries


def lookup(machine, kernel_name, n_threads, args, memory):
    """The :class:`Memo` of a flat launch of ``machine``, or None when
    the launch is not eligible."""
    if (
        machine.metrics
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
    )
    module = machine.module
    entries = module_cache(module, "launch_memo", lambda: _entries(module))
    return Memo(entries, key, memory)


def stats():
    """``{"programs": live program digests, "entries": recorded launches}``."""
    tables = list(_BY_DIGEST.values())
    return {
        "programs": len(tables),
        "entries": sum(len(table) for table in tables),
    }
