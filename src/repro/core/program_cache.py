"""Compile caching: one :class:`CompiledProgram` per (module, options).

Threshold sweeps, scheduler ablations, figure regeneration, and the
benchmark suite all compile the *same* lowered module under the *same*
options over and over — ``compare_all`` alone compiles every Table 2
workload twice, and Figures 7 and 8 both call it. The
:class:`ProgramCache` memoizes :meth:`ReconvergenceCompiler.compile`
keyed by module identity plus the full option tuple
``(mode, threshold, auto_options, pipeline, compiler options)``. The
pipeline component is the *effective* description — an explicit
``pipeline=`` argument or the ``REPRO_PIPELINE`` override — so compiles
of the same module under different pass pipelines (or the same pipeline
with different pass options) occupy distinct entries; debug stops
(``REPRO_STOP_AFTER``) key separately too, so a truncated debug compile
never poisons the cache.

Modules are held weakly, so a cache entry dies with its module. Because
modules are mutable, each entry also stores the module's
:func:`~repro.ir.function.structure_token`; a hit with a stale token
recompiles. Callers get the *shared* :class:`CompiledProgram` — the
compiler clones its input, the machines never mutate a compiled module,
and launches carry their own memory/threads, so sharing is safe. Anything
that intends to mutate a compiled module must compile uncached (or clone).

``REPRO_COMPILE_CACHE=0`` (or ``engine_config(compile_cache=False)``,
:mod:`repro.engine`) turns the cache off; benchmarks use that to measure
the uncached path.
"""

from __future__ import annotations

import os
import weakref

from repro.core.passmgr import default_pipeline
from repro.core.pipeline import ReconvergenceCompiler
from repro.engine import current_engine
from repro.ir.function import structure_token
from repro.obs.counters import ENGINE_COUNTERS

__all__ = [
    "PROGRAM_CACHE",
    "ProgramCache",
    "compile_cached",
    "freeze_options",
]


def _freeze(value):
    """A hashable snapshot of an options value (dicts become sorted tuples).

    Raises TypeError for unhashable leaves; callers fall back to an
    uncached compile.
    """
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return tuple(sorted(_freeze(v) for v in value))
    hash(value)
    return value


#: Public name for the option-freezing helper: every engine cache keyed
#: by a knob fingerprint (this one, the segment JIT's SegmentCodeCache)
#: freezes its options through the same machinery.
freeze_options = _freeze


class ProgramCache:
    """Weakly module-keyed memo of compiled programs."""

    def __init__(self):
        # module -> {options key: (structure token, CompiledProgram)}
        self._programs = weakref.WeakKeyDictionary()
        self.hits = 0
        self.misses = 0

    def compile(self, module, mode="sr", threshold=None, auto_options=None,
                pipeline=None, **compiler_options):
        """The cached compile of ``module`` under exactly these options."""
        try:
            per_module = self._programs.setdefault(module, {})
            key = (
                mode,
                _freeze(threshold),
                _freeze(auto_options),
                _freeze(pipeline or default_pipeline()),
                os.environ.get("REPRO_STOP_AFTER") or None,
                _freeze(compiler_options),
            )
        except TypeError:
            # Unhashable option or non-weak-referenceable module: compile
            # directly, no caching.
            ENGINE_COUNTERS.program_cache_miss += 1
            return self._compile(
                module, mode, threshold, auto_options, pipeline,
                compiler_options,
            )
        token = structure_token(module)
        entry = per_module.get(key)
        if entry is not None and entry[0] == token:
            self.hits += 1
            ENGINE_COUNTERS.program_cache_hit += 1
            return entry[1]
        self.misses += 1
        ENGINE_COUNTERS.program_cache_miss += 1
        program = self._compile(
            module, mode, threshold, auto_options, pipeline, compiler_options
        )
        per_module[key] = (token, program)
        return program

    @staticmethod
    def _compile(module, mode, threshold, auto_options, pipeline,
                 compiler_options):
        compiler = ReconvergenceCompiler(**compiler_options)
        return compiler.compile(
            module, mode=mode, threshold=threshold, auto_options=auto_options,
            pipeline=pipeline,
        )

    def clear(self):
        self._programs.clear()
        self.hits = 0
        self.misses = 0

    def stats(self):
        return {"hits": self.hits, "misses": self.misses}


#: The process-wide cache used by :func:`compile_cached` and the workloads.
PROGRAM_CACHE = ProgramCache()


def compile_cached(module, mode="sr", threshold=None, auto_options=None,
                   pipeline=None, **compiler_options):
    """Compile through :data:`PROGRAM_CACHE` (or directly when disabled)."""
    if not current_engine().compile_cache:
        ENGINE_COUNTERS.program_cache_miss += 1
        return ProgramCache._compile(
            module, mode, threshold, auto_options, pipeline, compiler_options
        )
    return PROGRAM_CACHE.compile(
        module, mode=mode, threshold=threshold, auto_options=auto_options,
        pipeline=pipeline, **compiler_options,
    )
