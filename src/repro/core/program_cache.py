"""Compile caching: one :class:`CompiledProgram` per (module, options).

Threshold sweeps, scheduler ablations, figure regeneration, and the
tests all compile the *same* lowered module under the *same*
options over and over — ``compare_all`` alone compiles every Table 2
workload twice, and Figures 7 and 8 both call it. :func:`compile_cached`
memoizes :meth:`ReconvergenceCompiler.compile` in the module's
``"compile"`` cache (:func:`~repro.ir.function.module_cache`, which
frees it with the module and empties it when the module's structure
changes), keyed by the full option tuple ``(mode, threshold,
auto_options, pipeline, debug stop, compiler options)``. The pipeline
component is the *effective* description — an explicit ``pipeline=``
argument or the ``REPRO_PIPELINE`` override — so compiles of the same
module under different pass pipelines (or the same pipeline with
different pass options) occupy distinct entries; debug stops
(``REPRO_STOP_AFTER``) key separately too, so a truncated debug compile
never poisons the cache. An option that cannot be hashed compiles
uncached.

Callers get the *shared* :class:`CompiledProgram` — the compiler clones
its input, the machines never mutate a compiled module, and launches
carry their own memory/threads, so sharing is safe. Anything that
intends to mutate a compiled module must compile uncached (or clone).
Hits and misses count in ``program_cache.hit``/``program_cache.miss``.

``REPRO_COMPILE_CACHE=0`` (or ``engine_config(compile_cache=False)``,
:mod:`repro.engine`) turns the cache off: every call compiles afresh and
counts one miss. CI's ``REPRO_COMPILE_CACHE=0`` leg and the tests use that
to run compiles uncached.
"""

from __future__ import annotations

import os

from repro.core.passmgr import default_pipeline
from repro.core.pipeline import ReconvergenceCompiler
from repro.engine import current_engine
from repro.ir.function import module_cache
from repro.obs.counters import ENGINE_COUNTERS

__all__ = ["compile_cached"]


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


def compile_cached(module, mode="sr", threshold=None, auto_options=None,
                   pipeline=None, **compiler_options):
    """The compile of ``module`` under exactly these options, shared with
    every earlier call that asked for it (compiled afresh when the cache
    is off or an option is unhashable)."""
    key = None
    if current_engine().compile_cache:
        try:
            key = (
                mode,
                _freeze(threshold),
                _freeze(auto_options),
                _freeze(pipeline or default_pipeline()),
                os.environ.get("REPRO_STOP_AFTER") or None,
                _freeze(compiler_options),
            )
        except TypeError:
            pass
    if key is not None:
        programs = module_cache(module, "compile")
        program = programs.get(key)
        if program is not None:
            ENGINE_COUNTERS.program_cache_hit += 1
            return program
    ENGINE_COUNTERS.program_cache_miss += 1
    program = ReconvergenceCompiler(**compiler_options).compile(
        module, mode=mode, threshold=threshold, auto_options=auto_options,
        pipeline=pipeline,
    )
    if key is not None:
        programs[key] = program
    return program
