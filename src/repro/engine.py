"""Engine configuration: the host-side simulator settings, in one place.

The simulator's host engine stacks optional layers on the interpreted
executor — pre-decoded dispatch, fused segments, batched multi-warp
epochs, the segment JIT — plus the compile cache and pool sharding of
grid launches. None of them changes a simulated result; they only change
how fast the host gets there. :class:`EngineConfig` holds all seven
settings as one frozen, hashable value:

============== ======================== =======
field          environment variable     default
============== ======================== =======
fastpath       ``REPRO_FASTPATH``       on
segments       ``REPRO_SEGMENTS``       on
warp_batch     ``REPRO_WARP_BATCH``     on
jit            ``REPRO_JIT``            on
jit_threshold  ``REPRO_JIT_THRESHOLD``  50
compile_cache  ``REPRO_COMPILE_CACHE``  on
grid           ``REPRO_GRID``           on
============== ======================== =======

The process-wide config is parsed from the environment once, at import,
and :func:`current_engine` returns it. :func:`engine_config` overrides
fields for the duration of a ``with`` block. Machines read the config once
per launch, when they build their :class:`~repro.simt.executor.Executor`;
the compile cache reads it per compile and :class:`~repro.simt.grid.GridLaunch`
per grid launch. The persistent worker pool keys itself on the config and
installs it in every worker (:mod:`repro.harness.parallel`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

from repro.errors import ConfigError

__all__ = [
    "EngineConfig",
    "current_engine",
    "engine_config",
    "parse_flag",
    "parse_int",
]

_TRUE = ("1", "true", "on")
_FALSE = ("0", "false", "off")


def parse_flag(name, raw):
    """An on/off setting: ``1/true/on`` or ``0/false/off``, any case."""
    value = raw.strip().lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ConfigError(
        f"{name}={raw!r}: expected one of 1/true/on or 0/false/off"
    )


def parse_int(name, raw, minimum=None):
    """An integer setting, at least ``minimum`` when one is given."""
    try:
        value = int(raw.strip())
    except ValueError:
        raise ConfigError(f"{name}={raw!r}: expected an integer") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name}={raw!r}: expected an integer >= {minimum}")
    return value


@dataclass(frozen=True)
class EngineConfig:
    """The seven host-engine settings; every combination gives identical
    simulated results."""

    #: Pre-decoded table dispatch (:mod:`repro.simt.fastpath`). Off runs
    #: the interpreted executor, the reference semantics.
    fastpath: bool = True
    #: Fused straight-line segments (:mod:`repro.simt.segments`).
    segments: bool = True
    #: Lockstep multi-warp epochs (:mod:`repro.simt.batch`).
    warp_batch: bool = True
    #: Compiled hot segments (:mod:`repro.simt.jit`).
    jit: bool = True
    #: Segment executions before tier-up; 0 compiles on first execution.
    #: The default keeps one-shot launches codegen-free while anything
    #: sweep-shaped tiers up almost immediately.
    jit_threshold: int = 50
    #: Compile memoization (:mod:`repro.core.program_cache`).
    compile_cache: bool = True
    #: CTA sharding of grid launches over the worker pool
    #: (:mod:`repro.simt.grid`); off keeps every CTA in-process.
    grid: bool = True

    @classmethod
    def from_env(cls, environ=None):
        """The config named by ``REPRO_<FIELD>`` variables in ``environ``
        (default ``os.environ``); unset or empty variables keep the
        default. Other ``REPRO_*`` names are ignored."""
        environ = os.environ if environ is None else environ
        values = {}
        for field in fields(cls):
            name = f"REPRO_{field.name.upper()}"
            raw = environ.get(name, "")
            if not raw.strip():
                continue
            if isinstance(field.default, bool):
                values[field.name] = parse_flag(name, raw)
            else:
                values[field.name] = parse_int(name, raw, minimum=0)
        return cls(**values)


_CURRENT = EngineConfig.from_env()


def current_engine():
    """The process-wide :class:`EngineConfig`."""
    return _CURRENT


@contextmanager
def engine_config(**overrides):
    """Run a block with some fields overridden; yields the active config
    and restores the previous one on exit."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = replace(previous, **overrides)
    try:
        yield _CURRENT
    finally:
        _CURRENT = previous


def _install(config):
    """Make ``config`` the process-wide engine (pool-worker initializer)."""
    global _CURRENT
    _CURRENT = config
