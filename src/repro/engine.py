"""Engine configuration: the host-side simulator settings, in one place.

The simulator's host engine stacks optional layers on the interpreted
executor — pre-decoded dispatch, compiled fused segments, independent
warps run one at a time — plus pool sharding of grid launches. None of
them changes a simulated result; they only change how fast the host gets
there. :class:`EngineConfig` holds all four settings as one frozen,
hashable value:

========== ===================== =======
field      environment variable  default
========== ===================== =======
fastpath   ``REPRO_FASTPATH``    on
segments   ``REPRO_SEGMENTS``    on
warp_batch ``REPRO_WARP_BATCH``  on
grid       ``REPRO_GRID``        on
========== ===================== =======

Other ``REPRO_*`` names are ignored, among them the retired layers'
``REPRO_SOA``, ``REPRO_SPEC``, ``REPRO_JIT`` and ``REPRO_JIT_THRESHOLD``,
the compile memo's retired off switch and the retired flight recorder's
``REPRO_FLIGHT_RECORDER``.

The process-wide config is parsed from the environment once, at import,
and :func:`current_engine` returns it. :func:`engine_config` overrides
fields for the duration of a ``with`` block. Machines read the config once
per launch, when they build their :class:`~repro.simt.executor.Executor`,
and :class:`~repro.simt.grid.GridLaunch` per grid launch. The persistent
worker pool keys itself on the config and installs it in every worker
(:mod:`repro.harness.parallel`).
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


def parse_int(name, raw):
    """An integer setting."""
    try:
        return int(raw.strip())
    except ValueError:
        raise ConfigError(f"{name}={raw!r}: expected an integer") from None


@dataclass(frozen=True)
class EngineConfig:
    """The four host-engine settings; every combination gives identical
    simulated results."""

    #: Pre-decoded table dispatch (:mod:`repro.simt.fastpath`), with pure
    #: ops lowered to generated Python on their first issue
    #: (:mod:`repro.simt.jit`). Off runs the interpreted executor, the
    #: reference semantics.
    fastpath: bool = True
    #: Fused straight-line segments, each compiled to Python when it is
    #: built (:mod:`repro.simt.segments`, :mod:`repro.simt.jit`). Off
    #: means no fusion: every slot issues alone, pure ops still through
    #: generated code.
    segments: bool = True
    #: Multi-warp launches whose warps cannot observe each other run one
    #: warp at a time to completion, and an interleaved launch's warps run
    #: segments no other warp can observe ahead of their rounds
    #: (:mod:`repro.simt.machine`); off keeps every multi-warp launch
    #: interleaved one slot per warp per round.
    warp_batch: bool = True
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
            if raw.strip():
                values[field.name] = parse_flag(name, raw)
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
