"""Engine-wide layered counters: always-on, near-zero-overhead telemetry.

Every performance layer the engine grew — fastpath pre-decode,
the pass manager, segment fusion, independent warps, the compile cache, the
persistent worker pool — kept its own ad-hoc diagnostics. This module
unifies them behind one process-global registry, :data:`ENGINE_COUNTERS`,
in the style of hardware performance counters: each counter is a **plain
int attribute** on one shared object, so a hot-site increment is a single
``+= 1`` with no allocation, no dict lookup, and no string hashing.

Counters are namespaced ``layer.name`` (see :data:`COUNTERS` for the
registry with descriptions) and are *cumulative per process*, except
the :data:`HIGH_WATER` peaks, which hold the largest value seen. Consumers
snapshot and diff::

    from repro.obs.counters import ENGINE_COUNTERS, snapshot, delta

    before = snapshot()
    ...                       # run launches, sweeps, compiles
    moved = delta(snapshot(), before)

Per-launch values (segment fusion coverage, how the warps ran) come
from the launch's own profiler via ``Profiler.engine_counters()`` and are
folded into the global registry with :meth:`EngineCounters.merge` when
the launch returns, so both views —
"this launch" and "this process so far" — stay consistent.

Cross-process aggregation (``repro.harness.parallel`` workers) serializes
snapshots back to the parent, which merges them via :func:`merge`;
snapshots are
plain ``{name: int}`` dicts for exactly that reason. The ``tools.stats``
CLI renders either view as a per-layer table and diffs saved snapshots.

Counters describe the **engine**, never the simulated program — results
are bit-identical with any mix of counter consumers attached (the
conformance matrix pins this).
"""

from __future__ import annotations

__all__ = [
    "COUNTERS",
    "ENGINE_COUNTERS",
    "EngineCounters",
    "HIGH_WATER",
    "counter_layers",
    "delta",
    "merge",
    "reset",
    "snapshot",
]

#: Registry of every namespaced counter: ``"layer.name" -> description``.
#: The attribute on :class:`EngineCounters` is the name with dots
#: replaced by underscores (``fastpath.decode_cache_hit`` ->
#: ``fastpath_decode_cache_hit``).
COUNTERS = {
    # --- fastpath: pre-decoded program cache (repro.simt.fastpath) ----
    "fastpath.decode_cache_hit":
        "decode_program() served a cached DecodedProgram",
    "fastpath.decode_cache_miss":
        "decode_program() built (or rebuilt) a DecodedProgram",
    # --- segments: fused straight-line execution (repro.simt.segments)
    "segments.fused_instrs":
        "issue slots retired through fused segments",
    "segments.fallback_instrs":
        "issue slots retired one instruction at a time",
    "segments.fused_segments":
        "fused segment executions (bursts)",
    # Unfused issues by opcode; the seven sum to segments.fallback_instrs.
    "segments.fallback_cbr":
        "issue slots retired one at a time: cbr",
    "segments.fallback_bra":
        "issue slots retired one at a time: bra",
    "segments.fallback_bssy":
        "issue slots retired one at a time: bssy",
    "segments.fallback_bbreak":
        "issue slots retired one at a time: bbreak",
    "segments.fallback_bsync":
        "issue slots retired one at a time: bsync",
    "segments.fallback_bsync_soft":
        "issue slots retired one at a time: bsync.soft",
    "segments.fallback_other":
        "issue slots retired one at a time: any other opcode",
    # --- jit: compiled segments (repro.simt.jit) ----------------------
    "jit.compiled_segments":
        "compile() calls: generated sources (segments and lone pure ops) "
        "not yet in the code memo",
    "jit.tierups":
        "segments lowered to generated code when built",
    "jit.shape_hits":
        "segments lowered from a shape seen before: no source generated, "
        "only their own namespace bound (included in jit.tierups)",
    "jit.deopts":
        "segments and lone pure ops vetoed by codegen (the run issues "
        "unfused; the op runs interpreted)",
    "jit.executed_segments":
        "fused segment executions (all run compiled code)",
    # --- batch: how multi-warp launches ran (repro.simt.machine) ------
    # The five counters sum to the multi-warp launches completed.
    "batch.independent_launches":
        "multi-warp launches run one warp at a time to completion",
    "batch.interleaved_engine":
        "multi-warp launches interleaved: no segment engine (observers, "
        "or fastpath/segments/warp_batch off)",
    "batch.interleaved_scheduler":
        "multi-warp launches interleaved: scheduler state shared across "
        "warps (round-robin)",
    "batch.interleaved_cta":
        "multi-warp launches interleaved: ctasync or shared memory "
        "reachable from the kernel",
    "batch.interleaved_memory":
        "multi-warp launches interleaved: global footprints not proven "
        "disjoint",
    # Not a launch count: a subset of segments.fused_instrs.
    "batch.ahead_instrs":
        "fused slots an interleaved launch ran ahead of their round "
        "(a segment's slots after its first, owed to later rounds)",
    # --- sched: why serial slots did not fuse (repro.simt.machine) ----
    "sched.nonforced_multi_group":
        "serial slots with multiple groups under a policy with shared "
        "state (round-robin fuses lone groups only)",
    "sched.nonforced_observed":
        "serial slots issued with no segment engine (observers attached)",
    # --- program_cache: compile memoization (repro.core.program_cache)
    "program_cache.hit":
        "compile_cached() served a shared CompiledProgram",
    "program_cache.miss":
        "compile_cached() ran the full pass pipeline",
    # --- passmgr: analysis caching (repro.core.passmgr) ---------------
    "passmgr.analysis_hit":
        "AnalysisManager.get() served a cached analysis",
    "passmgr.analysis_recompute":
        "AnalysisManager.get() had no valid cached entry: it computed the "
        "analysis or took it from the compile's input module",
    "passmgr.analysis_shared":
        "AnalysisManager.get() misses answered from the compile's input "
        "module without computing (included in passmgr.analysis_recompute)",
    # --- pool: persistent worker pool (repro.harness.parallel) --------
    "pool.tasks":
        "tasks submitted to the persistent worker pool",
    "pool.reuses":
        "parallel runs that reused the live pool (no refork)",
    "pool.teardowns":
        "pool teardowns (knob change, error, or shutdown)",
    "pool.worker_deaths":
        "sweeps that lost a pool worker process (raised WorkerError)",
    # --- launch: top-level machine activity (repro.simt.machine) ------
    "launch.count":
        "kernel launches completed",
    "launch.errors":
        "launches aborted by LaunchError/DeadlockError",
    "launch.memo_hits":
        "launches served by the launch memo (repro.simt.memo) instead of "
        "simulated; included in launch.count",
    # --- grid: CTA hierarchy and simulated SMs (repro.simt.grid) ------
    "grid.ctas_launched":
        "CTAs executed by grid launches",
    "grid.sm_occupancy":
        "peak resident warps on any simulated SM (max, not sum)",
    "grid.shared_bytes":
        "per-CTA shared-memory bytes allocated (8 bytes/word)",
    "grid.pool_sharded_ctas":
        "CTAs executed on the persistent worker pool",
}

#: High-water-mark counters: the registry keeps the largest value seen,
#: so :func:`delta` reports the absolute ``after`` value and both merges
#: take the max instead of the sum.
HIGH_WATER = frozenset({"grid.sm_occupancy"})

#: Layer prefixes in display order (the per-layer tables follow this).
LAYERS = (
    "fastpath", "segments", "jit", "batch", "sched", "program_cache",
    "passmgr", "pool", "launch", "grid",
)


def _attr(name):
    return name.replace(".", "_")


def _numeric(value):
    """Numeric view of a snapshot value; anything else counts as 0.

    Snapshots fed to :func:`delta`/:func:`merge` are not always pristine
    counter dicts — ``tools.stats --diff`` accepts bare snapshots and
    hand-built files whose entries can be strings, bools, or lists. A
    layer absent from one side (a ``jit.*`` row diffed against a pre-JIT
    snapshot) must render as a plain delta, and a metadata string must
    never raise ``ValueError`` deep inside the diff.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return 0
    return value


class EngineCounters:
    """The shared counter object. Hot sites increment attributes directly
    (``ENGINE_COUNTERS.fastpath_decode_cache_hit += 1``); everything else
    goes through :meth:`snapshot`/:meth:`merge`/:meth:`reset`."""

    __slots__ = tuple(_attr(name) for name in COUNTERS)

    def __init__(self):
        self.reset()

    def reset(self):
        """Zero every counter (tests and long-lived servers)."""
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self):
        """A plain ``{namespaced name: int}`` dict (picklable, JSON-safe)."""
        return {name: getattr(self, _attr(name)) for name in COUNTERS}

    def merge(self, snap):
        """Fold a snapshot (e.g. from a worker process) into this registry.

        Counters add up, except :data:`HIGH_WATER` ones, which keep the
        max. Unknown keys (and derived ratios such as
        ``segments.coverage``) are ignored so snapshots from newer/older
        processes merge without raising.
        """
        for name, value in snap.items():
            attr = _attr(name)
            if attr in self.__slots__:
                value = int(_numeric(value))
                current = getattr(self, attr)
                if name in HIGH_WATER:
                    if value > current:
                        setattr(self, attr, value)
                else:
                    setattr(self, attr, current + value)


#: The process-global registry every engine layer increments.
ENGINE_COUNTERS = EngineCounters()


def snapshot():
    """Snapshot of :data:`ENGINE_COUNTERS` as a plain dict."""
    return ENGINE_COUNTERS.snapshot()


def reset():
    """Zero the global registry (tests; never needed for correctness)."""
    ENGINE_COUNTERS.reset()


def delta(after, before):
    """``after - before`` per counter over the union of keys.

    :data:`HIGH_WATER` counters report ``after`` itself: a peak is read
    as an absolute value, never as a difference. Keys missing from either
    side count as 0 (a layer that did not exist when the older snapshot
    was saved still diffs cleanly), and non-numeric values are treated as
    0 rather than raising.
    """
    keys = set(after) | set(before)
    return {
        name: _numeric(after.get(name, 0)) if name in HIGH_WATER
        else _numeric(after.get(name, 0)) - _numeric(before.get(name, 0))
        for name in sorted(keys)
    }


def merge(snapshots):
    """Sum an iterable of snapshots into one aggregate dict
    (:data:`HIGH_WATER` counters take the max)."""
    total = {}
    for snap in snapshots:
        for name, value in snap.items():
            value = _numeric(value)
            if name in HIGH_WATER:
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    return total


def counter_layers(snap=None):
    """Group a snapshot by layer prefix: ``{layer: {name: value}}``.

    Layers appear in :data:`LAYERS` order first, then any unknown
    prefixes alphabetically (forward compatibility with merged
    snapshots from newer processes). Derived ratios (segment fusion
    coverage) are computed here, not stored, so raw snapshots stay
    integer-valued and mergeable.
    """
    snap = snapshot() if snap is None else snap
    layers = {}
    for name, value in snap.items():
        layer, _, _ = name.partition(".")
        layers.setdefault(layer, {})[name] = value
    fused = snap.get("segments.fused_instrs", 0)
    fallback = snap.get("segments.fallback_instrs", 0)
    if fused or fallback:
        layers.setdefault("segments", {})["segments.coverage"] = (
            fused / (fused + fallback)
        )
    ordered = {}
    for layer in LAYERS:
        if layer in layers:
            ordered[layer] = dict(sorted(layers.pop(layer).items()))
    for layer in sorted(layers):
        ordered[layer] = dict(sorted(layers[layer].items()))
    return ordered
