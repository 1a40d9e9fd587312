"""Cross-engine conformance net for the simulator's host engine.

Every engine configuration must reproduce the *interpreted reference*
(``EngineConfig(fastpath=False)``: the interpreted executor, on which
compiled segments and independent warps cannot engage) bit-for-bit:
per-thread store traces, retirement, profiler counters, cycles and SIMT
efficiency.
The configurations are the leave-one-out set of :data:`ENGINES` — all
layers on and each layer off — checked over

* ``GPUMachine`` and ``StackGPUMachine`` (pre-Volta),
* all three schedulers,
* ``compile_baseline`` vs ``compile_sr``,
* one warp (32 threads) and three warps (96 threads, so independent
  warps run one at a time where memory allows); the fuzzer also draws
  1 to 96 threads, so last warps are partial,
* observability (metrics) on vs off — the PR-1 invariant,

over a scaled-down Table 2 corpus and the hypothesis ``random_kernel``
fuzzer. Each layer must also actually engage where it should (fused
issues, independent warps, compiled segments), or its axis silently tests
nothing, and stay inert without its prerequisite or under observability.

The max-issues runaway-loop cap is also pinned here: every execution
engine shares ``DEFAULT_MAX_ISSUES`` and raises :class:`LaunchError` on
overrun.
"""

import functools
import inspect
import json
from contextlib import contextmanager
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compile_baseline, compile_sr
from repro.engine import EngineConfig, engine_config
from repro.errors import DeadlockError, LaunchError, SimulationError
from repro.frontend import compile_kernel_source
from repro.frontend.lower import lower_program
from repro.harness.parallel import run_tasks, shutdown_pool, task
from repro.ir import parse_module
from repro.ir.function import clear_module_caches
from repro.obs import counters as obs_counters
from repro.simt import (
    CTAContext,
    DEFAULT_COST_MODEL,
    DEFAULT_MAX_ISSUES,
    GPUMachine,
    GlobalMemory,
    GridLaunch,
    SCHEDULERS,
    StackGPUMachine,
    decode_program,
)
from repro.simt import machine as machine_module
from repro.simt.executor import Executor
from repro.simt.profiler import Profiler
from repro.simt.scheduler import make_scheduler
from repro.simt.warp import frame_templates, launch_warps
from repro.simt.reference import run_reference_thread
from repro.workloads import get_workload
from tests.test_properties import random_kernel
from tests.test_segments import DIVERGENT_ARMS

#: Table 2 workloads with sizes scaled down so the full matrix stays fast.
#: Every workload keeps its divergence pattern; only trip counts shrink.
CORPUS = {
    "rsbench": {"n_tasks": 64, "inner_fma": 3},
    "xsbench": {"n_tasks": 64, "grid_levels": 6, "table_size": 256,
                "trip_hi": 20},
    "mcb": {"steps": 8, "collision_cost": 16},
    "pathtracer": {"samples_per_thread": 2, "max_bounces": 8,
                   "shade_cost": 8},
    "mc-gpu": {"photons_per_thread": 2, "max_steps": 10, "step_cost": 4},
    "mummer": {"queries_per_thread": 3, "match_hi": 10, "extend_cost": 3},
    "meiyamd5": {"candidates_per_thread": 2, "len_hi": 16, "round_cost": 8},
    "optix": {"steps": 10, "intersect_cost": 12},
    "gpu-mcml": {"photons_per_thread": 2, "max_steps": 16, "spin_cost": 4},
    "funccall": {"iterations": 6, "shade_cost": 8, "else_extra": 2},
}

MODES = ("baseline", "sr")

#: Three warps: the multi-warp path, where independent warps engage.
MULTIWARP = 96

#: Corpus workloads whose warps share global memory (dynamic work
#: queues): their multi-warp launches stay interleaved.
GUARDED = frozenset({"rsbench", "xsbench"})


def _expected_multiwarp(name, scheduler):
    """How an all-on three-warp launch of ``name`` runs."""
    if scheduler == "round-robin":
        return "scheduler"
    return "memory" if name in GUARDED else "independent"

ALL_ON = EngineConfig()

#: Leave-one-out engine configurations. ``no-fastpath`` is the
#: interpreted reference every other configuration is checked against.
ENGINES = {
    "all-on": ALL_ON,
    "no-fastpath": replace(ALL_ON, fastpath=False),
    "no-segments": replace(ALL_ON, segments=False),
    "no-warp-batch": replace(ALL_ON, warp_batch=False),
}
REFERENCE = ENGINES["no-fastpath"]


@contextmanager
def _using(engine):
    """Run a block under exactly ``engine``, whatever the environment;
    ``None`` keeps the process config (the goldens run that way, so each
    CI leg's ``REPRO_*`` environment reaches them)."""
    with engine_config(**(asdict(engine) if engine is not None else {})):
        yield


def _launch(workload, compiled, machine_cls, engine, scheduler=None,
            metrics=False, seed=2020, n_threads=None):
    """One launch of a compiled workload on a fresh memory."""
    memory = GlobalMemory()
    args = workload.setup(memory)
    kwargs = {"seed": seed, "metrics": metrics}
    if scheduler is not None:
        kwargs["scheduler"] = scheduler
    with _using(engine):
        machine = machine_cls(compiled.module, **kwargs)
        return machine.launch(
            workload.kernel_name,
            n_threads if n_threads is not None else workload.n_threads,
            args=args, memory=memory,
        )


def _fingerprint(launch):
    """Everything the conformance matrix pins, JSON-normalized so an int
    silently becoming a float also counts as drift."""
    summary = dict(launch.profiler.summary())
    # Stall attribution only exists when metrics are on; everything else in
    # the summary must be independent of observability.
    summary.pop("stall_cycles", None)
    # Engine telemetry (fusion coverage, warp order) intentionally varies
    # with the engine configuration under test; the simulated result must
    # not.
    summary.pop("counters", None)
    return (
        launch.store_traces(),
        launch.retired_per_thread(),
        json.dumps(summary, sort_keys=True, default=repr),
        launch.cycles,
        launch.simt_efficiency,
    )


def _compiled(workload, mode):
    module = workload.module()
    if mode == "baseline":
        return compile_baseline(module)
    return compile_sr(module, threshold=workload.sr_threshold)


@functools.cache
def _reference(name, mode, scheduler, n_threads, machine_cls):
    """``(fingerprint, profiler)`` of one corpus point on the interpreted
    reference: the oracle every configuration is checked against,
    computed once per session."""
    workload = get_workload(name, **CORPUS[name])
    launch = _launch(
        workload, _compiled(workload, mode), machine_cls, REFERENCE,
        scheduler, n_threads=n_threads,
    )
    return _fingerprint(launch), launch.profiler


def _check(name, engine, schedulers=tuple(sorted(SCHEDULERS)), modes=MODES,
           n_threads=None, machine_cls=GPUMachine):
    """Launch every (mode, scheduler) point of ``name`` under ``engine``,
    assert each is bit-identical to the interpreted reference, and return
    the profilers keyed by ``(mode, scheduler)`` for engagement checks."""
    workload = get_workload(name, **CORPUS[name])
    profilers = {}
    for mode in modes:
        compiled = _compiled(workload, mode)
        for scheduler in schedulers:
            launch = _launch(
                workload, compiled, machine_cls, engine, scheduler,
                n_threads=n_threads,
            )
            expected, _ = _reference(
                name, mode, scheduler, n_threads, machine_cls
            )
            assert _fingerprint(launch) == expected, (
                name, engine, mode, scheduler,
            )
            profilers[mode, scheduler] = launch.profiler
    return profilers


def _observed_pair(name, engine, layer_off, n_threads=None):
    """The same ``sr`` launch with metrics attached, under ``engine`` and
    under ``layer_off``: observers see every issue slot, so the layer must
    disable itself and leave results and stall metrics unchanged."""
    workload = get_workload(name, **CORPUS[name])
    compiled = _compiled(workload, "sr")
    observed, reference = (
        _launch(workload, compiled, GPUMachine, config, metrics=True,
                n_threads=n_threads)
        for config in (engine, layer_off)
    )
    assert _fingerprint(observed) == _fingerprint(reference), name
    assert (
        observed.metrics.stall_cycles() == reference.metrics.stall_cycles()
    )
    return observed.profiler


def _jit_segments(profiler):
    """Fused segment executions that ran compiled code in one launch."""
    return profiler.engine_counters()["jit.executed_segments"]


@pytest.mark.parametrize("name", sorted(CORPUS))
class TestFastpathConformance:
    """The composed engine against the interpreter, per machine ×
    scheduler × compile mode."""

    def test_gpu_machine_bit_identical(self, name):
        _check(name, ALL_ON)

    def test_stack_machine_bit_identical(self, name):
        _check(name, ALL_ON, schedulers=(None,), machine_cls=StackGPUMachine)

    def test_observability_preserves_results(self, name):
        """Metrics on vs off never changes traces, counters, or cycles —
        the PR-1 invariant, re-proven on the fast path and the stack
        machine."""
        workload = get_workload(name, **CORPUS[name])
        compiled = _compiled(workload, "sr")
        for machine_cls in (GPUMachine, StackGPUMachine):
            plain = _launch(workload, compiled, machine_cls, ALL_ON)
            observed = _launch(
                workload, compiled, machine_cls, ALL_ON, metrics=True
            )
            assert _fingerprint(observed) == _fingerprint(plain), (
                name, machine_cls.__name__,
            )
            assert observed.metrics is not None
            assert plain.metrics is None

    def test_cross_scheduler_traces_match(self, name):
        """Store traces agree across schedulers and against the stack
        machine for workloads with deterministic task assignment (dynamic
        work queues reorder memory, so only those are comparable)."""
        workload = get_workload(name, **CORPUS[name])
        if not workload.deterministic_memory:
            pytest.skip(f"{name} uses a dynamic work queue")
        compiled = _compiled(workload, "sr")
        reference = _launch(
            workload, compiled, GPUMachine, REFERENCE, "convergence"
        ).store_traces()
        for engine in (REFERENCE, ALL_ON):
            for scheduler in sorted(SCHEDULERS):
                traces = _launch(
                    workload, compiled, GPUMachine, engine, scheduler
                ).store_traces()
                assert traces == reference, (name, scheduler, engine)
            traces = _launch(
                workload, compiled, StackGPUMachine, engine
            ).store_traces()
            assert traces == reference, (name, "stack", engine)


def _pooled_fingerprint(name, mode):
    """One all-on corpus point under the convergence scheduler (a pool
    task, so module-level)."""
    workload = get_workload(name, **CORPUS[name])
    return _fingerprint(_launch(
        workload, _compiled(workload, mode), GPUMachine, ALL_ON, "convergence"
    ))


def test_parallel_runner_matches_reference():
    """The corpus sweep on the worker pool matches the serial interpreted
    reference point for point: the runner ships results home unchanged."""
    points = [(name, mode) for name in sorted(CORPUS) for mode in MODES]
    try:
        pooled = run_tasks(
            [task(_pooled_fingerprint, name, mode) for name, mode in points],
            jobs=2,
        )
    finally:
        shutdown_pool()
    for (name, mode), fingerprint in zip(points, pooled):
        expected, _ = _reference(name, mode, "convergence", None, GPUMachine)
        assert fingerprint == expected, (name, mode)


@pytest.mark.parametrize("name", sorted(CORPUS))
class TestSegmentConformance:
    """Segment fusion on and off against the reference, per compile mode
    × scheduler. Fusion must actually fire under the convergence
    scheduler, or the axis tests nothing."""

    def test_segments_bit_identical(self, name):
        unfused = _check(name, ENGINES["no-segments"])
        fused = _check(name, ALL_ON)
        for (mode, scheduler), profiler in fused.items():
            assert unfused[mode, scheduler].fused_issues == 0
            if scheduler == "convergence":
                # Every corpus workload has straight-line runs; if the
                # engine stops fusing them the speedup silently
                # evaporates while results stay identical.
                assert profiler.fused_issues > 0, (name, mode)

    def test_segments_inert_without_fastpath(self, name):
        """Compiled segments and independent warps both need the decoded
        program; the reference config leaves them on, and on the
        interpreted path they must disable themselves (its results are
        the reference every other configuration matches)."""
        for n_threads in (None, MULTIWARP):
            _, interpreted = _reference(
                name, "sr", "convergence", n_threads, GPUMachine
            )
            assert interpreted.fused_issues == 0
            assert interpreted.multiwarp in (None, "engine")
            assert _jit_segments(interpreted) == 0

    def test_segments_fall_back_under_observability(self, name):
        """An attached metrics registry observes every issue slot, so
        fusion must fall back to per-instruction issue — with results and
        metrics identical to an unfused observed run."""
        observed = _observed_pair(name, ALL_ON, ENGINES["no-segments"])
        assert observed.fused_issues == 0


@pytest.mark.parametrize("name", sorted(CORPUS))
class TestWarpBatchConformance:
    """Multi-warp launches against the reference at three warps. Where
    the warps cannot observe each other the engine must really run them
    one at a time; elsewhere it must say why it kept the interleave, and
    with ``warp_batch`` off it must always interleave."""

    def test_batched_bit_identical_and_engaged(self, name):
        serial = _check(name, ENGINES["no-warp-batch"], n_threads=MULTIWARP)
        batched = _check(name, ALL_ON, n_threads=MULTIWARP)
        for (mode, scheduler), profiler in batched.items():
            assert serial[mode, scheduler].multiwarp == "engine"
            assert profiler.multiwarp == _expected_multiwarp(
                name, scheduler
            ), (name, mode, scheduler)

    def test_batching_inert_under_observability(self, name):
        """Metrics observe every issue slot in interleaved order, so
        independent warps (like fusion) must disable themselves rather
        than change what metrics see."""
        observed = _observed_pair(
            name, ALL_ON, ENGINES["no-warp-batch"], n_threads=MULTIWARP
        )
        assert observed.multiwarp == "engine"


@pytest.mark.parametrize("name", sorted(CORPUS))
class TestJITConformance:
    """Compiled segment execution against the reference, per mode ×
    scheduler. Every fused segment is compiled when it is built; it must
    actually engage on every corpus point and never be vetoed.
    Composition with independent multi-warp launches gets its own leg."""

    def test_jit_bit_identical_and_engaged(self, name):
        before = obs_counters.snapshot()
        jitted = _check(name, ALL_ON)
        for point, profiler in jitted.items():
            assert _jit_segments(profiler) > 0, (name, point)
        assert obs_counters.delta(obs_counters.snapshot(), before)["jit.deopts"] == 0

    def test_jit_batched_multiwarp_bit_identical(self, name):
        """Independent warps run every warp through ``Segment.execute``,
        so compiled segments must compose with them bit-for-bit. Guarded
        launches fuse only their last live warp, which may never reach
        a segment."""
        jit_batched = _check(
            name, ALL_ON, schedulers=("convergence",), n_threads=MULTIWARP,
        )
        for point, profiler in jit_batched.items():
            assert profiler.multiwarp == _expected_multiwarp(
                name, "convergence"
            ), (name, point)
            if profiler.multiwarp == "independent":
                assert _jit_segments(profiler) > 0, (name, point)

    def test_jit_inert_without_segments(self, name):
        """With fusion off no segment is built, lowered or executed
        (lone pure ops still run generated code)."""
        before = obs_counters.snapshot()
        unfused = _check(
            name, replace(ALL_ON, segments=False),
            schedulers=(None,), modes=("sr",),
        )[("sr", None)]
        assert _jit_segments(unfused) == 0
        assert obs_counters.delta(obs_counters.snapshot(), before)["jit.tierups"] == 0


def _grid_launch(workload, compiled, grid_dim, cta_dim, scheduler=None,
                 seed=2020, jobs=1, **machine_kwargs):
    """One grid launch of a compiled workload on a fresh memory."""
    memory = GlobalMemory()
    args = workload.setup(memory)
    kwargs = {"seed": seed, "jobs": jobs, **machine_kwargs}
    if scheduler is not None:
        kwargs["scheduler"] = scheduler
    return GridLaunch(compiled.module, grid_dim, cta_dim, **kwargs).launch(
        workload.kernel_name, args, memory=memory
    )


def _grid_observables(grid):
    return (
        grid.store_traces(),
        grid.retired_per_thread(),
        grid.cycles,
        grid.issued,
        grid.simt_efficiency,
    )


def _flat_observables(launch):
    return (
        launch.store_traces(),
        launch.retired_per_thread(),
        launch.cycles,
        launch.profiler.issued,
        launch.simt_efficiency,
    )


@pytest.mark.parametrize("name", sorted(CORPUS))
class TestGridConformance:
    """Grid launches vs the flat reference engine.

    The single-CTA grid must be *bit-identical* to ``launch()`` — same
    tids, warp ids, RNG streams, traces, cycles — because the flat launch
    is defined as the degenerate grid. Multi-CTA grids of the same thread
    range must agree on every per-thread observable for workloads whose
    memory is deterministic (the SM occupancy model re-times the launch,
    so only ``cycles`` is allowed to differ from flat).
    """

    def test_grid_of_one_cta_bit_identical(self, name):
        workload = get_workload(name, **CORPUS[name])
        for mode in MODES:
            compiled = _compiled(workload, mode)
            flat = _launch(workload, compiled, GPUMachine, ALL_ON)
            grid = _grid_launch(
                workload, compiled, 1, workload.n_threads
            )
            assert _grid_observables(grid) == _flat_observables(flat), (
                name, mode,
            )
            assert not grid.sharded

    def test_multi_cta_matches_flat_launch(self, name):
        workload = get_workload(name, **CORPUS[name])
        if not workload.deterministic_memory:
            pytest.skip(f"{name} uses a dynamic work queue")
        for mode in MODES:
            compiled = _compiled(workload, mode)
            for scheduler in sorted(SCHEDULERS):
                flat = _launch(
                    workload, compiled, GPUMachine, ALL_ON, scheduler,
                    n_threads=MULTIWARP,
                )
                grid = _grid_launch(
                    workload, compiled, 3, 32, scheduler=scheduler
                )
                assert grid.store_traces() == flat.store_traces(), (
                    name, mode, scheduler,
                )
                assert (
                    grid.retired_per_thread() == flat.retired_per_thread()
                ), (name, mode, scheduler)
                # ``issued`` is not comparable across launch shapes: the
                # round-robin scheduler's rotation state spans all warps
                # of one launch, so repacking (and with it issue-slot
                # counts) legitimately differs while per-thread results
                # stay invariant.


@st.composite
def ctasync_kernel(draw):
    """A divergent kernel with a CTA-wide barrier at a drawn position
    (:func:`ctasync_source`)."""
    return ctasync_source(
        draw(st.integers(2, 8)),
        draw(st.floats(0.2, 0.8)),
        draw(st.sampled_from(["uniform", "divergent", "tail"])),
        draw(st.booleans()),
    )


def ctasync_source(scale, prob, position, use_shared):
    """A divergent loop of up to ``scale`` trips with a CTA-wide barrier
    at ``position``: uniformly before the loop, inside the divergent
    branch taken with probability ``prob`` (threads that never take it
    must shrink the membership by exiting), or after the loop (warps
    arrive at wildly different times). With ``use_shared`` the CTA also
    cooperates through its shared scratchpad across the barrier."""
    lines = [
        "let t = tid();",
        "let acc = 0.0;",
    ]
    if position == "uniform":
        lines.append("ctasync;")
    lines += [
        f"let trips = floor(hash01(t * 3.7) * {scale}.0) + 1;",
        "let i = 0;",
        "while (i < trips) {",
        "    acc = fma(acc, 1.0003, 0.25);",
    ]
    if position == "divergent":
        lines.append(f"    if (hash01(t * 7.0 + i) < {prob}) {{ ctasync; }}")
    lines += [
        "    i = i + 1;",
        "}",
    ]
    if position == "tail":
        lines.append("ctasync;")
    if use_shared:
        lines += [
            "let ticket = shatom(0, 1.0);",
            "ctasync;",
            "acc = acc + shld(0) + ticket;",
        ]
    lines.append("store(t, acc);")
    body = "\n    ".join(lines)
    return f"kernel k() {{\n    {body}\n}}"


#: Half of each warp parks at the CTA-wide barrier, the other half at a
#: warp-wide sync: neither can open (each waits on lanes parked at the
#: other), which must deadlock identically everywhere.
CROSSED_BARRIERS = """
kernel k() {
    if (tid() - ctaid() * ctadim() < 16) {
        ctasync;
    } else {
        warpsync;
    }
    store(tid(), 1.0);
}
"""


class TestGridFuzzConformance:
    """Hypothesis fuzz for the grid hierarchy: CTA barriers, shared
    scratchpads, and the pool-sharded path against the serial loop."""

    @settings(max_examples=10, deadline=None)
    @given(ctasync_kernel())
    def test_grid_matches_per_cta_flat_launches(self, source):
        """The definitional oracle: a serial grid is exactly successive
        flat launches in cta_id order with explicit CTA contexts on one
        shared memory.

        A divergent-position ``ctasync`` can genuinely deadlock under SR
        compilation — lanes parked at a convergence barrier never arrive
        at the CTA barrier and vice versa, the Section 4.3 conflicting-
        barriers class extended to the CTA barrier (the CUDA
        ``__syncthreads``-under-divergence rule). Conformance then means
        the oracle deadlocks *identically* — same warp, same parked
        lanes — instead of completing."""
        compiled = compile_sr(compile_kernel_source(source))

        def per_cta_flat(consume):
            memory = GlobalMemory()
            machine = GPUMachine(compiled.module, seed=2020)
            for cta_id in range(3):
                consume(machine.launch(
                    "k", 32, memory=memory,
                    cta=CTAContext(
                        cta_id=cta_id, grid_dim=3, cta_dim=32,
                        tid_base=32 * cta_id, warp_base=cta_id,
                        shared_words=4,
                    ),
                ))
            return memory

        try:
            grid = GridLaunch(
                compiled.module, 3, 32, jobs=1, shared_words=4, seed=2020
            ).launch("k")
        except DeadlockError as grid_exc:
            with pytest.raises(DeadlockError) as flat_exc:
                per_cta_flat(lambda result: None)
            assert flat_exc.value.warp_id == grid_exc.warp_id
            assert flat_exc.value.waiting == grid_exc.waiting
            return
        traces, retired, cycles = {}, {}, []

        def collect(result):
            traces.update(result.store_traces())
            retired.update(result.retired_per_thread())
            cycles.append(result.cycles)

        memory = per_cta_flat(collect)
        assert grid.store_traces() == traces
        assert grid.retired_per_thread() == retired
        assert [r["cycles"] for r in grid.cta_records] == cycles
        assert grid.memory.snapshot() == memory.snapshot()

    @settings(max_examples=8, deadline=None)
    @given(ctasync_kernel())
    def test_sharded_grid_matches_serial(self, source):
        """Pool-sharded CTA ranges must reproduce the serial loop
        bit-for-bit whenever the disjointness proof lets them engage
        (under ``REPRO_GRID=0`` both sides take the serial loop and the
        parity is trivial — sharded engagement itself is pinned in
        test_grid.py and the grid benchmark). When the kernel's CTA
        barrier conflicts with SR barriers, the sharded path must surface
        the same DeadlockError the serial loop raises."""
        compiled = compile_sr(compile_kernel_source(source))
        try:
            serial = GridLaunch(
                compiled.module, 4, 32, jobs=1, shared_words=4, seed=2020
            ).launch("k")
        except DeadlockError:
            with pytest.raises(DeadlockError):
                GridLaunch(
                    compiled.module, 4, 32, jobs=2, shared_words=4,
                    seed=2020,
                ).launch("k")
            return
        sharded = GridLaunch(
            compiled.module, 4, 32, jobs=2, shared_words=4, seed=2020
        ).launch("k")
        assert sharded.cta_records == serial.cta_records
        assert sharded.memory.snapshot() == serial.memory.snapshot()
        assert sharded.cycles == serial.cycles
        assert sharded.issued == serial.issued

    def test_crossed_barriers_deadlock_everywhere(self):
        """Deadlock parity across the hierarchy: the flat launch, the
        serial grid, and the sharded grid must all refuse the crossed
        ctasync/warpsync kernel with a DeadlockError (never hang, never
        complete)."""
        compiled = compile_sr(compile_kernel_source(CROSSED_BARRIERS))
        with pytest.raises(DeadlockError) as flat_exc:
            GPUMachine(compiled.module).launch("k", 32)
        assert any(
            waiting_on == "__ctasync__"
            for _, waiting_on in flat_exc.value.waiting
        )
        with pytest.raises(DeadlockError) as serial_exc:
            GridLaunch(compiled.module, 4, 32, jobs=1).launch("k")
        assert serial_exc.value.waiting == flat_exc.value.waiting
        # The pool path re-raises the worker's error (attribute payloads
        # do not survive pickling, the type and message do).
        with pytest.raises(DeadlockError):
            GridLaunch(compiled.module, 4, 32, jobs=2).launch("k")


#: How the reference words a read of an undefined register.
UNDEF_READ = "read of undefined register"


def _fuzz_check(module, engines, n_threads=32, machine_cls=GPUMachine,
                reference=REFERENCE, undef=False, **machine_kwargs):
    """Launch kernel ``k`` under each of ``engines`` and under
    ``reference``: all must complete bit-identically, or deadlock
    *identically* (same warp, same parked lanes, same post-mortem but for
    the engine's own ``multiwarp`` and ``jit`` keys). With ``undef``, the
    kernel may also fail on a read of an undefined register; every engine
    must then fail identically too (same error type and message, same
    post-mortem but for those keys). Returns the profilers of
    ``reference`` and then ``engines``, or None when the kernel deadlocks
    or fails."""

    def post_mortem(exc):
        return {
            key: value for key, value in exc.post_mortem.items()
            if key not in ("multiwarp", "jit")
        }

    def launch(config):
        with _using(config):
            return machine_cls(module, **machine_kwargs).launch("k", n_threads)

    try:
        expected = launch(reference)
    except DeadlockError as expected_exc:
        for engine in engines:
            with pytest.raises(DeadlockError) as exc:
                launch(engine)
            assert exc.value.warp_id == expected_exc.warp_id, engine
            assert sorted(exc.value.waiting) == sorted(
                expected_exc.waiting
            ), engine
            assert post_mortem(exc.value) == post_mortem(expected_exc), engine
        return None
    except SimulationError as expected_exc:
        if not (undef and str(expected_exc).startswith(UNDEF_READ)):
            raise
        for engine in engines:
            with pytest.raises(SimulationError) as exc:
                launch(engine)
            assert type(exc.value) is type(expected_exc), engine
            assert str(exc.value) == str(expected_exc), engine
            assert post_mortem(exc.value) == post_mortem(expected_exc), engine
        return None
    profilers = [expected.profiler]
    for engine in engines:
        actual = launch(engine)
        assert _fingerprint(actual) == _fingerprint(expected), engine
        profilers.append(actual.profiler)
    return profilers


#: Lanes 0-15 park on $B0 first (the convergence scheduler issues the
#: largest group); lanes 16-29, the other members, loop 0-3 times on
#: uniform ops and exit group by group. Lanes 30-31 never join, and the
#: convergence scheduler leaves them, the smallest group, for last. The
#: barrier opens only when the last member exits. Waiters and free lanes
#: draw tickets from one atomic counter, so the stores record whether the
#: released waiters issued before the free lanes' first op.
EXIT_OPENS_BARRIER = """
func @k() kernel {
entry:
  %t = tid
  %m = cmplt %t, 30
  cbr %m, ^member, ^free
member:
  bssy $B0
  %p = cmplt %t, 16
  cbr %p, ^wait, ^work
wait:
  bsync $B0
  %v = atomadd 500, 1
  st %t, %v
  exit
work:
  %n = and %t, 3
  %i = mov 0
  bra ^loop
loop:
  %q = cmplt %i, %n
  cbr %q, ^body, ^done
body:
  %i = add %i, 1
  %x = mul %i, 2
  %y = add %x, %t
  bra ^loop
done:
  st %t, %i
  exit
free:
  %u = atomadd 500, 1
  st %t, %u
  %j = mov 0
  bra ^spin
spin:
  %r = cmplt %j, 12
  cbr %r, ^step, ^out
step:
  %j = add %j, 1
  bra ^spin
out:
  exit
}
"""

#: Three warps meet at ``ctasync`` after tid-dependent loops of uniform
#: ops; the last warp to arrive releases the other two.
CTASYNC_ACROSS_WARPS = """
kernel k() {
    let t = tid();
    let x = 0.0;
    for i in 0..(t % 7) { x = x * 1.5 + 1.0; }
    store(t, atomadd(500, 1.0));
    ctasync;
    store(t + 1000, x + atomadd(501, 1.0));
}
"""


#: Lanes 0-23 park on $B0 before lanes 24-31, the smaller and younger
#: group, reach the trace ``mul; bbreak; atomadd; st``: its guard sees
#: the parked lanes and the trace leaves before the ``bbreak``, which then
#: releases them. The tickets record the order.
BBREAK_WHILE_PARKED = """
func @k() kernel {
entry:
  %t = tid
  %p = cmplt %t, 24
  bssy $B0
  cbr %p, ^wait, ^work
wait:
  bsync $B0
  %v = atomadd 500, 1
  st %t, %v
  exit
work:
  %x = mul %t, 2
  bbreak $B0
  %w = atomadd 500, 1
  st %t, %w
  exit
}
"""

#: As above, but the ``bbreak`` is the trace's first op, so the guard
#: fails before any slot runs.
BBREAK_GUARD_AT_START = BBREAK_WHILE_PARKED.replace(
    "  %x = mul %t, 2\n", ""
)

#: Per-lane trip counts 2-5: the loop header's ``cmplt; cbr`` trace ends
#: in a ``cbr`` whose lanes disagree in some iterations and agree in
#: others, and the entry trace runs through a ``bssy``.
CBR_DIVERGES = """
func @k() kernel {
entry:
  %t = tid
  %m = and %t, 3
  %n = add %m, 2
  %i = mov 0
  bssy $B1
  bra ^loop
loop:
  %q = cmplt %i, %n
  cbr %q, ^body, ^done
body:
  %i = add %i, 1
  bra ^loop
done:
  bsync $B1
  st %t, %i
  exit
}
"""

#: A trace ending in each kind of branch. ``entry`` routes its ``bra``;
#: ``head`` routes a ``cbr`` whose lanes agree (every lane has the same
#: ``%i``), ``body`` one whose lanes disagree (a split exit). ``odd``
#: (after a store) and ``even`` (after a chunk) test ``%h``, a predicate
#: from before the trace, and ``join`` one its chunk folds to a literal;
#: ``tail`` has an immediate predicate. ``{memory}`` is empty, or a
#: shared-cell ``atomadd`` that keeps a multi-warp launch interleaved
#: for its memory.
BRANCH_EXITS = """
func @k() kernel {
entry:
  %t = tid
  {memory}
  %h = and %t, 1
  %i = mov 0
  bra ^head
head:
  %q = cmplt %i, 3
  cbr %q, ^body, ^tail
body:
  %i = add %i, 1
  %x = mul %t, %i
  %p = and %x, 2
  cbr %p, ^odd, ^even
odd:
  %y = add %x, 1
  st %t, %y
  cbr %h, ^head, ^join
even:
  %z = add %x, 2
  cbr %h, ^join, ^head
join:
  %c = const 1
  %d = add %i, %c
  cbr %c, ^head, ^tail
tail:
  %w = add %t, 7
  cbr 0, ^head, ^done
done:
  st %t, %w
  exit
}
"""

#: ``BRANCH_EXITS`` with warps that run independently, and with warps
#: that stay interleaved for their memory.
BRANCH_EXIT_KERNELS = {
    "disjoint": BRANCH_EXITS.replace("  {memory}\n", ""),
    "shared-cell": BRANCH_EXITS.replace("{memory}", "%a = atomadd 500, 1"),
}


#: The barrier-register forms the decoded path leaves to the interpreter:
#: ``bssy``, ``bsync`` and ``bbreak`` on barriers held in ``bmov``
#: registers, a ``bsync.soft`` whose threshold is a register (trivial,
#: at most 1, on some lanes), and a ``barcnt`` read while lanes arrive.
BARRIER_REGISTERS = """
func @k() kernel {
entry:
  %t = tid
  %b = bmov $B0
  %s = bmov $B1
  bssy %b
  bssy %s
  %p = cmplt %t, 20
  cbr %p, ^wait, ^work
wait:
  %th = and %t, 7
  bsync.soft %s, %th
  %n = barcnt %s
  bsync %b
  %v = atomadd 500, 1
  %o = add %v, %n
  st %t, %o
  exit
work:
  %x = mul %t, 2
  bbreak %s
  %c = cmplt %t, 26
  cbr %c, ^more, ^late
more:
  %y = add %x, 1
  bbreak %b
  st %t, %y
  exit
late:
  bsync %b
  %w = atomadd 500, 1
  st %t, %w
  exit
}
"""

#: Every lane reaches ``use`` through ``skip``, so ``%u`` was never
#: written: the predicate of the trace's ``cbr`` is UNDEF.
CBR_READS_UNDEF = """
func @k() kernel {
entry:
  %t = tid
  %c = cmplt %t, 100
  cbr %c, ^skip, ^def
def:
  %u = const 1
  bra ^use
skip:
  bra ^use
use:
  %x = add %t, 1
  cbr %u, ^out, ^out
out:
  st %t, %x
  exit
}
"""


#: The same never-written ``%u``, copied before anything computes with
#: it; ``{copy}`` is a ``mov``, a ``sel`` that picks it, or a store.
COPIES_UNDEF = """
func @k() kernel {
entry:
  %t = tid
  %c = cmplt %t, 100
  cbr %c, ^skip, ^def
def:
  %u = const 1
  bra ^use
skip:
  bra ^use
use:
  %x = add %t, 1
  {copy}
  cbr %q, ^out, ^out
out:
  st %t, %x
  exit
}
"""

#: A pure op that computes with the never-written ``%u``; ``{op}`` is an
#: arithmetic op, a compare, ``fma`` or a ``sel`` predicate.
COMPUTES_UNDEF = """
func @k() kernel {
entry:
  %t = tid
  {op}
  st %t, %y
  exit
}
"""


class _AlwaysDrainEntry:
    """A decoded entry that reports no move and hands the machine every
    barrier of the warp to drain after it runs."""

    def __init__(self, entry):
        self.instr = entry.instr
        self.opcode = entry.opcode
        self.is_barrier_op = entry.is_barrier_op
        self.move = None
        self._entry = entry

    def run(self, executor, warp, group):
        cycles = self._entry.run(executor, warp, group)
        executor.moved = None
        executor.touched = warp.barriers.barriers()
        return cycles


class _AlwaysDrainProgram:
    """A decoded program whose single-instruction entries are
    :class:`_AlwaysDrainEntry`; its segments are the wrapped program's."""

    def __init__(self, decoded):
        self._decoded = decoded
        self.segment_at = decoded.segment_at
        self.memory_free_segment_at = decoded.memory_free_segment_at

    def entry(self, pc):
        return _AlwaysDrainEntry(self._decoded.entry(pc))


class _AlwaysDrainExecutor(Executor):
    """Hands the machine every barrier of the warp to drain after every
    unfused issue, decoded or interpreted, with no move report, so the
    machine re-buckets the group thread by thread and drains the whole
    barrier file each time: the schedule from before drains were skipped
    after uniform ops and narrowed to the barriers an op touched, and
    before handlers reported their moves."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.decoded is not None:
            self.decoded = _AlwaysDrainProgram(self.decoded)

    def execute(self, warp, pc, group):
        cycles = super().execute(warp, pc, group)
        self.touched = warp.barriers.barriers()
        return cycles


class TestBarrierDrainConformance:
    """Drains run only after non-uniform ops. These barriers open through
    routes no other test pins: a member's exit, a ``ctasync`` across
    warps, and each way a fused trace leaves early (a ``bbreak`` whose
    barrier has a parked lane, mid-trace or as the trace's first op, and
    a ``cbr`` whose lanes disagree; other ``bbreak`` releases are pinned
    by the goldens), and barriers named through ``bmov`` registers with a
    register ``bsync.soft`` threshold, which the decoded path hands to the
    interpreter. Each must match the interpreted reference under
    every engine and scheduler, and the schedule of an executor that
    drains after every issue."""

    CASES = {
        "exit": (lambda: parse_module(EXIT_OPENS_BARRIER), 32),
        "ctasync": (lambda: compile_kernel_source(CTASYNC_ACROSS_WARPS),
                    MULTIWARP),
        "bbreak-parked": (lambda: parse_module(BBREAK_WHILE_PARKED), 32),
        "guard-at-start": (lambda: parse_module(BBREAK_GUARD_AT_START), 32),
        "cbr-diverges": (lambda: parse_module(CBR_DIVERGES), 32),
        "barrier-registers": (lambda: parse_module(BARRIER_REGISTERS), 32),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_matches_reference_and_always_drain(
        self, case, scheduler, monkeypatch
    ):
        build, n_threads = self.CASES[case]
        module = build()
        profilers = _fuzz_check(
            module,
            [ENGINES[name] for name in sorted(set(ENGINES) - {"no-fastpath"})],
            n_threads, scheduler=scheduler,
        )
        assert profilers is not None, case  # completes, no deadlock
        expected = GPUMachine(module, scheduler=scheduler).launch(
            "k", n_threads
        )
        monkeypatch.setattr(machine_module, "Executor", _AlwaysDrainExecutor)
        # The drained launches must simulate, not replay ``expected``.
        clear_module_caches("launch_memo")
        for config in (REFERENCE, ALL_ON):
            with _using(config):
                drained = GPUMachine(module, scheduler=scheduler).launch(
                    "k", n_threads
                )
            assert _fingerprint(drained) == _fingerprint(expected), config


@contextmanager
def _table_oracle():
    """Assert, before the first issue and after every issue of every
    ``GPUMachine`` launch in the block (fused or not), that each warp's
    group table equals a fresh ``Warp.groups()`` rescan: the launch's
    first table (one bucket at the entry PC), then the patched ones.
    Yields the list of warps checked, one entry per check."""
    checked = []

    def check(executor):
        for warp in executor.cta.warps:
            assert warp.table == warp.groups(), warp
            checked.append(warp)

    issuer = GPUMachine._issuer

    def checked_issuer(self, executor, scheduler, segment_at):
        # A launch builds its issuer before its first issue.
        check(executor)
        issue = issuer(self, executor, scheduler, segment_at)

        def checked_issue(warp):
            issued = issue(warp)
            check(executor)
            return issued

        return checked_issue

    with pytest.MonkeyPatch.context() as patch:
        # Every slot, fused, decoded or interpreted, issues through an
        # issuer's closure.
        patch.setattr(GPUMachine, "_issuer", checked_issuer)
        # Launches must simulate, not replay a recorded result.
        clear_module_caches("launch_memo")
        yield checked


#: ``ENGINES`` plus ``"process"``, the process-wide config, so each CI
#: leg's ``REPRO_*`` environment reaches the oracle.
ORACLE_ENGINES = {**ENGINES, "process": None}


class TestGroupTableOracle:
    """The group table each warp keeps, patched after every issue from
    the issued group, released lanes and ``ctasync`` releases, always
    equals a rescan of the warp: over the barrier routes of
    ``TestBarrierDrainConformance`` (a ``ctasync`` across warps among
    them) and random kernels, under every engine and scheduler."""

    @pytest.mark.parametrize("engine", sorted(ORACLE_ENGINES))
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    @pytest.mark.parametrize("case", sorted(TestBarrierDrainConformance.CASES))
    def test_barrier_routes(self, case, scheduler, engine):
        build, n_threads = TestBarrierDrainConformance.CASES[case]
        module = build()
        with _table_oracle() as checked, _using(ORACLE_ENGINES[engine]):
            GPUMachine(module, scheduler=scheduler).launch("k", n_threads)
        assert checked

    @pytest.mark.parametrize("engine", sorted(ORACLE_ENGINES))
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    @pytest.mark.parametrize("kernel", sorted(BRANCH_EXIT_KERNELS))
    def test_branch_exits(self, kernel, scheduler, engine):
        """Split exits included: a fused run that splits its group at
        a ``cbr`` leaves the table equal to a rescan."""
        module = parse_module(BRANCH_EXIT_KERNELS[kernel])
        with _table_oracle() as checked, _using(ORACLE_ENGINES[engine]):
            launch = GPUMachine(module, scheduler=scheduler).launch(
                "k", MULTIWARP
            )
        assert checked
        if engine == "all-on":
            assert launch.counters["segments.split_exits"] > 0

    @pytest.mark.parametrize("engine", sorted(ORACLE_ENGINES))
    @settings(max_examples=4, deadline=None)
    @given(
        program=st.booleans().flatmap(
            lambda sync: random_kernel(allow_atomics=True, ticket_sync=sync)
        ),
        n_threads=st.integers(1, MULTIWARP),
    )
    def test_random_kernels(self, engine, program, n_threads):
        module = compile_sr(lower_program(program)).module
        for scheduler in sorted(SCHEDULERS):
            with _table_oracle() as checked, _using(ORACLE_ENGINES[engine]):
                try:
                    GPUMachine(module, scheduler=scheduler).launch(
                        "k", n_threads
                    )
                except DeadlockError:
                    pass  # ticket-dependent membership can deadlock
            assert checked


#: A ``cbr`` on the low bit of ``tid``, and a ``bsync`` in a block that
#: ``late`` branches back to; :class:`TestMoveReports` places the lanes.
MOVES = """
func @k() kernel {
entry:
  %t = tid
  %c = and %t, 1
  cbr %c, ^odd, ^even
odd:
  exit
even:
  exit
sync:
  bsync $B0
  exit
late:
  bra ^sync
}
"""


class TestMoveReports:
    """A decoded handler reports where its group went, and the machine
    merges each reported bucket into the bucket already at its PC in
    lane order: one slot, issued by hand, from lanes placed by hand."""

    def _issue_one(self, pcs, before=None):
        """Place lane ``i`` at ``("k", *pcs[i])``, run ``before(warp)``,
        issue the oldest group's slot; returns the warp and its
        ``{block, index: lanes}`` table."""
        module = parse_module(MOVES)
        (warp,) = launch_warps(
            frame_templates(module)["k"], (), len(pcs), 2020
        )
        for thread, (block, index) in zip(warp.threads, pcs):
            frame = thread.frames[-1]
            frame.block_name, frame.index = block, index
            frame.regs[frame.slots["c"]] = thread.lane & 1
        warp.table = warp.groups()
        cta = CTAContext(cta_dim=len(pcs))
        cta.warps = [warp]
        executor = Executor(module, GlobalMemory(), DEFAULT_COST_MODEL,
                            Profiler(), cta=cta)
        if before is not None:
            before(warp)
        with _using(ALL_ON):
            issue = GPUMachine(module)._issuer(
                executor, make_scheduler("oldest-first"), None
            )
            assert issue(warp) == 1
        assert warp.table == warp.groups()
        assert executor.moved is None
        return warp, {
            pc[1:]: [thread.lane for thread in group]
            for pc, group in warp.table.items()
        }

    def test_cbr_split_merges_into_both_targets(self):
        pcs = [("entry", 2)] * 4 + [("even", 0), ("odd", 0)] * 2
        _, table = self._issue_one(pcs)
        assert table == {("odd", 0): [1, 3, 5, 7], ("even", 0): [0, 2, 4, 6]}

    def test_bsync_passes_non_members_through(self):
        # Lanes 0 and 2 park; lane 1, the third member, has not arrived,
        # so the barrier holds. Lanes 5 and 7 are not members.
        pcs = [("sync", 0), ("late", 0), ("sync", 0), ("sync", 1),
               ("sync", 1), ("sync", 0), ("sync", 1), ("sync", 0)]

        def join(warp):
            warp.barriers.get("B0").join(0b111)

        warp, table = self._issue_one(pcs, join)
        assert table == {("sync", 1): [3, 4, 5, 6, 7], ("late", 0): [1]}
        assert warp.barriers.get("B0").parked_mask == 0b101
        assert [t.lane for t in warp.threads if t.waiting_on] == [0, 2]

    def test_every_reporting_entry_reports(self):
        """``cbr`` and a literal ``bsync`` report per issue; ``exit``
        reports nothing; every other op here moves by its static PC, a
        pure op's from its first lone issue on."""
        module = parse_module(MOVES)
        decoded = decode_program(module, DEFAULT_COST_MODEL)
        assert decoded.entry(("k", "entry", 1)).move is None
        with _using(ENGINES["no-segments"]):
            GPUMachine(module).launch("k", 32)
        moves = {
            (block, index): decoded.entry(("k", block, index)).move
            for block, index in [("entry", 1), ("entry", 2), ("odd", 0),
                                 ("sync", 0), ("late", 0)]
        }
        assert moves == {
            ("entry", 1): ("k", "entry", 2),
            ("entry", 2): None,
            ("odd", 0): None,
            ("sync", 0): None,
            ("late", 0): ("k", "sync", 0),
        }
        # A literal bsync has its own closure, not the interpreter's.
        assert "interpreted" not in (
            decoded.entry(("k", "sync", 0)).run.__qualname__
        )


class TestDivergentArmsFuse:
    """A warp split into two equal arms of straight-line fusable ops:
    under each stateless policy the picked arm is the oldest of a size
    tie (convergence) or the oldest group (oldest-first), so every arm
    slot fuses, and the launch still matches the interpreted reference."""

    ARMS = {"low", "high"}

    @pytest.mark.parametrize("scheduler", ["convergence", "oldest-first"])
    def test_every_arm_slot_fuses(self, scheduler):
        module = parse_module(DIVERGENT_ARMS)
        reference, fused = _fuzz_check(module, [ALL_ON], scheduler=scheduler)
        arm_slots = sum(
            stats[0] for pc, stats in reference.pc_stats.items()
            if pc[1] in self.ARMS
        )
        assert arm_slots == 6  # two arms of three ops, one slot each
        assert not any(pc[1] in self.ARMS for pc in fused.pc_stats)
        assert sum(
            segment.n * stats[0]
            for segment, stats in fused.segment_stats.items()
            if segment.bname in self.ARMS
        ) == arm_slots
        counters = fused.engine_counters()
        assert counters["segments.fused_instrs"] >= arm_slots
        assert counters["sched.nonforced_multi_group"] == 0


def _exits_taken(profiler):
    """``{(exit start pc, exit end pc): runs}`` of a launch's fused runs."""
    return {
        ((out.fname, out.bname, out.start), out.end_pc): stats[0]
        for out, stats in profiler.segment_stats.items()
    }


class TestTraceExits:
    """Each way a trace leaves early is taken (``TestBarrierDrainConformance``
    checks these kernels against the reference), and an UNDEF ``cbr``
    predicate fails as it does unfused."""

    def _fused(self, source):
        with _using(ALL_ON):
            return GPUMachine(parse_module(source)).launch("k", 32).profiler

    def test_bbreak_guard_leaves_before_the_bbreak(self):
        exits = _exits_taken(self._fused(BBREAK_WHILE_PARKED))
        assert exits[(("k", "work", 0), ("k", "work", 1))] == 1

    def test_guard_failing_at_start_runs_no_slot(self):
        profiler = self._fused(BBREAK_GUARD_AT_START)
        # The trace exists, yet the bbreak issued one at a time.
        assert not any(
            out.start == 0 and out.bname == "work"
            for out in profiler.segment_stats
        )
        assert profiler.pc_stats[("k", "work", 0)][0] == 1
        module = parse_module(BBREAK_GUARD_AT_START)
        segment = decode_program(module, DEFAULT_COST_MODEL).segment_at(
            ("k", "work", 0)
        )
        assert segment is not None
        assert segment.exits[0].n == 0

    def test_cbr_splits_and_goes_through(self):
        """The loop header's chunk computes its ``cbr``'s predicate, so
        the trace runs the ``cbr`` whether its lanes agree or not: a
        split exit when they disagree, and no exit before it."""
        exits = _exits_taken(self._fused(CBR_DIVERGES))
        loop = ("k", "loop", 0)
        assert exits.get((loop, None), 0) > 0  # lanes disagree
        assert exits.get((loop, ("k", "body", 0)), 0) > 0  # all continue
        assert (loop, ("k", "loop", 1)) not in exits
        assert exits[(("k", "entry", 0), ("k", "loop", 0))] == 1

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_undef_predicate_fails_as_unfused(self, scheduler):
        """The trace leaves before the ``cbr`` and ``_step`` raises from
        it: the same error and post-mortem as with segments off. The
        interpreter words an UNDEF read differently, so against it only
        the error type and the rest of the report must match. (One warp:
        a multi-warp report's ``issued`` still depends on the engine.)"""

        def failure(config):
            with _using(config):
                machine = GPUMachine(
                    parse_module(CBR_READS_UNDEF), scheduler=scheduler
                )
                with pytest.raises(SimulationError) as excinfo:
                    machine.launch("k", 32)
            report = dict(excinfo.value.post_mortem)
            report.pop("jit", None)
            return type(excinfo.value), report

        def without_message(outcome):
            kind, report = outcome
            return kind, {**report, "error": report["error"]["type"]}

        expected = failure(REFERENCE)
        unfused = failure(ENGINES["no-segments"])
        assert unfused[1]["issued"] > 0
        for name in sorted(set(ENGINES) - {"no-fastpath"}):
            actual = failure(ENGINES[name])
            assert without_message(actual) == without_message(expected)
            assert actual == unfused, name


    @pytest.mark.parametrize(
        "copy", ["%q = mov %u", "%q = sel %c, %u, 0", "st %t, %u"]
    )
    def test_undef_copy_fails_at_the_copy(self, copy):
        """A copy of an UNDEF register raises at the copy, as the
        interpreter's read does, not later where the copy is used: the
        same error and post-mortem ``issued`` unfused as in the
        reference."""

        def failure(config):
            with _using(config):
                machine = GPUMachine(
                    parse_module(COPIES_UNDEF.replace("{copy}", copy))
                )
                with pytest.raises(SimulationError) as excinfo:
                    machine.launch("k", 32)
            error = excinfo.value
            return type(error), str(error), error.post_mortem["issued"]

        expected = failure(REFERENCE)
        assert expected[2] == 5
        assert failure(ENGINES["no-segments"]) == expected

    @pytest.mark.parametrize("op", [
        "%y = add %u, 1", "%y = sel %u, 1, 2", "%y = fma %t, %u, 1",
        "%y = cmplt 1, %u",
    ])
    def test_undef_operand_fails_as_the_reference(self, op):
        """A lone pure op computing with an UNDEF register fails with the
        interpreter's error: same type, message and post-mortem."""

        def failure(config):
            with _using(config):
                machine = GPUMachine(
                    parse_module(COMPUTES_UNDEF.replace("{op}", op))
                )
                with pytest.raises(SimulationError) as excinfo:
                    machine.launch("k", 32)
            return type(excinfo.value), excinfo.value.post_mortem

        expected = failure(REFERENCE)
        assert expected[1]["error"]["message"] == (
            "read of undefined register %u in @k/entry"
        )
        assert failure(ENGINES["no-segments"]) == expected


#: The fused-segment UNDEF kernel: ``%u`` is never written, so the
#: reference fails at the second ``add``, after two slots.
def _grid_outcome(module, jobs, scheduler):
    """``(sharded, CTA records, memory cells, counters)`` of a 4-CTA
    grid of 32-thread CTAs of ``module``'s kernel ``k``."""
    grid = GridLaunch(module, 4, 32, jobs=jobs, scheduler=scheduler).launch(
        "k"
    )
    return grid.sharded, grid.cta_records, grid.memory.snapshot(), (
        grid.counters
    )


class TestBranchExits:
    """Traces that end in a branch (``BRANCH_EXITS``): a routed ``bra``,
    a routed ``cbr`` whose lanes agree or disagree, and a ``cbr`` on a
    predicate from before the trace, folded, or immediate. They match the
    interpreted reference under every scheduler, whether the warps run
    independently, interleaved for their memory or for round-robin, or
    as the CTAs of a sharded grid."""

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    @pytest.mark.parametrize("kernel", sorted(BRANCH_EXIT_KERNELS))
    def test_matches_reference(self, kernel, scheduler):
        module = parse_module(BRANCH_EXIT_KERNELS[kernel])
        for n_threads in (32, MULTIWARP):
            profilers = _fuzz_check(
                module,
                [ENGINES[name]
                 for name in sorted(set(ENGINES) - {"no-fastpath"})],
                n_threads, scheduler=scheduler,
            )
            fused = profilers[1].engine_counters()  # all-on
            assert fused["segments.split_exits"] > 0
        expected = {
            "round-robin": "scheduler",
            "convergence": "independent",
            "oldest-first": "independent",
        }[scheduler]
        if kernel == "shared-cell" and expected == "independent":
            expected = "memory"
        assert profilers[1].multiwarp == expected
        if expected == "independent":
            # Every branch that ends a trace ran in one. Round-robin
            # issues a divergent warp's slots one at a time, and the
            # memory interleave does not run ahead through a store.
            assert fused["segments.fallback_cbr"] == 0
            assert fused["segments.fallback_bra"] == 0

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_sharded_grid_matches_reference(self, scheduler):
        module = parse_module(BRANCH_EXIT_KERNELS["disjoint"])
        with engine_config(grid=True):
            sharded = _grid_outcome(module, 2, scheduler)
        with _using(REFERENCE):
            reference = _grid_outcome(module, 1, scheduler)
        assert sharded[0] and not reference[0]
        assert sharded[1:3] == reference[1:3]
        assert sharded[3]["segments.split_exits"] > 0

    @pytest.mark.parametrize("scheduler", ["convergence", "oldest-first"])
    def test_exits_taken(self, scheduler):
        """Each exit of each shape is taken: the routed ``cbr`` through
        both targets and split, and the others split, all without an
        exit before their ``cbr``. (Round-robin fuses lone groups only,
        so it skips the shapes a diverged warp reaches.)"""
        with _using(ALL_ON):
            profiler = GPUMachine(
                parse_module(BRANCH_EXIT_KERNELS["disjoint"]),
                scheduler=scheduler,
            ).launch("k", 32).profiler
        taken = {}
        for out, (runs, _active, _cycles) in profiler.segment_stats.items():
            kind = "split" if out.end_pc is None else out.end_pc[1]
            taken[out.bname, kind] = taken.get((out.bname, kind), 0) + runs
        assert taken[("entry", "head")] == 1
        assert taken[("head", "body")] and taken[("head", "tail")]
        assert taken[("body", "split")]
        assert taken[("even", "split")] or taken[("odd", "split")]
        assert taken[("join", "head")] and taken[("tail", "done")]
        # No exit before a branch: the trace's blocks all end in one.
        assert not any(out.end_pc and out.end_pc[1] == out.bname
                       for out in profiler.segment_stats)


FUSED_UNDEF = """
func @k() kernel {
entry:
  %t = tid
  %x = add %t, 1
  %y = add %u, 1
  st %t, %y
  exit
}
"""

#: Lanes 0-3 write only ``%r0`` and read ``%r1`` at the third op of
#: ``use``; the other lanes write only ``%r1`` and read ``%r0`` at the
#: second. The fused chunk runs lane 0 first, but the reference fails at
#: the second op, on lane 4.
LATER_LANE_FAILS_FIRST = """
func @k() kernel {
entry:
  %t = tid
  %c = cmplt %t, 4
  cbr %c, ^a, ^b
a:
  %r0 = const 1
  bra ^use
b:
  %r1 = const 2
  bra ^use
use:
  %x = add %t, 1
  %y = add %x, %r0
  %z = add %y, %r1
  st %t, %z
  exit
}
"""

#: ``LATER_LANE_FAILS_FIRST`` with ``use`` ending in a ``cbr`` on a
#: compare its chunk computes: the chunk routes the ``cbr``, so the lanes
#: that ran it whole have already moved to their targets when a later
#: lane's read raises.
ROUTED_UNDEF = LATER_LANE_FAILS_FIRST.replace(
    "  st %t, %z\n  exit\n}",
    "  %p = cmplt %z, 5\n  cbr %p, ^lo, ^hi\nlo:\n  st %t, %z\n  exit\n"
    "hi:\n  exit\n}",
)

#: The failing op reads a folded constant before the UNDEF register (a
#: ``sel`` whose folded predicate picks it); the fused chunk writes the
#: constant only at its end.
FOLDED_BEFORE_UNDEF = """
func @k() kernel {
entry:
  %t = tid
  %k = const 0
  %x = add %t, 1
  %q = {op}
  st %t, %q
  exit
}
"""

#: Registers an UNDEF kernel's arms may leave unwritten.
_UNDEF_POOL = ("r0", "r1", "r2", "r3")


@st.composite
def undef_kernel(draw):
    """A kernel whose two arms each write a drawn subset of
    :data:`_UNDEF_POOL` before they merge into one block of pure ops,
    copies, ``sel``s and stores over that pool, so lanes on either side
    of the drawn ``tid`` cut may read a register their arm left
    undefined, each at its own op. An optional shared-cell ``atomadd``
    keeps a multi-warp launch interleaved."""
    cut = draw(st.integers(0, MULTIWARP))
    lines = ["func @k() kernel {", "entry:", "  %t = tid",
             f"  %c = cmplt %t, {cut}"]
    if draw(st.booleans()):
        lines.append("  %w = atomadd 900, 1")
    lines.append("  cbr %c, ^a, ^b")
    for arm, value in (("a", "const {}"), ("b", "add %t, {}")):
        lines.append(f"{arm}:")
        for reg in draw(st.lists(st.sampled_from(_UNDEF_POOL), unique=True)):
            op = value.format(draw(st.integers(0, 3)))
            lines.append(f"  %{reg} = {op}")
        lines.append("  bra ^use")
    lines.append("use:")
    readable = ["t", *_UNDEF_POOL]
    operand = st.sampled_from(readable)
    last = "t"
    for i in range(draw(st.integers(1, 8))):
        dst = draw(st.sampled_from([f"v{i}", *_UNDEF_POOL]))
        kind = draw(st.sampled_from(
            ["add", "mul", "cmplt", "mov", "sel", "fma", "const", "st", "nop"]
        ))
        if kind == "st":
            lines.append(f"  st %t, %{draw(operand)}")
            continue
        if kind == "nop":
            lines.append("  nop")
            continue
        if kind == "const":
            args = str(draw(st.integers(0, 2)))
        else:
            arity = {"mov": 1, "sel": 3, "fma": 3}.get(kind, 2)
            args = ", ".join(f"%{draw(operand)}" for _ in range(arity))
        lines.append(f"  %{dst} = {kind} {args}")
        readable.append(dst)
        last = dst
    ending = draw(st.sampled_from(["store", "compare-branch", "branch"]))
    if ending == "store":
        lines += [f"  st %t, %{last}", "  exit", "}"]
    else:
        # A routed ``cbr`` whose chunk computes its predicate, or one on
        # the last value ``use`` defined.
        if ending == "compare-branch":
            lines.append(f"  %e = cmplt %{last}, 1")
            last = "e"
        lines += [f"  cbr %{last}, ^yes, ^no", "yes:", "  st %t, 1",
                  "  exit", "no:", "  exit", "}"]
    return "\n".join(lines)


class TestFusedUndef:
    """A fused segment that reads an UNDEF register fails where the
    reference fails: the lowest op at which any lane reads UNDEF, the
    lowest lane first, with the same message and post-mortem (``issued``
    included) on every engine, however the segment's thread-major chunks
    ran."""

    @pytest.mark.parametrize("n_threads", [32, MULTIWARP])
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_fails_at_the_reference_slot(self, scheduler, n_threads):
        module = parse_module(FUSED_UNDEF)
        _fuzz_check(
            module, [ENGINES[name] for name in sorted(ENGINES)], n_threads,
            scheduler=scheduler, undef=True,
        )
        with _using(ALL_ON), pytest.raises(SimulationError) as excinfo:
            GPUMachine(module, scheduler=scheduler).launch("k", n_threads)
        assert excinfo.value.post_mortem["issued"] == 2 * (n_threads // 32)
        assert str(excinfo.value) == (
            "read of undefined register %u in @k/entry"
        )

    @pytest.mark.parametrize("source", [
        LATER_LANE_FAILS_FIRST,
        FOLDED_BEFORE_UNDEF.replace("{op}", "add %k, %u"),
        FOLDED_BEFORE_UNDEF.replace("{op}", "sel %k, %x, %u"),
    ], ids=["later-lane", "folded-add", "folded-sel"])
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_replay_finds_the_reference_failure(self, source, scheduler):
        """The failure path replays the chunk: a higher lane that fails
        at an earlier op wins, and the failing lane reads its folded
        constants as the reference does."""
        _fuzz_check(
            parse_module(source),
            [ENGINES[name] for name in sorted(set(ENGINES) - {"no-fastpath"})],
            32, scheduler=scheduler, undef=True,
        )

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_routed_chunk_fails_at_the_reference_slot(self, scheduler):
        """A chunk that routes its ``cbr`` and reads UNDEF reports the
        reference's slot and message."""
        module = parse_module(ROUTED_UNDEF)
        _fuzz_check(
            module, [ENGINES[name] for name in sorted(ENGINES)], 32,
            scheduler=scheduler, undef=True,
        )
        segment = decode_program(module, DEFAULT_COST_MODEL).segment_at(
            ("k", "use", 0)
        )
        assert "_tk.append(_t)" in segment.fn.__jit_source__
        with _using(ALL_ON), pytest.raises(SimulationError) as excinfo:
            GPUMachine(module, scheduler=scheduler).launch("k", 32)
        assert str(excinfo.value) == (
            "read of undefined register %r0 in @k/use"
        )

    @settings(max_examples=25, deadline=None)
    @given(
        source=undef_kernel(),
        scheduler=st.sampled_from(sorted(SCHEDULERS)),
        n_threads=st.integers(1, MULTIWARP),
    )
    def test_random_undef_reads(self, source, scheduler, n_threads):
        """Every engine, one to three warps: a kernel completes as the
        reference does or fails as it does, including under run-ahead
        (the ``atomadd`` keeps the warps interleaved) and for a lane
        that fails at an earlier op than a lower lane."""
        _fuzz_check(
            parse_module(source),
            [ENGINES[name] for name in sorted(set(ENGINES) - {"no-fastpath"})],
            n_threads, scheduler=scheduler, undef=True,
        )


class TestRandomKernelConformance:
    """The fuzzer shakes the decoded handlers with shapes the Table 2
    corpus may not reach (soft thresholds, interprocedural calls)."""

    @pytest.mark.parametrize(
        "engine", sorted(set(ENGINES) - {"no-fastpath"})
    )
    @settings(max_examples=6, deadline=None)
    @given(
        program=random_kernel(allow_atomics=True),
        scheduler=st.sampled_from(sorted(SCHEDULERS)),
        n_threads=st.integers(1, MULTIWARP),
    )
    def test_engine_matches_reference(self, engine, program, scheduler,
                                      n_threads):
        """Every leave-one-out configuration against the reference, under
        a drawn scheduler, on one to three warps (the last one often
        partial) whose kernels may share an atomic cell."""
        compiled = compile_sr(lower_program(program))
        _fuzz_check(
            compiled.module, [ENGINES[engine]], n_threads,
            scheduler=scheduler,
        )

    @settings(max_examples=15, deadline=None)
    @given(random_kernel())
    def test_fastpath_matches_interpreter(self, program):
        compiled = compile_sr(lower_program(program))
        _fuzz_check(compiled.module, [ALL_ON], machine_cls=StackGPUMachine)
        # Fusion on and off: the fuzzer reaches shapes the corpus lacks
        # (soft thresholds mid-block, calls splitting runs).
        _fuzz_check(compiled.module, [ALL_ON, ENGINES["no-segments"]])

    def test_ticket_deadlocks_match_reference(self):
        """``random_kernel(ticket_sync=True)`` over a fixed, derandomized
        example set, at one and three warps under every scheduler: every
        engine completes bit-identically with the reference or deadlocks
        identically (same warp, same parked lanes, same post-mortem), with
        the group table checked after every issue. At least one example
        deadlocks, so the deadlock identity check runs on fuzzed kernels."""
        engines = [ENGINES[name] for name in sorted(ENGINES)
                   if ENGINES[name] is not REFERENCE]
        deadlocked = []

        @settings(max_examples=6, deadline=None, derandomize=True,
                  database=None)
        @given(random_kernel(allow_atomics=True, ticket_sync=True))
        def check(program):
            compiled = compile_sr(lower_program(program))
            for scheduler in sorted(SCHEDULERS):
                for n_threads in (32, MULTIWARP):
                    profilers = _fuzz_check(
                        compiled.module, engines, n_threads,
                        scheduler=scheduler,
                    )
                    deadlocked.append(profilers is None)

        with _table_oracle() as checked:
            check()
        assert checked
        assert any(deadlocked)

    @settings(max_examples=10, deadline=None)
    @given(random_kernel(allow_atomics=True))
    def test_multiwarp_batched_matches_serial(self, program):
        """Multi-warp fuzz for independent warps: random kernels whose
        divergent regions may fetch-and-add a *shared* cell (the fetched
        ticket is observable), launched across three warps. Whether the
        warps run one at a time (no shared cell) or stay interleaved
        (the atomics make footprints collide), the engine must reproduce
        the serial interleaving bit-for-bit. Ticket-dependent barrier
        membership can genuinely deadlock; the engine must then deadlock
        identically. (``test_engine_matches_reference`` checks both sides
        against the interpreter.)"""
        compiled = compile_sr(lower_program(program))
        serial = ENGINES["no-warp-batch"]
        for scheduler in sorted(SCHEDULERS):
            profilers = _fuzz_check(
                compiled.module, [ALL_ON], MULTIWARP, reference=serial,
                scheduler=scheduler,
            )
            if profilers is not None:
                assert profilers[0].multiwarp == "engine"

    @settings(max_examples=12, deadline=None)
    @given(random_kernel())
    def test_jit_matches_interpreted_segments(self, program):
        """Random kernels: every compiled segment — whatever shapes the
        generator reaches (soft thresholds, calls, UNDEF operands, folded
        constants) — must match the reference bit-for-bit."""
        compiled = compile_sr(lower_program(program))
        _fuzz_check(compiled.module, [ALL_ON])

    @settings(max_examples=8, deadline=None)
    @given(random_kernel(allow_atomics=True))
    def test_jit_multiwarp_atomics_matches_serial(self, program):
        """Compiled segments × independent warps × shared-cell atomics at
        three warps: the full stack must reproduce the plain serial engine
        (always interleaved, no fused segments) bit-for-bit, or deadlock
        identically."""
        compiled = compile_sr(lower_program(program))
        _fuzz_check(
            compiled.module, [ALL_ON], MULTIWARP,
            reference=replace(ALL_ON, warp_batch=False, segments=False),
        )

    @settings(max_examples=15, deadline=None)
    @given(random_kernel())
    def test_pipeline_string_matches_legacy_compiler(self, program):
        """Compiling through an explicit pipeline description must be
        bit-identical (IR and execution) to the mode-resolved legacy
        entry point, for every mode."""
        from repro.core.pipeline import (
            ReconvergenceCompiler,
            pipeline_for_mode,
        )
        from repro.ir.printer import format_module

        module = lower_program(program)
        for mode in MODES:
            legacy = ReconvergenceCompiler().compile(module, mode=mode)
            explicit = ReconvergenceCompiler(
                pipeline=pipeline_for_mode(mode)
            ).compile(module, mode=mode)
            assert format_module(explicit.module) == format_module(
                legacy.module
            ), mode
            legacy_run = GPUMachine(legacy.module).launch("k", 32)
            # Identical IR shares launch-memo entries; the explicit
            # module must simulate to show the printed IR is all that
            # execution depends on.
            clear_module_caches("launch_memo")
            explicit_run = GPUMachine(explicit.module).launch("k", 32)
            assert _fingerprint(explicit_run) == _fingerprint(legacy_run), mode


RUNAWAY = """
kernel k() {
    let i = 0;
    while (i < 1000000) {
        i = i + 1;
    }
    store(tid(), i);
}
"""


class TestIssueBudget:
    """All engines share one default cap and fail with LaunchError."""

    def test_defaults_aligned(self):
        assert (
            inspect.signature(GPUMachine.__init__)
            .parameters["max_issues"].default
            == DEFAULT_MAX_ISSUES
        )
        assert (
            inspect.signature(StackGPUMachine.__init__)
            .parameters["max_issues"].default
            == DEFAULT_MAX_ISSUES
        )
        assert (
            inspect.signature(run_reference_thread)
            .parameters["max_issues"].default
            == DEFAULT_MAX_ISSUES
        )

    @pytest.mark.parametrize("fastpath", [False, True])
    def test_gpu_machine_overrun_raises_launch_error(self, fastpath):
        module = compile_kernel_source(RUNAWAY)
        with engine_config(fastpath=fastpath):
            with pytest.raises(LaunchError, match="issue slots"):
                GPUMachine(module, max_issues=1000).launch("k", 32)

    @pytest.mark.parametrize("fastpath", [False, True])
    def test_stack_machine_overrun_raises_launch_error(self, fastpath):
        module = compile_kernel_source(RUNAWAY)
        with engine_config(fastpath=fastpath):
            with pytest.raises(LaunchError, match="issue slots"):
                StackGPUMachine(module, max_issues=1000).launch("k", 32)

    def test_reference_overrun_raises_launch_error(self):
        module = compile_kernel_source(RUNAWAY)
        with pytest.raises(LaunchError, match="issue slots"):
            run_reference_thread(module, "k", 0, 32, max_issues=1000)
