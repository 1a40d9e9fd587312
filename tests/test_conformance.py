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
    """A divergent kernel with a CTA-wide barrier at a drawn position:
    uniformly before the loop, inside the divergent branch (threads that
    never take it must shrink the membership by exiting), or after the
    loop (warps arrive at wildly different times). Optionally the CTA also
    cooperates through its shared scratchpad across the barrier."""
    scale = draw(st.integers(2, 8))
    prob = draw(st.floats(0.2, 0.8))
    position = draw(st.sampled_from(["uniform", "divergent", "tail"]))
    use_shared = draw(st.booleans())
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


def _fuzz_check(module, engines, n_threads=32, machine_cls=GPUMachine,
                reference=REFERENCE, **machine_kwargs):
    """Launch kernel ``k`` under each of ``engines`` and under
    ``reference``: all must complete bit-identically, or deadlock
    *identically* (same warp, same parked lanes, same post-mortem but for
    the engine's own ``multiwarp`` and ``jit`` keys). Returns the
    profilers of ``reference`` and then ``engines``, or None when the
    kernel deadlocks."""

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


class _AlwaysDrainExecutor(Executor):
    """Hands the machine every barrier of the warp to drain after every
    issue and reports it as non-uniform, so the machine re-buckets the
    group and drains the whole barrier file each time: the schedule from
    before drains were skipped after uniform ops and narrowed to the
    barriers an op touched."""

    def execute(self, warp, pc, group):
        cycles = super().execute(warp, pc, group)
        self.touched = warp.barriers.barriers()
        self.issued_uniform = False
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
    """Assert, after every issue of every ``GPUMachine`` launch in the
    block (fused or not), that each warp's patched group table equals a
    fresh ``Warp.groups()`` rescan. Yields the list of warps checked, one
    entry per check."""
    checked = []

    def check(executor):
        for warp in executor.cta.warps:
            assert warp.table == warp.groups(), warp
            checked.append(warp)

    step = GPUMachine._step
    issuer = GPUMachine._issuer

    def checked_step(self, warp, executor, scheduler, pc=None):
        issued = step(self, warp, executor, scheduler, pc)
        check(executor)
        return issued

    def checked_issuer(self, executor, scheduler, segment_at):
        issue = issuer(self, executor, scheduler, segment_at)

        def checked_issue(warp):
            issued = issue(warp)
            check(executor)
            return issued

        return checked_issue

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GPUMachine, "_step", checked_step)
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
    @settings(max_examples=4, deadline=None)
    @given(
        program=random_kernel(allow_atomics=True),
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

    def test_cbr_exits_before_and_through(self):
        exits = _exits_taken(self._fused(CBR_DIVERGES))
        loop = ("k", "loop", 0)
        assert exits.get((loop, ("k", "loop", 1)), 0) > 0  # lanes disagree
        assert exits.get((loop, ("k", "body", 0)), 0) > 0  # all continue
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
