"""Cross-machine conformance net for the fast-path simulation engine.

The differential matrix pins *bit-identical* per-thread store traces and
profiler counters across:

* ``GPUMachine`` with the pre-decoded fast path on vs off,
* ``StackGPUMachine`` (pre-Volta) fast path on vs off,
* all three schedulers,
* ``compile_baseline`` vs ``compile_sr``,
* observability (metrics) on vs off — the PR-1 invariant,
* multi-warp batched lockstep epochs vs the serial warp interleaving
  (``warp_batch`` on vs off at 96 threads),
* the tiered segment JIT vs interpreted segment steps (``jit`` on vs
  off with the tier-up threshold forced to 0 so every segment runs
  compiled — single-warp, batched multi-warp, and fuzzed),

over a scaled-down Table 2 corpus and the hypothesis ``random_kernel``
fuzzer. The interpreted (fastpath-off) executor is the reference
semantics; any drift in a decoded handler fails here first.

The max-issues runaway-loop cap is also pinned here: every execution
engine shares ``DEFAULT_MAX_ISSUES`` and raises :class:`LaunchError` on
overrun.
"""

import inspect
import json
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compile_baseline, compile_sr
from repro.errors import DeadlockError, LaunchError
from repro.frontend import compile_kernel_source
from repro.frontend.lower import lower_program
from repro.simt import (
    CTAContext,
    DEFAULT_MAX_ISSUES,
    GPUMachine,
    GlobalMemory,
    GridLaunch,
    SCHEDULERS,
    StackGPUMachine,
)
from repro.simt import jit as jit_module
from repro.simt.reference import run_reference_thread
from repro.workloads import get_workload
from tests.test_properties import random_kernel

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


def _launch(workload, compiled, machine_cls, fastpath, scheduler=None,
            metrics=False, seed=2020, segments=None, n_threads=None,
            **machine_kwargs):
    """One launch of a compiled workload on a fresh memory."""
    memory = GlobalMemory()
    args = workload.setup(memory)
    kwargs = {"seed": seed, "fastpath": fastpath, "metrics": metrics,
              "segments": segments, **machine_kwargs}
    if scheduler is not None:
        kwargs["scheduler"] = scheduler
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
    # Engine telemetry (fusion coverage, batch epochs) intentionally varies
    # with the engine configuration under test; the simulated result must
    # not.
    summary.pop("counters", None)
    # Non-forced-pick attribution counts serial-loop scheduler decisions,
    # which move between engine configurations (batching absorbs slots).
    summary.pop("nonforced_picks", None)
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


@contextmanager
def _forced_jit():
    """Force segment tier-up on first execution (JIT on, threshold 0).

    The threshold is read at launch setup and the per-segment hit
    counters live on the (weakly cached) segments, so wrapping the
    launches is enough — no decode-cache reset needed.
    """
    prev_enabled = jit_module.set_jit(True)
    prev_threshold = jit_module.set_jit_threshold(0)
    try:
        yield
    finally:
        jit_module.set_jit(prev_enabled)
        jit_module.set_jit_threshold(prev_threshold)


@pytest.mark.parametrize("name", sorted(CORPUS))
class TestFastpathConformance:
    """Fast path vs interpreter, per machine × scheduler × compile mode."""

    def test_gpu_machine_bit_identical(self, name):
        workload = get_workload(name, **CORPUS[name])
        for mode in MODES:
            compiled = _compiled(workload, mode)
            for scheduler in sorted(SCHEDULERS):
                slow = _fingerprint(_launch(
                    workload, compiled, GPUMachine, False, scheduler
                ))
                fast = _fingerprint(_launch(
                    workload, compiled, GPUMachine, True, scheduler
                ))
                assert fast == slow, (name, mode, scheduler)

    def test_stack_machine_bit_identical(self, name):
        workload = get_workload(name, **CORPUS[name])
        for mode in MODES:
            compiled = _compiled(workload, mode)
            slow = _fingerprint(_launch(
                workload, compiled, StackGPUMachine, False
            ))
            fast = _fingerprint(_launch(
                workload, compiled, StackGPUMachine, True
            ))
            assert fast == slow, (name, mode)

    def test_observability_preserves_results(self, name):
        """Metrics on vs off never changes traces, counters, or cycles —
        the PR-1 invariant, re-proven on the fast path and the stack
        machine."""
        workload = get_workload(name, **CORPUS[name])
        compiled = _compiled(workload, "sr")
        for machine_cls in (GPUMachine, StackGPUMachine):
            plain = _launch(workload, compiled, machine_cls, True)
            observed = _launch(
                workload, compiled, machine_cls, True, metrics=True
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
            workload, compiled, GPUMachine, False, "convergence"
        ).store_traces()
        for scheduler in sorted(SCHEDULERS):
            for fastpath in (False, True):
                traces = _launch(
                    workload, compiled, GPUMachine, fastpath, scheduler
                ).store_traces()
                assert traces == reference, (name, scheduler, fastpath)
        for fastpath in (False, True):
            traces = _launch(
                workload, compiled, StackGPUMachine, fastpath
            ).store_traces()
            assert traces == reference, (name, "stack", fastpath)


@pytest.mark.parametrize("name", sorted(CORPUS))
class TestSegmentConformance:
    """Segment fusion on vs off, per compile mode × scheduler.

    Fusion-off per-instruction issue is the reference; fusion must be
    bit-identical (traces, retirement, counters, cycles) and must actually
    fire under the convergence scheduler, or the axis tests nothing.
    """

    def test_segments_bit_identical(self, name):
        workload = get_workload(name, **CORPUS[name])
        for mode in MODES:
            compiled = _compiled(workload, mode)
            for scheduler in sorted(SCHEDULERS):
                unfused = _launch(
                    workload, compiled, GPUMachine, True, scheduler,
                    segments=False,
                )
                fused = _launch(
                    workload, compiled, GPUMachine, True, scheduler,
                    segments=True,
                )
                assert _fingerprint(fused) == _fingerprint(unfused), (
                    name, mode, scheduler,
                )
                assert unfused.profiler.fused_issues == 0
                if scheduler == "convergence":
                    # Every corpus workload has straight-line runs; if the
                    # engine stops fusing them the speedup silently
                    # evaporates while results stay identical.
                    assert fused.profiler.fused_issues > 0, (name, mode)

    def test_segments_inert_without_fastpath(self, name):
        """Fusion requires the decoded program; on the interpreted path it
        must disable itself rather than change behavior."""
        workload = get_workload(name, **CORPUS[name])
        compiled = _compiled(workload, "sr")
        interpreted = _launch(
            workload, compiled, GPUMachine, False, segments=True
        )
        assert interpreted.profiler.fused_issues == 0
        reference = _launch(
            workload, compiled, GPUMachine, True, segments=False
        )
        assert _fingerprint(interpreted) == _fingerprint(reference), name

    def test_segments_fall_back_under_observability(self, name):
        """An attached metrics registry observes every issue slot, so
        fusion must fall back to per-instruction issue — with results and
        metrics identical to an unfused observed run."""
        workload = get_workload(name, **CORPUS[name])
        compiled = _compiled(workload, "sr")
        observed = _launch(
            workload, compiled, GPUMachine, True, metrics=True,
            segments=True,
        )
        assert observed.profiler.fused_issues == 0
        reference = _launch(
            workload, compiled, GPUMachine, True, metrics=True,
            segments=False,
        )
        assert _fingerprint(observed) == _fingerprint(reference), name
        assert (
            observed.metrics.stall_cycles()
            == reference.metrics.stall_cycles()
        )


@pytest.mark.parametrize("name", sorted(CORPUS))
class TestWarpBatchConformance:
    """Batched multi-warp lockstep epochs vs the serial interleaving.

    Every corpus workload launches with three warps (96 threads) so the
    multi-warp rotation loop — not the single-warp exclusive path — is
    what runs. ``warp_batch=False`` is the reference serial schedule
    (the exact pre-batching engine); the batched engine must be
    bit-identical across compile modes and schedulers while actually
    advancing warps in lockstep epochs.
    """

    N_THREADS = 96

    def test_batched_bit_identical_and_engaged(self, name):
        workload = get_workload(name, **CORPUS[name])
        for mode in MODES:
            compiled = _compiled(workload, mode)
            for scheduler in sorted(SCHEDULERS):
                serial = _launch(
                    workload, compiled, GPUMachine, True, scheduler,
                    n_threads=self.N_THREADS, warp_batch=False,
                )
                batched = _launch(
                    workload, compiled, GPUMachine, True, scheduler,
                    n_threads=self.N_THREADS, warp_batch=True,
                )
                assert _fingerprint(batched) == _fingerprint(serial), (
                    name, mode, scheduler,
                )
                # The serial engine must be the exact pre-batching path
                # and the batched one must really take lockstep epochs —
                # otherwise this axis silently tests nothing.
                assert serial.profiler.batch_epochs == 0
                assert batched.profiler.batch_epochs > 0, (
                    name, mode, scheduler,
                )

    def test_batching_inert_under_observability(self, name):
        """Metrics observe every issue slot, so batching (like fusion)
        must disable itself rather than change what metrics see."""
        workload = get_workload(name, **CORPUS[name])
        compiled = _compiled(workload, "sr")
        observed = _launch(
            workload, compiled, GPUMachine, True, metrics=True,
            n_threads=self.N_THREADS, warp_batch=True,
        )
        assert observed.profiler.batch_epochs == 0
        reference = _launch(
            workload, compiled, GPUMachine, True, metrics=True,
            n_threads=self.N_THREADS, warp_batch=False,
        )
        assert _fingerprint(observed) == _fingerprint(reference), name
        assert (
            observed.metrics.stall_cycles()
            == reference.metrics.stall_cycles()
        )


@pytest.mark.parametrize("name", sorted(CORPUS))
class TestJITConformance:
    """Compiled segment execution vs interpreted steps, per mode ×
    scheduler.

    ``jit=False`` is the exact pre-JIT engine and the reference; with
    the tier-up threshold forced to 0 every fused segment must dispatch
    through compiled code from its first execution and stay bit-identical
    — and must actually engage on every corpus point (pinned, or the
    axis silently tests nothing). Composition with batched multi-warp
    lockstep epochs gets its own leg.
    """

    N_THREADS = 96

    def test_jit_bit_identical_and_engaged(self, name):
        workload = get_workload(name, **CORPUS[name])
        with _forced_jit():
            for mode in MODES:
                compiled = _compiled(workload, mode)
                for scheduler in sorted(SCHEDULERS):
                    interpreted = _launch(
                        workload, compiled, GPUMachine, True, scheduler,
                        jit=False,
                    )
                    jitted = _launch(
                        workload, compiled, GPUMachine, True, scheduler,
                        jit=True,
                    )
                    assert _fingerprint(jitted) == _fingerprint(
                        interpreted
                    ), (name, mode, scheduler)
                    assert interpreted.profiler.jit_segments == 0
                    assert jitted.profiler.jit_segments > 0, (
                        name, mode, scheduler,
                    )
                    assert jitted.profiler.jit_deopts == 0, (
                        name, mode, scheduler,
                    )

    def test_jit_batched_multiwarp_bit_identical(self, name):
        """The batcher calls ``Segment.execute`` inside lockstep epochs
        (including under the optimistic write-set guard), so tier
        dispatch must compose with multi-warp batching bit-for-bit."""
        workload = get_workload(name, **CORPUS[name])
        with _forced_jit():
            for mode in MODES:
                compiled = _compiled(workload, mode)
                serial = _launch(
                    workload, compiled, GPUMachine, True,
                    n_threads=self.N_THREADS, warp_batch=False, jit=False,
                )
                jit_batched = _launch(
                    workload, compiled, GPUMachine, True,
                    n_threads=self.N_THREADS, warp_batch=True, jit=True,
                )
                assert _fingerprint(jit_batched) == _fingerprint(serial), (
                    name, mode,
                )
                assert jit_batched.profiler.jit_segments > 0, (name, mode)

    def test_jit_inert_without_segments(self, name):
        """Compiled code only exists for fused segments; with fusion off
        the JIT knob must change nothing at all."""
        workload = get_workload(name, **CORPUS[name])
        with _forced_jit():
            compiled = _compiled(workload, "sr")
            unfused_jit = _launch(
                workload, compiled, GPUMachine, True, segments=False,
                jit=True,
            )
            assert unfused_jit.profiler.jit_segments == 0
            assert unfused_jit.profiler.jit_tierups == 0
            reference = _launch(
                workload, compiled, GPUMachine, True, segments=False,
                jit=False,
            )
            assert _fingerprint(unfused_jit) == _fingerprint(reference), name


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
            flat = _launch(workload, compiled, GPUMachine, True)
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
                    workload, compiled, GPUMachine, True, scheduler,
                    n_threads=96,
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


class TestRandomKernelConformance:
    """The fuzzer shakes the decoded handlers with shapes the Table 2
    corpus may not reach (soft thresholds, interprocedural calls)."""

    @settings(max_examples=15, deadline=None)
    @given(random_kernel())
    def test_fastpath_matches_interpreter(self, program):
        module = lower_program(program)
        compiled = compile_sr(module)
        for machine_cls in (GPUMachine, StackGPUMachine):
            slow = machine_cls(compiled.module, fastpath=False).launch("k", 32)
            fast = machine_cls(compiled.module, fastpath=True).launch("k", 32)
            assert _fingerprint(fast) == _fingerprint(slow), (
                machine_cls.__name__,
            )
        # Segment fusion is a third engine configuration the fuzzer can
        # reach with shapes the corpus lacks (soft thresholds mid-block,
        # calls splitting runs); fused must match unfused exactly.
        fused = GPUMachine(
            compiled.module, fastpath=True, segments=True
        ).launch("k", 32)
        unfused = GPUMachine(
            compiled.module, fastpath=True, segments=False
        ).launch("k", 32)
        assert _fingerprint(fused) == _fingerprint(unfused)

    @settings(max_examples=10, deadline=None)
    @given(random_kernel(allow_atomics=True))
    def test_multiwarp_batched_matches_serial(self, program):
        """Multi-warp fuzz for the warp batcher: random kernels whose
        divergent regions may fetch-and-add a *shared* cell (the fetched
        ticket is observable), launched across three warps. Batched
        lockstep epochs must reproduce the serial interleaving
        bit-for-bit — including the guarded rollback path whenever the
        atomics make footprints collide."""
        module = lower_program(program)
        compiled = compile_sr(module)
        for scheduler in sorted(SCHEDULERS):
            try:
                serial = GPUMachine(
                    compiled.module, scheduler=scheduler, warp_batch=False
                ).launch("k", 96)
            except DeadlockError as serial_exc:
                # The generator can produce kernels whose ticket-dependent
                # barrier membership genuinely deadlocks. Conformance then
                # means the batched engine deadlocks *identically* — same
                # warp, same parked lanes — instead of completing.
                with pytest.raises(DeadlockError) as batched_exc:
                    GPUMachine(
                        compiled.module, scheduler=scheduler, warp_batch=True
                    ).launch("k", 96)
                assert batched_exc.value.warp_id == serial_exc.warp_id
                assert sorted(batched_exc.value.waiting) == sorted(
                    serial_exc.waiting
                ), scheduler
                continue
            batched = GPUMachine(
                compiled.module, scheduler=scheduler, warp_batch=True
            ).launch("k", 96)
            assert _fingerprint(batched) == _fingerprint(serial), scheduler
            assert serial.profiler.batch_epochs == 0

    @settings(max_examples=12, deadline=None)
    @given(random_kernel())
    def test_jit_matches_interpreted_segments(self, program):
        """Random kernels with tier-up forced: every compiled segment —
        whatever shapes the generator reaches (soft thresholds, calls,
        UNDEF operands, folded constants) — must match the interpreted
        segment engine bit-for-bit."""
        module = lower_program(program)
        with _forced_jit():
            compiled = compile_sr(module)
            interpreted = GPUMachine(compiled.module, jit=False).launch(
                "k", 32
            )
            jitted = GPUMachine(compiled.module, jit=True).launch("k", 32)
        assert _fingerprint(jitted) == _fingerprint(interpreted)

    @settings(max_examples=8, deadline=None)
    @given(random_kernel(allow_atomics=True))
    def test_jit_multiwarp_atomics_matches_serial(self, program):
        """JIT × warp batching × shared-cell atomics at 96 threads. The
        reference is the plain serial engine (no batching, no JIT); the
        full stack must reproduce it bit-for-bit — and when the random
        ticket-dependent barrier membership genuinely deadlocks, deadlock
        *identically* (same warp, same parked lanes)."""
        module = lower_program(program)
        with _forced_jit():
            compiled = compile_sr(module)
            try:
                serial = GPUMachine(
                    compiled.module, warp_batch=False, jit=False
                ).launch("k", 96)
            except DeadlockError as serial_exc:
                with pytest.raises(DeadlockError) as jit_exc:
                    GPUMachine(
                        compiled.module, warp_batch=True, jit=True
                    ).launch("k", 96)
                assert jit_exc.value.warp_id == serial_exc.warp_id
                assert sorted(jit_exc.value.waiting) == sorted(
                    serial_exc.waiting
                )
                return
            jit_batched = GPUMachine(
                compiled.module, warp_batch=True, jit=True
            ).launch("k", 96)
        assert _fingerprint(jit_batched) == _fingerprint(serial)

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
        with pytest.raises(LaunchError, match="issue slots"):
            GPUMachine(module, max_issues=1000, fastpath=fastpath).launch(
                "k", 32
            )

    @pytest.mark.parametrize("fastpath", [False, True])
    def test_stack_machine_overrun_raises_launch_error(self, fastpath):
        module = compile_kernel_source(RUNAWAY)
        with pytest.raises(LaunchError, match="issue slots"):
            StackGPUMachine(module, max_issues=1000, fastpath=fastpath).launch(
                "k", 32
            )

    def test_reference_overrun_raises_launch_error(self):
        module = compile_kernel_source(RUNAWAY)
        with pytest.raises(LaunchError, match="issue slots"):
            run_reference_thread(module, "k", 0, 32, max_issues=1000)
