"""Raw substrate throughput: simulator issue rate and compile time.

Not a paper figure — tracks the reproduction's own performance so workload
presets stay affordable. ``test_fastpath_corpus_sweep_speedup`` is the
PR-level acceptance benchmark: the full Table 2 corpus sweep on the
fast-path engine (pre-decode + compile cache + parallel runner) against
the interpreted, cache-less, serial configuration, with the result
recorded in ``BENCH_fastpath_sweep.json`` at the repo root.
"""

import hashlib
import json
import os
import time
from pathlib import Path

from repro.core import ReconvergenceCompiler
from repro.engine import engine_config
from repro.harness.parallel import run_tasks, task
from repro.ir.function import clear_module_caches
from repro.obs import counters as obs_counters
from repro.workloads import get_workload, workload_names

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SEED = 2020


def test_simulator_issue_throughput(benchmark):
    workload = get_workload("mcb", steps=16)
    compiled = workload.compile(mode="baseline")

    def launch():
        clear_module_caches("launch_memo")  # every round simulates
        return workload.run(mode="baseline", compiled=compiled)

    result = benchmark.pedantic(launch, rounds=3, iterations=1)
    assert result.issued > 0
    rate = result.issued / benchmark.stats.stats.mean
    print(f"\nsimulator throughput: {rate:,.0f} issues/s "
          f"({result.issued} issues per launch)")


def test_compile_throughput(benchmark):
    workload = get_workload("rsbench")
    module = workload.module()
    compiler = ReconvergenceCompiler()

    def compile_sr():
        return compiler.compile(module, mode="sr", threshold=16)

    prog = benchmark.pedantic(compile_sr, rounds=5, iterations=1)
    assert prog.report.sr_reports


def _sweep_point(name, mode, seed=_SEED):
    """One compile-and-launch of a Table 2 workload at its default preset.

    Returns everything the speedup claim must hold fixed: SIMT efficiency,
    cycles, and a digest of every thread's ordered store trace. The
    launch memo is emptied first, so every round of a sweep simulates:
    the sweeps time the engine layers, not memo replays.
    """
    clear_module_caches("launch_memo")
    workload = get_workload(name)
    result = workload.run(mode=mode, seed=seed)
    traces = {
        str(tid): trace
        for tid, trace in sorted(result.launch.store_traces().items())
    }
    digest = hashlib.sha256(
        json.dumps(traces, sort_keys=True).encode()
    ).hexdigest()
    return {
        "workload": name,
        "mode": mode,
        "simt_efficiency": result.simt_efficiency,
        "cycles": result.cycles,
        "trace_sha256": digest,
    }


def _corpus_sweep(jobs=None):
    """Figure 7/8-shaped sweep: every workload in baseline and sr mode."""
    tasks = [
        task(_sweep_point, name, mode)
        for name in workload_names()
        for mode in ("baseline", "sr")
    ]
    return run_tasks(tasks, jobs=jobs)


def test_fastpath_corpus_sweep_speedup(benchmark):
    """The tentpole's acceptance: >= 2x wall-clock on the corpus sweep with
    bit-identical results.

    Fast configuration: pre-decoded dispatch + compile cache + parallel
    runner (``REPRO_BENCH_JOBS`` workers, default 4). Slow configuration:
    the interpreted executor with caching off, serial — the pre-fastpath
    engine. The required ratio is tunable via ``REPRO_BENCH_MIN_SPEEDUP``
    for slower CI machines; the measured value is written to
    ``BENCH_fastpath_sweep.json``.
    """
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "4"))
    min_speedup = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "2.0"))

    # Warm module/program/decode caches in the parent so forked workers
    # inherit them — the steady state of a figure-regeneration session.
    # The counter delta over this serial reference sweep ships with the
    # record so compare.py can attribute timing moves to engine layers.
    counters_before = obs_counters.snapshot()
    reference = _corpus_sweep()
    sweep_counters = obs_counters.delta(
        obs_counters.snapshot(), counters_before
    )
    fast_results = benchmark.pedantic(
        lambda: _corpus_sweep(jobs=jobs), rounds=3, iterations=1
    )
    fast_time = benchmark.stats.stats.min

    with engine_config(fastpath=False, compile_cache=False):
        clear_module_caches()
        start = time.perf_counter()
        slow_results = _corpus_sweep()
        slow_time = time.perf_counter() - start

    # Bit-identical results across engine, caching, and process fan-out.
    assert fast_results == reference
    assert slow_results == reference

    speedup = slow_time / fast_time
    record = {
        "benchmark": "fastpath_corpus_sweep",
        "corpus": sorted(workload_names()),
        "modes": ["baseline", "sr"],
        "seed": _SEED,
        "jobs": jobs,
        "fast_seconds": round(fast_time, 4),
        "fast_seconds_mean": round(benchmark.stats.stats.mean, 4),
        "slow_seconds": round(slow_time, 4),
        "speedup": round(speedup, 3),
        "min_speedup_required": min_speedup,
        "bit_identical": True,
        "counters": sweep_counters,
    }
    (_REPO_ROOT / "BENCH_fastpath_sweep.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(f"\ncorpus sweep: fast={fast_time:.2f}s slow={slow_time:.2f}s "
          f"speedup={speedup:.2f}x (required {min_speedup:.1f}x)")
    assert speedup >= min_speedup, (
        f"corpus sweep speedup {speedup:.2f}x below the "
        f"{min_speedup:.1f}x floor"
    )


def _multiwarp_sweep_point(name, mode, n_threads=128, seed=_SEED):
    """One compile-and-launch at a multi-warp width (four warps), same
    fixed-point record as :func:`_sweep_point` (memo emptied first, too)."""
    clear_module_caches("launch_memo")
    workload = get_workload(name)
    workload.n_threads = n_threads
    result = workload.run(mode=mode, seed=seed)
    traces = {
        str(tid): trace
        for tid, trace in sorted(result.launch.store_traces().items())
    }
    digest = hashlib.sha256(
        json.dumps(traces, sort_keys=True).encode()
    ).hexdigest()
    return {
        "workload": name,
        "mode": mode,
        "n_threads": n_threads,
        "simt_efficiency": result.simt_efficiency,
        "cycles": result.cycles,
        "trace_sha256": digest,
    }


def _multiwarp_sweep():
    """The corpus at 128 threads per launch, serial in-process."""
    return [
        _multiwarp_sweep_point(name, mode)
        for name in workload_names()
        for mode in ("baseline", "sr")
    ]


def test_multiwarp_corpus_sweep_speedup(benchmark):
    """Acceptance for independent warps: >= 1.3x wall-clock on the
    multi-warp corpus sweep against the same engine with ``warp_batch``
    off, with bit-identical results.

    Every launch runs 128 threads (four warps). With ``warp_batch`` off
    every launch takes the round-robin interleave, one issue slot per
    warp per round, fused only once a single warp is left. With it on,
    the launches whose warps provably cannot observe each other (16 of
    the 20 at convergence scheduling; rsbench and xsbench share a work
    queue) run one warp at a time to completion with fused segments
    throughout. Both sides run serial in-process with fast path,
    segments, and caches warm, so the ratio isolates what running warps
    independently adds and is independent of core count (like the
    segment sweep, and unlike the process-fan-out one), which is why
    CI's perf gate can track it. The floor is tunable via
    ``REPRO_BENCH_MIN_MULTIWARP_SPEEDUP``; the measured value is written
    to ``BENCH_multiwarp_sweep.json``.
    """
    min_speedup = float(
        os.environ.get("REPRO_BENCH_MIN_MULTIWARP_SPEEDUP", "1.3")
    )

    # Warm module/program/decode caches; also the reference results. The
    # counter delta over this serial sweep ships with the record.
    counters_before = obs_counters.snapshot()
    reference = _multiwarp_sweep()
    sweep_counters = obs_counters.delta(
        obs_counters.snapshot(), counters_before
    )
    independent_results = benchmark.pedantic(
        _multiwarp_sweep, rounds=3, iterations=1
    )
    independent_time = benchmark.stats.stats.min

    with engine_config(warp_batch=False):
        serial_times = []
        serial_results = None
        for _ in range(3):
            start = time.perf_counter()
            serial_results = _multiwarp_sweep()
            serial_times.append(time.perf_counter() - start)
        serial_time = min(serial_times)

    assert independent_results == reference
    assert serial_results == reference

    speedup = serial_time / independent_time
    record = {
        "benchmark": "multiwarp_corpus_sweep",
        "corpus": sorted(workload_names()),
        "modes": ["baseline", "sr"],
        "n_threads": 128,
        "seed": _SEED,
        "jobs": 1,
        "fast_seconds": round(independent_time, 4),
        "fast_seconds_mean": round(benchmark.stats.stats.mean, 4),
        "slow_seconds": round(serial_time, 4),
        "speedup": round(speedup, 3),
        "min_speedup_required": min_speedup,
        "bit_identical": True,
        "counters": sweep_counters,
    }
    (_REPO_ROOT / "BENCH_multiwarp_sweep.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(f"\nmultiwarp sweep: independent={independent_time:.2f}s "
          f"serial={serial_time:.2f}s "
          f"speedup={speedup:.2f}x (required {min_speedup:.1f}x)")
    assert speedup >= min_speedup, (
        f"multiwarp sweep speedup {speedup:.2f}x below the "
        f"{min_speedup:.1f}x floor"
    )


def test_segment_corpus_sweep_speedup(benchmark):
    """PR-level acceptance for compiled segments: >= 1.5x wall-clock on
    the serial corpus sweep against the same engine with fusion off
    (unfused issue, one decoded instruction at a time), with
    bit-identical results.

    Both sides run serial with the fast path and all caches warm, so the
    ratio isolates exactly what this engine adds (fused superinstructions
    compiled to specialized Python, slot register files, batched
    profiling) and is independent of core
    count — which is why CI's perf gate (benchmarks/compare.py) tracks
    this benchmark rather than the fan-out one. The floor is tunable via
    ``REPRO_BENCH_MIN_SEGMENT_SPEEDUP``; the measured value is written to
    ``BENCH_segment_sweep.json``.
    """
    min_speedup = float(
        os.environ.get("REPRO_BENCH_MIN_SEGMENT_SPEEDUP", "1.5")
    )

    # Warm module/program/decode caches; also the reference results. The
    # counter delta over this serial sweep ships with the record.
    counters_before = obs_counters.snapshot()
    reference = _corpus_sweep()
    sweep_counters = obs_counters.delta(
        obs_counters.snapshot(), counters_before
    )
    fused_results = benchmark.pedantic(_corpus_sweep, rounds=3, iterations=1)
    fused_time = benchmark.stats.stats.min

    with engine_config(segments=False):
        unfused_times = []
        unfused_results = None
        for _ in range(3):
            start = time.perf_counter()
            unfused_results = _corpus_sweep()
            unfused_times.append(time.perf_counter() - start)
        unfused_time = min(unfused_times)

    assert fused_results == reference
    assert unfused_results == reference

    speedup = unfused_time / fused_time
    record = {
        "benchmark": "segment_corpus_sweep",
        "corpus": sorted(workload_names()),
        "modes": ["baseline", "sr"],
        "seed": _SEED,
        "jobs": 1,
        "fast_seconds": round(fused_time, 4),
        "fast_seconds_mean": round(benchmark.stats.stats.mean, 4),
        "slow_seconds": round(unfused_time, 4),
        "speedup": round(speedup, 3),
        "min_speedup_required": min_speedup,
        "bit_identical": True,
        "counters": sweep_counters,
    }
    (_REPO_ROOT / "BENCH_segment_sweep.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(f"\nsegment sweep: fused={fused_time:.2f}s unfused={unfused_time:.2f}s "
          f"speedup={speedup:.2f}x (required {min_speedup:.1f}x)")
    assert speedup >= min_speedup, (
        f"segment sweep speedup {speedup:.2f}x below the "
        f"{min_speedup:.1f}x floor"
    )


def _grid_sweep_point(app, sharded, jobs):
    """One grid-corpus app, either as a sharded grid launch or as the
    single-process flat launch of the same 10^5-thread range.

    Both shapes must produce identical per-thread store traces (the
    kernels are launch-shape invariant by construction), so the record
    carries the same trace digest fixed point as the other sweeps.
    """
    from repro.simt.grid import GridLaunch
    from repro.simt.machine import GPUMachine
    from repro.simt.memory import GlobalMemory
    from repro.workloads import GRID_CTA_DIM, GRID_GRID_DIM

    n_threads = GRID_GRID_DIM * GRID_CTA_DIM
    memory = GlobalMemory()
    args = app.setup(memory, n_threads)
    if sharded:
        launch = GridLaunch(
            app.module(), GRID_GRID_DIM, GRID_CTA_DIM, jobs=jobs, seed=_SEED
        ).launch(app.kernel_name, args, memory=memory)
        issued = launch.issued
        sm_occupancy = max(
            sm["resident_warps"] for sm in launch.sm_schedule
        )
        assert launch.sharded, "grid sweep did not engage the worker pool"
    else:
        result = GPUMachine(app.module(), seed=_SEED).launch(
            app.kernel_name, n_threads, args, memory=memory
        )
        launch, issued, sm_occupancy = result, result.profiler.issued, None
    traces = {
        str(tid): trace
        for tid, trace in sorted(launch.store_traces().items())
    }
    digest = hashlib.sha256(
        json.dumps(traces, sort_keys=True).encode()
    ).hexdigest()
    return {
        "workload": app.name,
        "n_threads": n_threads,
        "issued": issued,
        "sm_occupancy": sm_occupancy,
        "trace_sha256": digest,
    }


def _grid_sweep(sharded, jobs):
    from repro.workloads import grid_corpus

    return [_grid_sweep_point(app, sharded, jobs) for app in grid_corpus()]


def _comparable(points):
    """Strip the grid-only occupancy field for flat-vs-grid equality."""
    return [
        {k: v for k, v in point.items() if k != "sm_occupancy"}
        for point in points
    ]


def test_grid_corpus_sweep_speedup(benchmark):
    """PR-level acceptance for the grid hierarchy: the pool-sharded grid
    launch of the 10^5-thread corpus must beat the single-process flat
    launch of the same thread ranges, with bit-identical per-thread
    store traces.

    The fast side runs each app as ``GRID_GRID_DIM x GRID_CTA_DIM`` CTAs
    sharded across ``REPRO_BENCH_JOBS`` pool workers (``classify_launch``
    proves the CTAs disjoint); the slow side is today's ``GPUMachine.launch``
    of all threads in one process. Unlike the in-process sweeps, this
    ratio scales with core count — CI gates it with a conservative
    floor via ``REPRO_BENCH_MIN_GRID_SPEEDUP``. The measured value is
    written to ``BENCH_grid_sweep.json`` together with the grid.*
    counter delta and per-app peak SM occupancy.
    """
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "4"))
    min_speedup = float(
        os.environ.get("REPRO_BENCH_MIN_GRID_SPEEDUP", "1.3")
    )

    from repro.workloads import GRID_CTA_DIM, GRID_GRID_DIM

    # Warm the pool, module/decode caches, and classification memos so
    # the measured rounds see the steady state; the grid.* counter delta
    # over the measured sharded rounds ships with the record.
    _grid_sweep(sharded=True, jobs=jobs)
    counters_before = obs_counters.snapshot()
    grid_results = benchmark.pedantic(
        lambda: _grid_sweep(sharded=True, jobs=jobs), rounds=2, iterations=1
    )
    sweep_counters = obs_counters.delta(
        obs_counters.snapshot(), counters_before
    )
    sweep_counters = {
        name: value for name, value in sweep_counters.items() if value
    }
    grid_time = benchmark.stats.stats.min

    start = time.perf_counter()
    flat_results = _grid_sweep(sharded=False, jobs=1)
    flat_time = time.perf_counter() - start

    # Bit-identical traces across launch shapes and process fan-out.
    assert _comparable(grid_results) == _comparable(flat_results)

    speedup = flat_time / grid_time
    record = {
        "benchmark": "grid_corpus_sweep",
        "corpus": [point["workload"] for point in flat_results],
        "grid_dim": GRID_GRID_DIM,
        "cta_dim": GRID_CTA_DIM,
        "n_threads": GRID_GRID_DIM * GRID_CTA_DIM,
        "seed": _SEED,
        "jobs": jobs,
        "fast_seconds": round(grid_time, 4),
        "fast_seconds_mean": round(benchmark.stats.stats.mean, 4),
        "slow_seconds": round(flat_time, 4),
        "speedup": round(speedup, 3),
        "min_speedup_required": min_speedup,
        "bit_identical": True,
        "sm_occupancy": {
            point["workload"]: point["sm_occupancy"]
            for point in grid_results
        },
        "counters": sweep_counters,
    }
    (_REPO_ROOT / "BENCH_grid_sweep.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(f"\ngrid sweep: sharded={grid_time:.2f}s flat={flat_time:.2f}s "
          f"speedup={speedup:.2f}x (required {min_speedup:.1f}x)")
    assert speedup >= min_speedup, (
        f"grid sweep speedup {speedup:.2f}x below the "
        f"{min_speedup:.1f}x floor"
    )
