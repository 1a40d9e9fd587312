"""Engine telemetry: layered counters, post-mortems, trace merging.

Pins the observability PR's contracts:

* the counter registry (snapshot/delta/merge/layers, high-water marks
  merged by max) and the hot-site increments each engine layer owes it;
* launches return their own counter view, including the ``sched.*``
  attribution of serial slots that did not fuse, and fold it into the
  process registry;
* every failure path — deadlock, issue budget, independent and
  interleaved warps, grid CTAs serial and sharded, the stack machine —
  raises its typed error carrying one post-mortem report;
* sinks are finalized on the error path so partial traces survive;
* Chrome-trace edge cases: empty traces, unclosed spans, and merged
  multi-worker streams with colliding warp tids;
* ``run_tasks_observed`` brings worker counters and events home, and
  the pool reforks when an in-process JIT toggle changes;
* the ``tools.stats`` / ``tools.trace`` CLIs surface all of it.
"""

import json
import os

import pytest

from repro import compile_kernel_source, compile_sr
from repro.engine import engine_config
from repro.errors import DeadlockError, LaunchError, SimulationError
from repro.ir import parse_module
from repro.obs import IssueEvent, ListSink
from repro.obs import counters as obs_counters
from repro.obs.chrome_trace import (
    WORKER_PID_BASE,
    chrome_trace,
    merged_worker_trace,
    span_trace_events,
)
from repro.obs.counters import COUNTERS, ENGINE_COUNTERS, EngineCounters
from repro.obs.sinks import JsonlSink, ambient_sink, set_ambient_sink
from repro.obs.spans import Span
from repro.simt import DEFAULT_COST_MODEL, GPUMachine, GridLaunch
from repro.simt.stack_machine import StackGPUMachine
from repro.workloads import get_workload
from tests.test_warp_batch import STAGGERED_DEADLOCK_IR

DIVERGENT = """
kernel k() {
    let acc = 0.0;
    let t = tid();
    predict L1;
    for i in 0..10 {
        if (hash01(t * 13.0 + i) < 0.3) {
            label L1: acc = acc + 1.0;
            acc = fma(acc, 0.99, 0.5); acc = fma(acc, 0.99, 0.5);
        }
    }
    store(t, acc);
}
"""


#: Every thread stores, then spins forever: each CTA of a grid proves
#: disjoint and overruns its issue budget on its own.
RUNAWAY_PER_CTA = """
kernel k() {
    let t = tid();
    store(t, 1.0);
    let i = 0;
    while (i >= 0) { i = i + 1; }
    store(t, 2.0);
}
"""


def _sr_module():
    return compile_sr(compile_kernel_source(DIVERGENT)).module


# ---------------------------------------------------------------------------
# Counter registry


class TestCounterRegistry:
    def test_snapshot_covers_every_registered_counter(self):
        snap = obs_counters.snapshot()
        assert set(snap) == set(COUNTERS)
        assert all(isinstance(v, int) for v in snap.values())

    def test_delta_and_merge_roundtrip(self):
        a = {"launch.count": 3, "pool.tasks": 5}
        b = {"launch.count": 1, "segments.fused_instrs": 2}
        moved = obs_counters.delta(a, b)
        assert moved["launch.count"] == 2
        assert moved["pool.tasks"] == 5
        assert moved["segments.fused_instrs"] == -2
        total = obs_counters.merge([a, b, {"launch.count": 10}])
        assert total["launch.count"] == 14
        assert total["pool.tasks"] == 5

    def test_high_water_counters_merge_by_max(self):
        a = {"grid.sm_occupancy": 9, "launch.count": 1}
        b = {"grid.sm_occupancy": 7, "launch.count": 1}
        assert obs_counters.merge([a, b]) == {
            "grid.sm_occupancy": 9, "launch.count": 2,
        }
        counters = EngineCounters()
        counters.merge(a)
        counters.merge(b)
        assert counters.grid_sm_occupancy == 9
        assert counters.launch_count == 2
        # A peak diffs to its absolute value, never to a difference.
        moved = obs_counters.delta(b, a)
        assert moved["grid.sm_occupancy"] == 7
        assert moved["launch.count"] == 0
        assert obs_counters.HIGH_WATER == {"grid.sm_occupancy"}

    def test_registry_merge_ignores_unknown_keys(self):
        counters = EngineCounters()
        counters.merge({"launch.count": 2, "future.layer_thing": 9})
        assert counters.launch_count == 2
        counters.reset()
        assert counters.snapshot()["launch.count"] == 0

    def test_counter_layers_groups_and_derives_coverage(self):
        snap = {name: 0 for name in COUNTERS}
        snap["segments.fused_instrs"] = 75
        snap["segments.fallback_instrs"] = 25
        layers = obs_counters.counter_layers(snap)
        assert list(layers)[:4] == ["fastpath", "segments", "jit", "batch"]
        assert layers["segments"]["segments.coverage"] == pytest.approx(0.75)
        # Derived, never stored: raw snapshots stay integer-valued.
        assert "segments.coverage" not in obs_counters.snapshot()

    def test_decode_and_program_cache_counters_move(self):
        from repro.core.program_cache import compile_cached
        from repro.frontend.parser import compile_kernel_source as cks
        from repro.simt.fastpath import decode_program

        module = cks(DIVERGENT)
        before = obs_counters.snapshot()
        compiled = compile_cached(module, mode="sr", threshold=8)
        assert compile_cached(module, mode="sr", threshold=8) is compiled
        decode_program(compiled.module, DEFAULT_COST_MODEL)
        decode_program(compiled.module, DEFAULT_COST_MODEL)
        moved = obs_counters.delta(obs_counters.snapshot(), before)
        assert moved["program_cache.miss"] == 1
        assert moved["program_cache.hit"] == 1
        assert moved["fastpath.decode_cache_miss"] == 1
        assert moved["fastpath.decode_cache_hit"] == 1

    def test_launch_increments_global_registry(self):
        machine = GPUMachine(_sr_module())
        before = obs_counters.snapshot()
        machine.launch("k", 32)
        moved = obs_counters.delta(obs_counters.snapshot(), before)
        assert moved["launch.count"] == 1
        assert moved["launch.errors"] == 0


# ---------------------------------------------------------------------------
# Launch-level counters


class TestLaunchCounters:
    def test_launch_result_carries_counters(self):
        result = GPUMachine(_sr_module()).launch("k", 32)
        assert isinstance(result.counters, dict)
        assert set(result.counters) >= {
            "segments.fused_instrs", "segments.fallback_instrs",
            "segments.coverage", "batch.independent_launches",
            "batch.interleaved_memory",
        }
        fused = result.counters["segments.fused_instrs"]
        fallback = result.counters["segments.fallback_instrs"]
        assert fused + fallback == result.profiler.issued

    def test_summary_includes_counters(self):
        result = GPUMachine(_sr_module()).launch("k", 32)
        summary = result.profiler.summary()
        assert summary["counters"] == result.counters

    def test_workload_run_exposes_counters(self):
        result = get_workload("mcb", steps=8).run(mode="sr")
        assert result.launch.counters["segments.fused_instrs"] >= 0

    @pytest.mark.parametrize("segments", [True, False])
    def test_fallback_by_opcode_sums_to_fallback(self, segments):
        """The ``segments.fallback_*`` opcode split covers every unfused
        slot exactly once, and each name is a registered counter."""
        with engine_config(segments=segments):
            result = GPUMachine(_sr_module()).launch("k", 32)
        counters = result.counters
        by_opcode = {
            name: value for name, value in counters.items()
            if name.startswith("segments.fallback_")
            and name != "segments.fallback_instrs"
        }
        assert len(by_opcode) == 7 and set(by_opcode) <= set(COUNTERS)
        assert sum(by_opcode.values()) == counters["segments.fallback_instrs"]
        opcodes = result.profiler.opcode_issues()
        if not segments:
            assert by_opcode["segments.fallback_bssy"] == opcodes["bssy"]
            assert by_opcode["segments.fallback_cbr"] == opcodes["cbr"]

    @pytest.mark.parametrize("segments", [True, False])
    def test_split_exits_count_split_runs(self, segments):
        """``segments.split_exits`` counts the fused runs whose exit split
        the group: derived from the per-exit records, a registered
        counter, at most ``segments.fused_segments``."""
        with engine_config(segments=segments):
            result = GPUMachine(_sr_module()).launch("k", 32)
        counters = result.counters
        assert "segments.split_exits" in COUNTERS
        assert counters["segments.split_exits"] == sum(
            stats[0] for out, stats in result.profiler.segment_stats.items()
            if out.end_pc is None
        )
        assert counters["segments.split_exits"] <= (
            counters["segments.fused_segments"]
        )
        assert (counters["segments.split_exits"] > 0) == segments


def _xsbench_launch(n_threads, scheduler="convergence", metrics=False):
    workload = get_workload("xsbench")
    workload.n_threads = n_threads
    return workload.run(
        mode="sr", scheduler=scheduler, metrics=metrics
    ).launch


class TestNonForcedPickCounters:
    """``sched.*``: why a multi-warp launch's serial slots did not fuse."""

    def test_convergence_counts_no_multi_group_slots(self):
        """A stateless policy may fuse whatever it picks, so only
        round-robin counts multi-group slots; size ties are not a reason."""
        counters = _xsbench_launch(96).counters
        assert counters["sched.nonforced_multi_group"] == 0
        assert "sched.nonforced_tie" not in counters
        assert "sched.nonforced_tie" not in COUNTERS

    def test_round_robin_counts_multi_group_slots(self):
        counters = _xsbench_launch(96, "round-robin").counters
        assert counters["sched.nonforced_multi_group"] > 0

    def test_observed_slots_bounded_by_issued(self):
        launch = _xsbench_launch(96, metrics=True)
        observed = launch.counters["sched.nonforced_observed"]
        assert 0 < observed <= launch.profiler.issued
        assert launch.profiler.summary()["counters"][
            "sched.nonforced_observed"
        ] == observed

    def test_launch_counters_fold_into_registry(self):
        before = obs_counters.snapshot()
        launch = _xsbench_launch(96, "round-robin")
        moved = obs_counters.delta(obs_counters.snapshot(), before)
        assert moved["sched.nonforced_multi_group"] > 0
        for name, value in launch.counters.items():
            if name not in COUNTERS:
                continue  # derived (segments.coverage)
            if name in obs_counters.HIGH_WATER:
                assert ENGINE_COUNTERS.snapshot()[name] >= value, name
            else:
                assert moved[name] == value, name


# ---------------------------------------------------------------------------
# Post-mortems

#: Only CTA 1 loops (all but) forever, so only it overruns a small issue
#: budget. Every thread stores to its own cell, so the grid is proven
#: disjoint and may shard.
CTA1_RUNAWAY = """
kernel k() {
    let i = 0;
    while (i < ctaid() * 1000000) {
        i = i + 1;
    }
    store(tid(), i);
}
"""

#: The keys every post-mortem carries.
REPORT_KEYS = {"kernel", "n_threads", "warps", "multiwarp", "issued", "error"}


def _staggered_launch(n_threads, **engine):
    """The Section 4.3 deadlock: warp ``w`` loops, then splits its lanes
    across two soft barriers that never open."""
    module = parse_module(STAGGERED_DEADLOCK_IR)
    with engine_config(**engine):
        GPUMachine(module).launch("k", n_threads)


def _budget_launch(machine_class=GPUMachine):
    machine_class(_sr_module(), max_issues=20).launch("k", 32)


def _grid_launch(jobs):
    module = compile_kernel_source(CTA1_RUNAWAY)
    GridLaunch(module, 2, 32, jobs=jobs, max_issues=500).launch("k")


#: id -> (launch that fails, error type, report values, ran fused segments)
FAILURE_PATHS = {
    "flat-deadlock": (
        lambda: _staggered_launch(32), DeadlockError,
        {"n_threads": 32, "warps": 1, "multiwarp": None}, True,
    ),
    "flat-budget": (
        _budget_launch, LaunchError,
        {"n_threads": 32, "warps": 1, "multiwarp": None}, True,
    ),
    "independent-warps": (
        lambda: _staggered_launch(64), DeadlockError,
        {"n_threads": 64, "warps": 2, "multiwarp": "independent"}, True,
    ),
    "interleaved-warps": (
        lambda: _staggered_launch(64, segments=False), DeadlockError,
        {"n_threads": 64, "warps": 2, "multiwarp": "engine"}, False,
    ),
    "grid-serial": (
        lambda: _grid_launch(1), LaunchError,
        {"n_threads": 32, "warps": 1, "cta_id": 1}, True,
    ),
    "grid-sharded": (
        lambda: _grid_launch(2), LaunchError,
        {"n_threads": 32, "warps": 1, "cta_id": 1}, True,
    ),
    "stack-machine": (
        lambda: _budget_launch(StackGPUMachine), LaunchError,
        {"n_threads": 32, "warps": 1, "multiwarp": None}, False,
    ),
}


class TestPostMortems:
    @pytest.mark.parametrize("path", list(FAILURE_PATHS))
    def test_every_failure_path_reports(self, path):
        """Every way a launch dies raises its typed error carrying one
        report, built from the failed launch. Every engine layer is
        pinned on, so which launches fuse does not hang on the
        environment."""
        launch, error_type, values, fused = FAILURE_PATHS[path]
        with engine_config(fastpath=True, segments=True, warp_batch=True,
                           grid=True):
            with pytest.raises(error_type) as excinfo:
                launch()
        error = excinfo.value
        report = error.post_mortem
        expected_keys = REPORT_KEYS | set(values)
        if fused:
            expected_keys.add("jit")
        assert set(report) == expected_keys
        assert report["kernel"] == "k"
        assert report["issued"] > 0
        assert {key: report[key] for key in values} == values
        assert report["error"] == {
            "type": error_type.__name__, "message": str(error),
        }
        if fused:
            assert "def _jit_segment" in report["jit"]["source"]
        json.dumps(report)  # JSON-safe

    def test_launch_error_carries_post_mortem(self):
        machine = GPUMachine(_sr_module(), max_issues=20)
        before = obs_counters.snapshot()
        with pytest.raises(LaunchError) as excinfo:
            machine.launch("k", 32)
        report = excinfo.value.post_mortem
        assert report["kernel"] == "k" and report["n_threads"] == 32
        moved = obs_counters.delta(obs_counters.snapshot(), before)
        assert moved["launch.errors"] == 1
        assert moved["launch.count"] == 0

    def test_post_mortem_env_dump(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_POST_MORTEM", str(tmp_path))
        machine = GPUMachine(_sr_module(), max_issues=20)
        with pytest.raises(LaunchError) as excinfo:
            machine.launch("k", 32)
        dumps = list(tmp_path.glob("postmortem-*.json"))
        assert len(dumps) == 1
        assert json.loads(dumps[0].read_text()) == excinfo.value.post_mortem

    def test_post_mortem_dumps_never_overwrite(self, tmp_path, monkeypatch):
        """Two failing launches of one kernel leave two reports."""
        monkeypatch.setenv("REPRO_POST_MORTEM", str(tmp_path))
        module = parse_module(STAGGERED_DEADLOCK_IR)
        reports = []
        for n_threads in (32, 64):
            with pytest.raises(DeadlockError) as excinfo:
                GPUMachine(module).launch("k", n_threads)
            reports.append(excinfo.value.post_mortem)
        dumps = sorted(tmp_path.glob("postmortem-k-*.json"))
        assert len(dumps) == 2
        loaded = [json.loads(path.read_text()) for path in dumps]
        assert sorted(r["n_threads"] for r in loaded) == [32, 64]
        assert all(report in loaded for report in reports)

    def test_sharded_grid_ctas_dump_separately(self, tmp_path, monkeypatch):
        """Failing CTAs on pool workers each leave a report named after
        their CTA: the pool lets every task finish before raising."""
        monkeypatch.setenv("REPRO_POST_MORTEM", str(tmp_path))
        module = compile_kernel_source(RUNAWAY_PER_CTA)
        with engine_config(grid=True):
            with pytest.raises(LaunchError):
                GridLaunch(module, 4, 32, jobs=2, max_issues=200).launch("k")
        dumps = sorted(tmp_path.glob("postmortem-k-cta*.json"))
        # Two workers make up to 2 * CHUNKS_PER_WORKER chunks, so four
        # CTAs are four one-CTA chunks, and every CTA fails in its own.
        assert len(dumps) == 4
        assert sorted(
            json.loads(path.read_text())["cta_id"] for path in dumps
        ) == [0, 1, 2, 3]
        # Either worker may take any chunk, but each dump is a worker's.
        pids = {int(path.name.split("-")[3]) for path in dumps}
        assert os.getpid() not in pids


# ---------------------------------------------------------------------------
# Sinks: error-path finalization + ambient install


class TestSinkFinalization:
    def test_jsonl_sink_streams_and_closes_once(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path))
        GPUMachine(_sr_module(), sink=sink).launch("k", 32)
        sink.close()
        sink.close()  # idempotent
        assert sink.closed and sink.emitted > 0
        lines = path.read_text().splitlines()
        assert len(lines) == sink.emitted
        assert all("kind" in json.loads(line) for line in lines)

    def test_sink_finalized_on_launch_error(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        sink = JsonlSink(str(path))
        machine = GPUMachine(_sr_module(), max_issues=20, sink=sink)
        with pytest.raises(SimulationError):
            machine.launch("k", 32)
        # The machine closed the sink, so the partial trace survives.
        assert sink.closed
        assert sink.emitted > 0
        assert len(path.read_text().splitlines()) == sink.emitted

    def test_ambient_sink_picked_up_by_machines(self):
        sink = ListSink()
        previous = set_ambient_sink(sink)
        try:
            assert ambient_sink() is sink
            GPUMachine(_sr_module()).launch("k", 32)
        finally:
            set_ambient_sink(previous)
        assert sink.events  # the launch streamed into the ambient sink
        # Restored: new launches no longer observe.
        assert ambient_sink() is previous


# ---------------------------------------------------------------------------
# Chrome trace edge cases


def _issue(warp_id, ts):
    return IssueEvent(
        warp_id=warp_id, function="f", block="b", index=0, opcode="add",
        lanes=frozenset({0, 1}), ts=ts, dur=1, active=2,
    )


class TestChromeTraceEdges:
    def test_empty_trace_is_loadable(self):
        data = chrome_trace(events=[])
        assert data["traceEvents"] != [] or data["traceEvents"] == []
        slices = [e for e in data["traceEvents"] if e.get("ph") == "X"]
        assert slices == []
        json.dumps(data)

    def test_unclosed_span_clamped_not_dropped(self):
        closed = Span(name="ok", start=1.0, end=2.0)
        unclosed = Span(name="hung", start=5.0)  # end defaults before start
        entries = [e for e in span_trace_events([closed, unclosed])
                   if e.get("ph") == "X"]
        by_name = {e["name"]: e for e in entries}
        assert by_name["ok"]["dur"] == pytest.approx(1e6)
        assert by_name["hung"]["dur"] == 0.0
        assert by_name["hung"]["args"]["unclosed"] is True
        assert "unclosed" not in by_name["ok"]["args"]

    def test_merged_workers_get_distinct_pids(self):
        # Two workers whose warp ids (tids) collide on 0 and 1.
        worker_a = [_issue(0, 0), _issue(1, 2)]
        worker_b = [_issue(0, 1), _issue(1, 3)]
        data = merged_worker_trace([worker_a, worker_b],
                                   labels=["worker pid 11", None])
        slices = [e for e in data["traceEvents"] if e.get("ph") == "X"]
        pids = {e["pid"] for e in slices}
        assert pids == {WORKER_PID_BASE, WORKER_PID_BASE + 1}
        # (pid, tid) pairs are unique even though tids repeat.
        keyed = {(e["pid"], e["tid"]) for e in slices}
        assert len(keyed) == 4
        names = [e["args"]["name"] for e in data["traceEvents"]
                 if e.get("ph") == "M" and e["name"] == "process_name"]
        assert any("worker pid 11" in n for n in names)
        assert any("worker 1" in n for n in names)
        assert data["otherData"]["workers"] == 2

    def test_merged_workers_accepts_generator(self):
        data = merged_worker_trace(
            iter([[_issue(0, 0)], [_issue(0, 1)]])
        )
        assert data["otherData"]["workers"] == 2


# ---------------------------------------------------------------------------
# Cross-worker aggregation


def _tiny_run(mode):
    result = get_workload("mcb", steps=6).run(mode=mode)
    return result.cycles


def _xsbench_counters():
    return _xsbench_launch(128).counters


def _grid_counters(cta_dim):
    """Counters of a two-CTA grid whose SMs each hold ``cta_dim // 32``
    resident warps."""
    from repro.simt import GridLaunch

    module = compile_kernel_source("kernel k() { store(tid(), 1.0); }")
    return GridLaunch(module, 2, cta_dim, jobs=1).launch("k").counters


class TestObservedRunner:
    def test_serial_reports_counters(self):
        from repro.harness.parallel import run_tasks_observed, task

        results, reports = run_tasks_observed(
            [task(_tiny_run, "baseline"), task(_tiny_run, "sr")], jobs=1
        )
        assert len(results) == 2 and len(reports) == 2
        for report in reports:
            assert report["counters"]["launch.count"] == 1
            assert report["events"] == []
            assert isinstance(report["pid"], int)

    def test_pool_merges_worker_counters_into_parent(self):
        from repro.harness.parallel import (
            run_tasks_observed,
            shutdown_pool,
            task,
        )

        before = obs_counters.snapshot()
        try:
            results, reports = run_tasks_observed(
                [task(_tiny_run, m) for m in
                 ("baseline", "sr", "baseline", "sr")],
                jobs=2,
            )
        finally:
            shutdown_pool()
        assert len(results) == 4
        moved = obs_counters.delta(obs_counters.snapshot(), before)
        # Worker-side launches came home into the parent registry.
        assert moved["launch.count"] >= 4
        assert moved["pool.tasks"] >= 4

    def test_pool_merges_high_water_counters_by_max(self, monkeypatch):
        from repro.harness.parallel import (
            run_tasks_observed,
            shutdown_pool,
            task,
        )

        shutdown_pool()
        # Fork the workers from a zero peak, so the merged registry value
        # is exactly the max over this sweep's launches.
        monkeypatch.setattr(ENGINE_COUNTERS, "grid_sm_occupancy", 0)
        try:
            results, _ = run_tasks_observed(
                [task(_grid_counters, cta_dim) for cta_dim in (32, 128, 64)],
                jobs=2,
            )
        finally:
            shutdown_pool()
        peaks = [counters["grid.sm_occupancy"] for counters in results]
        assert max(peaks) == 4
        assert ENGINE_COUNTERS.grid_sm_occupancy == max(peaks)

    def test_pool_reforks_on_in_process_jit_toggle(self):
        from repro.harness.parallel import (
            run_tasks_observed,
            shutdown_pool,
            task,
        )
        from repro.engine import engine_config

        tasks = [task(_xsbench_counters) for _ in range(2)]
        try:
            with engine_config(segments=True):
                _, warm = run_tasks_observed(tasks, jobs=2)
                assert all(
                    rep["counters"]["jit.executed_segments"] > 0
                    for rep in warm
                )
                with engine_config(segments=False):
                    _, cold = run_tasks_observed(tasks, jobs=2)
        finally:
            shutdown_pool()
        assert [rep["counters"]["jit.executed_segments"] for rep in cold] == [
            0, 0,
        ]

    def test_run_tasks_counts_pool_launches(self):
        """``run_tasks`` folds pool workers' engine counters into the
        parent, so a sweep moves ``launch.count`` equally at any jobs."""
        from repro.harness.parallel import run_tasks, shutdown_pool, task

        tasks = [task(_tiny_run, mode)
                 for mode in ("baseline", "sr", "baseline", "sr")]
        moved, results = {}, {}
        try:
            for jobs in (1, 2):
                before = obs_counters.snapshot()
                results[jobs] = run_tasks(tasks, jobs=jobs)
                moved[jobs] = obs_counters.delta(
                    obs_counters.snapshot(), before
                )["launch.count"]
        finally:
            shutdown_pool()
        assert results[1] == results[2]
        assert moved[1] == moved[2] == 4

    def test_events_capture_rides_the_report(self):
        from repro.harness.parallel import run_tasks_observed, task

        _, reports = run_tasks_observed(
            [task(_tiny_run, "sr")], jobs=1, events=True
        )
        events = reports[0]["events"]
        assert events, "events=True should capture the launch's stream"
        assert all(hasattr(e, "warp_id") for e in events)
        # The observing wrapper restored the ambient sink afterwards.
        assert ambient_sink() is None or not getattr(
            ambient_sink(), "events", None
        )


# ---------------------------------------------------------------------------
# CLIs


class TestStatsCLI:
    def test_single_workload_report(self, capsys):
        from repro.tools.stats import main

        assert main(["mcb", "--mode", "sr"]) == 0
        out = capsys.readouterr().out
        assert "Launch counters" in out
        assert "fused_instrs" in out and "segments" in out
        assert "fallback_cbr" in out and "fallback_other" in out
        assert "split_exits" in out
        assert "ahead_instrs" in out
        assert "Process counter delta" in out

    def test_repeated_sweep_reports_memo_hits(self, tmp_path, capsys):
        """A sweep repeated in one process replays every launch from
        the launch memo; ``launch.count`` still counts each one."""
        from repro.engine import engine_config
        from repro.tools.stats import main

        snap = tmp_path / "again.json"
        with engine_config(fastpath=True):
            assert main(["--sweep", "--jobs", "1", "--workloads", "mcb"]) == 0
            assert main(["--sweep", "--jobs", "1", "--workloads", "mcb",
                         "--json", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "memo_hits" in out
        counters = json.loads(snap.read_text())["counters"]
        assert counters["launch.count"] == 2
        assert counters["launch.memo_hits"] == 2
        assert counters["segments.fused_instrs"] == 0

    def test_sweep_json_and_diff(self, tmp_path, capsys):
        from repro.tools.stats import main

        snap_a = tmp_path / "a.json"
        snap_b = tmp_path / "b.json"
        assert main(["--sweep", "--workloads", "mcb",
                     "--json", str(snap_a)]) == 0
        assert main(["--sweep", "--workloads", "mcb", "funccall",
                     "--json", str(snap_b)]) == 0
        capsys.readouterr()
        saved = json.loads(snap_a.read_text())
        assert saved["kind"] == "repro.stats"
        assert saved["counters"]["launch.count"] == 2
        assert main(["--diff", str(snap_a), str(snap_b)]) == 0
        out = capsys.readouterr().out
        assert "Engine counter deltas" in out
        assert "launch" in out and "count" in out

    def test_sweep_writes_merged_trace(self, tmp_path, capsys):
        from repro.tools.stats import main

        trace_path = tmp_path / "merged.json"
        assert main(["--sweep", "--workloads", "mcb",
                     "--trace", str(trace_path)]) == 0
        data = json.loads(trace_path.read_text())
        assert data["otherData"]["workers"] >= 1
        assert any(e.get("ph") == "X" for e in data["traceEvents"])

    def test_diff_accepts_bench_records(self, tmp_path, capsys):
        from repro.tools.stats import main

        record = {"benchmark": "x", "speedup": 2.0,
                  "counters": {"launch.count": 5}}
        path_a = tmp_path / "record_a.json"
        path_b = tmp_path / "record_b.json"
        path_a.write_text(json.dumps(record))
        record["counters"]["launch.count"] = 9
        path_b.write_text(json.dumps(record))
        assert main(["--diff", str(path_a), str(path_b)]) == 0
        assert "+4" in capsys.readouterr().out

    def test_unknown_sweep_workload_errors(self):
        from repro.tools.stats import main

        with pytest.raises(SystemExit):
            main(["--sweep", "--workloads", "nope"])


class TestTraceCLISummary:
    def test_summary_includes_engine_counters(self, capsys):
        from repro.tools.trace import main

        assert main(["mcb", "--summary"]) == 0
        out = capsys.readouterr().out
        assert "Engine counters" in out
        assert "fused_instrs" in out
