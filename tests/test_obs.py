"""repro.obs: events, sinks, stall metrics, pass spans, Chrome export.

Also pins the two observability invariants the subsystem guarantees:

* the ``trace=False`` fast path allocates **no** event objects, and
* results (per-thread stores, cycles, SIMT efficiency) are bit-identical
  with observability on vs. off, across all three schedulers.
"""

import json

import pytest

from repro import compile_kernel_source, compile_sr
from repro.core import compile_baseline
from repro.ir import Opcode
from repro.obs import (
    CallbackSink,
    Histogram,
    IssueEvent,
    ListSink,
    NULL_SINK,
    STALL_BARRIER,
    STALL_DIVERGED,
    STALL_FINISHED,
    chrome_trace,
    module_stats,
    write_chrome_trace,
)
from repro.simt import SCHEDULERS, GPUMachine, StackGPUMachine
from repro.workloads import get_workload

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

FAST_FUNCCALL = {"iterations": 6, "shade_cost": 8, "else_extra": 2}


def _sr_module():
    return compile_sr(compile_kernel_source(DIVERGENT)).module


class TestEvents:
    def test_issue_event_unpacks_as_legacy_tuple(self):
        event = IssueEvent(
            warp_id=3, function="f", block="b", index=2, opcode=Opcode.ADD,
            lanes=frozenset({0, 1}), ts=10, dur=4, active=2,
        )
        wid, fn, blk, lanes = event
        assert (wid, fn, blk, lanes) == (3, "f", "b", frozenset({0, 1}))
        assert event[0] == 3 and event[2] == "b"
        assert len(event) == 4
        assert event.ts == 10 and event.dur == 4

    def test_to_dict_sorts_lanes(self):
        event = IssueEvent(
            warp_id=0, function="f", block="b", index=0, opcode=Opcode.ADD,
            lanes=frozenset({5, 1}), ts=0, dur=1, active=2,
        )
        data = event.to_dict()
        assert data["kind"] == "issue"
        assert data["lanes"] == [1, 5]


class TestSinks:
    def test_null_sink_disabled(self):
        assert NULL_SINK.enabled is False

    def test_list_sink_collects_all_kinds(self):
        sink = ListSink()
        launch = GPUMachine(_sr_module(), sink=sink).launch("k", 32)
        kinds = {e.kind for e in sink}
        assert "issue" in kinds
        assert "barrier_arrive" in kinds
        assert "barrier_release" in kinds
        assert "reconverge" in kinds
        assert "diverge" in kinds
        assert len(sink.of_kind("issue")) == launch.profiler.issued
        assert len(sink) > launch.profiler.issued

    def test_callback_sink_streams(self):
        seen = []
        module = compile_kernel_source("kernel k() { store(tid(), 1.0); }")
        GPUMachine(module, sink=CallbackSink(seen.append)).launch("k", 4)
        assert seen and all(e.kind == "issue" for e in seen)

    def test_events_cycle_stamped_in_issue_order(self):
        sink = ListSink()
        GPUMachine(_sr_module(), sink=sink).launch("k", 32)
        issues = sink.of_kind("issue")
        for prev, cur in zip(issues, issues[1:]):
            assert cur.ts == prev.ts + prev.dur  # one warp: seamless slices


class TestFastPathAllocationFree:
    def test_no_event_objects_without_observability(self, monkeypatch):
        """trace=False + no sink + no metrics must never build an event."""
        def boom(*args, **kwargs):
            raise AssertionError("event allocated on the fast path")

        import repro.simt.executor as executor_mod
        import repro.simt.profiler as profiler_mod
        import repro.simt.stack_machine as stack_mod

        for name in ("IssueEvent", "DivergeEvent", "BarrierArriveEvent",
                     "BarrierReleaseEvent", "ReconvergeEvent"):
            if hasattr(executor_mod, name):
                monkeypatch.setattr(executor_mod, name, boom)
        monkeypatch.setattr(profiler_mod, "IssueEvent", boom)
        monkeypatch.setattr(stack_mod, "ReconvergeEvent", boom)

        module = _sr_module()
        launch = GPUMachine(module).launch("k", 32)
        assert launch.profiler.trace is None
        assert launch.metrics is None
        stack = StackGPUMachine(module).launch("k", 32)
        assert stack.profiler.trace is None

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_results_bit_identical_with_observability(self, scheduler):
        workload = get_workload("funccall", **FAST_FUNCCALL)
        compiled = workload.compile(mode="sr")
        plain = workload.run(
            mode="sr", compiled=compiled, scheduler=scheduler
        )
        observed = workload.run(
            mode="sr", compiled=compiled, scheduler=scheduler,
            trace=True, metrics=True, sink=ListSink(),
        )
        assert plain.cycles == observed.cycles
        assert plain.simt_efficiency == observed.simt_efficiency
        assert plain.issued == observed.issued
        assert (
            plain.launch.store_traces() == observed.launch.store_traces()
        )
        assert (
            plain.launch.memory.snapshot()
            == observed.launch.memory.snapshot()
        )


class TestLaunchMetrics:
    @pytest.mark.parametrize(
        "name,params",
        [("funccall", FAST_FUNCCALL), ("mcb", {"steps": 8})],
    )
    def test_attribution_sums_to_total_cycles(self, name, params):
        workload = get_workload(name, **params)
        result = workload.run(mode="sr", metrics=True)
        metrics = result.launch.metrics
        profiler = result.launch.profiler
        assert metrics.check_attribution()  # per warp, per lane
        assert metrics.warp_cycles == profiler.warp_cycles
        for wid, lanes in metrics.lane_attribution.items():
            attribution = metrics.warp_attribution(wid)
            assert sum(attribution.values()) == (
                profiler.warp_cycles[wid] * len(lanes)
            )

    def test_stall_reasons_populated_on_divergent_kernel(self):
        launch = GPUMachine(_sr_module(), metrics=True).launch("k", 32)
        stalls = launch.metrics.stall_cycles()
        assert set(stalls) == {STALL_BARRIER, STALL_DIVERGED, STALL_FINISHED}
        assert stalls[STALL_BARRIER] > 0
        assert stalls[STALL_DIVERGED] > 0
        assert launch.metrics.active_cycles() > 0

    def test_partial_warp_finished_lanes(self):
        # 8 threads retire at different times -> "finished" stalls accrue.
        module = compile_kernel_source(
            "kernel k() { if (tid() < 2) { let x = sin(1.0); let y = x; } "
            "store(tid(), 1.0); }"
        )
        launch = GPUMachine(module, metrics=True).launch("k", 8)
        assert launch.metrics.check_attribution()

    def test_barrier_wait_distributions(self):
        launch = GPUMachine(_sr_module(), metrics=True).launch("k", 32)
        metrics = launch.metrics
        assert metrics.barrier_occupancy
        name, hist = next(iter(metrics.barrier_occupancy.items()))
        assert hist.count > 0
        assert metrics.barrier_wait[name].count > 0
        assert metrics.barrier_wait[name].mean >= 0

    def test_divergence_depth_histogram(self):
        launch = GPUMachine(_sr_module(), metrics=True).launch("k", 32)
        depth = launch.metrics.divergence_depth
        assert depth.count > 0
        assert depth.max >= 2  # the kernel definitely diverges

    def test_summary_includes_stalls(self):
        launch = GPUMachine(_sr_module(), metrics=True).launch("k", 32)
        summary = launch.profiler.summary()
        assert summary["stall_cycles"][STALL_BARRIER] > 0
        data = launch.metrics.summary()
        assert json.dumps(data)  # JSON-ready
        assert data["active_lane_cycles"] > 0

    def test_metrics_none_by_default(self):
        module = compile_kernel_source("kernel k() { store(tid(), 1.0); }")
        launch = GPUMachine(module).launch("k", 4)
        assert launch.metrics is None


class TestHistogram:
    def test_moments(self):
        hist = Histogram()
        for value in (2, 2, 6):
            hist.add(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(10 / 3)
        assert (hist.min, hist.max) == (2, 6)

    def test_empty(self):
        hist = Histogram()
        assert hist.count == 0 and hist.mean == 0.0
        assert hist.to_dict()["values"] == {}


class TestSpans:
    def test_sr_compile_records_phases(self):
        program = compile_sr(compile_kernel_source(DIVERGENT))
        names = [span.name for span in program.report.spans]
        # One span per pass-manager pass, plus nested analysis spans
        # (an inner span is appended before the pass that requested it).
        assert names == [
            "collect-predictions",
            "analysis:divergence",
            "pdom-sync",
            "sr-insert",
            "deconflict",
            "strip-directives",
            "allocate",
            "verify",
        ]
        for span in program.report.spans:
            assert span.duration >= 0
            assert span.end >= span.start

    def test_ir_deltas_show_barrier_insertion(self):
        program = compile_sr(compile_kernel_source(DIVERGENT))
        by_name = {span.name: span for span in program.report.spans}
        assert by_name["pdom-sync"].ir_delta["barrier_instructions"] > 0
        assert by_name["sr-insert"].ir_delta["barrier_instructions"] > 0
        assert by_name["verify"].ir_delta["instructions"] == 0

    def test_pass_span_stats_match_fresh_walks(self):
        # Each pass span reuses the previous pass span's after-stats as
        # its before-stats; both must equal a fresh walk of the module.
        from repro.core import PassContext, PassManager, pipeline_for_mode

        module = compile_kernel_source(DIVERGENT).clone()
        walks = [module_stats(module)]
        manager = PassManager(
            pipeline_for_mode("sr"),
            after_pass=lambda spec, pass_obj, mod: walks.append(
                module_stats(mod)
            ),
        )
        ctx = PassContext(mode="sr")
        manager.run(module, ctx)
        spans = [s for s in ctx.spans.spans if s.before is not None]
        assert [s.name for s in spans] == pipeline_for_mode("sr").split(",")
        assert [s.before for s in spans] == walks[:-1]
        assert [s.after for s in spans] == walks[1:]
        assert [s.ir_delta for s in spans] == [
            before.delta(after) for before, after in zip(walks, walks[1:])
        ]

    def test_mode_none_spans(self):
        from repro.core.pipeline import ReconvergenceCompiler

        program = ReconvergenceCompiler().compile(
            compile_kernel_source(DIVERGENT), mode="none"
        )
        names = [span.name for span in program.report.spans]
        assert names == [
            "strip-directives",
            "allocate",
            "verify",
        ]

    def test_module_stats_counts(self):
        module = compile_kernel_source(DIVERGENT)
        stats = module_stats(module)
        assert stats.functions == 1
        assert stats.blocks >= 4
        assert stats.instructions > 10
        assert stats.barrier_instructions == 0  # not compiled yet

    def test_describe_mentions_delta(self):
        program = compile_sr(compile_kernel_source(DIVERGENT))
        text = program.report.describe(with_spans=True)
        assert "span: pdom-sync" in text


class TestChromeTrace:
    def _traced(self):
        program = compile_sr(compile_kernel_source(DIVERGENT))
        sink = ListSink()
        GPUMachine(program.module, sink=sink).launch("k", 32)
        return sink, program.report

    def test_contains_both_layers(self):
        sink, report = self._traced()
        data = chrome_trace(events=sink.events, report=report)
        events = data["traceEvents"]
        assert data["displayTimeUnit"] == "ms"
        compiler = [e for e in events if e["pid"] == 0 and e["ph"] == "X"]
        simulator = [e for e in events if e["pid"] == 1 and e["ph"] == "X"]
        assert compiler and simulator
        names = {e["name"] for e in compiler}
        assert "pdom-sync" in names and "verify" in names

    def test_event_shapes_are_valid(self):
        sink, report = self._traced()
        for event in chrome_trace(events=sink.events,
                                  report=report)["traceEvents"]:
            assert "name" in event and "ph" in event and "pid" in event
            if event["ph"] in ("X", "i", "C"):
                assert "ts" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_instants_and_counters_present(self):
        sink, report = self._traced()
        events = chrome_trace(events=sink.events, report=report)["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"X", "M", "i", "C"} <= phases

    def test_launch_trace_fallback(self):
        program = compile_baseline(compile_kernel_source(DIVERGENT))
        launch = GPUMachine(program.module, trace=True).launch("k", 32)
        data = chrome_trace(launch=launch)
        slices = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == launch.profiler.issued

    def test_write_round_trips(self, tmp_path):
        sink, report = self._traced()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, events=sink.events, report=report)
        parsed = json.loads(path.read_text())
        assert parsed["traceEvents"]


class TestStackMachineObservability:
    def test_trace_and_reconverge_events(self):
        module = compile_baseline(compile_kernel_source(DIVERGENT)).module
        sink = ListSink()
        launch = StackGPUMachine(module, trace=True, sink=sink).launch("k", 32)
        assert launch.profiler.trace  # cycle-stamped issues
        assert sink.of_kind("reconverge")  # structural pops
        assert sink.of_kind("diverge")
        # No convergence barriers exist pre-Volta.
        assert not sink.of_kind("barrier_arrive")

    def test_attribution_holds_on_stack_machine(self):
        module = compile_baseline(compile_kernel_source(DIVERGENT)).module
        launch = StackGPUMachine(module, metrics=True).launch("k", 32)
        metrics = launch.metrics
        assert metrics.check_attribution()
        stalls = metrics.stall_cycles()
        assert stalls[STALL_BARRIER] == 0  # nothing ever parks
        assert stalls[STALL_DIVERGED] > 0
