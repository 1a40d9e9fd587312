"""Execution-timeline rendering tests (the Figure 1 diagrams)."""

import pytest

from repro.core import compile_baseline, compile_sr
from repro.errors import ReproError
from repro.frontend import compile_kernel_source
from repro.harness.timeline import (
    assign_symbols,
    convergence_series,
    render_timeline,
)
from repro.obs import ListSink
from repro.obs.events import DivergeEvent, IssueEvent
from repro.simt import GPUMachine


def _traced_launch(program_module, n=32, args=(), **kwargs):
    """Launch ``program_module``'s kernel with a ListSink attached; returns
    ``(launch, sink.events)``."""
    sink = ListSink()
    launch = GPUMachine(program_module, sink=sink, **kwargs).launch(
        program_module.kernels()[0].name, n, args=args
    )
    return launch, sink.events


def _issue(warp_id, block, lanes, ts=0, dur=1, function="k"):
    return IssueEvent(
        warp_id=warp_id, function=function, block=block, index=0,
        opcode=None, lanes=frozenset(lanes), ts=ts, dur=dur,
        active=len(lanes),
    )


KERNEL = """
kernel k() {
    let acc = 0.0;
    let t = tid();
    predict L1;
    for i in 0..12 {
        if (hash01(t * 13.0 + i) < 0.25) {
            label L1: acc = acc + 1.0;
            acc = fma(acc, 0.99, 0.5); acc = fma(acc, 0.99, 0.5);
            acc = fma(acc, 0.99, 0.5); acc = fma(acc, 0.99, 0.5);
            acc = fma(acc, 0.99, 0.5); acc = fma(acc, 0.99, 0.5);
        }
    }
    store(t, acc);
}
"""


class TestTracing:
    def test_trace_disabled_by_default(self):
        """Without a sink no issue is observed one by one, and the
        profiler keeps no per-issue record."""
        module = compile_kernel_source("kernel k() { store(tid(), 1.0); }")
        launch = GPUMachine(module).launch("k", 4)
        assert not hasattr(launch.profiler, "trace")
        assert launch.counters["sched.nonforced_observed"] == 0

    def test_trace_records_every_issue(self):
        module = compile_kernel_source("kernel k() { store(tid(), 1.0); }")
        launch, events = _traced_launch(module, n=4)
        issues = [e for e in events if e.kind == "issue"]
        assert len(issues) == launch.profiler.issued

    def test_trace_lanes_match_active(self):
        module = compile_kernel_source(
            "kernel k() { if (tid() < 2) { store(0, 1.0); } }"
        )
        _, events = _traced_launch(module, n=4)
        sizes = [len(e.lanes) for e in events if e.kind == "issue"]
        assert 2 in sizes  # the divergent store ran with two lanes


class TestRendering:
    def test_requires_trace(self):
        with pytest.raises(ReproError, match="no issue events"):
            render_timeline([])
        # Events of other kinds or other warps are not issues of warp 0.
        other = [_issue(1, "a", {0}), DivergeEvent(0, "k", "a", 0, {})]
        with pytest.raises(ReproError, match="no issue events"):
            render_timeline(other)

    def test_renders_one_row_per_lane(self):
        module = compile_baseline(compile_kernel_source(KERNEL)).module
        _, events = _traced_launch(module)
        text = render_timeline(events, width=40, legend=False)
        assert len(text.splitlines()) == 32
        assert text.splitlines()[0].startswith("T00 |")

    def test_highlight_symbol(self):
        module = compile_sr(compile_kernel_source(KERNEL)).module
        _, events = _traced_launch(module)
        text = render_timeline(events, width=60, highlight="L.L1", legend=True)
        assert "#" in text
        assert "# = L.L1" in text

    def test_legend_lists_blocks(self):
        module = compile_baseline(compile_kernel_source(KERNEL)).module
        _, events = _traced_launch(module)
        text = render_timeline(events, width=30)
        assert "for.head" in text

    def test_symbols_stable(self):
        events = [_issue(0, "a", ()), _issue(0, "b", ())]
        symbols = assign_symbols(events, highlight="b")
        assert symbols["b"] == "#"
        assert symbols["a"] == "A"

    def test_mixed_stream_matches_its_issue_events(self):
        """A full sink stream (every event kind, several warps) renders
        the same timeline and series as warp 0's issue events alone."""
        module = compile_sr(compile_kernel_source(KERNEL)).module
        _, events = _traced_launch(module, n=64)
        kinds = {e.kind for e in events}
        assert {"issue", "diverge", "barrier_arrive"} <= kinds
        assert {e.warp_id for e in events} == {0, 1}
        issues = [e for e in events if e.kind == "issue" and e.warp_id == 0]
        assert len(issues) < len(events)
        for warp_id in (0, 1):
            own = [
                e for e in events
                if e.kind == "issue" and e.warp_id == warp_id
            ]
            assert render_timeline(
                events, warp_id=warp_id, width=50, highlight="L.L1"
            ) == render_timeline(
                own, warp_id=warp_id, width=50, highlight="L.L1"
            )
            assert convergence_series(
                events, "L.L1", warp_id=warp_id
            ) == convergence_series(own, "L.L1", warp_id=warp_id)
        assert assign_symbols(events) == assign_symbols(issues)


DELAY_KERNEL = """
kernel k() {
    let t = tid();
    if (t < 1) {
        delay(60);
    }
    store(t, 1.0);
}
"""


class TestCycleAccurateRendering:
    def _delay_launch(self):
        module = compile_baseline(compile_kernel_source(DELAY_KERNEL)).module
        _, events = _traced_launch(module, n=32)
        return events

    def _delay_block(self, events):
        event = max(
            (e for e in events if e.kind == "issue"), key=lambda e: e.dur
        )
        assert event.dur == 60
        return event.block

    def test_expensive_instruction_gets_proportional_width(self):
        events = self._delay_launch()
        block = self._delay_block(events)
        issues = [e for e in events if e.kind == "issue"]
        total = max(e.ts + e.dur for e in issues) - issues[0].ts
        text = render_timeline(events, width=60, highlight=block, legend=False)
        # The 60-cycle delay dominates lane 0's wall clock, so it spans
        # its share of the 60 columns, not the one issue slot it occupies.
        assert text.splitlines()[0].count("#") >= int(60 * 60 / total)
        assert int(60 * 60 / total) > 1

    def test_legend_unit_cycles_for_event_traces(self):
        events = self._delay_launch()
        text = render_timeline(events, width=40)
        assert "cycles" in text
        assert "issue slots" not in text


class TestConvergenceSeries:
    def test_sr_waves_wider_than_pdom(self):
        module = compile_kernel_source(KERNEL)
        _, base = _traced_launch(compile_baseline(module).module)
        _, sr = _traced_launch(compile_sr(module).module)
        base_waves = convergence_series(base, "L.L1")
        sr_waves = convergence_series(sr, "L.L1")
        assert max(sr_waves) > max(base_waves)
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(sr_waves) > mean(base_waves)

    def test_unknown_block_empty(self):
        module = compile_baseline(compile_kernel_source(KERNEL)).module
        _, events = _traced_launch(module)
        assert convergence_series(events, "ghost") == []
