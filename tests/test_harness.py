"""Harness tests: experiment runners, figure generators, report rendering,
and the collector policy of the CLI and the pool workers."""

import gc
import os

import pytest

from repro.harness import (
    compare_workload,
    efficiency_chart,
    figure9,
    format_bar,
    format_table,
    funccall_microbenchmark,
    markdown_table,
    table2,
    threshold_sweep,
)
from repro.harness.__main__ import main as harness_main
from repro.harness.figures import ALL_FIGURES, FigureResult
from repro.harness.parallel import (
    GC_YOUNG_THRESHOLD,
    run_tasks,
    shutdown_pool,
    task,
)
from tests.test_workloads import FAST_PARAMS


class TestReportRendering:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [(1, 2.5), (10, 0.125)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.500" in text

    def test_format_table_title(self):
        text = format_table(["x"], [(1,)], title="T")
        assert text.splitlines()[0] == "T"

    def test_format_bar_scales(self):
        assert format_bar(0.5, scale=10) == "#####"
        assert format_bar(2.0, scale=10, maximum=1.0) == "#" * 10

    def test_efficiency_chart(self):
        text = efficiency_chart([("w", 0.25, 0.75)])
        assert "base 25.0%" in text
        assert "+SR  75.0%" in text

    def test_markdown_table(self):
        text = markdown_table(["a", "b"], [(1, 2)])
        assert text.splitlines()[1] == "|---|---|"


class TestExperimentRunners:
    def test_compare_workload(self):
        row = compare_workload("mcb", **FAST_PARAMS["mcb"])
        assert row.workload == "mcb"
        assert 0 < row.baseline_eff <= 1
        assert row.checksum_ok
        assert row.speedup > 0
        assert row.efficiency_gain > 0

    def test_threshold_sweep_hard_tail(self):
        baseline, points = threshold_sweep(
            "mcb", thresholds=(4, 32), **FAST_PARAMS["mcb"]
        )
        assert len(points) == 2
        # threshold >= 32 collapses to the hard barrier
        hard = points[1]
        assert hard.threshold == 32
        assert hard.cycles > 0
        assert baseline.mode == "baseline"

    def test_sweep_speedups_relative_to_baseline(self):
        baseline, points = threshold_sweep(
            "mcb", thresholds=(8,), **FAST_PARAMS["mcb"]
        )
        point = points[0]
        assert point.speedup == pytest.approx(baseline.cycles / point.cycles)


class TestFigureGenerators:
    def test_table2_lists_nine_benchmarks(self):
        result = table2()
        assert len(result.data) == 9
        assert "rsbench" in result.text

    def test_figure9_reduced(self):
        result = figure9(thresholds=(8, 32), workloads=("mcb",))
        assert "mcb" in result.data
        baseline, points = result.data["mcb"]
        assert len(points) == 2
        assert "best threshold" in result.text

    def test_funccall_microbenchmark(self):
        result = funccall_microbenchmark()
        data = result.data
        assert data["sr"].simt_efficiency > data["baseline"].simt_efficiency
        assert "speedup" in result.text


@pytest.fixture
def caller_thresholds():
    """Give this process collector thresholds of its own for the test
    (none of them the policy's), and put back the ones it had."""
    saved = gc.get_threshold()
    gc.set_threshold(1234, 9, 8)
    try:
        yield (1234, 9, 8)
    finally:
        gc.set_threshold(*saved)


class TestCollectorPolicy:
    def test_pool_workers_run_under_the_policy(self, caller_thresholds):
        # A fresh pool, forked from a process without the policy.
        shutdown_pool()
        try:
            seen = run_tasks([task(gc.get_threshold) for _ in range(2)], jobs=2)
        finally:
            shutdown_pool()
        policy = (GC_YOUNG_THRESHOLD, *caller_thresholds[1:])
        assert seen == [policy, policy]
        assert gc.get_threshold() == caller_thresholds

    @pytest.mark.parametrize("caller_pipeline", [None, "verify"])
    def test_main_restores_thresholds_and_pipeline(
        self, caller_thresholds, caller_pipeline, monkeypatch
    ):
        if caller_pipeline is None:
            monkeypatch.delenv("REPRO_PIPELINE", raising=False)
        else:
            monkeypatch.setenv("REPRO_PIPELINE", caller_pipeline)
        seen = []

        def figure(seed):
            seen.append((gc.get_threshold(), os.environ.get("REPRO_PIPELINE")))
            return FigureResult(name="funccall", data=None, text="")

        monkeypatch.setitem(ALL_FIGURES, "funccall", figure)
        assert harness_main(
            ["--pipeline", "strip-directives,verify", "funccall"]
        ) == 0
        policy = (GC_YOUNG_THRESHOLD, *caller_thresholds[1:])
        assert seen == [(policy, "strip-directives,verify")]
        assert gc.get_threshold() == caller_thresholds
        assert os.environ.get("REPRO_PIPELINE") == caller_pipeline

        # The fail-fast error on a bad description restores them too, and
        # so does an exception that escapes main.
        assert harness_main(["--pipeline", "no-such-pass", "funccall"]) == 1
        assert len(seen) == 1
        assert gc.get_threshold() == caller_thresholds
        assert os.environ.get("REPRO_PIPELINE") == caller_pipeline

        def broken(seed):
            raise RuntimeError("figure bug")

        monkeypatch.setitem(ALL_FIGURES, "funccall", broken)
        with pytest.raises(RuntimeError, match="figure bug"):
            harness_main(["--pipeline", "strip-directives,verify", "funccall"])
        assert gc.get_threshold() == caller_thresholds
        assert os.environ.get("REPRO_PIPELINE") == caller_pipeline
