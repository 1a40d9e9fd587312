"""Integration tests pinning the paper's headline claims (Section 5).

Most assert the *shape* of the results — who wins, roughly by how much,
where the crossovers fall. The EXPERIMENTS.md tables for Figures 7/8, 9
and 10 and the Section 4.3 ablation are also pinned in tolerance bands, so
an engine or compiler change cannot move them silently.
"""

import pytest

from repro.engine import current_engine
from repro.harness import compare_all, threshold_sweep
from repro.harness.figures import deconfliction_ablation, figure10
from repro.obs import counters as obs_counters
from repro.workloads import FIGURE7_WORKLOADS, get_workload
from repro.workloads.corpus import generate_corpus, run_funnel


@pytest.fixture(scope="module")
def figure7_rows():
    return {row.workload: row for row in compare_all(FIGURE7_WORKLOADS)}


class TestFigure7:
    """SR improves SIMT efficiency on every studied workload."""

    @pytest.mark.parametrize("name", FIGURE7_WORKLOADS)
    def test_simt_efficiency_improves(self, figure7_rows, name):
        row = figure7_rows[name]
        assert row.sr_eff > row.baseline_eff, (
            f"{name}: {row.baseline_eff:.3f} -> {row.sr_eff:.3f}"
        )

    @pytest.mark.parametrize("name", FIGURE7_WORKLOADS)
    def test_results_unchanged(self, figure7_rows, name):
        assert figure7_rows[name].checksum_ok

    def test_improvements_in_paper_band(self, figure7_rows):
        """Paper: 'improvements ranging from 10% to 3x'."""
        gains = [row.efficiency_gain for row in figure7_rows.values()]
        assert all(1.10 <= gain <= 3.0 for gain in gains), gains

    def test_workloads_start_inefficient(self, figure7_rows):
        """'Many of these applications exhibit relatively low SIMT
        efficiency in their default state.'"""
        assert sum(
            1 for row in figure7_rows.values() if row.baseline_eff < 0.6
        ) >= 6


class TestFigure7And8Table:
    """The Figure 7/8 table of EXPERIMENTS.md, pinned within tolerance
    bands: efficiencies to 0.01, speedups to 3%."""

    #: name -> (eff PDOM, eff SR, speedup)
    EXPECTED = {
        "rsbench": (0.479, 0.745, 1.34),
        "xsbench": (0.389, 0.625, 1.20),
        "mcb": (0.199, 0.377, 1.81),
        "pathtracer": (0.291, 0.591, 1.93),
        "mc-gpu": (0.227, 0.426, 1.79),
        "mummer": (0.396, 0.590, 1.31),
        "meiyamd5": (0.247, 0.391, 1.52),
        "optix": (0.324, 0.444, 1.29),
        "gpu-mcml": (0.543, 0.699, 1.28),
    }

    def test_table_covers_figure7(self):
        assert set(self.EXPECTED) == set(FIGURE7_WORKLOADS)

    @pytest.mark.parametrize("name", FIGURE7_WORKLOADS)
    def test_row_in_band(self, figure7_rows, name):
        row = figure7_rows[name]
        base, sr, speedup = self.EXPECTED[name]
        assert row.baseline_eff == pytest.approx(base, abs=0.01)
        assert row.sr_eff == pytest.approx(sr, abs=0.01)
        assert row.speedup == pytest.approx(speedup, rel=0.03)


class TestFigure8:
    """Speedups track (and are bounded by) efficiency improvements."""

    @pytest.mark.parametrize("name", FIGURE7_WORKLOADS)
    def test_speedup_positive(self, figure7_rows, name):
        assert figure7_rows[name].speedup > 1.0

    @pytest.mark.parametrize("name", FIGURE7_WORKLOADS)
    def test_efficiency_gain_upper_bounds_speedup(self, figure7_rows, name):
        """'SIMT efficiency improvement serves roughly as an upper bound on
        speedup' — allow 10% slack for the 'roughly'."""
        row = figure7_rows[name]
        assert row.speedup <= row.efficiency_gain * 1.10


class TestFigure9:
    """The soft-barrier threshold trade-off (Section 5.3)."""

    @pytest.fixture(scope="class")
    def sweeps(self):
        thresholds = (0, 4, 8, 16, 24, 28, 32)
        return {
            name: threshold_sweep(name, thresholds=thresholds)
            for name in ("pathtracer", "xsbench")
        }

    #: name -> {threshold: (SIMT efficiency, speedup)}, the EXPERIMENTS.md
    #: sweep tables at the thresholds the fixture runs.
    EXPECTED = {
        "pathtracer": {
            0: (0.395, 1.31), 4: (0.424, 1.40), 8: (0.469, 1.54),
            16: (0.541, 1.78), 24: (0.578, 1.89), 28: (0.591, 1.93),
            32: (0.591, 1.93),
        },
        "xsbench": {
            0: (0.625, 1.20), 4: (0.625, 1.20), 8: (0.623, 1.20),
            16: (0.618, 1.19), 24: (0.583, 1.04), 28: (0.503, 0.88),
            32: (0.218, 0.41),
        },
    }

    @pytest.mark.parametrize("name", ["pathtracer", "xsbench"])
    def test_sweep_in_band(self, sweeps, name):
        """Efficiencies to 0.01, speedups to 3%."""
        _, points = sweeps[name]
        expected = self.EXPECTED[name]
        assert [p.threshold for p in points] == sorted(expected)
        for point in points:
            efficiency, speedup = expected[point.threshold]
            assert point.simt_efficiency == pytest.approx(efficiency, abs=0.01)
            assert point.speedup == pytest.approx(speedup, rel=0.03)

    def test_pathtracer_peaks_at_full_convergence(self, sweeps):
        _, points = sweeps["pathtracer"]
        best = max(points, key=lambda p: p.speedup)
        assert best.threshold >= 24

    def test_xsbench_peaks_at_low_threshold(self, sweeps):
        _, points = sweeps["xsbench"]
        best = max(points, key=lambda p: p.speedup)
        assert best.threshold <= 16

    def test_xsbench_hard_barrier_is_catastrophic(self, sweeps):
        """'executing this process every time one or a few threads become
        idle is not profitable' — the full barrier badly regresses."""
        _, points = sweeps["xsbench"]
        hard = next(p for p in points if p.threshold == 32)
        assert hard.speedup < 0.8

    def test_pathtracer_speedup_monotone_with_threshold(self, sweeps):
        _, points = sweeps["pathtracer"]
        speedups = [p.speedup for p in points]
        # Allow small noise; overall trend must rise.
        assert speedups[-1] > speedups[0]
        assert speedups[-1] == max(speedups)


class TestSection54Funnel:
    """520 apps -> 75 low-efficiency -> 16 detected -> 5 significant.

    Run at reduced corpus scale with the same detectable population; the
    full-size funnel runs in benchmarks/bench_corpus.py.
    """

    @pytest.fixture(scope="class")
    def funnel(self):
        counts = {"uniform": 12, "mild": 6, "disjoint": 10, "detectable": 16}
        return run_funnel(generate_corpus(counts=counts))

    def test_detected_exactly_sixteen(self, funnel):
        assert funnel.detected == 16

    def test_significant_exactly_five(self, funnel):
        assert funnel.significant == 5

    def test_low_efficiency_equals_divergent_population(self, funnel):
        assert funnel.low_efficiency == 26  # disjoint + detectable


class TestFunctionCallMicrobenchmark:
    """Section 4.4 / Figure 2(c): reconverging inside the callee."""

    @pytest.fixture(scope="class")
    def results(self):
        workload = get_workload("funccall")
        return workload, workload.run(mode="baseline"), workload.run(mode="sr")

    def test_shade_body_fully_converges(self, results):
        workload, baseline, optimized = results
        assert workload.shade_efficiency(optimized.launch) > 0.95

    def test_baseline_shade_serialized(self, results):
        workload, baseline, optimized = results
        assert workload.shade_efficiency(baseline.launch) < 0.7

    def test_speedup(self, results):
        workload, baseline, optimized = results
        assert baseline.cycles / optimized.cycles > 1.3


def _speedup(text):
    return float(text.rstrip("x"))


@pytest.fixture(scope="module")
def figure10_and_ablation():
    """Figure 10, then the Section 4.3 ablation, in this process: the
    ablation repeats launches Figure 10 already ran (the baselines), and
    its dynamic variant compiles to the annotated program's IR, so both
    tables are partly served by the launch memo (counted in the delta)."""
    before = obs_counters.snapshot()
    fig10 = {row[0]: row for row in figure10(jobs=1).data}
    ablation = {row[0]: row for row in deconfliction_ablation().data}
    moved = obs_counters.delta(obs_counters.snapshot(), before)
    return fig10, ablation, moved


class TestFigure10:
    """Automatically discovered candidates (EXPERIMENTS.md, Figure 10),
    pinned within tolerance bands: efficiencies to 0.01, speedups to 3%.
    """

    #: name -> (eff base, eff auto, eff annotated, speedup auto,
    #: speedup annotated)
    EXPECTED = {
        "meiyamd5": (0.247, 0.410, 0.391, 1.62, 1.52),
        "optix": (0.324, 0.448, 0.444, 1.30, 1.29),
        "rsbench": (0.479, 0.746, 0.745, 1.34, 1.34),
        "pathtracer": (0.291, 0.543, 0.591, 1.78, 1.93),
        "mcb": (0.199, 0.380, 0.377, 1.82, 1.81),
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_row_in_band(self, figure10_and_ablation, name):
        row = figure10_and_ablation[0][name]
        base, auto, annotated, auto_speedup, annotated_speedup = (
            self.EXPECTED[name]
        )
        assert row[1] == pytest.approx(base, abs=0.01)
        assert row[2] == pytest.approx(auto, abs=0.01)
        assert row[3] == pytest.approx(annotated, abs=0.01)
        assert _speedup(row[4]) == pytest.approx(auto_speedup, rel=0.03)
        assert _speedup(row[5]) == pytest.approx(annotated_speedup, rel=0.03)

    def test_every_candidate_has_upside(self, figure10_and_ablation):
        """'Figure 10 reports upside for automatically discovered
        candidates.'"""
        for row in figure10_and_ablation[0].values():
            assert row[2] > row[1], row[0]
            assert _speedup(row[4]) > 1.2, row[0]


class TestDeconflictionAblation:
    """Section 4.3: static deconfliction issues fewer barrier
    instructions; speedups pinned to 3%, barrier issues to 5%."""

    #: name -> (speedup dynamic, speedup static, barrier issues dynamic,
    #: barrier issues static)
    EXPECTED = {
        "rsbench": (1.34, 1.43, 2667, 1025),
        "mcb": (1.81, 1.78, 244, 42),
        "pathtracer": (1.93, 2.01, 844, 433),
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_row_in_band(self, figure10_and_ablation, name):
        row = figure10_and_ablation[1][name]
        dynamic, static, dynamic_issues, static_issues = self.EXPECTED[name]
        assert _speedup(row[1]) == pytest.approx(dynamic, rel=0.03)
        assert _speedup(row[2]) == pytest.approx(static, rel=0.03)
        assert row[3] == pytest.approx(dynamic_issues, rel=0.05)
        assert row[4] == pytest.approx(static_issues, rel=0.05)

    def test_static_issues_fewer_barrier_instructions(
        self, figure10_and_ablation
    ):
        """'Static deconfliction has an advantage over dynamic
        deconfliction in terms of number of instructions executed.'"""
        for row in figure10_and_ablation[1].values():
            assert row[4] < row[3], row[0]

    def test_repeated_launches_were_replayed(self, figure10_and_ablation):
        """The pins above cover memo hits: with the fast path on, the
        ablation's repeats of Figure 10 launches are replayed."""
        moved = figure10_and_ablation[2]
        if current_engine().fastpath:
            assert moved["launch.memo_hits"] > 0
        else:
            assert moved["launch.memo_hits"] == 0


class TestAutomaticMatchesAnnotated:
    """'Automatic Speculative Reconvergence performs the same as
    programmer-annotated variants' (Section 5.4)."""

    @pytest.mark.parametrize("name", ("rsbench", "mcb", "optix"))
    def test_auto_within_15_percent_of_annotated(self, name):
        workload = get_workload(name)
        baseline = workload.run(mode="baseline")
        annotated = workload.run(mode="sr")
        auto = workload.run(
            mode="auto",
            threshold=None,
            auto_options={"auto_threshold": workload.sr_threshold or 16},
        )
        annotated_speedup = baseline.cycles / annotated.cycles
        auto_speedup = baseline.cycles / auto.cycles
        assert auto_speedup == pytest.approx(annotated_speedup, rel=0.15)
