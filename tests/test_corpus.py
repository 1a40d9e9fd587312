"""Corpus generator and Section 5.4 funnel tests (scaled down)."""

import pytest

from repro.engine import engine_config
from repro.ir import verify_module
from repro.obs import counters as obs_counters
from repro.workloads.corpus import (
    CATEGORY_COUNTS,
    STRONG_DETECTABLE,
    generate_corpus,
    run_funnel,
)

SMALL = {"uniform": 6, "mild": 4, "disjoint": 4, "detectable": 16}


class TestGenerator:
    def test_default_counts_match_paper(self):
        assert sum(CATEGORY_COUNTS.values()) == 520
        assert CATEGORY_COUNTS["disjoint"] + CATEGORY_COUNTS["detectable"] == 75
        assert CATEGORY_COUNTS["detectable"] == 16
        assert STRONG_DETECTABLE == 5

    def test_generation_deterministic(self):
        a = generate_corpus(counts=SMALL, seed=1)
        b = generate_corpus(counts=SMALL, seed=1)
        assert [x.source for x in a] == [y.source for y in b]

    def test_seed_changes_sources(self):
        a = generate_corpus(counts=SMALL, seed=1)
        b = generate_corpus(counts=SMALL, seed=2)
        assert [x.source for x in a] != [y.source for y in b]

    def test_strong_flag_only_on_detectable(self):
        apps = generate_corpus(counts=SMALL)
        strong = [a for a in apps if a.strong]
        assert len(strong) == STRONG_DETECTABLE
        assert all(a.category == "detectable" for a in strong)

    @pytest.mark.parametrize("category", sorted(SMALL))
    def test_apps_compile_and_verify(self, category):
        apps = [a for a in generate_corpus(counts=SMALL) if a.category == category]
        for app in apps[:3]:
            assert verify_module(app.module())


class TestFunnel:
    @pytest.fixture(scope="class")
    def funnel(self):
        return run_funnel(generate_corpus(counts=SMALL))

    def test_uniform_and_mild_stay_efficient(self, funnel):
        for row in funnel.rows:
            if row["category"] in ("uniform", "mild"):
                assert row["baseline_eff"] >= 0.8, row

    def test_divergent_categories_below_cutoff(self, funnel):
        for row in funnel.rows:
            if row["category"] in ("disjoint", "detectable"):
                assert row["baseline_eff"] < 0.8, row

    def test_detection_hits_exactly_detectable(self, funnel):
        detected = {r["name"] for r in funnel.rows if r["detected"]}
        expected = {
            r["name"] for r in funnel.rows if r["category"] == "detectable"
        }
        assert detected == expected

    def test_strong_apps_significant(self, funnel):
        strong = [r for r in funnel.rows if r["strong"]]
        assert all(r["speedup"] and r["speedup"] >= 1.10 for r in strong)

    def test_weak_apps_not_significant(self, funnel):
        weak = [
            r
            for r in funnel.rows
            if r["category"] == "detectable" and not r["strong"]
        ]
        assert all(r["speedup"] < 1.10 for r in weak)

    def test_funnel_counts(self, funnel):
        assert funnel.total == sum(SMALL.values())
        assert funnel.low_efficiency == SMALL["disjoint"] + SMALL["detectable"]
        assert funnel.detected == SMALL["detectable"]
        assert funnel.significant == STRONG_DETECTABLE

    def test_describe(self, funnel):
        assert "->" in funnel.describe()

    def test_auto_launches_simulate_only_for_detected_apps(self):
        """Where detection accepts nothing, the auto program prints the
        baseline's IR, so its launch replays the baseline's from the
        launch memo: every app launches twice, and only the detected
        ones simulate twice."""
        apps = generate_corpus(counts=SMALL)
        before = obs_counters.snapshot()
        with engine_config(fastpath=True):
            funnel = run_funnel(apps)
        moved = obs_counters.delta(obs_counters.snapshot(), before)
        assert moved["launch.count"] == 2 * funnel.total
        assert moved["launch.memo_hits"] == funnel.total - funnel.detected
        assert funnel.detected == SMALL["detectable"]
