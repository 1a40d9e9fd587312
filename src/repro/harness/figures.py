"""Regeneration of every table and figure in the evaluation (Section 5).

Each ``figure*`` function runs the experiment and returns a structured
result plus a rendered text report; the CLI (`python -m repro.harness`),
perfbench's ``figures`` job and the tier-1 tests call these.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.experiment import compare_all, threshold_sweep
from repro.harness.parallel import run_tasks, task
from repro.harness.report import efficiency_chart, format_table
from repro.harness.timeline import render_timeline
from repro.obs.sinks import ListSink
from repro.workloads import FIGURE7_WORKLOADS, get_workload
from repro.workloads.corpus import (
    CATEGORY_COUNTS,
    generate_corpus,
    run_funnel,
)


@dataclass
class FigureResult:
    """Structured data + rendered text for one figure/table."""

    name: str
    data: object
    text: str

    def __str__(self):
        return self.text


# ---------------------------------------------------------------------------
# Table 2 — benchmark inventory
# ---------------------------------------------------------------------------
def table2():
    rows = []
    for name in FIGURE7_WORKLOADS:
        workload = get_workload(name)
        rows.append((name, workload.pattern, workload.description))
    text = format_table(
        ["benchmark", "pattern", "description"], rows, title="Table 2: Benchmarks"
    )
    return FigureResult(name="table2", data=rows, text=text)


# ---------------------------------------------------------------------------
# Figure 7 — SIMT efficiency before/after SR
# ---------------------------------------------------------------------------
def figure7(seed=2020, workloads=FIGURE7_WORKLOADS, params=None, jobs=None):
    rows = compare_all(workloads, seed=seed, params=params, jobs=jobs)
    chart_rows = [(r.workload, r.baseline_eff, r.sr_eff) for r in rows]
    table_rows = [
        (r.workload, r.baseline_eff, r.sr_eff, f"{r.efficiency_gain:.2f}x",
         "ok" if r.checksum_ok else "MISMATCH")
        for r in rows
    ]
    text = (
        format_table(
            ["benchmark", "SIMT eff (default)", "SIMT eff (SR)", "gain", "results"],
            table_rows,
            title="Figure 7: SIMT efficiency",
        )
        + "\n\n"
        + efficiency_chart(chart_rows)
    )
    return FigureResult(name="figure7", data=rows, text=text)


# ---------------------------------------------------------------------------
# Figure 8 — SIMT efficiency improvement vs speedup
# ---------------------------------------------------------------------------
def figure8(seed=2020, workloads=FIGURE7_WORKLOADS, params=None, rows=None,
            jobs=None):
    rows = rows or compare_all(workloads, seed=seed, params=params, jobs=jobs)
    table_rows = [
        (
            r.workload,
            f"{r.efficiency_gain:.2f}x",
            f"{r.speedup:.2f}x",
            "<= gain" if r.speedup <= r.efficiency_gain * 1.05 else "> gain",
        )
        for r in rows
    ]
    text = format_table(
        ["benchmark", "SIMT-eff improvement", "speedup", "bound check"],
        table_rows,
        title=(
            "Figure 8: SIMT efficiency improvement vs speedup\n"
            "(improvement in SIMT efficiency serves roughly as an upper "
            "bound on speedup)"
        ),
    )
    return FigureResult(name="figure8", data=rows, text=text)


# ---------------------------------------------------------------------------
# Figure 9 — soft-barrier threshold sweeps (PathTracer, XSBench)
# ---------------------------------------------------------------------------
def figure9(seed=2020, thresholds=None, workloads=("pathtracer", "xsbench"),
            jobs=None):
    data = {}
    sections = []
    for name in workloads:
        baseline, points = threshold_sweep(
            name, thresholds=thresholds, seed=seed, jobs=jobs
        )
        data[name] = (baseline, points)
        rows = [
            (p.threshold, p.simt_efficiency, p.cycles, f"{p.speedup:.2f}x")
            for p in points
        ]
        best = max(points, key=lambda p: p.speedup)
        sections.append(
            format_table(
                ["threshold", "SIMT efficiency", "cycles", "speedup"],
                rows,
                title=(
                    f"Figure 9 [{name}]: baseline eff="
                    f"{baseline.simt_efficiency:.3f}, cycles={baseline.cycles}; "
                    f"best threshold={best.threshold} "
                    f"(speedup {best.speedup:.2f}x)"
                ),
            )
        )
    return FigureResult(name="figure9", data=data, text="\n\n".join(sections))


# ---------------------------------------------------------------------------
# Figure 10 — automatic Speculative Reconvergence upside
# ---------------------------------------------------------------------------
def _figure10_row(name, seed):
    """Baseline vs auto-SR vs annotated SR for one workload."""
    workload = get_workload(name)
    baseline = workload.run(mode="baseline", seed=seed)
    auto = workload.run(
        mode="auto",
        threshold=None,
        seed=seed,
        auto_options={"auto_threshold": workload.sr_threshold or 16},
    )
    annotated = workload.run(mode="sr", seed=seed)
    return (
        name,
        baseline.simt_efficiency,
        auto.simt_efficiency,
        annotated.simt_efficiency,
        f"{baseline.cycles / auto.cycles:.2f}x",
        f"{baseline.cycles / annotated.cycles:.2f}x",
    )


def figure10(seed=2020, workloads=("meiyamd5", "optix", "rsbench", "pathtracer", "mcb"),
             jobs=None):
    """Auto-detected candidates: compare baseline, auto-SR and annotated SR.

    The paper restricts Figure 10 to cases with significant upside and
    notes "automatic Speculative Reconvergence performs the same as
    programmer-annotated variants of the benchmarks".
    """
    rows = run_tasks(
        [task(_figure10_row, name, seed) for name in workloads], jobs=jobs
    )
    text = format_table(
        [
            "benchmark",
            "eff (base)",
            "eff (auto)",
            "eff (annotated)",
            "speedup (auto)",
            "speedup (annotated)",
        ],
        rows,
        title="Figure 10: Automatic Speculative Reconvergence",
    )
    return FigureResult(name="figure10", data=rows, text=text)


# ---------------------------------------------------------------------------
# Section 5.4 — the 520-application funnel
# ---------------------------------------------------------------------------
def corpus_funnel(counts=None, seed=520, efficiency_cutoff=0.8, significance=1.10):
    apps = generate_corpus(counts=counts or CATEGORY_COUNTS, seed=seed)
    funnel = run_funnel(
        apps, efficiency_cutoff=efficiency_cutoff, significance=significance
    )
    detected_rows = [
        (
            r["name"],
            r["category"],
            r["baseline_eff"],
            r["auto_eff"] if r["auto_eff"] is not None else "-",
            f"{r['speedup']:.2f}x" if r["speedup"] else "-",
        )
        for r in funnel.rows
        if r["detected"]
    ]
    text = (
        f"Section 5.4 funnel: {funnel.describe()}\n"
        f"(paper: 520 apps -> 75 below 80% -> 16 detected -> 5 significant)\n\n"
        + format_table(
            ["app", "category", "eff (base)", "eff (auto)", "speedup"],
            detected_rows,
            title="Detected applications",
        )
    )
    return FigureResult(name="corpus_funnel", data=funnel, text=text)


# ---------------------------------------------------------------------------
# Figure 1 — execution timelines, PDOM vs Speculative Reconvergence
# ---------------------------------------------------------------------------
def _hot_block(events, function):
    """The most-issued block of ``function`` in warp 0's issue events."""
    counts = {}
    for event in events:
        if (event.kind == "issue" and event.warp_id == 0
                and event.function == function):
            counts[event.block] = counts.get(event.block, 0) + 1
    return max(counts, key=counts.get) if counts else None


def figure1(seed=2020, width=72):
    """Regenerate the paper's Figure 1 cartoons from cycle-stamped issue
    events: the shared ``shade`` body serializes under PDOM (diagonal
    staircase) and converges into wide waves under interprocedural SR."""
    workload = get_workload("funccall", iterations=10)
    baseline_sink, sr_sink = ListSink(), ListSink()
    baseline = workload.run(mode="baseline", seed=seed, sink=baseline_sink)
    optimized = workload.run(mode="sr", seed=seed, sink=sr_sink)
    highlight = _hot_block(baseline_sink.events, "shade")
    sections = []
    for label, result, sink in (
        ("PDOM baseline", baseline, baseline_sink),
        ("speculative reconvergence", optimized, sr_sink),
    ):
        sections.append(
            f"Figure 1 [{label}]: '#' = {highlight} (the shared shade "
            f"body), SIMT efficiency {result.simt_efficiency:.1%}\n"
            + render_timeline(
                sink.events, width=width, highlight=highlight, legend=False
            )
        )
    return FigureResult(
        name="figure1",
        data={"baseline": baseline, "sr": optimized, "highlight": highlight},
        text="\n\n".join(sections),
    )


# ---------------------------------------------------------------------------
# Section 5.1 microbenchmark — common function call
# ---------------------------------------------------------------------------
def funccall_microbenchmark(seed=2020):
    workload = get_workload("funccall")
    baseline = workload.run(mode="baseline", seed=seed)
    optimized = workload.run(mode="sr", seed=seed)
    base_shade = workload.shade_efficiency(baseline.launch)
    opt_shade = workload.shade_efficiency(optimized.launch)
    rows = [
        ("overall SIMT efficiency", baseline.simt_efficiency, optimized.simt_efficiency),
        ("efficiency inside @shade", base_shade, opt_shade),
        ("cycles", baseline.cycles, optimized.cycles),
    ]
    text = format_table(
        ["metric", "baseline (PDOM)", "interprocedural SR"],
        rows,
        title=(
            "Common-function-call microbenchmark (Figure 2c / Section 4.4): "
            f"speedup {baseline.cycles / optimized.cycles:.2f}x"
        ),
    )
    return FigureResult(
        name="funccall", data={"baseline": baseline, "sr": optimized}, text=text
    )


# ---------------------------------------------------------------------------
# Section 4.3 ablation — static vs dynamic deconfliction
# ---------------------------------------------------------------------------
def deconfliction_ablation(seed=2020, workloads=("rsbench", "mcb", "pathtracer")):
    from repro.workloads import get_workload

    rows = []
    for name in workloads:
        workload = get_workload(name)
        baseline = workload.run(mode="baseline", seed=seed)
        dynamic = workload.run(mode="sr", seed=seed, deconfliction="dynamic")
        static = workload.run(mode="sr", seed=seed, deconfliction="static")
        rows.append(
            (
                name,
                f"{baseline.cycles / dynamic.cycles:.2f}x",
                f"{baseline.cycles / static.cycles:.2f}x",
                dynamic.barrier_issues,
                static.barrier_issues,
            )
        )
    text = format_table(
        [
            "benchmark",
            "speedup (dynamic)",
            "speedup (static)",
            "barrier issues (dyn)",
            "barrier issues (stat)",
        ],
        rows,
        title=(
            "Section 4.3 ablation: deconfliction strategies (static removes "
            "the conflicting PDOM barrier; dynamic withdraws at run time)"
        ),
    )
    return FigureResult(name="deconfliction", data=rows, text=text)


ALL_FIGURES = {
    "fig1": figure1,
    "table2": table2,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "funnel": corpus_funnel,
    "funccall": funccall_microbenchmark,
    "deconfliction": deconfliction_ablation,
}
