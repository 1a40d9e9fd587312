"""Per-layer metrics of one traced job: span self times + counter deltas.

Every name here is listed under ``per_layer`` in ``BENCHMARK.json``; a
layer that did no work on a workload reports 0 (a ratio with nothing to
divide reports 0 too). Times are in seconds. Spans from forked pool
workers add to the same layer totals, so on ``grid`` the worker-side
``simt.launch_s`` is summed over both workers and can exceed ``wall_s``.
"""

from __future__ import annotations

from spans import self_times, subtree

#: Figure names of ``repro.harness.figures.ALL_FIGURES``.
FIGURES = ("fig1", "table2", "fig7", "fig8", "fig9", "fig10", "funnel", "funccall",
           "deconfliction")

#: name -> unit, in the order the metrics are reported.
UNITS = {
    "frontend.lower_s": "s",
    "frontend.modules": "count",
    "core.compile_s": "s",
    "core.compiles": "count",
    "program_cache.hit_ratio": "ratio",
    "passmgr.analysis_hit_ratio": "ratio",
    "fastpath.decode_s": "s",
    "fastpath.decode_hit_ratio": "ratio",
    "simt.launch_s": "s",
    "simt.launches": "count",
    "simt.issued": "count",
    "simt.issues_per_s": "1/s",
    "segments.coverage": "ratio",
    "jit.tierups": "count",
    "jit.executed_segments": "count",
    "jit.deopts": "count",
    "soa.vector_frac": "ratio",
    "batch.epochs": "count",
    "batch.rollback_ratio": "ratio",
    "spec.rounds": "count",
    "spec.commit_ratio": "ratio",
    "spec.nonforced_slots": "count",
    "grid.launch_s": "s",
    "grid.merge_s": "s",
    "grid.pool_sharded_ctas": "count",
    "pool.tasks": "count",
    "pool.start_s": "s",
    **{f"harness.{name}_s": "s" for name in FIGURES},
    "harness.render_s": "s",
    "workloads.setup_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(recorder, counters, pool_start_s):
    """Per-layer metrics (everything but ``trace.overhead_s``, which needs
    the untraced twin job) plus the span check for the measured region."""
    by_process = {recorder.pid: recorder.spans, **recorder.worker_spans()}
    self_s = {}
    total_s = {}
    count = {}
    issued = 0
    for process_spans in by_process.values():
        own = self_times(process_spans)
        for span, ns in zip(process_spans, own):
            name = span[0]
            self_s[name] = self_s.get(name, 0.0) + ns / 1e9
            total_s[name] = total_s.get(name, 0.0) + (span[2] - span[1]) / 1e9
            count[name] = count.get(name, 0) + 1
            if name == "simt.launch" and span[4]:
                issued += span[4]["issued"]

    def c(name):
        return counters.get(name, 0)

    launch_s = self_s.get("simt.launch", 0.0)
    metrics = {
        "frontend.lower_s": self_s.get("frontend.lower", 0.0),
        "frontend.modules": count.get("frontend.lower", 0),
        "core.compile_s": self_s.get("core.compile", 0.0)
        + self_s.get("core.compile_cached", 0.0),
        "core.compiles": count.get("core.compile", 0),
        "program_cache.hit_ratio": _ratio(
            c("program_cache.hit"), c("program_cache.hit") + c("program_cache.miss")),
        "passmgr.analysis_hit_ratio": _ratio(
            c("passmgr.analysis_hit"),
            c("passmgr.analysis_hit") + c("passmgr.analysis_recompute")),
        "fastpath.decode_s": self_s.get("fastpath.decode", 0.0),
        "fastpath.decode_hit_ratio": _ratio(
            c("fastpath.decode_cache_hit"),
            c("fastpath.decode_cache_hit") + c("fastpath.decode_cache_miss")),
        "simt.launch_s": launch_s,
        "simt.launches": count.get("simt.launch", 0),
        "simt.issued": issued,
        "simt.issues_per_s": _ratio(issued, launch_s),
        "segments.coverage": _ratio(
            c("segments.fused_instrs"),
            c("segments.fused_instrs") + c("segments.fallback_instrs")),
        "jit.tierups": c("jit.tierups"),
        "jit.executed_segments": c("jit.executed_segments"),
        "jit.deopts": c("jit.deopts"),
        "soa.vector_frac": _ratio(
            c("soa.vector_chunks"), c("soa.vector_chunks") + c("soa.fallback_chunks")),
        "batch.epochs": c("batch.epochs"),
        "batch.rollback_ratio": _ratio(c("batch.rollbacks"), c("batch.epochs")),
        "spec.rounds": c("spec.rounds"),
        "spec.commit_ratio": _ratio(
            c("spec.committed"), c("spec.committed") + c("spec.rolled_back")),
        "spec.nonforced_slots": c("spec.nonforced_tie")
        + c("spec.nonforced_multi_group") + c("spec.nonforced_observed"),
        "grid.launch_s": total_s.get("grid.launch", 0.0),
        "grid.merge_s": self_s.get("grid.launch", 0.0),
        "grid.pool_sharded_ctas": c("grid.pool_sharded_ctas"),
        "pool.tasks": c("pool.tasks"),
        "pool.start_s": pool_start_s,
        **{f"harness.{name}_s": total_s.get(f"harness.{name}", 0.0) for name in FIGURES},
        "harness.render_s": sum(self_s.get(f"harness.{name}", 0.0) for name in FIGURES),
        "workloads.setup_s": self_s.get("workloads.setup", 0.0),
    }
    return {"metrics": metrics, "check": _measured_check(recorder.spans)}


def _measured_check(spans):
    """The layer spans' self times inside ``bench.measure``.

    ``unattributed_s`` is the root's own self time: measured time that no
    layer span covers (machine and grid-launch construction, memory
    allocation, checksums, the benchmark's own result capture).
    """
    roots = [i for i, span in enumerate(spans) if span[0] == "bench.measure"]
    if not roots:
        return None
    root = roots[0]
    own = self_times(spans)
    layer_s = sum(own[i] for i in subtree(spans, root) if i != root) / 1e9
    return {
        "measured_span_s": (spans[root][2] - spans[root][1]) / 1e9,
        "layer_self_s": layer_s,
        "unattributed_s": own[root] / 1e9,
        "spans": len(spans),
    }


def span_check(traced_jobs, overhead_s):
    """Is the sum of the layer self times within ``trace.overhead_s`` of
    traced ``wall_s`` on every traced job? A negative overhead (the traced
    jobs ran faster, i.e. host noise exceeded the tracing cost) fails."""
    gap = max(r["host_wall_s"] - r["layers"]["check"]["layer_self_s"] for r in traced_jobs)
    return {"max_gap_s": gap, "trace_overhead_s": overhead_s,
            "within_overhead": gap <= overhead_s}
