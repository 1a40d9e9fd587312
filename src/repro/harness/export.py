"""Machine-readable export of experiment results (JSON / CSV).

The figure generators return structured data; this module serializes it so
external tooling (plotting scripts, CI dashboards) can consume the
reproduction's measurements. ``python -m repro.harness.export`` writes one
JSON file with every fast figure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from repro.harness.experiment import compare_all, threshold_sweep
from repro.obs import counters as obs_counters
from repro.workloads import FIGURE7_WORKLOADS, get_workload

#: Workloads whose full observability summary ships with the export, with
#: scaled-down sizes so the extra instrumented runs stay cheap.
SUMMARY_WORKLOADS = {
    "funccall": {"iterations": 12},
    "mcb": {"steps": 16},
}


def comparison_rows_to_dicts(rows):
    return [
        {
            "workload": r.workload,
            "pattern": r.pattern,
            "baseline_eff": r.baseline_eff,
            "sr_eff": r.sr_eff,
            "efficiency_gain": r.efficiency_gain,
            "baseline_cycles": r.baseline_cycles,
            "sr_cycles": r.sr_cycles,
            "speedup": r.speedup,
            "threshold": r.threshold,
            "checksum_ok": r.checksum_ok,
        }
        for r in rows
    ]


def sweep_to_dicts(baseline, points):
    return {
        "baseline": {
            "simt_efficiency": baseline.simt_efficiency,
            "cycles": baseline.cycles,
        },
        "points": [
            {
                "threshold": p.threshold,
                "simt_efficiency": p.simt_efficiency,
                "cycles": p.cycles,
                "speedup": p.speedup,
            }
            for p in points
        ],
    }


def collect_summaries(seed=2020, workloads=None):
    """Per-workload launch summaries with stall-reason attribution.

    Runs each workload under ``metrics=True`` and merges the profiler's
    ``summary()`` (issue counts, efficiency, per-opcode breakdown) with the
    stall/barrier attribution from :class:`repro.obs.LaunchMetrics`.
    """
    if workloads is None:
        workloads = SUMMARY_WORKLOADS
    summaries = {}
    for name, params in workloads.items():
        workload = get_workload(name, **params)
        result = workload.run(mode="sr", seed=seed, metrics=True)
        summary = result.launch.profiler.summary()
        summary["metrics"] = result.launch.metrics.summary()
        summaries[name] = summary
    return summaries


def collect_results(seed=2020, sweep_workloads=("pathtracer", "xsbench"),
                    summary_workloads=None, jobs=None):
    """All fast-figure measurements as one JSON-serializable dict."""
    before = obs_counters.snapshot()
    rows = compare_all(FIGURE7_WORKLOADS, seed=seed, jobs=jobs)
    sweeps = {}
    for name in sweep_workloads:
        baseline, points = threshold_sweep(name, seed=seed, jobs=jobs)
        sweeps[name] = sweep_to_dicts(baseline, points)
    summaries = collect_summaries(seed=seed, workloads=summary_workloads)
    return {
        "figure7_8": comparison_rows_to_dicts(rows),
        "figure9": sweeps,
        "summaries": summaries,
        # What the engine did to produce this export (repro.obs.counters):
        # cache traffic, fusion coverage, independent warps, pool reuse.
        "engine_counters": obs_counters.delta(
            obs_counters.snapshot(), before
        ),
        "seed": seed,
    }


def summaries_to_csv(summaries):
    """Launch summaries as flat CSV rows (one row per workload × stall
    reason, plus an ``active`` row each)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["workload", "reason", "lane_cycles",
                     "simt_efficiency", "avg_active_lanes", "cycles"])
    for name, summary in summaries.items():
        metrics = summary.get("metrics", {})
        rows = {"active": metrics.get("active_lane_cycles", 0)}
        rows.update(summary.get("stall_cycles", {}))
        for reason, cycles in rows.items():
            writer.writerow([
                name, reason, cycles,
                f"{summary['simt_efficiency']:.6f}",
                f"{summary['avg_active_lanes']:.3f}",
                summary["cycles"],
            ])
    return buffer.getvalue()


def to_csv(rows):
    """Figure 7/8 rows as CSV text."""
    dicts = comparison_rows_to_dicts(rows)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(dicts[0]))
    writer.writeheader()
    writer.writerows(dicts)
    return buffer.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--output", default="results.json")
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "--summary-csv", default=None,
        help="also write the stall-attribution summaries as CSV",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the sweeps (default: $REPRO_JOBS or 1)",
    )
    args = parser.parse_args(argv)
    results = collect_results(seed=args.seed, jobs=args.jobs)
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {args.output}")
    if args.summary_csv:
        with open(args.summary_csv, "w") as handle:
            handle.write(summaries_to_csv(results["summaries"]))
        print(f"wrote {args.summary_csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
