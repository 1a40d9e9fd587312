"""stats — engine-layer counter reports, snapshots, and diffs.

Renders the :mod:`repro.obs.counters` registry as a per-layer table so a
sweep answers "which engine layer did the work" (and, across two saved
snapshots, "which layer moved")::

    # one workload launch: per-launch + process counters
    python -m repro.tools.stats funccall --mode sr

    # a corpus sweep, optionally parallel; save the aggregate snapshot
    python -m repro.tools.stats --sweep --jobs 4 --json counters.json

    # the same sweep with per-worker event capture merged into one
    # chrome://tracing timeline (one process row per worker)
    python -m repro.tools.stats --sweep --jobs 4 --events \\
        --trace merged.json

    # the 10^5-thread grid corpus: per-SM occupancy + grid.* counters
    python -m repro.tools.stats --grid --jobs 4

    # compiled segments over the corpus: jit.* counters plus
    # per-segment code-cache telemetry
    python -m repro.tools.stats --jit --json jit-counters.json

    # which layer moved between two saved snapshots? (--grid snapshots
    # also diff their per-app sm_occupancy)
    python -m repro.tools.stats --diff before.json after.json

Counters describe the engine, not the simulated program: fusion coverage
and cache hit rates vary with knobs (``REPRO_FASTPATH``,
``REPRO_SEGMENTS``, ...) while results stay bit-identical. ``--events``
flips launches into observing mode, which disables segment fusion and
independent warps for the observed launches — use it for timelines, not
for representative fusion or ``batch.*`` counters.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.pipeline import MODES
from repro.harness.parallel import run_tasks_observed, task
from repro.harness.report import (
    counters_delta_table,
    counters_table,
    format_table,
    sm_occupancy_table,
)
from repro.obs import counters as obs_counters
from repro.obs.chrome_trace import write_merged_worker_trace
from repro.simt.scheduler import SCHEDULERS
from repro.workloads import get_workload, workload_names

#: Default sweep corpus: every registered workload in both compile modes.
_SWEEP_MODES = ("baseline", "sr")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.stats",
        description=(
            "Report per-layer engine counters for a launch, a corpus "
            "sweep, or the diff of two saved snapshots."
        ),
    )
    parser.add_argument(
        "workload", nargs="?", default=None,
        help="workload name to run once (see python -m repro.tools.trace "
             "--list); or use --sweep / --diff",
    )
    parser.add_argument("--mode", default="sr", choices=MODES)
    parser.add_argument(
        "--threshold", type=int, default=None,
        help="soft-barrier threshold (default: workload's choice)",
    )
    parser.add_argument(
        "--scheduler", default="convergence", choices=sorted(SCHEDULERS)
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="launch width (default: workload's)")
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "--sweep", action="store_true",
        help="run every workload in baseline and sr mode",
    )
    parser.add_argument(
        "--grid", action="store_true",
        help="run the 10^5-thread grid corpus as grid launches and report "
             "per-SM occupancy plus the grid.* counter layer",
    )
    parser.add_argument(
        "--jit", action="store_true",
        help="run the corpus in sr mode with compiled segments on and "
             "report the jit.* counter layer plus the compiled-segment "
             "telemetry from the code cache",
    )
    parser.add_argument(
        "--jit-source", action="store_true",
        help="with --jit, also print the generated source of the first "
             "compiled segment",
    )
    parser.add_argument(
        "--sm-schedule", action="store_true",
        help="with --grid, also print the full per-SM schedule table "
             "for each app (one row per simulated SM)",
    )
    parser.add_argument(
        "--workloads", nargs="*", default=None, metavar="NAME",
        help="restrict --sweep to these workloads",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for --sweep (default: REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--events", action="store_true",
        help="capture simulator events per worker during --sweep "
             "(needed for --trace; disables fusion in observed launches)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write the merged multi-worker Chrome trace (implies --events)",
    )
    parser.add_argument(
        "--per-worker", action="store_true",
        help="also print one counter-delta table per worker process",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="save the counter snapshot as JSON (for --diff)",
    )
    parser.add_argument(
        "--diff", nargs=2, default=None, metavar=("A", "B"),
        help="print per-layer counter deltas between two saved snapshots",
    )
    return parser


def _save_snapshot(path, counters, meta):
    payload = {"kind": "repro.stats", "counters": counters}
    payload.update(meta)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    print(f"wrote {path}")


def _load_snapshot(path):
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise SystemExit(f"error: {path} is not a counter snapshot")
    return data


def _snapshot_counters(data):
    # Accept tools.stats files and other records with a counters block,
    # and bare snapshots.
    if isinstance(data.get("counters"), dict):
        return data["counters"]
    # No counters block (a bare snapshot, a hand-built file): keep only
    # entries that look like namespaced counters so metadata strings
    # ("benchmark", "seed") never reach the delta and a snapshot with
    # newer layers diffs cleanly against this one.
    return {
        name: value
        for name, value in data.items()
        if isinstance(name, str)
        and "." in name
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    }


def _run_diff(path_a, path_b):
    data_a = _load_snapshot(path_a)
    data_b = _load_snapshot(path_b)
    print(counters_delta_table(
        _snapshot_counters(data_b), _snapshot_counters(data_a),
        title=f"Engine counter deltas ({path_b} - {path_a})",
        skip_zero=True,
    ))
    # --grid snapshots carry per-app peak SM occupancy; diff it when
    # both sides have one.
    occ_a = data_a.get("sm_occupancy")
    occ_b = data_b.get("sm_occupancy")
    if isinstance(occ_a, dict) and isinstance(occ_b, dict):
        rows = []
        for name in sorted(set(occ_a) | set(occ_b)):
            old = int(occ_a.get(name, 0))
            new = int(occ_b.get(name, 0))
            rows.append((name, old, new, f"{new - old:+d}"))
        print()
        print(format_table(
            ["workload", path_a, path_b, "delta"], rows,
            title="Peak resident warps per SM",
        ))
    return 0


def _run_single(args):
    workload = get_workload(args.workload)
    if args.threads is not None:
        workload.n_threads = args.threads
    threshold = args.threshold if args.threshold is not None else "default"
    before = obs_counters.snapshot()
    result = workload.run(
        mode=args.mode, threshold=threshold, scheduler=args.scheduler,
        seed=args.seed,
    )
    moved = obs_counters.delta(obs_counters.snapshot(), before)
    launch = result.launch
    print(
        f"[{args.mode}] {launch.kernel}: SIMT efficiency "
        f"{launch.simt_efficiency:.1%}, cycles {launch.cycles}, "
        f"issued {launch.profiler.issued}"
    )
    print()
    print(counters_table(launch.counters, title="Launch counters"))
    print()
    print(counters_table(moved, title="Process counter delta (this run)"))
    if args.json:
        _save_snapshot(args.json, moved, {
            "workload": args.workload, "mode": args.mode, "seed": args.seed,
        })
    return 0


def _run_grid(args):
    """Grid-corpus sweep: each app as one :class:`GridLaunch` at the
    canonical grid shape. Reports per-app peak SM occupancy and the
    ``grid.*`` counter layer; the pool shards CTAs when the kernel's
    memory effects prove the CTAs disjoint."""
    from repro.simt import GridLaunch
    from repro.simt.memory import GlobalMemory
    from repro.workloads import GRID_CTA_DIM, GRID_GRID_DIM, grid_corpus

    n_threads = GRID_GRID_DIM * GRID_CTA_DIM
    before = obs_counters.snapshot()
    rows = []
    occupancy = {}
    schedules = {}
    for app in grid_corpus():
        memory = GlobalMemory()
        kernel_args = app.setup(memory, n_threads)
        result = GridLaunch(
            app.module(), GRID_GRID_DIM, GRID_CTA_DIM,
            jobs=args.jobs, seed=args.seed,
        ).launch(app.kernel_name, kernel_args, memory=memory)
        occupancy[app.name] = max(
            entry["resident_warps"] for entry in result.sm_schedule
        )
        schedules[app.name] = result.sm_schedule
        rows.append((
            app.name,
            f"{result.grid_dim}x{result.cta_dim}",
            "pool" if result.sharded else "serial",
            result.cycles,
            f"{result.simt_efficiency:.1%}",
            occupancy[app.name],
        ))
    moved = obs_counters.delta(obs_counters.snapshot(), before)

    print(format_table(
        ["app", "grid", "path", "cycles", "simt eff", "peak warps/SM"],
        rows,
        title=f"Grid corpus ({n_threads} threads per app)",
    ))
    if args.sm_schedule:
        for name, schedule in schedules.items():
            print()
            print(sm_occupancy_table(
                schedule, title=f"SM schedule: {name}"
            ))
    print()
    print(counters_table(moved, title="Process counter delta (grid sweep)"))
    if args.json:
        _save_snapshot(args.json, moved, {
            "grid": sorted(occupancy), "grid_dim": GRID_GRID_DIM,
            "cta_dim": GRID_CTA_DIM, "seed": args.seed, "jobs": args.jobs,
            "sm_occupancy": occupancy,
        })
    return 0


def _run_jit(args):
    """Compiled-segment corpus sweep: every workload in sr mode with
    segments on. Reports per-workload ``jit.*`` counters, the code
    cache's per-segment telemetry, and the process counter delta."""
    from repro.engine import engine_config
    from repro.simt import jit as jit_mod

    names = args.workloads or workload_names()
    unknown = sorted(set(names) - set(workload_names()))
    if unknown:
        raise SystemExit(f"error: unknown workloads {unknown}")
    before = obs_counters.snapshot()
    rows = []
    # Compiled segments die with their modules, which nothing else holds
    # when the compile cache is off: keep every result alive until the
    # code-cache table below has been read.
    results = []
    with engine_config(segments=True):
        for name in names:
            start = obs_counters.snapshot()
            result = get_workload(name).run(mode="sr", seed=args.seed)
            results.append(result)
            moved = obs_counters.delta(obs_counters.snapshot(), start)
            rows.append((
                name,
                result.cycles,
                moved.get("jit.executed_segments", 0),
                moved.get("jit.tierups", 0),
                moved.get("jit.compiled_segments", 0),
                moved.get("jit.deopts", 0),
            ))
    moved = obs_counters.delta(obs_counters.snapshot(), before)

    print(format_table(
        ["workload", "cycles", "executed", "lowered", "compiled", "deopts"],
        rows, title=f"Compiled-segment corpus sweep ({len(rows)} workloads)",
    ))
    segments = jit_mod.compiled_segments()
    cache = jit_mod.CODE_CACHE.stats()
    if segments:
        print()
        print(format_table(
            ["segment", "slots"],
            [(r["segment"], r["slots"]) for r in segments],
            title=(f"Code cache ({cache['segments']} segments, "
                   f"{cache['sources']} distinct sources)"),
        ))
    if args.jit_source and segments:
        print()
        print(f"generated source ({segments[0]['segment']}):")
        print(segments[0]["source"])
    del results
    print()
    print(counters_table(moved, title="Process counter delta (JIT sweep)"))
    if args.json:
        _save_snapshot(args.json, moved, {
            "jit": names, "seed": args.seed,
            "code_cache": cache,
            "compiled_segments": [
                {k: v for k, v in record.items() if k != "source"}
                for record in segments
            ],
        })
    return 0


def _sweep_point(name, mode, seed):
    """Module-level sweep task (workers import it by reference)."""
    result = get_workload(name).run(mode=mode, seed=seed)
    return {
        "workload": name,
        "mode": mode,
        "cycles": result.cycles,
        "simt_efficiency": result.simt_efficiency,
    }


def _run_sweep(args):
    names = args.workloads or workload_names()
    unknown = sorted(set(names) - set(workload_names()))
    if unknown:
        raise SystemExit(f"error: unknown workloads {unknown}")
    events = args.events or args.trace is not None
    tasks = [
        task(_sweep_point, name, mode, args.seed)
        for name in names
        for mode in _SWEEP_MODES
    ]
    before = obs_counters.snapshot()
    results, reports = run_tasks_observed(
        tasks, jobs=args.jobs, events=events
    )
    aggregate = obs_counters.merge(rep["counters"] for rep in reports)

    rows = [
        (r["workload"], r["mode"], r["cycles"], f"{r['simt_efficiency']:.1%}")
        for r in results
    ]
    print(format_table(
        ["workload", "mode", "cycles", "simt eff"], rows,
        title=f"Corpus sweep ({len(results)} points)",
    ))
    print()
    print(counters_table(aggregate, title="Aggregate engine counters"))

    workers = sorted({rep["pid"] for rep in reports})
    print()
    print(f"workers: {len(workers)} (pids {workers})")
    if args.per_worker and len(workers) > 1:
        for pid in workers:
            per = obs_counters.merge(
                rep["counters"] for rep in reports if rep["pid"] == pid
            )
            print()
            print(counters_table(per, title=f"Worker pid {pid}"))

    if args.trace:
        # One event stream per worker pid, submission order within each.
        streams, labels = [], []
        for pid in workers:
            streams.append([
                event
                for rep in reports
                if rep["pid"] == pid
                for event in rep["events"]
            ])
            labels.append(f"worker pid {pid}")
        data = write_merged_worker_trace(args.trace, streams, labels=labels)
        print(f"wrote {args.trace} ({len(data['traceEvents'])} trace events)")

    if args.json:
        _save_snapshot(args.json, aggregate, {
            "sweep": names, "modes": list(_SWEEP_MODES), "seed": args.seed,
            "jobs": args.jobs, "events": events,
            "process_delta": obs_counters.delta(
                obs_counters.snapshot(), before
            ),
        })
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.diff is not None:
        return _run_diff(*args.diff)
    if args.grid:
        return _run_grid(args)
    if args.jit:
        return _run_jit(args)
    if args.sweep:
        return _run_sweep(args)
    if args.workload is None:
        build_parser().error(
            "give a WORKLOAD, --sweep, --grid, --jit, or --diff A B"
        )
    return _run_single(args)


if __name__ == "__main__":
    sys.exit(main())
