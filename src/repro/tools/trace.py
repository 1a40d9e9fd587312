"""trace — run a kernel or workload under full observability.

Runs one launch with structured events, stall-reason metrics, and compiler
pass spans enabled, then reports where the cycles went::

    python -m repro.tools.trace funccall --summary
    python -m repro.tools.trace funccall -o funccall.json   # chrome://tracing
    python -m repro.tools.trace pathtracer --timeline --width 100
    python -m repro.tools.trace --source examples/kernels/loop_merge.srk \\
        --args 64 --summary
    python -m repro.tools.trace --list

The exported JSON loads directly in ``chrome://tracing`` or
https://ui.perfetto.dev and shows the compiler pipeline (process 0) next
to the simulator's per-warp issue slices, divergence/barrier instants,
and active-lane counters (process 1). See ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.pipeline import MODES, ReconvergenceCompiler
from repro.errors import ReproError
from repro.frontend.parser import compile_kernel_source
from repro.harness.report import (
    counters_table,
    format_table,
    opcode_table,
    stall_table,
    summary_table,
)
from repro.harness.timeline import render_timeline
from repro.obs.chrome_trace import write_chrome_trace
from repro.obs.sinks import ListSink
from repro.simt.machine import GPUMachine
from repro.simt.memory import GlobalMemory
from repro.simt.scheduler import SCHEDULERS
from repro.tools import number
from repro.workloads import get_workload, workload_names


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.trace",
        description=(
            "Run a workload or kernel with full observability (events, "
            "stall metrics, pass spans) and export/report the results."
        ),
    )
    parser.add_argument(
        "workload", nargs="?", default=None,
        help="workload name (see --list); or use --source",
    )
    parser.add_argument(
        "--source", default=None, help="a .srk kernel source file instead"
    )
    parser.add_argument(
        "--list", action="store_true", help="list workload names and exit"
    )
    parser.add_argument("--mode", default="sr", choices=MODES)
    parser.add_argument(
        "--threshold", type=int, default=None,
        help="soft-barrier threshold (default: workload/source choice)",
    )
    parser.add_argument(
        "--scheduler", default="convergence", choices=sorted(SCHEDULERS)
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="launch width (default: workload's, or 32)")
    parser.add_argument("--args", nargs="*", default=[], type=number,
                        help="kernel arguments (with --source)")
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "-o", "--output", default=None,
        help="write a Chrome Trace Event JSON file (chrome://tracing)",
    )
    parser.add_argument(
        "--summary", action="store_true",
        help="print stall attribution, barrier, and opcode tables",
    )
    parser.add_argument(
        "--spans", action="store_true",
        help="print the compiler pass-pipeline spans",
    )
    parser.add_argument(
        "--timeline", action="store_true",
        help="print the ASCII lane-by-time diagram",
    )
    parser.add_argument("--width", type=int, default=96,
                        help="timeline columns (default 96)")
    parser.add_argument("--highlight", default=None,
                        help="timeline block to draw as '#'")
    parser.add_argument("--warp", type=int, default=0,
                        help="warp to render in the timeline")
    return parser


def _run_workload(args, sink):
    workload = get_workload(args.workload)
    threshold = args.threshold if args.threshold is not None else "default"
    compiled = workload.compile(mode=args.mode, threshold=threshold)
    if args.threads is not None:
        workload.n_threads = args.threads
    result = workload.run(
        mode=args.mode,
        threshold=threshold,
        scheduler=args.scheduler,
        seed=args.seed,
        compiled=compiled,
        sink=sink,
        metrics=True,
    )
    return result.launch, compiled.report


def _run_source(args, sink):
    with open(args.source) as handle:
        module = compile_kernel_source(handle.read(), module_name=args.source)
    compiler = ReconvergenceCompiler()
    compiled = compiler.compile(
        module, mode=args.mode, threshold=args.threshold
    )
    kernels = compiled.module.kernels()
    if not kernels:
        raise SystemExit("error: no kernel in module")
    machine = GPUMachine(
        compiled.module, scheduler=args.scheduler, seed=args.seed,
        sink=sink, metrics=True,
    )
    launch = machine.launch(
        kernels[0].name,
        args.threads or 32,
        args=tuple(args.args),
        memory=GlobalMemory(),
    )
    return launch, compiled.report


def _companion_counters(args):
    """Engine-layer counters from an *un-instrumented* re-run.

    The traced launch runs in observing mode, which disables segment
    fusion and independent warps — its engine counters would read zero. A
    second launch without observability shows what the engine actually
    does for this kernel in production configuration (results are
    bit-identical either way; only the engine telemetry differs).
    """
    if args.workload is not None:
        workload = get_workload(args.workload)
        threshold = (
            args.threshold if args.threshold is not None else "default"
        )
        if args.threads is not None:
            workload.n_threads = args.threads
        result = workload.run(
            mode=args.mode, threshold=threshold, scheduler=args.scheduler,
            seed=args.seed,
        )
        return result.launch.counters
    with open(args.source) as handle:
        module = compile_kernel_source(handle.read(), module_name=args.source)
    compiled = ReconvergenceCompiler().compile(
        module, mode=args.mode, threshold=args.threshold
    )
    machine = GPUMachine(
        compiled.module, scheduler=args.scheduler, seed=args.seed
    )
    launch = machine.launch(
        compiled.module.kernels()[0].name,
        args.threads or 32,
        args=tuple(args.args),
        memory=GlobalMemory(),
    )
    return launch.counters


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.list:
        for name in workload_names():
            print(name)
        return 0
    if (args.workload is None) == (args.source is None):
        build_parser().error("give exactly one of WORKLOAD or --source")
    try:
        return _trace(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _trace(args):
    sink = ListSink()
    if args.workload is not None:
        launch, report = _run_workload(args, sink)
    else:
        launch, report = _run_source(args, sink)

    profiler = launch.profiler
    print(
        f"[{args.mode}] {launch.kernel}: SIMT efficiency "
        f"{launch.simt_efficiency:.1%}, cycles {launch.cycles}, "
        f"issued {profiler.issued}, events {len(sink.events)}"
    )

    if args.summary:
        summary = profiler.summary()
        print()
        print(summary_table(
            {k: v for k, v in summary.items() if k != "stall_cycles"}
        ))
        metrics = launch.metrics
        print()
        print(stall_table(metrics.stall_cycles(), metrics.active_cycles()))
        if metrics.barrier_occupancy:
            print()
            rows = [
                (
                    name,
                    metrics.barrier_occupancy[name].count,
                    f"{metrics.barrier_occupancy[name].mean:.1f}",
                    f"{metrics.barrier_wait[name].mean:.1f}"
                    if name in metrics.barrier_wait else "-",
                    metrics.barrier_wait[name].max
                    if name in metrics.barrier_wait else "-",
                )
                for name in sorted(metrics.barrier_occupancy)
            ]
            print(format_table(
                ["barrier", "arrivals", "avg parked", "avg wait", "max wait"],
                rows,
                title="Barriers",
            ))
        print()
        print(opcode_table(summary["opcode_issues"]))
        print()
        print(counters_table(
            _companion_counters(args),
            title="Engine counters (un-instrumented companion run)",
        ))

    if args.spans:
        print()
        print("Compiler pipeline:")
        for span in report.spans:
            print("  " + span.describe())

    if args.timeline:
        print()
        print(render_timeline(
            sink.events,
            warp_id=args.warp,
            width=args.width,
            highlight=args.highlight,
        ))

    if args.output:
        data = write_chrome_trace(
            args.output, events=sink.events, report=report
        )
        print(f"wrote {args.output} ({len(data['traceEvents'])} trace events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
