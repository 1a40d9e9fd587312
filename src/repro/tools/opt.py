"""opt — run an arbitrary pass pipeline over textual IR.

The pass-manager counterpart of LLVM's ``opt``: read a module (textual IR
by default, or ``.srk`` kernel source), run a pipeline string from
:mod:`repro.core.passmgr`, and print the result::

    python -m repro.tools.opt kernel.ir --pipeline pdom-sync,allocate,verify
    python -m repro.tools.opt kernel.srk --mode sr --report
    python -m repro.tools.opt --list-passes

Debugging aids (the monolithic compiler never had these):

* ``--print-after-all`` dumps the IR after every pass (stderr);
* ``--stop-after PASS`` halts mid-pipeline and prints the partial IR;
* ``--verify-each`` runs the IR verifier after every pass, naming the
  pass that broke the module;
* ``--record-trace FILE`` writes the per-pass IR trace as JSON;
* ``--bisect FILE`` re-runs the pipeline against such a trace and
  reports the first pass whose output diverges.

``-`` reads the module from stdin.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.passmgr import (
    bisect_pipeline,
    list_passes,
    parse_pipeline,
    record_pipeline_trace,
)
from repro.core.pipeline import ReconvergenceCompiler, pipeline_for_mode
from repro.errors import ReproError
from repro.ir.printer import format_module

MODES = ("baseline", "sr", "auto", "none")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.opt",
        description="run a compiler pass pipeline over textual IR",
    )
    parser.add_argument(
        "input", nargs="?", default=None,
        help="module to compile: a .ir/.txt textual-IR file, a .srk kernel "
             "source, or '-' for textual IR on stdin",
    )
    parser.add_argument(
        "--pipeline", default=None, metavar="DESC",
        help="comma-separated pass pipeline, e.g. "
             "'optimize,pdom-sync,deconflict[static],allocate,verify' "
             "(default: the --mode pipeline)",
    )
    parser.add_argument(
        "--mode", default="sr", choices=MODES,
        help="compile mode whose registered pipeline to run when no "
             "--pipeline is given (default: sr)",
    )
    parser.add_argument(
        "--threshold", type=int, default=None,
        help="soft-barrier threshold applied by collect-predictions",
    )
    parser.add_argument(
        "--optimize", action="store_true",
        help="prefix the mode pipeline with the 'optimize' pass",
    )
    parser.add_argument(
        "--no-allocate", action="store_true",
        help="drop the trailing 'allocate' from the mode pipeline",
    )
    parser.add_argument(
        "--emit-ir", action="store_true", help="print the resulting IR"
    )
    parser.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write the resulting IR to FILE instead of stdout",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="print the compile report (predictions, pdom, SR, deconflict)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print per-pass timing spans and analysis cache hit/miss counts",
    )
    parser.add_argument(
        "--list-passes", action="store_true",
        help="list the registered passes and exit",
    )
    parser.add_argument(
        "--print-after-all", action="store_true",
        help="dump the module IR after every pass (stderr)",
    )
    parser.add_argument(
        "--stop-after", default=None, metavar="PASS",
        help="halt the pipeline after the named pass",
    )
    parser.add_argument(
        "--verify-each", action="store_true",
        help="run the IR verifier after every pass",
    )
    parser.add_argument(
        "--record-trace", default=None, metavar="FILE",
        help="write the per-pass IR trace (JSON) for later --bisect",
    )
    parser.add_argument(
        "--bisect", default=None, metavar="FILE",
        help="compare this run against a recorded trace; report the first "
             "diverging pass",
    )
    return parser


def _load_module(path):
    if path is None:
        raise SystemExit("error: no input module (see --help)")
    if path == "-":
        text, name = sys.stdin.read(), "<stdin>"
    else:
        with open(path) as handle:
            text = handle.read()
        name = path
    if path is not None and path.endswith(".srk"):
        from repro.frontend.parser import compile_kernel_source

        return compile_kernel_source(text, module_name=name)
    from repro.ir.parser import parse_module

    return parse_module(text, name=name)


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.list_passes:
        print(list_passes())
        return 0

    description = args.pipeline or pipeline_for_mode(
        args.mode, optimize=args.optimize, allocate=not args.no_allocate
    )

    try:
        parse_pipeline(description)
        module = _load_module(args.input)

        if args.record_trace or args.bisect:
            trace = record_pipeline_trace(module, description)
            if args.record_trace:
                with open(args.record_trace, "w") as handle:
                    json.dump(trace, handle, indent=1)
                print(
                    f"recorded {len(trace)} pass snapshots to "
                    f"{args.record_trace}"
                )
            if args.bisect:
                with open(args.bisect) as handle:
                    golden = json.load(handle)
                result = bisect_pipeline(module, description, golden)
                print(result.describe())
                return 1 if result.divergent else 0
            return 0

        compiler = ReconvergenceCompiler(
            pipeline=description,
            verify_each=args.verify_each or None,
            print_after_all=args.print_after_all or None,
            stop_after=args.stop_after,
        )
        program = compiler.compile(
            module, mode=args.mode, threshold=args.threshold
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = program.report
    if args.report:
        print(report.describe())
        if report.opt_report is not None:
            print("opt:", report.opt_report.describe())
    if args.stats:
        print(f"pipeline: {report.pipeline}")
        for span in report.spans:
            print("  span:", span.describe())
        stats = report.analysis_stats
        print(
            f"analysis cache: {stats.get('hits', 0)} hit(s), "
            f"{stats.get('misses', 0)} miss(es), "
            f"{stats.get('invalidated', 0)} invalidated"
        )
        for name, value in sorted(report.pass_stats.items()):
            print(f"  {name}: {value}")

    text = format_module(program.module)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    elif args.emit_ir or not (args.report or args.stats):
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
