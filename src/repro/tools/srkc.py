"""srkc — the kernel-language compiler driver.

Compile a ``.srk`` source file through the reconvergence pipeline, dump
the resulting IR, and optionally run it on the simulator::

    python -m repro.tools.srkc kernel.srk --mode sr --emit-ir
    python -m repro.tools.srkc kernel.srk --mode sr --run --threads 64 \\
        --args 100 0 --compare-baseline

Kernel arguments are passed as numbers via ``--args``; memory starts
zeroed, and the final contents of every written cell are printed with
``--dump-memory``.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.pipeline import ReconvergenceCompiler
from repro.errors import ReproError
from repro.frontend.parser import compile_kernel_source
from repro.ir.printer import format_module
from repro.simt.machine import GPUMachine
from repro.simt.memory import GlobalMemory
from repro.tools import number


def build_parser():
    parser = argparse.ArgumentParser(
        prog="srkc", description="kernel-language compiler + simulator driver"
    )
    parser.add_argument("source", help="path to a .srk kernel source file")
    parser.add_argument(
        "--mode",
        default="sr",
        choices=("baseline", "sr", "auto", "none"),
        help="reconvergence strategy (default: sr)",
    )
    parser.add_argument(
        "--threshold",
        type=int,
        default=None,
        help="soft-barrier threshold (default: hard barrier / source attrs)",
    )
    parser.add_argument(
        "--deconfliction", default="dynamic", choices=("dynamic", "static")
    )
    parser.add_argument(
        "--optimize", action="store_true", help="run constfold/DCE/simplify first"
    )
    parser.add_argument("--emit-ir", action="store_true", help="print compiled IR")
    parser.add_argument("--report", action="store_true", help="print the pass report")
    parser.add_argument("--run", action="store_true", help="simulate a launch")
    parser.add_argument("--kernel", default=None, help="kernel to launch (default: first)")
    parser.add_argument("--threads", type=int, default=32)
    parser.add_argument("--args", nargs="*", default=[], type=number,
                        help="kernel arguments")
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "--compare-baseline",
        action="store_true",
        help="also run the PDOM baseline and report the speedup",
    )
    parser.add_argument("--dump-memory", action="store_true")
    return parser


def _launch(program, kernel, threads, args, seed):
    machine = GPUMachine(program.module, seed=seed)
    return machine.launch(kernel, threads, args=args, memory=GlobalMemory())


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _compile_and_run(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _compile_and_run(args):
    with open(args.source) as handle:
        source = handle.read()
    module = compile_kernel_source(source, module_name=args.source)

    compiler = ReconvergenceCompiler(
        deconfliction=args.deconfliction, optimize=args.optimize
    )
    program = compiler.compile(module, mode=args.mode, threshold=args.threshold)

    if args.emit_ir:
        print(format_module(program.module))
    if args.report:
        print(program.report.describe())
        if program.report.opt_report is not None:
            print("opt:", program.report.opt_report.describe())

    if not args.run:
        return 0

    kernels = program.module.kernels()
    if not kernels:
        print("error: no kernel in module", file=sys.stderr)
        return 1
    kernel = args.kernel or kernels[0].name
    kernel_args = tuple(args.args)

    result = _launch(program, kernel, args.threads, kernel_args, args.seed)
    print(
        f"[{args.mode}] SIMT efficiency {result.simt_efficiency:.1%}, "
        f"cycles {result.cycles}, issued {result.profiler.issued}"
    )

    if args.compare_baseline and args.mode != "baseline":
        baseline_prog = compiler.compile(module, mode="baseline")
        baseline = _launch(
            baseline_prog, kernel, args.threads, kernel_args, args.seed
        )
        print(
            f"[baseline] SIMT efficiency {baseline.simt_efficiency:.1%}, "
            f"cycles {baseline.cycles}"
        )
        print(f"speedup: {baseline.cycles / result.cycles:.2f}x")

    if args.dump_memory:
        for address, value in sorted(result.memory.snapshot().items()):
            print(f"  mem[{address}] = {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
