"""CLI: ``python -m repro.harness [figure ...]``.

Without arguments, regenerates every fast figure (the full 520-app corpus
funnel is opt-in via ``funnel`` or ``--full``). Example::

    python -m repro.harness fig7 fig9
    python -m repro.harness --full          # everything, incl. the funnel
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

from repro.harness.figures import ALL_FIGURES
from repro.harness.parallel import collector_policy

FAST_FIGURES = [name for name in ALL_FIGURES if name != "funnel"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        choices=sorted(ALL_FIGURES) + [[]],
        help=f"figures to run (default: all except 'funnel'): {sorted(ALL_FIGURES)}",
    )
    parser.add_argument(
        "--full", action="store_true", help="run everything, including the 520-app funnel"
    )
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for parallelizable figures "
             "(default: $REPRO_JOBS or 1; -1 = one per CPU)",
    )
    parser.add_argument(
        "--pipeline", default=None, metavar="DESC",
        help="compile every workload with this pass pipeline instead of the "
             "mode's registered one (sets REPRO_PIPELINE for this run, "
             "parallel workers included, and restores it on return); see "
             "--list-passes for pass names",
    )
    parser.add_argument(
        "--list-passes", action="store_true",
        help="list the registered compiler passes and exit",
    )
    args = parser.parse_args(argv)

    # An in-process caller (a notebook, a benchmark) gets its collector
    # thresholds and REPRO_PIPELINE back, whichever way the run ends.
    thresholds = collector_policy()
    pipeline = os.environ.get("REPRO_PIPELINE")
    try:
        return _run(args)
    finally:
        gc.set_threshold(*thresholds)
        if pipeline is None:
            os.environ.pop("REPRO_PIPELINE", None)
        else:
            os.environ["REPRO_PIPELINE"] = pipeline


def _run(args):
    if args.list_passes:
        from repro.core.passmgr import list_passes

        print(list_passes())
        return 0
    if args.pipeline:
        from repro.core.passmgr import parse_pipeline

        parse_pipeline(args.pipeline)  # fail fast on a bad description
        os.environ["REPRO_PIPELINE"] = args.pipeline

    # Figures whose experiment bags fan out over worker processes.
    parallel_figures = {"fig7", "fig8", "fig9", "fig10"}
    names = args.figures or (sorted(ALL_FIGURES) if args.full else FAST_FIGURES)
    for name in names:
        fn = ALL_FIGURES[name]
        start = time.time()
        if name in ("table2", "funnel"):
            result = fn()
        elif name in parallel_figures:
            result = fn(seed=args.seed, jobs=args.jobs)
        else:
            result = fn(seed=args.seed)
        elapsed = time.time() - start
        print(f"=== {name} ({elapsed:.1f}s) " + "=" * 40)
        print(result.text)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
