"""One benchmark job in a fresh process: set up, run the cells, report.

Run by ``run.py``; by hand::

    PYTHONPATH=src python3 perfbench/job.py --workload divergent --seed 1 --out .perfbench/tmp

Writes ``<out>/job.json`` with monotonic time stamps of the end of
set-up and of the last result (the parent computes set-up time from its
own spawn stamp, on the same system-wide clock), the observed cells, the
engine-counter delta, peak resident memory and, with ``--trace``, the
per-layer metrics computed from the spans in :mod:`spans` (the spans
themselves, per process, go to ``<out>/spans.json``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
from oracle import launch_cell  # noqa: E402

#: The divergent slice: loop-carried divergence (mc-gpu, pathtracer),
#: irregular traversals (mummer, optix) and lookup kernels (rsbench,
#: xsbench), in sr mode, four warps per launch.
DIVERGENT_APPS = ("mc-gpu", "mummer", "optix", "pathtracer", "rsbench", "xsbench")
DIVERGENT_SCHEDULERS = ("convergence", "oldest-first", "round-robin")
DIVERGENT_THREADS = 128


def _uses_rand(module):
    from repro.ir.instructions import Opcode

    return any(
        instr.opcode == Opcode.RAND
        for function in module
        for _block, _index, instr in function.instructions()
    )


# ----------------------------------------------------------------------
# Workloads: setup(seed, jobs, recorder) -> state; run(state) -> raw
# results; cells(raw) -> {cell: value}; ``errors`` names the cells that
# raised. Only run() is inside the measured region.
# ----------------------------------------------------------------------
class Figures:
    """``python -m repro.harness --full --seed <seed> --jobs 1``."""

    def __init__(self):
        self.current = None
        self.launches = {}
        #: Host time the launch capture adds to the measured region.
        self.capture_s = 0.0
        self.results = {}
        self.errors = {}
        self.modules = {}

    def setup(self, seed, jobs, recorder):
        from repro.harness import figures
        from repro.harness.__main__ import main
        from repro.simt.machine import GPUMachine

        launch = GPUMachine.launch

        def capture_launch(machine, *args, **kwargs):
            result = launch(machine, *args, **kwargs)
            # Keep only the digest: retained traces would inflate peak_rss_mb.
            start = time.perf_counter()
            self.launches.setdefault(self.current, []).append(
                launch_cell(result.cycles, result.simt_efficiency, result.store_traces())
            )
            self.modules[id(machine.module)] = machine.module
            self.capture_s += time.perf_counter() - start
            return result

        GPUMachine.launch = capture_launch
        for name, fn in list(figures.ALL_FIGURES.items()):
            figures.ALL_FIGURES[name] = self._capture_figure(name, fn)
        if recorder is not None:
            from spans import wrap_figures

            wrap_figures(recorder, figures.ALL_FIGURES)
        return seed, main

    def _capture_figure(self, name, fn):
        from repro.harness.figures import FigureResult

        def figure(*args, **kwargs):
            self.current = name
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # a failed figure is a failed cell
                self.errors[name] = f"{type(exc).__name__}: {exc}"
                return FigureResult(name=name, data=None, text="")
            self.results[name] = result
            return result

        return figure

    def run(self, state):
        seed, main = state
        with contextlib.redirect_stdout(io.StringIO()):
            main(["--full", "--seed", str(seed), "--jobs", "1"])

    @property
    def rand(self):
        return any(_uses_rand(module) for module in self.modules.values())

    def cells(self, _raw):
        cells = {}
        for name, result in self.results.items():
            cells[f"{name}/text"] = result.text
            if name == "funnel":
                funnel = result.data
                cells["funnel/counts"] = [
                    funnel.total, funnel.low_efficiency, funnel.detected,
                    funnel.significant,
                ]
            for index, cell in enumerate(self.launches.get(name, ())):
                cells[f"{name}/launch{index:04d}"] = cell
        return cells


class Divergent:
    """The divergent slice x three schedulers, compiled and decoded ahead."""

    def setup(self, seed, jobs, recorder):
        from repro.simt.costs import DEFAULT_COST_MODEL
        from repro.simt.fastpath import decode_program
        from repro.workloads import get_workload

        self.rand = False
        self.errors = {}
        programs = []
        for name in DIVERGENT_APPS:
            workload = get_workload(name)
            workload.n_threads = DIVERGENT_THREADS
            compiled = workload.compile(mode="sr")
            decode_program(compiled.module, DEFAULT_COST_MODEL)
            self.rand = self.rand or _uses_rand(compiled.module)
            programs.append((name, workload, compiled))
        return seed, programs

    def run(self, state):
        seed, programs = state
        raw = {}
        for name, workload, compiled in programs:
            for scheduler in DIVERGENT_SCHEDULERS:
                try:
                    result = workload.run(
                        mode="sr", scheduler=scheduler, seed=seed, compiled=compiled
                    )
                except Exception as exc:  # raised or over the issue budget
                    self.errors[f"{name}/{scheduler}"] = f"{type(exc).__name__}: {exc}"
                    continue
                raw[f"{name}/{scheduler}"] = result.launch
        return raw

    def cells(self, raw):
        return {
            key: launch_cell(launch.cycles, launch.simt_efficiency, launch.store_traces())
            for key, launch in raw.items()
        }


class Grid:
    """Both grid-corpus apps, 392 CTAs x 256 threads, sharded on the pool."""

    def setup(self, seed, jobs, recorder):
        from repro.harness.parallel import run_tasks, task
        from repro.workloads import GRID_CTA_DIM, GRID_GRID_DIM, grid_corpus

        apps = grid_corpus()
        self.rand = any(_uses_rand(app.module()) for app in apps)
        self.errors = {}
        self.pool_start_s = 0.0
        if jobs > 1:
            start = time.perf_counter()
            run_tasks([task(os.getpid) for _ in range(jobs)], jobs=jobs)
            self.pool_start_s = time.perf_counter() - start
        return seed, jobs, apps, GRID_GRID_DIM, GRID_CTA_DIM

    def run(self, state):
        from repro.simt.grid import GridLaunch
        from repro.simt.memory import GlobalMemory

        seed, jobs, apps, grid_dim, cta_dim = state
        raw = {}
        for app in apps:
            memory = GlobalMemory()
            args = app.setup(memory, grid_dim * cta_dim)
            try:
                result = GridLaunch(
                    app.module(), grid_dim, cta_dim, jobs=jobs, seed=seed
                ).launch(app.kernel_name, args, memory=memory)
            except Exception as exc:
                self.errors[app.name] = f"{type(exc).__name__}: {exc}"
                continue
            raw[app.name] = result
        return raw

    def cells(self, raw):
        from repro.simt.warp import WARP_SIZE

        cells = {}
        for name, result in raw.items():
            cells[f"{name}/grid"] = launch_cell(
                result.cycles, result.simt_efficiency, result.store_traces()
            )
            for record in result.cta_records:
                issued = record["issued"]
                eff = record["active_sum"] / (issued * WARP_SIZE) if issued else 1.0
                cells[f"{name}/cta{record['cta_id']:03d}"] = launch_cell(
                    record["cycles"], eff, record["store_traces"]
                )
        return cells


WORKLOADS = {"figures": Figures, "divergent": Divergent, "grid": Grid}


# ----------------------------------------------------------------------
# Measurements taken around the job
# ----------------------------------------------------------------------
def _hwm_mb(pid):
    """Peak resident set (VmHWM) of ``pid`` in MB, or None."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def peak_rss_mb():
    """Sum of the peak resident sets of this process and its live pool
    workers (an upper bound on their joint peak: forked workers share
    pages with the parent)."""
    import multiprocessing

    own = _hwm_mb(os.getpid())
    if own is None:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = [_hwm_mb(child.pid) for child in multiprocessing.active_children()]
    return own + sum(w for w in workers if w is not None)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # Host speed is sampled over set-up and, in untraced jobs, over the
    # measured region (pool workers included). Traced jobs sample no
    # measured work, so no probe lands inside a layer span.
    sampler = speed.SpeedSampler(str(out))
    sample_measure = not args.trace and not args.setup_only
    sampler.install(fork_children=sample_measure)
    sampler.start(speed.SETUP_SAMPLE_CPU_S)

    import repro.harness  # noqa: F401  (import cost belongs to set-up)
    import repro.workloads  # noqa: F401
    from repro.harness.parallel import shutdown_pool
    from repro.obs import counters

    recorder = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder(out_dir=str(out))
        spans.install(recorder)
    before = counters.snapshot()
    workload = WORKLOADS[args.workload]()

    setup_span = recorder.open("bench.setup") if recorder else None
    state = workload.setup(args.seed, args.jobs, recorder)
    if recorder:
        recorder.close(setup_span)
    sampler.stop()
    t_measure_ns = time.monotonic_ns()
    record = {
        "t_measure_ns": t_measure_ns,
        "setup_probe_ns": [duration for _start, duration in sampler.samples],
    }
    if not args.setup_only:
        measure_span = recorder.open("bench.measure") if recorder else None
        if sample_measure:
            sampler.start()
        raw = workload.run(state)
        sampler.stop()
        if recorder:
            recorder.close(measure_span)
        record["t_end_ns"] = time.monotonic_ns()
        if sample_measure:
            record["speed_probe_ns"] = sampler.durations(t_measure_ns, record["t_end_ns"])
    record["peak_rss_mb"] = peak_rss_mb()
    if not args.setup_only:
        record["cells"] = workload.cells(raw)
        record["errors"] = workload.errors
    record["uses_rand"] = workload.rand
    record["capture_s"] = getattr(workload, "capture_s", 0.0)
    shutdown_pool()
    record["counters"] = counters.delta(counters.snapshot(), before)
    if recorder is not None and not args.setup_only:
        from layers import layer_metrics

        record["layers"] = layer_metrics(
            recorder, record["counters"], getattr(workload, "pool_start_s", 0.0)
        )
        spans_by_pid = {recorder.pid: recorder.spans, **recorder.worker_spans()}
        (out / "spans.json").write_text(json.dumps(spans_by_pid))
    (out / "job.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
