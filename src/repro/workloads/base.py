"""Workload framework: Table 2 benchmarks as kernels on the simulator.

Each workload supplies a kernel (written in the textual kernel language,
annotated with ``predict``/``label`` the way the paper's programmers
annotated CUDA sources), its memory setup, and launch configuration.
``Workload.run`` compiles in a given mode and executes on the simulator,
returning a :class:`WorkloadResult` with the metrics of Figures 7–9.

Workloads use *static* thread coarsening (task = tid + k·n_threads) and
task-keyed ``hash01`` randomness so results are schedule-invariant — the
correctness tests compare memory bit-for-bit across all modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.program_cache import compile_cached
from repro.errors import WorkloadError
from repro.frontend.parser import compile_kernel_source
from repro.simt.machine import GPUMachine
from repro.simt.memory import GlobalMemory

REGISTRY = {}

#: (class, workload name, params) -> lowered module, shared across workload
#: instances. ``get_workload`` builds a fresh instance per call, so without
#: this every sweep point re-parses and re-lowers an identical kernel. Safe
#: because the compiler clones its input and the machines never mutate a
#: module.
_MODULE_CACHE = {}


def register(cls):
    """Class decorator adding a workload to the global registry."""
    if cls.name in REGISTRY:
        raise WorkloadError(f"duplicate workload name {cls.name!r}")
    REGISTRY[cls.name] = cls
    return cls


def workload_names():
    return sorted(REGISTRY)


def get_workload(name, **params):
    try:
        cls = REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; available: {workload_names()}"
        ) from None
    return cls(**params)


def all_workloads(**params):
    return [cls(**params.get(name, {})) for name, cls in sorted(REGISTRY.items())]


@dataclass
class WorkloadResult:
    """Metrics from one compiled-and-simulated workload run."""

    workload: str
    mode: str
    threshold: object
    simt_efficiency: float
    cycles: int
    issued: int
    barrier_issues: int
    checksum: float
    launch: object = field(repr=False, default=None)

    def speedup_over(self, other):
        return other.cycles / self.cycles if self.cycles else float("inf")


class Workload:
    """Base class; subclasses define source, memory, and metadata."""

    #: registry key, e.g. "rsbench"
    name = None
    #: one-line description mirroring Table 2
    description = ""
    #: divergence pattern: "loop-merge", "iteration-delay", or "func-call"
    pattern = None
    #: paper-reported context used in EXPERIMENTS.md
    paper_note = ""
    #: kernel entry point name
    kernel_name = "main"
    #: the threshold the "user" picked (None = hard barrier)
    sr_threshold = None
    #: False when task-to-thread assignment is timing-dependent (dynamic
    #: work queues): per-cell memory then differs across schedules and only
    #: the aggregate checksum is comparable.
    deterministic_memory = True
    #: default launch width (one warp keeps simulations fast; the trends
    #: are per-warp properties)
    n_threads = 32
    #: per-workload parameter defaults
    defaults = {}

    def __init__(self, **params):
        merged = dict(self.defaults)
        unknown = set(params) - set(merged)
        if unknown:
            raise WorkloadError(
                f"{self.name}: unknown parameters {sorted(unknown)}"
            )
        merged.update(params)
        self.params = merged
        self._module = None

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    def source(self):
        """Kernel-language source text (annotated with predict/label)."""
        raise NotImplementedError

    def setup(self, memory):
        """Initialize ``memory``; return the kernel argument tuple."""
        raise NotImplementedError

    def checksum(self, launch):
        """A schedule-invariant digest of the results (default: sum of all
        written memory cells, rounded to tame float noise)."""
        cells = launch.memory.snapshot()
        return round(sum(float(v) for v in cells.values()), 4)

    # ------------------------------------------------------------------
    # Compilation and execution
    # ------------------------------------------------------------------
    def module(self):
        """The lowered (uncompiled) IR module, shared across instances with
        identical parameters (the source text depends only on them)."""
        if self._module is None:
            try:
                key = (type(self), self.name, tuple(sorted(self.params.items())))
                cached = _MODULE_CACHE.get(key)
            except TypeError:
                key = None
                cached = None
            if cached is None:
                cached = compile_kernel_source(
                    self.source(), module_name=self.name
                )
                if key is not None:
                    _MODULE_CACHE[key] = cached
            self._module = cached
        return self._module

    def compile(self, mode="sr", threshold="default", pipeline=None,
                **compiler_options):
        """Compile with the reconvergence pipeline.

        ``threshold="default"`` uses the workload's ``sr_threshold`` (the
        "user's" choice); pass ``None`` explicitly for a hard barrier.
        ``pipeline`` replaces the mode's registered pass pipeline with an
        arbitrary description (see :mod:`repro.core.passmgr`).
        """
        if threshold == "default":
            threshold = self.sr_threshold
        return compile_cached(
            self.module(), mode=mode, threshold=threshold, pipeline=pipeline,
            **compiler_options
        )

    def run(
        self,
        mode="sr",
        threshold="default",
        scheduler="convergence",
        seed=2020,
        compiled=None,
        auto_options=None,
        pipeline=None,
        sink=None,
        metrics=False,
        **compiler_options,
    ):
        """Compile (unless ``compiled`` given) and simulate one launch.

        ``threshold="default"`` uses the workload's ``sr_threshold``;
        ``None`` forces a hard barrier; an int sets a soft threshold.
        ``pipeline`` overrides the mode's registered pass pipeline.
        ``sink``/``metrics`` enable repro.obs observability on the launch
        (both off by default).
        """
        if threshold == "default":
            threshold = self.sr_threshold
        if compiled is None:
            compiled = compile_cached(
                self.module(),
                mode=mode,
                threshold=threshold,
                auto_options=auto_options,
                pipeline=pipeline,
                **compiler_options,
            )
        memory = GlobalMemory()
        args = self.setup(memory)
        machine = GPUMachine(
            compiled.module, scheduler=scheduler, seed=seed,
            sink=sink, metrics=metrics,
        )
        launch = machine.launch(
            self.kernel_name, self.n_threads, args=args, memory=memory
        )
        return WorkloadResult(
            workload=self.name,
            mode=mode,
            threshold=threshold,
            simt_efficiency=launch.simt_efficiency,
            cycles=launch.cycles,
            issued=launch.profiler.issued,
            barrier_issues=launch.profiler.barrier_issues,
            checksum=self.checksum(launch),
            launch=launch,
        )

    def compare(self, seed=2020, scheduler="convergence"):
        """(baseline, sr) result pair with the workload's own threshold."""
        baseline = self.run(mode="baseline", seed=seed, scheduler=scheduler)
        optimized = self.run(mode="sr", seed=seed, scheduler=scheduler)
        return baseline, optimized

    def __repr__(self):
        return f"<Workload {self.name} {self.params}>"


def repeat_lines(line, count, indent=12):
    """Source-generation helper: ``count`` copies of ``line``."""
    pad = " " * indent
    return "\n".join(pad + line for _ in range(count))
