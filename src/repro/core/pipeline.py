"""The compiler pipeline tying Section 4 together.

:class:`ReconvergenceCompiler` is a thin façade over the pass manager
(:mod:`repro.core.passmgr`): it resolves the compile mode to a declarative
pipeline description, builds the :class:`~repro.core.passmgr.PassContext`,
and runs a :class:`~repro.core.passmgr.PassManager` over a clone of the
input module. The modes:

* ``baseline`` — PDOM synchronization only; predictions are ignored
  (what the production compiler does today, Figure 1a).
* ``sr`` — PDOM sync + user-guided Speculative Reconvergence with
  deconfliction (the paper's main configuration, dynamic deconfliction).
* ``auto`` — PDOM sync + heuristically detected predictions (Section 4.5).
* ``none`` — no synchronization at all; convergence comes only from the
  scheduler (a stress baseline used in tests).

Every mode is just a pipeline string (see :data:`MODE_PIPELINES`); an
explicit ``pipeline=`` argument — or the ``REPRO_PIPELINE`` environment
variable — replaces the mode's description entirely, so arbitrary pass
orders can be compiled (and simulated) without code changes.

Soft barriers are configured through prediction thresholds
(``Predict`` attrs or the ``threshold`` compile argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.deconfliction import DYNAMIC
from repro.core.passmgr import (
    AnalysisManager,
    PassContext,
    PassManager,
    default_pipeline,
    format_pipeline,
    parse_pipeline,
)
from repro.core.primitives import BarrierNamer
from repro.errors import TransformError
from repro.obs.spans import SpanRecorder

MODES = ("baseline", "sr", "auto", "none")

#: The registered pipeline description for each compile mode (before the
#: optional ``optimize`` prefix and ``allocate``/``verify`` suffix).
MODE_PIPELINES = {
    "baseline": ("pdom-sync", "strip-directives"),
    "sr": (
        "collect-predictions",
        "pdom-sync",
        "sr-insert",
        "deconflict",
        "strip-directives",
    ),
    "auto": (
        "autodetect",
        "collect-predictions",
        "pdom-sync",
        "sr-insert",
        "deconflict",
        "strip-directives",
    ),
    "none": ("strip-directives",),
}


def pipeline_for_mode(mode, optimize=False, allocate=True, verify=True):
    """The textual pipeline a compile mode resolves to."""
    if mode not in MODE_PIPELINES:
        raise TransformError(f"unknown compile mode {mode!r}; use {MODES}")
    parts = []
    if optimize:
        parts.append("optimize")
    parts.extend(MODE_PIPELINES[mode])
    if allocate:
        parts.append("allocate")
    if verify:
        parts.append("verify")
    return ",".join(parts)


@dataclass
class CompileReport:
    """Everything the pipeline did, for inspection and tests."""

    mode: str
    pipeline: str = ""                                    # canonical description
    predictions: list = field(default_factory=list)       # Prediction records
    pdom_reports: dict = field(default_factory=dict)      # fn -> PdomSyncReport
    sr_reports: list = field(default_factory=list)        # InsertionReports
    deconfliction_reports: list = field(default_factory=list)
    allocation: dict = field(default_factory=dict)        # fn -> {abstract: phys}
    auto_candidates: list = field(default_factory=list)
    opt_report: object = None                             # OptReport if optimize=True
    spans: list = field(default_factory=list)             # obs.spans.Span per pass
    analysis_stats: dict = field(default_factory=dict)    # AnalysisManager.stats()
    pass_stats: dict = field(default_factory=dict)        # per-pass extras

    def describe(self, with_spans=False):
        lines = [f"mode={self.mode}"]
        if self.pipeline:
            lines.append(f"  pipeline: {self.pipeline}")
        for candidate in self.auto_candidates:
            lines.append("  auto: " + candidate.describe())
        for prediction in self.predictions:
            lines.append("  " + prediction.describe())
        for name in sorted(self.pdom_reports):
            lines.append(f"  pdom@{name}: " + self.pdom_reports[name].describe())
        for report in self.sr_reports:
            lines.append("  " + report.describe())
        for report in self.deconfliction_reports:
            lines.append("  deconflict: " + report.describe())
        if with_spans:
            for span in self.spans:
                lines.append("  span: " + span.describe())
        return "\n".join(lines)


@dataclass
class CompiledProgram:
    """A compiled module plus its report; ready for the simulator."""

    module: object
    report: CompileReport


class ReconvergenceCompiler:
    """Compiles modules with configurable reconvergence strategies.

    ``pipeline`` (constructor or :meth:`compile` argument) overrides the
    mode's registered pipeline with an arbitrary description; the
    ``REPRO_PIPELINE`` environment variable does the same process-wide.
    ``verify_each`` / ``print_after_all`` / ``stop_after`` forward to
    :class:`~repro.core.passmgr.PassManager` (each also has an
    environment default — see that class).
    """

    def __init__(
        self,
        deconfliction=DYNAMIC,
        assume_all_divergent=False,
        allocate=True,
        verify=True,
        optimize=False,
        pipeline=None,
        verify_each=None,
        print_after_all=None,
        stop_after=None,
    ):
        self.deconfliction = deconfliction
        self.assume_all_divergent = assume_all_divergent
        self.allocate = allocate
        self.verify = verify
        # Run the classic optimization pipeline (constfold/DCE/simplify-cfg)
        # before synchronization insertion; labels and predict directives
        # are anchors those passes preserve.
        self.optimize = optimize
        self.pipeline = pipeline
        self.verify_each = verify_each
        self.print_after_all = print_after_all
        self.stop_after = stop_after

    # ------------------------------------------------------------------
    def resolve_pipeline(self, mode="sr", pipeline=None):
        """The parsed pipeline a compile call would run.

        Priority: explicit ``pipeline`` argument, then the compiler's
        ``pipeline``, then ``REPRO_PIPELINE``, then the mode's registered
        description.
        """
        if mode not in MODES:
            raise TransformError(f"unknown compile mode {mode!r}; use {MODES}")
        description = pipeline or self.pipeline or default_pipeline()
        if description is None:
            description = pipeline_for_mode(
                mode,
                optimize=self.optimize,
                allocate=self.allocate,
                verify=self.verify,
            )
        return parse_pipeline(description)

    def compile(self, module, mode="sr", threshold=None, auto_options=None,
                pipeline=None):
        """Compile a clone of ``module``; the input is never mutated."""
        specs = self.resolve_pipeline(mode, pipeline)
        clone = module.clone()
        report = CompileReport(
            mode=mode, pipeline=format_pipeline(specs)
        )
        # Every pass runs under a timed span recording wall time and the
        # module's blocks/instructions/barriers before -> after.
        spans = SpanRecorder()
        ctx = PassContext(
            report=report,
            namer=BarrierNamer(),
            analyses=AnalysisManager(clone, spans=spans),
            spans=spans,
            mode=mode,
            threshold=threshold,
            auto_options=auto_options,
            deconfliction=self.deconfliction,
            assume_all_divergent=self.assume_all_divergent,
        )
        manager = PassManager(
            specs,
            verify_each=self.verify_each,
            print_after_all=self.print_after_all,
            stop_after=self.stop_after,
        )
        manager.run(clone, ctx)
        report.spans = spans.spans
        report.analysis_stats = ctx.analyses.stats()
        return CompiledProgram(module=clone, report=report)


def compile_baseline(module, **kwargs):
    """Convenience: PDOM-only compile."""
    return ReconvergenceCompiler(**kwargs).compile(module, mode="baseline")


def compile_sr(module, threshold=None, deconfliction=DYNAMIC, **kwargs):
    """Convenience: user-guided Speculative Reconvergence compile."""
    compiler = ReconvergenceCompiler(deconfliction=deconfliction, **kwargs)
    return compiler.compile(module, mode="sr", threshold=threshold)
