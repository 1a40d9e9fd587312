"""The standard pass suite, as registered :class:`~repro.core.passmgr.Pass`es.

Every transform of the Section 4 pipeline (and the classic ``repro.opt``
optimizations) is wrapped here as a named pass so pipelines can be
described textually, reordered, bisected, and extended. The wrapped
implementations are unchanged — these classes only adapt them to the
pass-manager protocol (shared :class:`~repro.core.primitives.BarrierNamer`,
:class:`~repro.core.passmgr.AnalysisManager` lookups, report recording,
``preserves()`` declarations).

Mode pipelines (see :data:`repro.core.pipeline.MODE_PIPELINES`)::

    baseline  pdom-sync,strip-directives[,allocate,verify]
    sr        collect-predictions,pdom-sync,sr-insert,deconflict,
              strip-directives[,allocate,verify]
    auto      autodetect,collect-predictions,pdom-sync,sr-insert,
              deconflict,strip-directives[,allocate,verify]
    none      strip-directives[,allocate,verify]
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.allocation import allocate_module
from repro.core.deconfliction import (
    deconflict,
    deconflict_interprocedural,
)
from repro.core.directives import collect_predictions, strip_directives
from repro.core.insertion import insert_speculative_reconvergence
from repro.core.interprocedural import insert_interprocedural_sr
from repro.core.passmgr import (
    ALL_ANALYSES,
    FunctionPass,
    Pass,
    register_pass,
)
from repro.core.pdom_sync import insert_pdom_sync
from repro.core.softbarrier import set_prediction_threshold
from repro.ir.verifier import verify_module

__all__ = [
    "AllocatePass",
    "AutodetectPass",
    "CollectPredictionsPass",
    "ConstFoldPass",
    "DcePass",
    "DeconflictPass",
    "LintPass",
    "OptReport",
    "OptimizePass",
    "PdomSyncPass",
    "SetThresholdPass",
    "SimplifyCfgPass",
    "SrInsertPass",
    "StripDirectivesPass",
    "VerifyPass",
    "run_opt_fixpoint",
]


# ----------------------------------------------------------------------
# Classic optimizations (repro.opt)
# ----------------------------------------------------------------------


@dataclass
class OptReport:
    """Per-pass change counts across fixpoint iterations."""

    iterations: int = 0
    changes: dict = field(default_factory=dict)   # pass name -> total count

    @property
    def total_changes(self):
        return sum(self.changes.values())

    def describe(self):
        parts = [f"{name}: {count}" for name, count in self.changes.items()]
        return f"{self.iterations} iteration(s); " + ", ".join(parts)


def run_opt_fixpoint(module, max_iterations=5, verify=True):
    """Run constfold + DCE + simplify-cfg to a fixpoint, in place.

    The classic-optimization fixpoint loop, usable without a pipeline
    context (tools, benchmarks); :class:`OptimizePass` wraps it for
    pipeline descriptions. Safe to run either before the reconvergence
    pipeline (labels and ``predict`` directives are anchors the passes
    preserve) or after it (barrier ops are side effects that never fold
    or die). Returns an :class:`OptReport`.
    """
    from repro.opt import dce_module, fold_module, simplify_module

    passes = (
        ("constfold", fold_module),
        ("dce", dce_module),
        ("simplify-cfg", simplify_module),
    )
    report = OptReport(changes={name: 0 for name, _ in passes})
    for _ in range(max_iterations):
        round_changes = 0
        for name, pass_fn in passes:
            count = pass_fn(module)
            report.changes[name] += count
            round_changes += count
            if verify:
                verify_module(module)
        report.iterations += 1
        if round_changes == 0:
            break
    return report


@register_pass
class OptimizePass(Pass):
    """The classic-optimization fixpoint as a single registered pass."""

    name = "optimize"
    description = "constfold + DCE + simplify-cfg to a fixpoint (repro.opt)"
    options = ("max_iterations", "verify")
    max_iterations = 5
    verify = True

    def run(self, module, ctx):
        ctx.report.opt_report = run_opt_fixpoint(
            module, max_iterations=self.max_iterations, verify=self.verify
        )


class _CountingPass(Pass):
    """Base for single optimizations that return a change count."""

    def _record(self, ctx, count):
        stats = ctx.report.pass_stats
        stats[self.name] = stats.get(self.name, 0) + count

    def run(self, module, ctx):
        self._record(ctx, self.transform(module))

    @staticmethod
    def transform(module):
        raise NotImplementedError


@register_pass
class ConstFoldPass(_CountingPass):
    name = "constfold"
    description = "fold constant expressions (one round, no fixpoint)"

    @staticmethod
    def transform(module):
        from repro.opt.constfold import fold_module

        return fold_module(module)


@register_pass
class DcePass(_CountingPass):
    name = "dce"
    description = "delete dead pure instructions (one round)"

    @staticmethod
    def transform(module):
        from repro.opt.dce import dce_module

        return dce_module(module)


@register_pass
class SimplifyCfgPass(_CountingPass):
    name = "simplify-cfg"
    description = "merge straight-line blocks, fold trivial branches"

    @staticmethod
    def transform(module):
        from repro.opt.simplify_cfg import simplify_module

        return simplify_module(module)


# ----------------------------------------------------------------------
# The Section 4 reconvergence suite
# ----------------------------------------------------------------------


@register_pass
class AutodetectPass(Pass):
    """Automatic prediction detection (Section 4.5).

    Strips any user directives first (auto mode replaces the user's
    predictions with the heuristics'), then annotates the best candidates.
    Options override the compile call's ``auto_options``.
    """

    name = "autodetect"
    description = "detect + annotate SR candidates (Section 4.5 heuristics)"
    options = (
        "max_per_function",
        "auto_threshold",
        "min_score",
        "trip",
        "memory_penalty",
        "efficiency_cutoff",
    )

    def run(self, module, ctx):
        from repro.core.autodetect import detect_and_annotate

        for function in module:
            strip_directives(function)
        options = dict(ctx.auto_options or {})
        options.update(self.option_values)
        ctx.report.auto_candidates = detect_and_annotate(module, **options)


@register_pass
class SetThresholdPass(FunctionPass):
    """Force a soft-barrier threshold onto ``Predict`` directives
    (:mod:`repro.core.softbarrier`); ``k`` unset restores hard barriers."""

    name = "set-threshold"
    description = "mark Predict directives with a soft threshold k"
    options = ("k", "label")
    positional_option = "k"
    k = None
    label = None

    def run_on_function(self, function, module, ctx):
        set_prediction_threshold(function, self.k, label=self.label)

    def preserves(self):
        return ALL_ANALYSES


@register_pass
class CollectPredictionsPass(FunctionPass):
    """Gather ``Predict`` directives into the context before PDOM
    insertion shifts instruction indices; applies the compile call's
    ``threshold`` to every directive first."""

    name = "collect-predictions"
    description = "apply threshold and collect Predict directives"

    def run_on_function(self, function, module, ctx):
        if ctx.threshold is not None:
            set_prediction_threshold(function, ctx.threshold)
        predictions = collect_predictions(function)
        if predictions:
            ctx.predictions_by_fn[function.name] = predictions
            ctx.report.predictions.extend(predictions)

    def preserves(self):
        return ALL_ANALYSES


@register_pass
class PdomSyncPass(Pass):
    """Baseline post-dominator synchronization (Section 2 / Figure 1a).

    Consumes the shared ``divergence`` analysis; inserts only barrier
    operations (no CFG or register changes), so every cached analysis
    survives it.
    """

    name = "pdom-sync"
    description = "join/wait barriers at divergent branches' post-dominators"
    options = ("assume_all_divergent",)
    assume_all_divergent = None

    def run(self, module, ctx):
        assume = self.assume_all_divergent
        if assume is None:
            assume = ctx.assume_all_divergent
        divergence = None if assume else ctx.analyses.get("divergence")
        for function in module:
            ctx.report.pdom_reports[function.name] = insert_pdom_sync(
                function,
                namer=ctx.namer,
                divergence=None if divergence is None
                else divergence.get(function.name),
                assume_all_divergent=assume,
            )

    def preserves(self):
        return ALL_ANALYSES


@register_pass
class SrInsertPass(Pass):
    """Speculative Reconvergence insertion per collected prediction
    (Sections 4.2 and 4.4); interprocedural predictions also touch the
    callee, so this is a module pass."""

    name = "sr-insert"
    description = "insert SR join/wait/rejoin/cancel per Predict directive"

    def run(self, module, ctx):
        for function in module:
            predictions = ctx.predictions_by_fn.get(function.name, ())
            sr_barriers = []
            for prediction in predictions:
                if prediction.is_interprocedural:
                    sub = insert_interprocedural_sr(
                        module, function, prediction, namer=ctx.namer
                    )
                else:
                    sub = insert_speculative_reconvergence(
                        function, prediction, namer=ctx.namer
                    )
                ctx.report.sr_reports.append(sub)
                sr_barriers.append(sub.barrier)
                if sub.exit_barrier:
                    sr_barriers.append(sub.exit_barrier)
            if sr_barriers:
                ctx.sr_barriers_by_fn[function.name] = sr_barriers


@register_pass
class DeconflictPass(Pass):
    """Deconfliction (Section 4.3, Figure 5): resolve SR-vs-PDOM barrier
    conflicts per function, then call-site conflicts of *soft*
    interprocedural barriers. Strategy defaults to the compiler's."""

    name = "deconflict"
    description = "resolve SR barrier conflicts (dynamic cancels or static)"
    options = ("strategy",)
    positional_option = "strategy"
    strategy = None

    def run(self, module, ctx):
        strategy = self.strategy or ctx.deconfliction
        for function in module:
            sr_barriers = ctx.sr_barriers_by_fn.get(function.name)
            if sr_barriers:
                ctx.report.deconfliction_reports.append(
                    deconflict(function, sr_barriers, strategy=strategy)
                )
        # A soft interprocedural SR barrier waits at its callee's entry,
        # invisible to the per-function analysis above; its conflicts are
        # resolved at the call sites instead.
        for sub in ctx.report.sr_reports:
            if getattr(sub, "callee", None) and sub.threshold is not None:
                interproc = deconflict_interprocedural(
                    module.function(sub.caller),
                    sub.barrier,
                    sub.callee,
                    exit_barrier=sub.exit_barrier,
                    strategy=strategy,
                )
                if interproc.conflicts:
                    ctx.report.deconfliction_reports.append(interproc)


@register_pass
class StripDirectivesPass(FunctionPass):
    """Remove ``predict`` pseudo-instructions (they never reach the
    simulator). Deletes only directive instructions — no CFG, register,
    or barrier change — so every cached analysis survives."""

    name = "strip-directives"
    description = "remove Predict pseudo-instructions"

    def run_on_function(self, function, module, ctx):
        strip_directives(function)

    def preserves(self):
        return ALL_ANALYSES


@register_pass
class AllocatePass(Pass):
    """Barrier register allocation: color abstract barrier names onto the
    16 physical registers (cross-function barriers pinned consistently)."""

    name = "allocate"
    description = "graph-color abstract barriers onto B0..B15"

    def run(self, module, ctx):
        ctx.report.allocation = allocate_module(module)

    def preserves(self):
        return ALL_ANALYSES


@register_pass
class VerifyPass(Pass):
    """Run the IR verifier over the whole module (read-only)."""

    name = "verify"
    description = "verify module IR invariants"

    def run(self, module, ctx):
        verify_module(module)

    def preserves(self):
        return ALL_ANALYSES


@register_pass
class LintPass(Pass):
    """Static barrier lint (read-only diagnostics): orphan waits,
    stranded memberships, unresolved conflicts. Findings are recorded on
    ``report.pass_stats['lint']`` as description strings."""

    name = "lint"
    description = "report orphan waits / stranded joins / unresolved conflicts"

    def run(self, module, ctx):
        from repro.core.barrier_lint import lint_module

        findings = lint_module(module)
        ctx.report.pass_stats["lint"] = [f.describe() for f in findings]

    def preserves(self):
        return ALL_ANALYSES
