"""The paper's contribution: the Speculative Reconvergence pass suite."""

from repro.core.allocation import (
    PHYSICAL_BARRIERS,
    allocate_barriers,
    allocate_module,
    color_barriers,
)
from repro.core.autodetect import (
    Candidate,
    annotate,
    detect_and_annotate,
    detect_candidates,
)
from repro.core.autotune import TuneResult, tune_threshold, tune_workload
from repro.core.barrier_lint import LintFinding, lint_function, lint_module
from repro.core.barrier_liveness import BarrierLiveness
from repro.core.conflicts import Conflict, ConflictAnalysis, literal_barriers
from repro.core.deconfliction import (
    DYNAMIC,
    STATIC,
    DeconflictionReport,
    deconflict,
    remove_barrier_ops,
)
from repro.core.directives import (
    Prediction,
    collect_predictions,
    find_label_block,
    strip_directives,
)
from repro.core.insertion import InsertionReport, insert_speculative_reconvergence
from repro.core.interprocedural import (
    InterproceduralReport,
    insert_interprocedural_sr,
    make_wrapper,
)
from repro.core.joined_barriers import JoinedBarriers
from repro.core.passmgr import (
    ALL_ANALYSES,
    PASS_REGISTRY,
    AnalysisManager,
    BisectResult,
    FunctionPass,
    Pass,
    PassContext,
    PassManager,
    PassRegistry,
    PassSpec,
    PipelineError,
    bisect_pipeline,
    default_pipeline,
    format_pipeline,
    list_passes,
    parse_pipeline,
    record_pipeline_trace,
    register_analysis,
    register_pass,
)
from repro.core import passes as _passes  # noqa: F401  (registers the suite)
from repro.core.pdom_sync import PdomSyncReport, insert_pdom_sync
from repro.core.pipeline import (
    MODE_PIPELINES,
    MODES,
    CompiledProgram,
    CompileReport,
    ReconvergenceCompiler,
    compile_baseline,
    compile_sr,
    pipeline_for_mode,
)
from repro.core.program_cache import compile_cached
from repro.core.primitives import (
    BarrierNamer,
    cancel_barrier,
    join_barrier,
    rejoin_barrier,
    wait_barrier,
    wait_barrier_soft,
)
from repro.core.regions import PredictionRegion, compute_region
from repro.core.softbarrier import (
    expand_fig6_style,
    set_prediction_threshold,
    soften_waits,
)

__all__ = [
    "ALL_ANALYSES",
    "AnalysisManager",
    "BarrierLiveness",
    "BarrierNamer",
    "BisectResult",
    "Candidate",
    "CompileReport",
    "CompiledProgram",
    "Conflict",
    "ConflictAnalysis",
    "DYNAMIC",
    "DeconflictionReport",
    "FunctionPass",
    "InsertionReport",
    "InterproceduralReport",
    "JoinedBarriers",
    "MODES",
    "MODE_PIPELINES",
    "PASS_REGISTRY",
    "PHYSICAL_BARRIERS",
    "Pass",
    "PassContext",
    "PassManager",
    "PassRegistry",
    "PassSpec",
    "PdomSyncReport",
    "PipelineError",
    "Prediction",
    "PredictionRegion",
    "ReconvergenceCompiler",
    "TuneResult",
    "STATIC",
    "bisect_pipeline",
    "default_pipeline",
    "format_pipeline",
    "list_passes",
    "parse_pipeline",
    "pipeline_for_mode",
    "record_pipeline_trace",
    "register_analysis",
    "register_pass",
    "allocate_barriers",
    "allocate_module",
    "annotate",
    "cancel_barrier",
    "collect_predictions",
    "color_barriers",
    "compile_baseline",
    "compile_cached",
    "compile_sr",
    "compute_region",
    "deconflict",
    "detect_and_annotate",
    "detect_candidates",
    "expand_fig6_style",
    "find_label_block",
    "insert_interprocedural_sr",
    "insert_pdom_sync",
    "insert_speculative_reconvergence",
    "join_barrier",
    "LintFinding",
    "lint_function",
    "lint_module",
    "literal_barriers",
    "make_wrapper",
    "rejoin_barrier",
    "remove_barrier_ops",
    "set_prediction_threshold",
    "soften_waits",
    "strip_directives",
    "tune_threshold",
    "tune_workload",
    "wait_barrier",
    "wait_barrier_soft",
]
