"""Pass-manager infrastructure for the reconvergence compiler.

The Section 4 pass suite used to be one hard-wired ``compile()`` method;
this module turns it into the architecture every open GPU compiler uses:

* a :class:`Pass` protocol (module- and function-level) with a global
  :class:`PassRegistry` of named passes (``@register_pass``);
* an :class:`AnalysisManager` that caches expensive analyses (divergence,
  CFG views, post-dominators, loops, call graph) keyed by the same
  structure tokens as :mod:`repro.core.program_cache`, invalidated after
  each pass by the pass's :meth:`Pass.preserves` declaration, and shares
  the divergence analysis between the compiles of one input module;
* a textual pipeline syntax —
  ``optimize,autodetect,pdom-sync,sr-insert,deconflict[dynamic],allocate,verify``
  — so each compile mode is a declarative description, parsed by
  :func:`parse_pipeline` and executed by :class:`PassManager`;
* the debugging toolkit the monolith could not support:
  ``print_after_all`` / ``stop_after`` / ``verify_each`` hooks (also
  reachable via ``REPRO_PRINT_AFTER_ALL`` / ``REPRO_STOP_AFTER`` /
  ``REPRO_VERIFY_EACH_PASS``), per-pass :mod:`repro.obs` spans, analysis
  cache hit/miss counters on every :class:`~repro.core.pipeline.CompileReport`,
  and a pass bisector (:func:`record_pipeline_trace` / :func:`bisect_pipeline`)
  that finds the first pass whose output IR diverges from a golden trace.

The registered pass implementations live in :mod:`repro.core.passes`;
:class:`~repro.core.pipeline.ReconvergenceCompiler` is now a thin façade
that resolves mode → pipeline description and runs a PassManager.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass, field

from repro.engine import parse_flag
from repro.errors import TransformError
from repro.ir.function import module_cache, structure_token
from repro.ir.printer import format_module
from repro.ir.verifier import verify_module
from repro.obs.counters import ENGINE_COUNTERS
from repro.obs.spans import SpanRecorder

__all__ = [
    "ALL_ANALYSES",
    "AnalysisManager",
    "BisectResult",
    "FunctionPass",
    "PASS_REGISTRY",
    "Pass",
    "PassContext",
    "PassManager",
    "PassRegistry",
    "PassSpec",
    "PipelineError",
    "bisect_pipeline",
    "default_pipeline",
    "format_pipeline",
    "list_passes",
    "parse_pipeline",
    "record_pipeline_trace",
    "register_analysis",
    "register_pass",
]


class PipelineError(TransformError):
    """A malformed pipeline description or unknown pass name."""


# ----------------------------------------------------------------------
# Analyses
# ----------------------------------------------------------------------

#: name -> callable(module) producing the analysis result.
ANALYSES = {}

#: Sentinel for :meth:`Pass.preserves`: the pass invalidates nothing.
ALL_ANALYSES = "all"


def register_analysis(name, compute):
    """Register a module-level analysis under ``name``."""
    if name in ANALYSES:
        raise PipelineError(f"duplicate analysis name {name!r}")
    ANALYSES[name] = compute
    return compute


def _compute_divergence(module):
    from repro.analysis.divergence import analyze_module_divergence

    return analyze_module_divergence(module)


def _compute_cfg(module):
    from repro.analysis.cfg_utils import CFGView

    return {fn.name: CFGView.of_function(fn) for fn in module}


def _compute_postdominators(module):
    from repro.analysis.cfg_utils import CFGView
    from repro.analysis.dominators import compute_post_dominators

    return {
        fn.name: compute_post_dominators(CFGView.of_function(fn))
        for fn in module
    }


def _compute_loops(module):
    from repro.analysis.cfg_utils import CFGView
    from repro.analysis.loops import compute_loops

    return {fn.name: compute_loops(CFGView.of_function(fn)) for fn in module}


def _compute_callgraph(module):
    from repro.analysis.callgraph import call_graph

    return call_graph(module)


register_analysis("divergence", _compute_divergence)
register_analysis("cfg", _compute_cfg)
register_analysis("postdominators", _compute_postdominators)
register_analysis("loops", _compute_loops)
register_analysis("callgraph", _compute_callgraph)

#: Analyses whose results hold only registers and block names, never a
#: function or module object: a compile may take them from its input
#: module (:class:`AnalysisManager`).
SHARED_ANALYSES = frozenset({"divergence"})


class AnalysisManager:
    """Caches module analyses across passes.

    Each cache entry pairs the result with the module's
    :func:`~repro.ir.function.structure_token` at compute time. A lookup
    whose stored token no longer matches recomputes (out-of-band mutation
    safety net, same idiom as :func:`~repro.ir.function.module_cache`).
    The primary invalidation channel is :meth:`invalidate`, called by the
    :class:`PassManager` after each pass with the pass's ``preserves()``
    set: preserved entries are re-stamped with the current token, all
    others are dropped.

    ``source``, when given, is the module ``module`` was cloned from (a
    compile's input). A miss on one of :data:`SHARED_ANALYSES` that every
    pass so far has preserved, while the clone's structure token still
    equals the source's, is answered from the source's ``"analyses"``
    cache (:func:`~repro.ir.function.module_cache`), computed on the
    source the first time: the baseline and auto compiles of one module
    run one divergence analysis. Such a miss counts in
    ``passmgr.analysis_shared`` as well as in ``misses``.
    """

    def __init__(self, module, spans=None, source=None):
        self.module = module
        self.source = source
        self._cache = {}          # name -> (structure token, result)
        self._spans = spans
        # Analyses whose source results still describe the module.
        self._shared = SHARED_ANALYSES if source is not None else frozenset()
        self.hits = 0
        self.misses = 0
        self.invalidated = 0

    def get(self, name):
        """The cached analysis result for ``name``, computing on miss."""
        try:
            compute = ANALYSES[name]
        except KeyError:
            raise PipelineError(
                f"unknown analysis {name!r}; registered: {sorted(ANALYSES)}"
            ) from None
        token = structure_token(self.module)
        entry = self._cache.get(name)
        if entry is not None and entry[0] == token:
            self.hits += 1
            ENGINE_COUNTERS.passmgr_analysis_hit += 1
            return entry[1]
        self.misses += 1
        ENGINE_COUNTERS.passmgr_analysis_recompute += 1
        if name in self._shared and token == structure_token(self.source):
            shared = module_cache(self.source, "analyses")
            result = shared.get(name)
            if result is None:
                result = shared[name] = self._compute(name, self.source)
            else:
                ENGINE_COUNTERS.passmgr_analysis_shared += 1
        else:
            result = self._compute(name, self.module)
        self._cache[name] = (token, result)
        return result

    def _compute(self, name, module):
        if self._spans is None:
            return ANALYSES[name](module)
        with self._spans.span(f"analysis:{name}"):
            return ANALYSES[name](module)

    def cached(self, name):
        """The cached result for ``name`` (None if absent/stale); no compute."""
        token = structure_token(self.module)
        entry = self._cache.get(name)
        if entry is not None and entry[0] == token:
            return entry[1]
        return None

    def invalidate(self, preserved=frozenset()):
        """Drop every entry not named in ``preserved``.

        ``preserved`` may be :data:`ALL_ANALYSES`; preserved entries are
        re-stamped with the module's current structure token (the pass
        vouches the result is still valid even if the token moved).
        """
        if preserved != ALL_ANALYSES:
            self._shared = self._shared.intersection(preserved)
        if not self._cache:
            return
        token = structure_token(self.module)
        if preserved == ALL_ANALYSES:
            for name, (_, result) in list(self._cache.items()):
                self._cache[name] = (token, result)
            return
        for name in list(self._cache):
            if name in preserved:
                self._cache[name] = (token, self._cache[name][1])
            else:
                del self._cache[name]
                self.invalidated += 1

    def stats(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidated": self.invalidated,
        }


# ----------------------------------------------------------------------
# Pass protocol and registry
# ----------------------------------------------------------------------


class Pass:
    """A named module transform.

    Subclasses set :attr:`name` (registry key), :attr:`description` (one
    line, shown by ``--list-passes``), and optionally :attr:`options`
    (accepted option names) and :attr:`positional_option` (the option a
    bare ``pass[value]`` token maps onto). Options arrive as constructor
    keyword arguments with dashes normalized to underscores.
    """

    name = None
    description = ""
    options = ()
    positional_option = None

    def __init__(self, **options):
        unknown = set(options) - {o.replace("-", "_") for o in self.options}
        if unknown:
            raise PipelineError(
                f"pass {self.name!r}: unknown option(s) {sorted(unknown)}; "
                f"accepts {sorted(self.options) or 'none'}"
            )
        #: Exactly the options that were explicitly supplied (passes that
        #: merge with context-level defaults need to know the difference).
        self.option_values = dict(options)
        for key, value in options.items():
            setattr(self, key, value)

    def run(self, module, ctx):
        """Transform ``module`` in place; shared state lives on ``ctx``."""
        raise NotImplementedError

    def preserves(self):
        """Analyses still valid after this pass ran.

        Return :data:`ALL_ANALYSES` for read-only / attr-only passes, a
        set of analysis names, or (default) the empty set — invalidate
        everything, the conservative choice for structural rewrites.
        """
        return frozenset()

    def describe(self):
        return f"{self.name}: {self.description}"


class FunctionPass(Pass):
    """A pass applied independently to every function of the module."""

    def run(self, module, ctx):
        for function in module:
            self.run_on_function(function, module, ctx)

    def run_on_function(self, function, module, ctx):
        raise NotImplementedError


class PassRegistry:
    """Name -> pass class mapping with deterministic listing order."""

    def __init__(self):
        self._passes = {}

    def add(self, pass_cls):
        name = pass_cls.name
        if not name:
            raise PipelineError(f"pass class {pass_cls.__name__} has no name")
        if name in self._passes:
            raise PipelineError(f"duplicate pass name {name!r}")
        self._passes[name] = pass_cls
        return pass_cls

    def get(self, name):
        try:
            return self._passes[name]
        except KeyError:
            raise PipelineError(
                f"unknown pass {name!r}; registered: {sorted(self._passes)}"
            ) from None

    def __contains__(self, name):
        return name in self._passes

    def names(self):
        return sorted(self._passes)

    def create(self, name, options=None):
        return self.get(name)(**(options or {}))

    def describe(self):
        """One line per registered pass, sorted by name."""
        lines = []
        for name in self.names():
            cls = self._passes[name]
            doc = cls.description or "(no description)"
            opts = ""
            if cls.options:
                opts = "  [" + ",".join(sorted(cls.options)) + "]"
            lines.append(f"{name:<22} {doc}{opts}")
        return "\n".join(lines)


#: The process-wide registry; populated by :mod:`repro.core.passes`.
PASS_REGISTRY = PassRegistry()


def register_pass(cls):
    """Class decorator adding a pass to :data:`PASS_REGISTRY`."""
    return PASS_REGISTRY.add(cls)


def list_passes():
    """The registry listing used by ``--list-passes`` (imports the
    standard passes first so the listing is complete)."""
    import repro.core.passes  # noqa: F401  (registers the standard suite)

    return PASS_REGISTRY.describe()


# ----------------------------------------------------------------------
# Pipeline descriptions
# ----------------------------------------------------------------------


def _parse_option_value(text):
    """Pipeline option literals: int, float, true/false, else string."""
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


@dataclass(frozen=True)
class PassSpec:
    """One parsed pipeline element: a pass name plus its options."""

    name: str
    options: tuple = ()    # sorted (key, value) pairs

    def options_dict(self):
        return {key.replace("-", "_"): value for key, value in self.options}

    def describe(self):
        if not self.options:
            return self.name
        parts = []
        for key, value in self.options:
            parts.append(key if value is True else f"{key}={value}")
        return f"{self.name}[{','.join(parts)}]"


def parse_pipeline(text):
    """Parse ``"a,b[opt],c[k=v,k2=v2]"`` into a list of :class:`PassSpec`.

    Bare bracket tokens map onto the pass's ``positional_option`` (e.g.
    ``deconflict[static]`` ≡ ``deconflict[strategy=static]``). Each
    description is parsed once; a repeat only re-checks that its pass
    names are still registered.
    """
    import repro.core.passes  # noqa: F401  (registers the standard suite)

    specs = _parse_description(text)
    for spec in specs:
        PASS_REGISTRY.get(spec.name)
    return list(specs)


@functools.lru_cache(maxsize=256)
def _parse_description(text):
    specs = []
    text = text.strip()
    if not text:
        return ()
    index = 0
    length = len(text)
    while index < length:
        end = index
        while end < length and text[end] not in ",[":
            end += 1
        name = text[index:end].strip()
        if not name:
            raise PipelineError(f"empty pass name in pipeline {text!r}")
        options = []
        index = end
        if index < length and text[index] == "[":
            close = text.find("]", index)
            if close < 0:
                raise PipelineError(f"unclosed '[' in pipeline {text!r}")
            body = text[index + 1 : close]
            cls = PASS_REGISTRY.get(name)
            for item in filter(None, (s.strip() for s in body.split(","))):
                if "=" in item:
                    key, _, value = item.partition("=")
                    options.append((key.strip(), _parse_option_value(value.strip())))
                else:
                    if cls.positional_option is None:
                        raise PipelineError(
                            f"pass {name!r} takes no positional option "
                            f"(got {item!r})"
                        )
                    options.append((cls.positional_option, _parse_option_value(item)))
            index = close + 1
        else:
            PASS_REGISTRY.get(name)   # validate the name eagerly
        specs.append(PassSpec(name=name, options=tuple(sorted(options))))
        if index < length:
            if text[index] != ",":
                raise PipelineError(
                    f"expected ',' after {name!r} in pipeline {text!r}"
                )
            index += 1
    return tuple(specs)


def format_pipeline(specs):
    """The canonical textual form of a parsed pipeline."""
    return ",".join(spec.describe() for spec in specs)


def default_pipeline():
    """The process-wide pipeline override (``REPRO_PIPELINE``), or None."""
    return os.environ.get("REPRO_PIPELINE") or None


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


@dataclass
class PassContext:
    """Shared state threaded through one pipeline execution."""

    report: object = None            # CompileReport
    namer: object = None             # BarrierNamer shared across passes
    analyses: AnalysisManager = None
    spans: SpanRecorder = None
    mode: str = "sr"
    threshold: object = None
    auto_options: dict = None
    deconfliction: str = "dynamic"
    assume_all_divergent: bool = False
    predictions_by_fn: dict = field(default_factory=dict)
    sr_barriers_by_fn: dict = field(default_factory=dict)

    def __post_init__(self):
        # Standalone PassManager runs (repro.tools.opt, the bisector)
        # build a bare PassContext; give them a live report and namer so
        # every registered pass can run unmodified.
        if self.report is None:
            from repro.core.pipeline import CompileReport

            self.report = CompileReport(mode=self.mode)
        if self.namer is None:
            from repro.core.primitives import BarrierNamer

            self.namer = BarrierNamer()


def _env_flag(name):
    """An on/off debug variable (:func:`repro.engine.parse_flag`); unset
    or empty is off."""
    raw = os.environ.get(name, "")
    return parse_flag(name, raw) if raw.strip() else False


class PassManager:
    """Executes a parsed pipeline over a module.

    Debug hooks (each also has an environment default so any compile in
    the process can be inspected without plumbing flags):

    * ``verify_each`` / ``REPRO_VERIFY_EACH_PASS`` — run the IR verifier
      after every pass and fail fast at the pass that broke the module;
    * ``print_after_all`` / ``REPRO_PRINT_AFTER_ALL`` — dump the module
      IR after every pass (to ``print_stream``, default stderr);
    * ``stop_after`` / ``REPRO_STOP_AFTER`` — halt the pipeline after the
      named pass (first occurrence), leaving the module mid-compilation;
    * ``after_pass`` — callback ``(spec, pass_obj, module)`` run after
      each pass (the bisector and snapshot tools hook in here); it must
      not mutate the module.
    """

    def __init__(
        self,
        pipeline,
        verify_each=None,
        print_after_all=None,
        stop_after=None,
        print_stream=None,
        after_pass=None,
    ):
        if isinstance(pipeline, str):
            pipeline = parse_pipeline(pipeline)
        self.specs = list(pipeline)
        if verify_each is None:
            verify_each = _env_flag("REPRO_VERIFY_EACH_PASS")
        if print_after_all is None:
            print_after_all = _env_flag("REPRO_PRINT_AFTER_ALL")
        if stop_after is None:
            stop_after = os.environ.get("REPRO_STOP_AFTER") or None
        self.verify_each = verify_each
        self.print_after_all = print_after_all
        self.stop_after = stop_after
        self.print_stream = print_stream
        self.after_pass = after_pass

    def run(self, module, ctx=None):
        """Run every pass in order; returns the (mutated) module.

        The context's span recorder gets one span per pass (named after
        the pass), and the analysis manager is invalidated after each
        pass according to its ``preserves()`` declaration. Nothing
        touches the module between passes, so each span's before-stats
        are the previous span's after-stats.
        """
        ctx = ctx or PassContext()
        if ctx.spans is None:
            ctx.spans = SpanRecorder()
        if ctx.analyses is None:
            ctx.analyses = AnalysisManager(module, spans=ctx.spans)
        import repro.core.passes  # noqa: F401  (registers the standard suite)

        stats = None
        for spec in self.specs:
            pass_obj = PASS_REGISTRY.create(spec.name, spec.options_dict())
            with ctx.spans.span(spec.name, module, before=stats) as record:
                pass_obj.run(module, ctx)
            stats = record.after
            ctx.analyses.invalidate(pass_obj.preserves())
            if self.verify_each:
                try:
                    verify_module(module)
                except Exception as exc:
                    raise TransformError(
                        f"IR verification failed after pass "
                        f"{spec.describe()!r}: {exc}"
                    ) from exc
            if self.print_after_all:
                stream = self.print_stream or sys.stderr
                print(f"; IR after {spec.describe()}", file=stream)
                print(format_module(module), file=stream)
            if self.after_pass is not None:
                self.after_pass(spec, pass_obj, module)
            if self.stop_after is not None and spec.name == self.stop_after:
                break
        return module


# ----------------------------------------------------------------------
# Pass bisection: find the first pass diverging from a golden trace
# ----------------------------------------------------------------------


@dataclass
class BisectResult:
    """Outcome of :func:`bisect_pipeline`."""

    divergent: bool
    pass_name: str = None        # first diverging pass (canonical spec text)
    pass_index: int = None
    reason: str = None           # "ir-differs" | "missing-pass" | "extra-pass"

    def describe(self):
        if not self.divergent:
            return "pipelines agree after every pass"
        return (
            f"first divergence after pass #{self.pass_index} "
            f"({self.pass_name}): {self.reason}"
        )


def record_pipeline_trace(module, pipeline, ctx=None):
    """Run ``pipeline`` on a clone of ``module``; return the golden trace.

    The trace is a list of ``{"pass": spec, "ir": text}`` records — the
    formatted module after each pass — suitable for JSON storage and for
    :func:`bisect_pipeline`.
    """
    trace = []

    def snapshot(spec, pass_obj, mod):
        trace.append({"pass": spec.describe(), "ir": format_module(mod)})

    manager = PassManager(pipeline, after_pass=snapshot)
    manager.run(module.clone(), ctx)
    return trace


def bisect_pipeline(module, pipeline, golden_trace, ctx=None):
    """Find the first pass whose output IR diverges from ``golden_trace``.

    ``golden_trace`` is the record list produced by
    :func:`record_pipeline_trace` (possibly loaded from JSON, possibly
    recorded on another machine or an older build). Runs ``pipeline`` on
    a clone of ``module``, comparing the formatted IR after each pass
    against the golden record at the same position, and stops at the
    first mismatch. Returns a :class:`BisectResult`.
    """
    state = {"result": None, "index": 0}

    def compare(spec, pass_obj, mod):
        if state["result"] is not None:
            return
        index = state["index"]
        state["index"] += 1
        text = spec.describe()
        if index >= len(golden_trace):
            state["result"] = BisectResult(
                divergent=True, pass_name=text, pass_index=index,
                reason="extra-pass (golden trace ends earlier)",
            )
            return
        golden = golden_trace[index]
        if golden["pass"] != text:
            state["result"] = BisectResult(
                divergent=True, pass_name=text, pass_index=index,
                reason=f"pipeline mismatch (golden ran {golden['pass']!r})",
            )
            return
        if golden["ir"] != format_module(mod):
            state["result"] = BisectResult(
                divergent=True, pass_name=text, pass_index=index,
                reason="ir-differs",
            )

    manager = PassManager(pipeline, after_pass=compare)
    manager.run(module.clone(), ctx)
    if state["result"] is not None:
        return state["result"]
    if state["index"] < len(golden_trace):
        missing = golden_trace[state["index"]]["pass"]
        return BisectResult(
            divergent=True, pass_name=missing, pass_index=state["index"],
            reason="missing-pass (golden trace continues)",
        )
    return BisectResult(divergent=False)
