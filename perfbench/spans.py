"""Layer spans recorded from outside the simulator.

The benchmark never edits ``src/``: it wraps the public entry point of each
layer (:data:`TARGETS`) with a ``perf_counter_ns`` span and keeps the spans
in memory, each with a link to the span that was open when it started.
A layer's *self time* is its spans' duration minus the time their child
spans cover.

Pool workers are forked after :func:`install`, so they inherit the
wrappers. A worker starts with an empty span list and appends its spans
to ``spans-<pid>.jsonl`` in the output directory each time its outermost
span closes (the pool terminates workers without running exit hooks).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

#: (module, attribute path, span name). Functions are replaced in every
#: loaded ``repro`` module that imported them by name; methods are
#: replaced on their class. ``Workload.setup`` is overridden by every
#: workload class, so each override is wrapped too.
TARGETS = (
    ("repro.frontend.parser", "compile_kernel_source", "frontend.lower"),
    ("repro.core.pipeline", "ReconvergenceCompiler.compile", "core.compile"),
    ("repro.core.program_cache", "compile_cached", "core.compile_cached"),
    ("repro.simt.fastpath", "decode_program", "fastpath.decode"),
    ("repro.simt.machine", "GPUMachine.launch", "simt.launch"),
    ("repro.simt.grid", "GridLaunch.launch", "grid.launch"),
    ("repro.simt.grid", "_run_cta_range", "grid.worker_range"),
    ("repro.harness.parallel", "run_tasks", "pool.run_tasks"),
    ("repro.harness.parallel", "run_tasks_observed", "pool.run_tasks"),
    ("repro.workloads.base", "Workload.setup", "workloads.setup"),
    ("repro.workloads.grid_corpus", "GridApp.setup", "workloads.setup"),
)


class SpanRecorder:
    """In-memory spans: ``[name, start_ns, end_ns, parent index, attrs]``.

    The job is single-threaded, so one stack of open spans gives every
    span its parent.
    """

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.spans = []
        self._stack = []
        self.pid = os.getpid()
        self.flushed = 0

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None, parent, None])
        self._stack.append(index)
        return index

    def close(self, index, attrs=None):
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[4] = attrs
        self._stack.pop()
        if not self._stack and os.getpid() != self.pid:
            self._flush_worker()

    def span(self, name, fn, attrs_of=None):
        """``fn`` wrapped in a span named ``name``; ``attrs_of(result)``
        may attach numbers read off the result (e.g. issue counts)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(index, attrs_of(result) if attrs_of and result is not None else None)

        return wrapper

    # -- forked pool workers ------------------------------------------
    def _after_fork(self):
        self.spans = []
        self._stack = []
        self.flushed = 0

    def _flush_worker(self):
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            for span in self.spans[self.flushed:]:
                handle.write(json.dumps(span) + "\n")
        self.flushed = len(self.spans)

    def worker_spans(self):
        """Spans flushed by forked workers, keyed by worker pid."""
        found = {}
        for entry in sorted(os.listdir(self.out_dir)):
            if entry.startswith("spans-") and entry.endswith(".jsonl"):
                pid = int(entry[len("spans-"):-len(".jsonl")])
                with open(os.path.join(self.out_dir, entry)) as handle:
                    found[pid] = [json.loads(line) for line in handle]
        return found


def _issued(result):
    """Issue count of a LaunchResult or GridResult."""
    profiler = getattr(result, "profiler", None)
    issued = profiler.issued if profiler is not None else getattr(result, "issued", 0)
    return {"issued": issued}


_ATTRS = {"simt.launch": _issued, "grid.launch": _issued}


def _rebind(original, wrapper):
    """Point every loaded ``repro`` module attribute that is ``original``
    at ``wrapper`` (modules that did ``from x import fn`` hold their own
    reference)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(recorder):
    """Wrap every :data:`TARGETS` entry point with ``recorder`` spans."""
    for module_name, path, span_name in TARGETS:
        module = importlib.import_module(module_name)
        attrs_of = _ATTRS.get(span_name)
        if "." not in path:
            original = getattr(module, path)
            _rebind(original, recorder.span(span_name, original, attrs_of))
            continue
        class_name, method = path.split(".")
        base = getattr(module, class_name)
        classes = [base] + _subclasses(base)
        for cls in classes:
            if method in vars(cls):
                original = vars(cls)[method]
                setattr(cls, method, recorder.span(span_name, original, attrs_of))
    os.register_at_fork(after_in_child=recorder._after_fork)


def _subclasses(cls):
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def wrap_figures(recorder, figures):
    """Wrap each ``ALL_FIGURES`` entry (the dict the CLI calls through)."""
    for name, fn in list(figures.items()):
        figures[name] = recorder.span(f"harness.{name}", fn)


# ----------------------------------------------------------------------
# Self times
# ----------------------------------------------------------------------
def self_times(spans):
    """Per-span self time in ns: duration minus the children's durations.

    Spans of one process nest (single thread), so children never overlap
    and their durations add up to the part of the parent they cover.
    """
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own


def subtree(spans, root):
    """Indices of ``root`` and every span below it."""
    inside = {root}
    for index in range(root + 1, len(spans)):
        if spans[index][3] in inside:
            inside.add(index)
    return inside
