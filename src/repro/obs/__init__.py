"""Unified observability: events, sinks, metrics, spans, exporters.

The ``repro.obs`` package instruments all three layers of the stack:

* **simulator** — typed, cycle-stamped events (:mod:`repro.obs.events`)
  emitted into a pluggable sink (:mod:`repro.obs.sinks`); the default
  :data:`NULL_SINK` keeps the fast path allocation-free;
* **metrics** — stall-reason cycle attribution, barrier occupancy and
  wait-time distributions, divergence-depth histograms
  (:mod:`repro.obs.metrics`), surfaced via ``launch.metrics`` and
  ``Profiler.summary()``;
* **compiler** — timed pass-pipeline spans with IR deltas
  (:mod:`repro.obs.spans`) attached to ``CompileReport.spans``;
* **engine counters** — the always-on, namespaced per-layer counter
  registry (:mod:`repro.obs.counters`): decode-cache and compile-cache
  hits, segment-fusion coverage, how multi-warp launches ran, analysis cache
  traffic, worker-pool reuse — snapshot/diff/merge, rendered by
  ``python -m repro.tools.stats``;
* **post-mortems** — a structured report of each failed launch
  (:mod:`repro.obs.recorder`), attached to its ``LaunchError`` or
  ``DeadlockError``;
* **export** — Chrome Trace Event Format for ``chrome://tracing`` /
  Perfetto (:mod:`repro.obs.chrome_trace`), including merged
  multi-worker timelines, and the ``python -m repro.tools.trace`` CLI.

See ``docs/observability.md`` for the event taxonomy and examples.
"""

from repro.obs.chrome_trace import (
    chrome_trace,
    merged_worker_trace,
    simulator_trace_events,
    span_trace_events,
    write_chrome_trace,
    write_merged_worker_trace,
)
from repro.obs.counters import (
    COUNTERS,
    ENGINE_COUNTERS,
    EngineCounters,
    counter_layers,
)
from repro.obs.recorder import attach_post_mortem
from repro.obs.events import (
    BarrierArriveEvent,
    BarrierReleaseEvent,
    DivergeEvent,
    IssueEvent,
    ReconvergeEvent,
    TraceEvent,
)
from repro.obs.metrics import (
    ACTIVE,
    STALL_BARRIER,
    STALL_DIVERGED,
    STALL_FINISHED,
    STALL_REASONS,
    Histogram,
    LaunchMetrics,
)
from repro.obs.sinks import (
    NULL_SINK,
    CallbackSink,
    EventSink,
    JsonlSink,
    ListSink,
    NullSink,
    ambient_sink,
    set_ambient_sink,
)
from repro.obs.spans import IRStats, Span, SpanRecorder, module_stats

__all__ = [
    "ACTIVE",
    "BarrierArriveEvent",
    "BarrierReleaseEvent",
    "COUNTERS",
    "CallbackSink",
    "DivergeEvent",
    "ENGINE_COUNTERS",
    "EngineCounters",
    "EventSink",
    "Histogram",
    "IRStats",
    "IssueEvent",
    "JsonlSink",
    "LaunchMetrics",
    "ListSink",
    "NULL_SINK",
    "NullSink",
    "ReconvergeEvent",
    "STALL_BARRIER",
    "STALL_DIVERGED",
    "STALL_FINISHED",
    "STALL_REASONS",
    "Span",
    "SpanRecorder",
    "TraceEvent",
    "ambient_sink",
    "attach_post_mortem",
    "chrome_trace",
    "counter_layers",
    "merged_worker_trace",
    "module_stats",
    "set_ambient_sink",
    "simulator_trace_events",
    "span_trace_events",
    "write_chrome_trace",
    "write_merged_worker_trace",
]
