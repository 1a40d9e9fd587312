"""Chrome Trace Event Format export (``chrome://tracing`` / Perfetto).

Converts simulator events (:mod:`repro.obs.events`) and compiler pipeline
spans (:mod:`repro.obs.spans`) into the JSON object format that Chrome's
tracer and https://ui.perfetto.dev load directly::

    {"traceEvents": [...], "displayTimeUnit": "ms", ...}

Mapping:

* the compiler is process 0 (one ``X`` slice per pipeline span, wall time
  in microseconds, IR deltas in ``args``);
* the simulator is process 1 with one thread per warp; each issued
  instruction is an ``X`` slice whose timestamp/duration are warp-local
  cycles (rendered as microseconds — 1 cycle = 1 us);
* divergence, barrier arrive/release, and reconvergence are thread-scoped
  instant events; active-lane counts are emitted as counter (``C``)
  events so Perfetto draws the SIMT-occupancy curve.

Use :func:`chrome_trace` for the dict, :func:`write_chrome_trace` for the
file. ``python -m repro.tools.trace`` wires this to workloads.
"""

from __future__ import annotations

import json

__all__ = ["chrome_trace", "write_chrome_trace",
           "simulator_trace_events", "span_trace_events",
           "merged_worker_trace", "write_merged_worker_trace"]

COMPILER_PID = 0
SIMULATOR_PID = 1

#: Worker processes in a merged multi-worker trace start at this pid so
#: they never collide with the compiler (0) / simulator (1) rows.
WORKER_PID_BASE = 10


def _lanes(lanes):
    return sorted(lanes) if lanes else []


def simulator_trace_events(events, pid=SIMULATOR_PID, counters=True):
    """Chrome dicts for an iterable of simulator events (any kinds)."""
    out = []
    warps = set()
    for event in events:
        kind = getattr(event, "kind", None)
        wid = event.warp_id
        warps.add(wid)
        if kind == "issue":
            opcode = getattr(event.opcode, "value", event.opcode)
            out.append({
                "name": f"{opcode} @{event.function}/{event.block}",
                "cat": "sim,issue",
                "ph": "X",
                "ts": event.ts,
                "dur": event.dur,
                "pid": pid,
                "tid": wid,
                "args": {
                    "function": event.function,
                    "block": event.block,
                    "index": event.index,
                    "active": event.active,
                    "lanes": _lanes(event.lanes),
                },
            })
            if counters:
                out.append({
                    "name": f"active lanes (warp {wid})",
                    "cat": "sim",
                    "ph": "C",
                    "ts": event.ts,
                    "pid": pid,
                    "args": {"active": event.active},
                })
        elif kind == "diverge":
            out.append({
                "name": f"diverge @{event.function}/{event.block}",
                "cat": "sim,diverge",
                "ph": "i",
                "s": "t",
                "ts": event.ts,
                "pid": pid,
                "tid": wid,
                "args": {
                    target: _lanes(lanes)
                    for target, lanes in sorted(event.targets.items())
                },
            })
        elif kind == "barrier_arrive":
            out.append({
                "name": f"arrive {event.barrier}",
                "cat": "sim,barrier",
                "ph": "i",
                "s": "t",
                "ts": event.ts,
                "pid": pid,
                "tid": wid,
                "args": {"lanes": _lanes(event.lanes),
                         "parked": event.parked},
            })
        elif kind == "barrier_release":
            out.append({
                "name": f"release {event.barrier}",
                "cat": "sim,barrier",
                "ph": "i",
                "s": "t",
                "ts": event.ts,
                "pid": pid,
                "tid": wid,
                "args": {"lanes": _lanes(event.lanes)},
            })
        elif kind == "reconverge":
            out.append({
                "name": f"reconverge @{event.function}/{event.block}",
                "cat": "sim,reconverge",
                "ph": "i",
                "s": "t",
                "ts": event.ts,
                "pid": pid,
                "tid": wid,
                "args": {"lanes": _lanes(event.lanes)},
            })
    meta = [{
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "args": {"name": "simulator (cycles as us)"},
    }]
    for wid in sorted(warps):
        meta.append({
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": wid,
            "args": {"name": f"warp {wid}"},
        })
    return meta + out


def span_trace_events(spans, pid=COMPILER_PID):
    """Chrome dicts for compiler pipeline spans (wall seconds -> us)."""
    out = [{
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "args": {"name": "compiler pipeline"},
    }, {
        "name": "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": "passes"},
    }]
    for span in spans:
        # An unclosed span (``end`` never stamped) would render with a
        # negative duration, which chrome://tracing rejects; clamp to a
        # zero-length slice and flag it instead of dropping the span.
        duration = span.duration
        args = {"ir_delta": span.ir_delta}
        if duration < 0:
            duration = 0.0
            args["unclosed"] = True
        out.append({
            "name": span.name,
            "cat": "compile",
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": duration * 1e6,
            "pid": pid,
            "tid": 0,
            "args": args,
        })
    return out


def chrome_trace(events=None, report=None, counters=True):
    """Build the Chrome Trace Event JSON object.

    Args:
        events: an iterable of simulator events (e.g. ``ListSink.events``).
        report: a CompileReport; its ``spans`` become the compiler track.
    """
    trace_events = []
    if events is not None:
        trace_events.extend(simulator_trace_events(events, counters=counters))
    spans = getattr(report, "spans", None) or []
    if spans:
        trace_events.extend(span_trace_events(spans))
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.chrome_trace"},
    }


def write_chrome_trace(path, events=None, report=None, counters=True):
    """Serialize :func:`chrome_trace` to ``path``; returns the dict."""
    data = chrome_trace(events=events, report=report, counters=counters)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1)
    return data


def merged_worker_trace(worker_events, labels=None, report=None,
                        counters=False):
    """Merge per-worker event streams into one multi-process trace.

    Args:
        worker_events: a list of event iterables, one per worker, in
            submission order (``run_tasks_observed`` report order). Each
            worker becomes its own Chrome process (pid
            ``WORKER_PID_BASE + index``), so warp ids — which restart at
            0 in every worker and would otherwise collide as tids — stay
            distinguishable: the (pid, tid) pair is unique even when the
            tids themselves repeat across workers.
        labels: optional per-worker display names (e.g. ``"worker 3
            (pid 12345)"``); defaults to the worker index.
        report: optional CompileReport; its spans render as the shared
            compiler track (pid 0).
        counters: forwarded to :func:`simulator_trace_events`.
    """
    worker_events = list(worker_events)
    trace_events = []
    for index, events in enumerate(worker_events):
        pid = WORKER_PID_BASE + index
        label = None
        if labels is not None and index < len(labels):
            label = labels[index]
        if label is None:
            label = f"worker {index}"
        worker = simulator_trace_events(events, pid=pid, counters=counters)
        for entry in worker:
            if entry.get("ph") == "M" and entry["name"] == "process_name":
                entry["args"]["name"] = f"{label} (cycles as us)"
        trace_events.extend(worker)
    spans = getattr(report, "spans", None) or []
    if spans:
        trace_events.extend(span_trace_events(spans))
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.obs.chrome_trace",
            "workers": len(worker_events),
        },
    }


def write_merged_worker_trace(path, worker_events, labels=None, report=None,
                              counters=False):
    """Serialize :func:`merged_worker_trace` to ``path``; returns the dict."""
    data = merged_worker_trace(
        worker_events, labels=labels, report=report, counters=counters
    )
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1)
    return data
