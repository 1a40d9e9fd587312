"""Pluggable event sinks.

The simulator emits :mod:`repro.obs.events` into a sink. The default is
:data:`NULL_SINK`, whose ``enabled`` flag is ``False`` — every emission
site guards on that flag, so a disabled launch allocates no event objects
and pays one attribute check per issue.

Sinks receive *every* event kind (issues, divergence, barrier traffic,
reconvergence) and are the only source of them: the timeline and the
Chrome exporter read ``ListSink.events``.

Sinks are **finalized** (``close()``) by the machine when a launch dies
mid-kernel, so file-backed sinks like :class:`JsonlSink` never lose the
partial trace leading up to a ``LaunchError``/deadlock.

The *ambient sink* (:func:`set_ambient_sink`/:func:`ambient_sink`) is a
process-global default consulted by machines constructed without an
explicit ``sink``. It exists for cross-process observability: the
parallel harness installs a collecting sink around a worker task so
``--jobs`` sweeps can stream their events back to the parent without
every call site threading a sink argument through. It is None (meaning
:data:`NULL_SINK`) unless something installs one.
"""

from __future__ import annotations

import json

__all__ = [
    "EventSink",
    "NullSink",
    "ListSink",
    "CallbackSink",
    "JsonlSink",
    "NULL_SINK",
    "ambient_sink",
    "set_ambient_sink",
]


class EventSink:
    """Receives simulator events; subclass and override :meth:`emit`."""

    #: emission sites skip event construction entirely when False
    enabled = True

    def emit(self, event):
        raise NotImplementedError

    def close(self):
        """Flush/teardown hook; the default does nothing."""


class NullSink(EventSink):
    """Discards everything; ``enabled`` is False so nothing is built."""

    enabled = False

    def emit(self, event):  # pragma: no cover - guarded out by ``enabled``
        pass


#: Shared default instance (sinks are stateless unless they collect).
NULL_SINK = NullSink()


class ListSink(EventSink):
    """Collects events in memory (the trace CLI and tests use this)."""

    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)

    def of_kind(self, kind):
        return [e for e in self.events if e.kind == kind]

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class CallbackSink(EventSink):
    """Forwards every event to a callable (streaming consumers)."""

    def __init__(self, fn):
        self._fn = fn

    def emit(self, event):
        self._fn(event)


class JsonlSink(EventSink):
    """Streams events to a file as JSON lines (one ``to_dict()`` per line).

    The machine closes the sink when a launch aborts, so the lines
    written up to the failure survive on disk — the whole point of a
    file-backed sink is the post-mortem partial trace.
    """

    def __init__(self, path):
        self.path = path
        self._handle = open(path, "w")
        self.emitted = 0
        self.closed = False

    def emit(self, event):
        payload = {"kind": event.kind}
        for key, value in event.to_dict().items():
            if isinstance(value, frozenset):
                value = sorted(value)
            elif isinstance(value, dict):
                value = {
                    str(k): sorted(v) if isinstance(v, frozenset) else v
                    for k, v in value.items()
                }
            payload[key] = getattr(value, "value", value)
        self._handle.write(json.dumps(payload) + "\n")
        self.emitted += 1

    def close(self):
        if not self.closed:
            self.closed = True
            self._handle.flush()
            self._handle.close()


#: Process-global default sink for machines built without an explicit one.
_AMBIENT_SINK = None


def ambient_sink():
    """The installed ambient sink, or None (machines then use NULL_SINK)."""
    return _AMBIENT_SINK


def set_ambient_sink(sink):
    """Install (or with None, remove) the ambient sink; returns previous."""
    global _AMBIENT_SINK
    previous = _AMBIENT_SINK
    _AMBIENT_SINK = sink
    return previous
