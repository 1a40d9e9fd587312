"""Typed, cycle-stamped simulator events.

A launch emits these into its :mod:`repro.obs.sinks` sink, the one source
of issue events: the timeline (``harness/timeline.py``), Figure 1 and the
Chrome exporter all read a sink's events by their named fields (``ts``,
``dur``, ``lanes``, ``block``...).

Timestamps are warp-local cycles: ``ts`` is the warp's cycle counter when
the event happened, ``dur`` (issue events only) is the issue's latency.
Warps run in parallel, so timestamps are comparable *within* one warp and
compose into a launch-wide picture the way ``nvprof`` presents per-SM
streams.

Events are only ever constructed when a live sink is attached; a launch
without one allocates none of them — ``tests/test_obs.py`` pins that down.
"""

from __future__ import annotations

__all__ = [
    "TraceEvent",
    "IssueEvent",
    "DivergeEvent",
    "BarrierArriveEvent",
    "BarrierReleaseEvent",
    "ReconvergeEvent",
]


class TraceEvent:
    """Base class: every event has a ``kind``, a ``warp_id`` and a ``ts``."""

    __slots__ = ("warp_id", "ts")
    kind = "event"

    def __init__(self, warp_id, ts):
        self.warp_id = warp_id
        self.ts = ts

    def to_dict(self):
        """JSON-ready dict (used by exporters)."""
        data = {"kind": self.kind}
        for cls in type(self).__mro__:
            for name in getattr(cls, "__slots__", ()):
                value = getattr(self, name)
                if isinstance(value, frozenset):
                    value = sorted(value)
                data[name] = value
        return data

    def __repr__(self):
        fields = ", ".join(
            f"{k}={v!r}" for k, v in self.to_dict().items() if k != "kind"
        )
        return f"<{type(self).__name__} {fields}>"


class IssueEvent(TraceEvent):
    """One issued instruction: who ran, where, when, and for how long."""

    __slots__ = ("function", "block", "index", "opcode", "lanes", "dur",
                 "active")
    kind = "issue"

    def __init__(self, warp_id, function, block, index, opcode, lanes, ts,
                 dur, active):
        super().__init__(warp_id, ts)
        self.function = function
        self.block = block
        self.index = index
        self.opcode = opcode
        self.lanes = lanes
        self.dur = dur
        self.active = active


class DivergeEvent(TraceEvent):
    """A conditional branch split one PC-group into several targets."""

    __slots__ = ("function", "block", "targets")
    kind = "diverge"

    def __init__(self, warp_id, function, block, ts, targets):
        super().__init__(warp_id, ts)
        self.function = function
        self.block = block
        #: {target block name: frozenset of lanes that took it}
        self.targets = targets


class BarrierArriveEvent(TraceEvent):
    """Lanes arrived at a convergence barrier and parked (began waiting)."""

    __slots__ = ("barrier", "lanes", "parked")
    kind = "barrier_arrive"

    def __init__(self, warp_id, barrier, ts, lanes, parked):
        super().__init__(warp_id, ts)
        self.barrier = barrier
        self.lanes = lanes
        #: barrier occupancy (total parked lanes) right after this arrival
        self.parked = parked


class BarrierReleaseEvent(TraceEvent):
    """A barrier's release condition fired; ``lanes`` resumed."""

    __slots__ = ("barrier", "lanes")
    kind = "barrier_release"

    def __init__(self, warp_id, barrier, ts, lanes):
        super().__init__(warp_id, ts)
        self.barrier = barrier
        self.lanes = lanes


class ReconvergeEvent(TraceEvent):
    """Lanes merged back into one PC-group (barrier release on the ITS
    machine, stack pop on the pre-Volta stack machine)."""

    __slots__ = ("function", "block", "lanes")
    kind = "reconverge"

    def __init__(self, warp_id, function, block, ts, lanes):
        super().__init__(warp_id, ts)
        self.function = function
        self.block = block
        self.lanes = lanes
