"""Launch flight recorder: a bounded ring of recent engine decisions.

When a launch dies — ``LaunchError`` (issue-budget overrun) or
``DeadlockError`` (conflicting barriers) — the profiler tells you *what*
the totals were but not *what the engine was doing* right before. The
flight recorder keeps the last N engine decisions in a preallocated ring
buffer, off the allocation fast path, and dumps them as a structured
post-mortem report attached to the raised error (``exc.post_mortem``).

Recording levels:

* ``off`` — no recorder is created;
* ``on`` (default) — **cold events only**: launch start (with how a
  multi-warp launch runs) and end, and the terminal error. These sites
  fire at most once per launch, so the steady-state issue loop is
  untouched;
* ``verbose`` — additionally records every fused-segment commit (one
  entry per burst, still never per instruction). Used by the CI
  conformance leg to prove recording never perturbs results.

Select the level with ``REPRO_FLIGHT_RECORDER`` (``0``/``false``/``off``/
``none``, ``1``/``true``/``on``, or ``verbose``/``2``/``full``, any case;
unset or empty is ``on``, anything else raises
:class:`~repro.errors.ConfigError`) or per machine via
``GPUMachine(flight_recorder=...)``.
Set ``REPRO_POST_MORTEM=<dir>`` to also write each post-mortem report as
a JSON file (one per failed launch) for offline inspection.

Entries are ``(seq, kind, data)`` with ``data`` a small tuple/dict of
primitives; :meth:`FlightRecorder.post_mortem` renders them newest-last.
The ring never influences execution — results are bit-identical at every
level (the conformance matrix pins ``verbose``).
"""

from __future__ import annotations

import json
import os

from repro.errors import ConfigError

__all__ = [
    "FlightRecorder",
    "attach_post_mortem",
    "dump_post_mortem",
    "make_recorder",
    "recorder_level",
    "resolve_level",
    "set_recorder_level",
]

#: Default ring capacity (entries), chosen so a post-mortem covers many
#: segment bursts of a wide launch without ever mattering for memory.
DEFAULT_CAPACITY = 256

_LEVELS = ("off", "on", "verbose")


#: Every spelling ``REPRO_FLIGHT_RECORDER`` accepts, and its level.
_ENV_LEVELS = {
    **dict.fromkeys(("0", "false", "off", "none"), "off"),
    **dict.fromkeys(("1", "true", "on"), "on"),
    **dict.fromkeys(("verbose", "2", "full"), "verbose"),
}


def _level_from_env():
    raw = os.environ.get("REPRO_FLIGHT_RECORDER", "")
    if not raw.strip():
        return "on"
    try:
        return _ENV_LEVELS[raw.strip().lower()]
    except KeyError:
        raise ConfigError(
            f"REPRO_FLIGHT_RECORDER={raw!r}: expected 0/false/off/none, "
            "1/true/on or verbose/2/full"
        ) from None


#: Global default level for new machines; see :func:`set_recorder_level`.
RECORDER_LEVEL = _level_from_env()


def recorder_level():
    """The current global flight-recorder level."""
    return RECORDER_LEVEL


def set_recorder_level(level):
    """Set the global level (``off``/``on``/``verbose``); returns previous."""
    global RECORDER_LEVEL
    if level not in _LEVELS:
        raise ValueError(f"unknown recorder level {level!r}; use {_LEVELS}")
    previous = RECORDER_LEVEL
    RECORDER_LEVEL = level
    return previous


class FlightRecorder:
    """Bounded ring buffer of recent engine decisions for one launch."""

    __slots__ = ("capacity", "verbose", "kernel", "n_threads",
                 "_ring", "_next", "seq")

    def __init__(self, kernel="", n_threads=0, capacity=DEFAULT_CAPACITY,
                 verbose=False):
        self.capacity = capacity
        self.verbose = verbose
        self.kernel = kernel
        self.n_threads = n_threads
        # Preallocated once; record() only rebinds one slot, so recording
        # never allocates after construction (the data tuples are built by
        # cold call sites).
        self._ring = [None] * capacity
        self._next = 0
        self.seq = 0

    def record(self, kind, data=None):
        """Append one entry; O(1), no allocation beyond the entry tuple."""
        self._ring[self._next] = (self.seq, kind, data)
        self.seq += 1
        self._next += 1
        if self._next == self.capacity:
            self._next = 0

    def events(self):
        """Retained entries, oldest first."""
        if self.seq <= self.capacity:
            return [e for e in self._ring[: self._next] if e is not None]
        return [
            e
            for e in self._ring[self._next:] + self._ring[: self._next]
            if e is not None
        ]

    @property
    def dropped(self):
        """Entries evicted by the ring bound."""
        return max(0, self.seq - self.capacity)

    def post_mortem(self, error=None):
        """Structured report of the retained narrative (JSON-safe dict)."""
        report = {
            "kernel": self.kernel,
            "n_threads": self.n_threads,
            "recorded": self.seq,
            "dropped": self.dropped,
            "events": [
                {"seq": seq, "kind": kind, "data": data}
                for seq, kind, data in self.events()
            ],
        }
        if error is not None:
            report["error"] = {
                "type": type(error).__name__,
                "message": str(error),
            }
        return report

    def describe(self, error=None, limit=12):
        """Human-readable tail of the narrative (newest ``limit`` entries)."""
        report = self.post_mortem(error)
        lines = [
            f"flight recorder: @{self.kernel} x{self.n_threads} "
            f"({report['recorded']} recorded, {report['dropped']} dropped)"
        ]
        for entry in report["events"][-limit:]:
            data = entry["data"]
            suffix = f" {data}" if data is not None else ""
            lines.append(f"  #{entry['seq']:<6} {entry['kind']}{suffix}")
        if error is not None:
            lines.append(f"  -> {type(error).__name__}: {error}")
        return "\n".join(lines)


def resolve_level(level=None):
    """The level a launch records at: ``level`` with True/False read as
    ``on``/``off``, and None deferring to the global default
    (env/``set_recorder_level``)."""
    level = RECORDER_LEVEL if level is None else level
    if level is True:
        return "on"
    if level is False:
        return "off"
    return level


def make_recorder(kernel, n_threads, level=None):
    """A :class:`FlightRecorder` for one launch, or None when ``off``.

    ``level`` is resolved by :func:`resolve_level`.
    """
    level = resolve_level(level)
    if level == "off":
        return None
    return FlightRecorder(
        kernel=kernel, n_threads=n_threads, verbose=(level == "verbose")
    )


def _write_report(report, stem):
    """Write ``report`` to ``$REPRO_POST_MORTEM/<stem>.json`` when that
    environment variable names a directory. Never raises: a failing dump
    must not mask the launch error it describes."""
    directory = os.environ.get("REPRO_POST_MORTEM", "").strip()
    if not directory:
        return
    try:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{stem}.json")
        with open(path, "w") as handle:
            json.dump(report, handle, indent=1)
    except OSError:
        pass


def attach_post_mortem(error, recorder, extra=None):
    """Attach ``recorder``'s report to ``error`` as ``post_mortem``
    (and dump it to ``$REPRO_POST_MORTEM`` when set).

    ``extra`` merges additional top-level sections into the report —
    the machine uses it to carry the generated source of the
    last-executed JIT segment into the post-mortem."""
    if recorder is None:
        return None
    report = recorder.post_mortem(error)
    if extra:
        report.update(extra)
    try:
        error.post_mortem = report
    except AttributeError:  # pragma: no cover - exceptions accept attrs
        pass
    _write_report(report, f"postmortem-{recorder.kernel or 'launch'}")
    return report


def dump_post_mortem(recorder, reason):
    """Post-mortem for a non-fatal engine event, tagged with ``reason``:
    returns the report, dumping it to ``$REPRO_POST_MORTEM`` when set."""
    if recorder is None:
        return None
    report = recorder.post_mortem()
    report["reason"] = reason
    _write_report(report, f"postmortem-{recorder.kernel or 'launch'}-{reason}")
    return report
