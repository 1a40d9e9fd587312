"""Execution-timeline diagrams — the paper's Figure 1 / Figure 3(b)
cartoons, regenerated from real traces.

Render one warp's execution as a lane × time grid: each column is a slice
of the warp's timeline, each cell shows which basic block the lane spent
that slice in (``.`` = idle/waiting). Under PDOM sync the expensive block
forms a diagonal staircase (serialized execution, Figure 1a); under
Speculative Reconvergence it forms solid vertical bands (converged waves,
Figure 1b).

The input is a launch's event stream, e.g. the ``events`` of a
:class:`repro.obs.sinks.ListSink` attached with ``GPUMachine(module,
sink=sink)``. Only the ``kind == "issue"`` events of the requested warp
count, so a full stream can be passed as it is. Columns are slices of
warp cycles, so variable-cost instructions (``simt/costs.py`` — a
20-cycle load vs a 1-cycle add) occupy proportional width.
"""

from __future__ import annotations

import math

from repro.errors import ReproError
from repro.simt.warp import WARP_SIZE

#: Symbols assigned to blocks in first-appearance order.
_SYMBOLS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"


def _warp_issues(events, warp_id):
    """The issue events of one warp, in stream order."""
    return [
        e for e in events if e.kind == "issue" and e.warp_id == warp_id
    ]


def assign_symbols(events, warp_id=0, highlight=None):
    """Map block names to single characters, highlighted block first."""
    symbols = {}
    if highlight is not None:
        symbols[highlight] = "#"
    assigned = 0
    for event in _warp_issues(events, warp_id):
        if event.block not in symbols:
            symbols[event.block] = _SYMBOLS[assigned % len(_SYMBOLS)]
            assigned += 1
    return symbols


def _cycle_grid(events, columns, lanes):
    """Columns are equal slices of warp cycles, and each issue is weighted
    by its overlap with the column."""
    t0 = events[0].ts
    t1 = max(e.ts + e.dur for e in events)
    total = max(t1 - t0, 1)
    per_column = total / columns
    tallies = [[{} for _ in range(columns)] for _ in range(lanes)]
    for event in events:
        start = event.ts - t0
        # Zero-duration issues still mark their column (weight epsilon).
        dur = event.dur if event.dur > 0 else 1e-9
        first = min(int(start / per_column), columns - 1)
        last = min(int(math.ceil((start + dur) / per_column)), columns)
        for column in range(first, max(last, first + 1)):
            lo = column * per_column
            weight = min(start + dur, lo + per_column) - max(start, lo)
            if weight <= 0:
                continue
            for lane in event.lanes:
                if lane < lanes:
                    tally = tallies[lane][column]
                    tally[event.block] = tally.get(event.block, 0) + weight
    return tallies, per_column


def render_timeline(
    events,
    warp_id=0,
    width=96,
    lanes=WARP_SIZE,
    highlight=None,
    legend=True,
):
    """Render a lane-by-time ASCII diagram for one warp.

    Args:
        events: a launch's event stream (e.g. ``ListSink.events``).
        width: number of time columns.
        highlight: block name drawn as ``#`` (e.g. the Expensive() block).
    """
    events = _warp_issues(events, warp_id)
    if not events:
        raise ReproError(f"no issue events for warp {warp_id}")
    symbols = assign_symbols(events, warp_id=warp_id, highlight=highlight)
    total = max(e.ts + e.dur for e in events) - events[0].ts
    columns = min(width, max(total, 1))
    tallies, per_column = _cycle_grid(events, columns, lanes)

    grid = [["." for _ in range(columns)] for _ in range(lanes)]
    for lane in range(lanes):
        for column in range(columns):
            tally = tallies[lane][column]
            if tally:
                # Majority block per lane within the bucket.
                block = max(tally, key=tally.get)
                grid[lane][column] = symbols.get(block, "?")

    lines = []
    for lane in range(lanes):
        lines.append(f"T{lane:02d} |" + "".join(grid[lane]) + "|")
    if legend:
        lines.append("")
        lines.append("time ->  (each column ~ "
                     f"{per_column:.1f} cycles; '.' = idle/waiting)")
        for block, symbol in symbols.items():
            lines.append(f"  {symbol} = {block}")
    return "\n".join(lines)


def convergence_series(events, block, function=None, warp_id=0):
    """Active-lane counts of every visit to ``block`` (a numeric view of
    the same story: PDOM gives small numbers, SR gives wide waves)."""
    return [
        len(e.lanes) for e in _warp_issues(events, warp_id)
        if e.block == block and (function is None or e.function == function)
    ]
