"""Post-mortem reports for failed launches.

When a launch dies — ``DeadlockError`` (conflicting barriers, Section
4.3) or ``LaunchError`` (issue-budget overrun) — the machine that ran it
builds a report from the launch itself and attaches it to the raised
error as ``exc.post_mortem`` (:func:`attach_post_mortem`). The report is
a JSON-safe dict:

* ``kernel``, ``n_threads``, ``warps`` — what was launched;
* ``multiwarp`` — how a multi-warp launch ran (``Profiler.multiwarp``:
  ``"independent"``, or why it stayed interleaved; None for one warp);
* ``issued`` — issue slots retired before the failure;
* ``cta_id`` — which CTA failed, for grid CTAs only;
* ``error`` — ``{"type", "message"}``;
* ``jit`` — the generated source of the last-executed fused segment,
  present exactly when the launch ran fused segments.

Set ``REPRO_POST_MORTEM=<dir>`` to also write each report as a JSON file
(one per failed launch) for offline inspection.
"""

from __future__ import annotations

import json
import os

__all__ = ["attach_post_mortem"]


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


def attach_post_mortem(error, kernel, n_threads, warps, profiler,
                       cta_id=None, jit=None):
    """Build the report of a launch that raised ``error``, attach it as
    ``error.post_mortem`` (dumping it to ``$REPRO_POST_MORTEM`` when set)
    and return it. ``jit`` is the ``{"segment", "source"}`` section of a
    launch that ran fused segments."""
    report = {
        "kernel": kernel,
        "n_threads": n_threads,
        "warps": warps,
        "multiwarp": profiler.multiwarp,
        "issued": profiler.issued,
    }
    if cta_id is not None:
        report["cta_id"] = cta_id
    report["error"] = {"type": type(error).__name__, "message": str(error)}
    if jit is not None:
        report["jit"] = jit
    error.post_mortem = report
    _write_report(report, f"postmortem-{kernel or 'launch'}")
    return report
