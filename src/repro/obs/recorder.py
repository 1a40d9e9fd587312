"""Post-mortem reports for failed launches.

When a launch dies — ``DeadlockError`` (conflicting barriers, Section
4.3) or ``LaunchError`` (issue-budget overrun) — the machine that ran it
builds a report from the launch itself and attaches it to the raised
error as ``exc.post_mortem`` (:func:`attach_post_mortem`). The report is
a JSON-safe dict:

* ``kernel``, ``n_threads``, ``warps`` — what was launched;
* ``multiwarp`` — how a multi-warp launch ran (``Profiler.multiwarp``:
  ``"independent"``, or why it stayed interleaved; None for one warp);
* ``issued`` — issue slots the interleaved reference schedule issued
  before the failure, under every ``GPUMachine`` engine configuration
  (a budget overrun reads ``max_issues + 1``);
* ``cta_id`` — which CTA failed, for grid CTAs only;
* ``error`` — ``{"type", "message"}``;
* ``jit`` — the generated source of the last-executed fused segment,
  present exactly when the launch ran fused segments.

Set ``REPRO_POST_MORTEM=<dir>`` to also write each report as a JSON file
for offline inspection, one file per failed launch:
``postmortem-<kernel>[-cta<id>]-<pid>-<n>.json``, where ``n`` counts this
process's reports. A name already taken in the directory (a reused pid)
moves on to the next ``n``, so no report overwrites another — not two
failing launches of one kernel, nor failing CTAs on different pool
workers.
"""

from __future__ import annotations

import itertools
import json
import os

__all__ = ["attach_post_mortem"]


#: This process's report numbers (the ``<n>`` of each file name).
_SEQUENCE = itertools.count()


def _write_report(report, stem):
    """Write ``report`` to a new ``$REPRO_POST_MORTEM/<stem>-<pid>-<n>.json``
    when that environment variable names a directory. Never raises: a
    failing dump must not mask the launch error it describes."""
    directory = os.environ.get("REPRO_POST_MORTEM", "").strip()
    if not directory:
        return
    try:
        os.makedirs(directory, exist_ok=True)
        while True:
            name = f"{stem}-{os.getpid()}-{next(_SEQUENCE)}.json"
            try:
                handle = open(os.path.join(directory, name), "x")
            except FileExistsError:
                continue
            with handle:
                json.dump(report, handle, indent=1)
            return
    except OSError:
        pass


def attach_post_mortem(error, kernel, n_threads, warps, profiler,
                       cta_id=None, jit=None, issued=None):
    """Build the report of a launch that raised ``error``, attach it as
    ``error.post_mortem`` (dumping it to ``$REPRO_POST_MORTEM`` when set)
    and return it. ``jit`` is the ``{"segment", "source"}`` section of a
    launch that ran fused segments; ``issued`` overrides the profiler's
    slot count."""
    report = {
        "kernel": kernel,
        "n_threads": n_threads,
        "warps": warps,
        "multiwarp": profiler.multiwarp,
        "issued": profiler.issued if issued is None else issued,
    }
    if cta_id is not None:
        report["cta_id"] = cta_id
    report["error"] = {"type": type(error).__name__, "message": str(error)}
    if jit is not None:
        report["jit"] = jit
    error.post_mortem = report
    stem = f"postmortem-{kernel or 'launch'}"
    if cta_id is not None:
        stem += f"-cta{cta_id}"
    _write_report(report, stem)
    return report
