"""Correctness oracle: expected cell values from the reference interpreter.

A *cell* is one unit of simulated output the benchmark checks exactly:

* a launch (Table-2 kernel, corpus app, or one grid CTA): cycles, SIMT
  efficiency and the sha256 of its per-thread store traces;
* a figure (``figures`` only): its rendered text, and for the funnel the
  counts ``total -> low efficiency -> detected -> significant``.

Expected values live in ``expected/<workload>.json``, keyed by seed, and
are produced by running the same job under the reference interpreter
(``REPRO_FASTPATH=0``, one process). The seed reaches a kernel only
through ``rand()``: each thread's stream is seeded from it. When no
launched kernel contains a ``rand`` instruction, the file records
``"seed_invariant": true`` and its values hold for every seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def trace_digest(store_traces):
    """sha256 over ``{tid: [(addr, value), ...]}`` in tid order."""
    traces = {str(tid): trace for tid, trace in sorted(store_traces.items())}
    return hashlib.sha256(json.dumps(traces, sort_keys=True).encode()).hexdigest()


def launch_cell(cycles, efficiency, store_traces):
    return [cycles, efficiency, trace_digest(store_traces)]


def compare(expected, observed):
    """``(attempted, failed, mismatches)`` for two ``{cell: value}`` maps.

    Every expected cell counts as attempted. A cell fails when it is
    missing (its launch raised), differs, or was not expected at all.
    Values compare after a JSON round trip, so tuples equal lists.
    """
    observed = json.loads(json.dumps(observed))
    mismatches = []
    for key, value in expected.items():
        if key not in observed:
            mismatches.append((key, value, None))
        elif observed[key] != value:
            mismatches.append((key, value, observed[key]))
    extra = sorted(set(observed) - set(expected))
    mismatches.extend((key, None, observed[key]) for key in extra)
    return len(expected) + len(extra), len(mismatches), mismatches


def expected_path(workload, directory=EXPECTED_DIR):
    return Path(directory) / f"{workload}.json"


def load(workload, seed, directories):
    """The expected cells for ``seed``, or None when none are stored.

    ``directories`` are searched in order (the committed values first,
    then the checkout's cache of values derived for other seeds).
    """
    for directory in directories:
        path = expected_path(workload, directory)
        if not path.exists():
            continue
        record = json.loads(path.read_text())
        seeds = record["seeds"]
        if str(seed) in seeds:
            return seeds[str(seed)]
        if record.get("seed_invariant") and seeds:
            return next(iter(seeds.values()))
    return None


def store(workload, seed, cells, seed_invariant, directory, context):
    """Add ``cells`` for ``seed`` to ``directory/<workload>.json``."""
    path = expected_path(workload, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        record = json.loads(path.read_text())
    else:
        record = {"workload": workload, "derived_with": context, "seeds": {}}
    record["seed_invariant"] = bool(seed_invariant) and record.get(
        "seed_invariant", True
    )
    record["seeds"][str(seed)] = cells
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path
