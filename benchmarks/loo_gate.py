"""CI timing gate over perfbench's leave-one-out table.

Reads the ``perfbench/results/loo.json`` that ``--loo`` writes and fails
when an engine layer stops paying for itself::

    python3 perfbench/run.py --loo
    python3 benchmarks/loo_gate.py

Each row of the table times the composed engine with all layers on
against the same job with one layer switched off, in interleaved fresh
processes. The gate requires ``off_median_s / on_median_s`` to reach
the layer's floor on every workload where the layer engages, no failed
cell in any gated row, and every row in :data:`EXPECTED`. A faster
engine without the layer can fail it only when the layer stops paying
at all. Rows of knobs without a floor (perfbench still lists the
retired ``soa``, ``jit`` and ``spec`` switches) are ignored.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

LOO_TABLE = Path(__file__).resolve().parent.parent / "perfbench" / "results" / "loo.json"

#: Least ``off_median_s / on_median_s`` per ``EngineConfig`` layer. The
#: measured ratios on a 2-vCPU VM are all 1.58x or more.
FLOORS = {"fastpath": 1.3, "segments": 1.15, "warp_batch": 1.15, "grid": 1.05}

#: The (knob, workload) rows that must be measured: every workload on
#: which the layer engages.
EXPECTED = (
    ("fastpath", "figures"),
    ("fastpath", "divergent"),
    ("fastpath", "grid"),
    ("segments", "figures"),
    ("segments", "divergent"),
    ("segments", "grid"),
    ("warp_batch", "divergent"),
    ("warp_batch", "grid"),
    ("grid", "grid"),
)


def gate_rows(table):
    """The measured rows of gated knobs, as ``(row, ratio)`` pairs."""
    return [
        (row, row["off_median_s"] / row["on_median_s"])
        for row in table["rows"]
        if row["knob"] in FLOORS and row["engages"]
    ]


def failures(table):
    """Every reason ``table`` fails the gate, as readable lines."""
    measured = gate_rows(table)
    problems = []
    for row, ratio in measured:
        name = f"{row['knob']} on {row['workload']}"
        floor = FLOORS[row["knob"]]
        if ratio < floor:
            problems.append(
                f"{name}: off/on {ratio:.2f}x is below its {floor:.2f}x floor "
                f"(off {row['off_median_s']:.3f} s, on {row['on_median_s']:.3f} s)"
            )
        if row["cells_failed"]:
            problems.append(f"{name}: {row['cells_failed']} failed cells")
    seen = {(row["knob"], row["workload"]) for row, _ in measured}
    for knob, workload in EXPECTED:
        if (knob, workload) not in seen:
            problems.append(f"{knob} on {workload}: no measured row")
    return problems


def format_rows(table):
    lines = [f"{'workload':10s} {'knob':10s} {'off med':>8s} {'on med':>8s} "
             f"{'off/on':>7s} {'floor':>6s} {'failed':>6s}"]
    for row, ratio in gate_rows(table):
        lines.append(
            f"{row['workload']:10s} {row['knob']:10s} {row['off_median_s']:8.3f} "
            f"{row['on_median_s']:8.3f} {ratio:6.2f}x {FLOORS[row['knob']]:5.2f}x "
            f"{row['cells_failed']:6d}"
        )
    return "\n".join(lines)


def main():
    if not LOO_TABLE.is_file():
        print(f"loo gate: no table at {LOO_TABLE}; run python3 perfbench/run.py --loo first")
        return 1
    table = json.loads(LOO_TABLE.read_text())
    print(f"loo gate: {LOO_TABLE.name} at commit "
          f"{table['context'].get('git_commit', '?')[:12]}, {table['rounds']} rounds")
    print(format_rows(table))
    problems = failures(table)
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"loo gate: {'failed' if problems else 'passed'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
