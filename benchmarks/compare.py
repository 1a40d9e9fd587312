"""Compare a fresh benchmark run against the committed baseline.

CI's perf-smoke job copies the committed ``BENCH_*.json`` files aside,
re-runs the benchmarks (which rewrite the files in place), then calls::

    python benchmarks/compare.py --baseline-dir .bench-baseline \
        --fresh-dir . --tolerance 0.15 --only segment_corpus_sweep

and fails the build when a fresh speedup falls more than ``--tolerance``
below its committed baseline. Matching is by the record's ``"benchmark"``
name; records present on only one side are reported but never fail the
gate (a new benchmark has no baseline yet, and a retired one has no fresh
run). ``--only`` restricts the gate to named benchmarks — used in CI to
exclude runs whose fast configuration depends on runner core count.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_records(directory):
    """{benchmark name: record} for every BENCH_*.json in ``directory``."""
    records = {}
    for path in sorted(Path(directory).glob("BENCH_*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping unreadable {path}: {exc}")
            continue
        name = record.get("benchmark", path.stem.removeprefix("BENCH_"))
        records[name] = record
    return records


def compare(baseline, fresh, tolerance, only=None):
    """Returns (rows, failures). Each row is a printable comparison; a
    failure is a row whose fresh speedup regressed past the tolerance."""
    rows = []
    failures = []
    names = sorted(set(baseline) | set(fresh))
    for name in names:
        base = baseline.get(name)
        new = fresh.get(name)
        if base is None:
            rows.append((name, None, _speedup(new), "no baseline (new)"))
            continue
        if new is None:
            rows.append((name, _speedup(base), None, "no fresh run"))
            continue
        base_speedup = _speedup(base)
        new_speedup = _speedup(new)
        if base_speedup is None or new_speedup is None:
            rows.append((name, base_speedup, new_speedup, "no speedup field"))
            continue
        gated = only is None or name in only
        floor = base_speedup * (1.0 - tolerance)
        if gated and new_speedup < floor:
            status = (
                f"REGRESSION: {new_speedup:.2f}x < "
                f"{floor:.2f}x ({base_speedup:.2f}x - {tolerance:.0%})"
            )
            failures.append(name)
        elif not gated:
            status = "informational (not gated)"
        else:
            status = "ok"
        rows.append((name, base_speedup, new_speedup, status))
    return rows, failures


def _speedup(record):
    value = record.get("speedup")
    return float(value) if value is not None else None


def missing_counters(records, only=None):
    """Names of gated records whose ``counters`` block is absent or not a
    mapping. Every benchmark has written one since the telemetry PR, so a
    missing block means a truncated or hand-edited BENCH file — fail with
    a message naming the file instead of a KeyError deep in a delta."""
    bad = []
    for name in sorted(records):
        if only is not None and name not in only:
            continue
        if not isinstance(records[name].get("counters"), dict):
            bad.append(name)
    return bad


def occupancy_delta_rows(baseline, fresh, only=None):
    """Per-workload simulated-SM occupancy deltas for grid sweep records.

    Grid records carry ``"sm_occupancy": {workload: peak resident
    warps}``. A drop means the grid launch packed fewer CTAs per SM —
    e.g. a cta_dim or shared-memory change shifted the occupancy limit —
    which explains a speedup move that raw counters won't. Rows are
    ``(benchmark, workload, base, fresh, delta)``; informational only."""
    rows = []
    for name in sorted(set(baseline) & set(fresh)):
        if only is not None and name not in only:
            continue
        base_occ = baseline[name].get("sm_occupancy")
        new_occ = fresh[name].get("sm_occupancy")
        if not isinstance(base_occ, dict) or not isinstance(new_occ, dict):
            continue
        for workload in sorted(set(base_occ) | set(new_occ)):
            base_value = int(base_occ.get(workload, 0))
            new_value = int(new_occ.get(workload, 0))
            rows.append(
                (name, workload, base_value, new_value, new_value - base_value)
            )
    return rows


def _count(value):
    """Integer view of a counter value; non-numeric entries (metadata
    strings in hand-edited records, derived ratios saved as text) and
    bools count as 0 so a snapshot written by a different engine version
    still diffs instead of raising ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return 0
    return int(value)


def counter_delta_rows(baseline, fresh, only=None):
    """Per-layer engine-counter deltas for benchmarks present on both
    sides with a ``counters`` snapshot (written by bench_simulator since
    the telemetry PR). Rows are ``(benchmark, counter, base, fresh,
    delta)``; purely informational — counters attribute a timing
    regression to the layer whose behaviour moved (a decode-cache hit
    rate collapse, launches falling back to the interleave), they never gate.

    The key union means a counter layer present on only one side — e.g.
    fresh ``jit.*`` rows against a pre-JIT baseline record — renders as a
    plain delta from 0 rather than being dropped or raising."""
    rows = []
    for name in sorted(set(baseline) & set(fresh)):
        if only is not None and name not in only:
            continue
        base_counters = baseline[name].get("counters")
        new_counters = fresh[name].get("counters")
        if not isinstance(base_counters, dict) or not isinstance(
            new_counters, dict
        ):
            continue
        for counter in sorted(set(base_counters) | set(new_counters)):
            base_value = _count(base_counters.get(counter, 0))
            new_value = _count(new_counters.get(counter, 0))
            if base_value == 0 and new_value == 0:
                continue
            rows.append(
                (name, counter, base_value, new_value, new_value - base_value)
            )
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir", required=True,
        help="directory holding the committed BENCH_*.json files",
    )
    parser.add_argument(
        "--fresh-dir", required=True,
        help="directory holding the freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.15,
        help="allowed fractional speedup drop before failing (default 0.15)",
    )
    parser.add_argument(
        "--only", action="append", default=None, metavar="BENCHMARK",
        help="gate only these benchmark names (repeatable); others are "
             "compared but informational",
    )
    args = parser.parse_args(argv)

    baseline = load_records(args.baseline_dir)
    fresh = load_records(args.fresh_dir)
    if not baseline and not fresh:
        print("no BENCH_*.json records found on either side")
        return 1

    gate_only = set(args.only) if args.only else None
    bad = missing_counters(fresh, only=gate_only)
    if bad:
        for name in bad:
            print(
                f"error: fresh BENCH record '{name}' in {args.fresh_dir} "
                "has no 'counters' block — the benchmark run was truncated "
                "or the file was edited by hand; re-run the benchmark"
            )
        return 1

    rows, failures = compare(baseline, fresh, args.tolerance, only=gate_only)
    width = max(len(name) for name, *_ in rows)
    print(f"{'benchmark'.ljust(width)}  baseline     fresh     status")
    for name, base_speedup, new_speedup, status in rows:
        base_text = f"{base_speedup:.2f}x" if base_speedup is not None else "-"
        new_text = f"{new_speedup:.2f}x" if new_speedup is not None else "-"
        print(f"{name.ljust(width)}  {base_text:>8}  {new_text:>8}  {status}")

    counter_rows = counter_delta_rows(baseline, fresh, only=gate_only)
    if counter_rows:
        name_w = max(len(r[0]) for r in counter_rows)
        counter_w = max(len(r[1]) for r in counter_rows)
        print("\nper-layer engine counters (informational):")
        print(
            f"{'benchmark'.ljust(name_w)}  {'counter'.ljust(counter_w)}  "
            f"{'baseline':>12}  {'fresh':>12}  {'delta':>12}"
        )
        for name, counter, base_value, new_value, delta in counter_rows:
            print(
                f"{name.ljust(name_w)}  {counter.ljust(counter_w)}  "
                f"{base_value:>12}  {new_value:>12}  {delta:>+12}"
            )

    occupancy_rows = occupancy_delta_rows(baseline, fresh, only=gate_only)
    if occupancy_rows:
        name_w = max(len(r[0]) for r in occupancy_rows)
        app_w = max(max(len(r[1]) for r in occupancy_rows), len("workload"))
        print("\nper-SM occupancy, peak resident warps (informational):")
        print(
            f"{'benchmark'.ljust(name_w)}  {'workload'.ljust(app_w)}  "
            f"{'baseline':>10}  {'fresh':>10}  {'delta':>10}"
        )
        for name, workload, base_value, new_value, delta in occupancy_rows:
            print(
                f"{name.ljust(name_w)}  {workload.ljust(app_w)}  "
                f"{base_value:>10}  {new_value:>10}  {delta:>+10}"
            )

    if failures:
        print(
            f"\nFAIL: {len(failures)} benchmark(s) regressed beyond "
            f"{args.tolerance:.0%}: {', '.join(failures)}"
        )
        return 1
    print("\nOK: no gated benchmark regressed beyond the tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
