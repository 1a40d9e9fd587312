"""End-to-end benchmark of the simulator: fresh-process jobs, host time.

Every job runs in a fresh interpreter (``job.py``), because in-process
"warm" state is not fixed: the JIT keeps tiering up across passes. Each
job's simulated output is checked cell by cell against values derived
with the reference interpreter (``oracle.py``).

Modes (see ``perfbench/README.md``)::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30      # every workload
    python3 perfbench/run.py --workload grid --trace 1        # per-layer metrics
    python3 perfbench/run.py --check                          # untimed, one job each
    python3 perfbench/run.py --loo                            # leave-one-out table
    python3 perfbench/run.py --derive --workload grid --seed 2020

The last line of a measuring run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import speed  # noqa: E402
from layers import UNITS as LAYER_UNITS, span_check  # noqa: E402

WORKLOADS = ("figures", "divergent", "grid")
#: Scratch space inside the checkout (ignored by git).
WORK = ROOT / ".perfbench"
DERIVED_DIR = WORK / "expected"
LOO_RECORD = HERE / "results" / "loo.json"
#: Fresh processes that only set up, run before every measured job (or
#: untraced/traced pair) and after the last, so ``setup_s`` is a median
#: of samples spread over the run's host-speed phases.
SETUP_ONLY_JOBS = 4
#: Fewest rounds (a measured job, or an untraced/traced pair) per run,
#: however short the window. One job suffices once its time is taken at
#: reference host speed (``speed.py``); ``trace.overhead_s`` compares
#: host seconds, so a traced run takes two pairs.
MIN_ROUNDS = {False: 1, True: 2}
#: No round starts that would likely end a run past this many seconds
#: (a run must end within 180 s).
RUN_CAP_S = 150
JOB_TIMEOUT_S = 170
#: The engine knobs the leave-one-out table switches off one at a time.
KNOBS = ("fastpath", "segments", "warp_batch", "soa", "jit", "spec", "grid")
#: Interleaved all-on/knob-off rounds per leave-one-out row.
LOO_ROUNDS = 3
#: (knob, workload) pairs where the knob cannot engage, with the reason.
#: They are recorded as a predicted zero instead of being measured.
LOO_SKIPS = {
    ("warp_batch", "figures"): "every figures launch is a single warp",
    ("spec", "figures"): "every figures launch is a single warp",
    ("grid", "figures"): "figures makes no grid launch",
    ("grid", "divergent"): "divergent makes no grid launch",
}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class JobFailed(RuntimeError):
    """A job process ended without writing its result."""


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def job_env(overrides=None):
    """The job environment: the caller's, minus every ``REPRO_*`` knob,
    plus ``overrides``; ``src`` on the path and a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update(overrides or {})
    return env


def run_job(workload, seed, env=None, trace=False, setup_only=False, jobs=None):
    """One fresh-process job; returns its record with ``setup_s``/``wall_s``."""
    out = WORK / "tmp" / uuid.uuid4().hex
    cmd = [
        sys.executable, str(HERE / "job.py"), "--workload", workload,
        "--seed", str(seed), "--out", str(out),
        "--jobs", str(jobs if jobs is not None else default_jobs(workload)),
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic_ns()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=job_env(env), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(out, ignore_errors=True)
        raise JobFailed(f"{workload} job exceeded {JOB_TIMEOUT_S}s") from None
    finally:
        _reap_group(proc.pid)
    result = out / "job.json"
    if proc.returncode != 0 or not result.exists():
        shutil.rmtree(out, ignore_errors=True)
        raise JobFailed(
            f"{workload} job exited {proc.returncode}: "
            + stderr.decode(errors="replace")[-2000:]
        )
    record = json.loads(result.read_text())
    if (out / "spans.json").exists():
        record["spans"] = json.loads((out / "spans.json").read_text())
    shutil.rmtree(out, ignore_errors=True)
    # Host seconds, and the same at reference host speed (speed.py): the
    # set-up probes' own time is taken out first; traced jobs sample no
    # measured work, so their two wall times are equal.
    probes = record["setup_probe_ns"]
    record["host_setup_s"] = (record["t_measure_ns"] - t_spawn) / 1e9
    record["setup_s"] = speed.at_reference(
        record["host_setup_s"] - sum(probes) / 1e9, probes
    )
    if not setup_only:
        record["host_wall_s"] = (record["t_end_ns"] - record["t_measure_ns"]) / 1e9
        record["wall_s"] = speed.at_reference(
            record["host_wall_s"], record.get("speed_probe_ns", ())
        )
    return record


def _reap_group(pgid):
    """Kill anything the job left in its process group (none expected)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def default_jobs(workload):
    return nproc() if workload == "grid" else 1


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
#: The reference engine: the interpreted executor, CTAs run in-process.
REFERENCE_ENV = {"REPRO_FASTPATH": "0", "REPRO_GRID": "0"}


def derive(workload, seed, directory):
    """Expected cells for ``seed`` from one reference-interpreter job."""
    record = run_job(workload, seed, env=REFERENCE_ENV, jobs=1)
    if record["errors"]:
        raise JobFailed(f"reference job failed: {record['errors']}")
    context = {"env": REFERENCE_ENV, "jobs": 1, "python": platform.python_version()}
    path = oracle.store(
        workload, seed, record["cells"], not record["uses_rand"], directory, context
    )
    return record["cells"], path


def expected_cells(workload, seed, directory=None):
    """Stored expected cells, deriving them first for an unseen seed."""
    directories = [Path(directory)] if directory else [oracle.EXPECTED_DIR, DERIVED_DIR]
    cells = oracle.load(workload, seed, directories)
    if cells is None:
        print(f"[perfbench] deriving expected values for {workload} seed {seed} "
              "with the reference interpreter", file=sys.stderr)
        cells, _ = derive(workload, seed, directory or DERIVED_DIR)
    return cells


def check(record, expected):
    attempted, failed, mismatches = oracle.compare(expected, record.get("cells", {}))
    record["mismatches"] = [m[0] for m in mismatches[:20]]
    return attempted, failed


# ----------------------------------------------------------------------
# Run context
# ----------------------------------------------------------------------
def host_speed():
    """Host speed relative to the reference, from 50 probes (about 0.1 s):
    context for outliers."""
    return speed.mean_speed([speed.timed_probe()[1] for _ in range(50)])


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def run_context(seed):
    return {
        "git_commit": git_commit(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "repro_env": {k: v for k, v in job_env().items() if k.startswith("REPRO_")},
        "seed": seed,
        "host_speed_before": host_speed(),
    }


def save_run(workload, seed, payload, spans):
    """Write the run record, and the traced jobs' spans beside it."""
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (runs / f"{stem}.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    if spans:
        (runs / f"{stem}-spans.json").write_text(json.dumps(spans))


# ----------------------------------------------------------------------
# Measuring runs
# ----------------------------------------------------------------------
def _median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, seed, seconds, trace, expected_dir=None):
    """One measuring run: the result line (``correct``, ``attempted``,
    ``failed``, ``metrics``), the run
    record, and the traced jobs' spans."""
    expected = expected_cells(workload, seed, expected_dir)
    context = run_context(seed)
    start = time.monotonic()
    deadline = start + seconds
    setups, jobs = [], []

    def probe_setup():
        for _ in range(SETUP_ONLY_JOBS):
            setups.append(run_job(workload, seed, setup_only=True))

    # Rounds of one untraced job, or of an untraced/traced pair: at least
    # MIN_ROUNDS, more while another round fits in the window.
    kinds = (False, True) if trace else (False,)
    rounds = 0
    while True:
        probe_setup()
        for traced in kinds:
            t0 = time.monotonic()
            record = run_job(workload, seed, trace=traced)
            record["traced"] = traced
            record["job_s"] = time.monotonic() - t0
            jobs.append(record)
        rounds += 1
        next_end = time.monotonic() + sum(r["job_s"] for r in jobs[-len(kinds):])
        if next_end > start + RUN_CAP_S:
            break
        if rounds >= MIN_ROUNDS[trace] and next_end > deadline:
            break
    probe_setup()
    attempted = failed = 0
    for record in jobs:
        a, f = check(record, expected)
        record["attempted"], record["failed"] = a, f
        attempted += a
        failed += f
    untraced = [r for r in jobs if not r["traced"]]
    traced_jobs = [r for r in jobs if r["traced"]]
    setups.extend(jobs)
    e2e = {
        "wall_s": _median([r["wall_s"] for r in untraced]),
        "setup_s": _median([r["setup_s"] for r in setups]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
    }
    host = {
        "wall_s": _median([r["host_wall_s"] for r in untraced]),
        "setup_s": _median([r["host_setup_s"] for r in setups]),
        "speed": speed.mean_speed([d for r in untraced for d in r["speed_probe_ns"]]),
    }
    layers = {}
    if trace:
        for name in LAYER_UNITS:
            if name != "trace.overhead_s":
                layers[name] = _median([r["layers"]["metrics"][name] for r in traced_jobs])
        # Host seconds on both sides: traced jobs take no speed samples.
        traced_wall = _median([r["host_wall_s"] for r in traced_jobs])
        layers["trace.overhead_s"] = traced_wall - host["wall_s"]
    metrics = (
        {name: {"value": layers[name], "unit": LAYER_UNITS[name]} for name in LAYER_UNITS}
        if trace else
        {name: {"value": e2e[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}
    )
    correct = failed == 0 and all(not r["errors"] for r in jobs)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    context["host_speed_after"] = host_speed()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "context": context, "setup_s_samples": [r["setup_s"] for r in setups],
        "end_to_end": e2e, "host": host, "jobs": [_summary(r) for r in jobs],
        "result": result,
    }
    if trace:
        record["span_check"] = span_check(traced_jobs, layers["trace.overhead_s"])
    return result, record, [r["spans"] for r in traced_jobs]


def _summary(record):
    keep = ("traced", "host_setup_s", "setup_s", "host_wall_s", "wall_s", "peak_rss_mb",
            "capture_s", "attempted", "failed", "errors", "mismatches", "counters", "layers",
            "uses_rand")
    return {k: record[k] for k in keep if k in record}


def print_run(workload, result, record):
    print(f"== {workload}  seed={record['seed']}  jobs={len(record['jobs'])}  "
          f"commit={record['context']['git_commit']}  "
          f"host speed {record['context']['host_speed_before']:.3f} -> "
          f"{record['context']['host_speed_after']:.3f}")
    host = record["host"]
    print(f"   jobs sampled host speed {host['speed']:.3f} x reference; in host seconds "
          f"wall_s {host['wall_s']:.3f}, setup_s {host['setup_s']:.3f}")
    for name, metric in result["metrics"].items():
        print(f"   {name:32s} {metric['value']:16.6f} {metric['unit']}")
    print(f"   {'cells':32s} {result['attempted']:16d} count")
    print(f"   {'cells_failed':32s} {result['failed']:16d} count")
    if "span_check" in record:
        check = record["span_check"]
        print(f"   layer span self times vs traced wall_s: largest gap {check['max_gap_s']:.6f}s, "
              f"within trace.overhead_s ({check['trace_overhead_s']:+.4f}s): "
              f"{check['within_overhead']}")


def measure_all(workloads, seed, seconds, trace, expected_dir=None):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result, record, spans = measure(workload, seed, seconds, trace, expected_dir)
        save_run(workload, seed, record, spans)
        print_run(workload, result, record)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        if len(workloads) == 1:
            combined["metrics"] = result["metrics"]
        else:
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    return combined


# ----------------------------------------------------------------------
# Untimed check and leave-one-out
# ----------------------------------------------------------------------
def check_all(workloads, seed, expected_dir=None):
    ok = True
    for workload in workloads:
        expected = expected_cells(workload, seed, expected_dir)
        record = run_job(workload, seed)
        attempted, failed = check(record, expected)
        ok = ok and failed == 0 and not record["errors"]
        print(f"{workload}: cells={attempted} cells_failed={failed} "
              f"errors={record['errors'] or 'none'}"
              + (f" first mismatches={record['mismatches']}" if failed else ""))
    return ok


def _iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def leave_one_out(workloads, seed):
    """Each engaging knob switched off alone, paired with an all-on job.

    Every round runs, per knob, one all-on and one knob-off job back to
    back in fresh processes (which goes first alternates by round, and
    the knob order rotates), so slow host drift hits both sides of a
    pair alike. ``delta_s`` is the median of the paired differences
    ``off - on``; a positive delta is what the knob saves.
    """
    table = {"seed": seed, "rounds": LOO_ROUNDS, "context": run_context(seed), "rows": []}
    for workload in workloads:
        expected = expected_cells(workload, seed)
        knobs = [k for k in KNOBS if (k, workload) not in LOO_SKIPS]
        pairs = {knob: [] for knob in knobs}
        failed = {knob: 0 for knob in knobs}
        for r in range(LOO_ROUNDS):
            for knob in knobs[r % len(knobs):] + knobs[:r % len(knobs)]:
                walls = {}
                for side in (("on", "off") if r % 2 == 0 else ("off", "on")):
                    env = {f"REPRO_{knob.upper()}": "0"} if side == "off" else None
                    record = run_job(workload, seed, env=env)
                    walls[side] = record["wall_s"]
                    failed[knob] += check(record, expected)[1]
                pairs[knob].append((walls["on"], walls["off"]))
                print(f"[loo] {workload} round {r} {knob}: on {walls['on']:.3f}s "
                      f"off {walls['off']:.3f}s", file=sys.stderr, flush=True)
        for knob in KNOBS:
            row = {"workload": workload, "knob": knob}
            if (knob, workload) in LOO_SKIPS:
                row.update(engages=False, reason=LOO_SKIPS[(knob, workload)],
                           predicted_delta_s=0.0)
            else:
                on = [p[0] for p in pairs[knob]]
                off = [p[1] for p in pairs[knob]]
                deltas = [b - a for a, b in pairs[knob]]
                row.update(
                    engages=True,
                    on_median_s=_median(on), on_iqr_s=_iqr(on),
                    off_median_s=_median(off), off_iqr_s=_iqr(off),
                    delta_s=_median(deltas), delta_iqr_s=_iqr(deltas),
                    pairs_s=pairs[knob], cells_failed=failed[knob],
                )
            table["rows"].append(row)
    table["context"]["host_speed_after"] = host_speed()
    return table


def print_loo(table):
    print(f"leave-one-out: seed {table['seed']}, {table['rounds']} interleaved rounds")
    print(f"{'workload':10s} {'knob':10s} {'on med':>8s} {'on iqr':>7s} "
          f"{'off med':>8s} {'off iqr':>7s} {'loo.delta_s':>11s} {'iqr':>7s} failed")
    for row in table["rows"]:
        if not row["engages"]:
            print(f"{row['workload']:10s} {row['knob']:10s} skipped, predicted 0: "
                  f"{row['reason']}")
            continue
        print(f"{row['workload']:10s} {row['knob']:10s} {row['on_median_s']:8.3f} "
              f"{row['on_iqr_s']:7.3f} {row['off_median_s']:8.3f} "
              f"{row['off_iqr_s']:7.3f} {row['delta_s']:+11.3f} "
              f"{row['delta_iqr_s']:7.3f} {row['cells_failed']}")


# ----------------------------------------------------------------------
def preflight():
    """Fail fast (no result line) when the simulator sources are absent;
    byte-compile them so the first job does not pay for it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    import compileall

    return compileall.compile_dir(str(ROOT / "src"), quiet=2)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Simulator host-time benchmark.")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="untimed: one job per workload, correctness only")
    parser.add_argument("--loo", action="store_true",
                        help="leave-one-out table over the engine knobs")
    parser.add_argument("--derive", action="store_true",
                        help="store reference-interpreter values for --seed")
    parser.add_argument("--expected-dir", default=None,
                        help="read expected values from here instead")
    args = parser.parse_args(argv)
    if not preflight():
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.derive:
            for workload in workloads:
                _, path = derive(workload, args.seed, args.expected_dir or oracle.EXPECTED_DIR)
                print(f"{workload}: wrote {path}")
            return 0
        if args.check:
            return 0 if check_all(workloads, args.seed, args.expected_dir) else 1
        if args.loo:
            table = leave_one_out(workloads, args.seed)
            LOO_RECORD.parent.mkdir(parents=True, exist_ok=True)
            LOO_RECORD.write_text(json.dumps(table, indent=1) + "\n")
            print_loo(table)
            return 0
        result = measure_all(workloads, args.seed, args.seconds, bool(args.trace),
                             args.expected_dir)
    except JobFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / "tmp", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
