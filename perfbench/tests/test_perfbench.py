"""Tests of the benchmark itself (not part of the simulator's suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The end-to-end cases start real grid jobs (about 10 s each).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import speed  # noqa: E402
from layers import layer_metrics, span_check  # noqa: E402
from spans import SpanRecorder, self_times, subtree  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def test_compare_counts_every_kind_of_mismatch():
    expected = {"a": [10, 0.5, "d1"], "b": [20, 0.25, "d2"], "c": "text"}
    assert oracle.compare(expected, dict(expected))[:2] == (3, 0)
    assert oracle.compare(expected, {**expected, "a": [11, 0.5, "d1"]})[:2] == (3, 1)
    missing = {k: v for k, v in expected.items() if k != "b"}
    assert oracle.compare(expected, missing)[:2] == (3, 1)
    assert oracle.compare(expected, {**expected, "z": 1})[:2] == (4, 1)


def test_compare_treats_tuples_as_lists():
    assert oracle.compare({"a": [1, 2.0, "x"]}, {"a": (1, 2.0, "x")})[:2] == (1, 0)


def test_committed_values_are_seed_invariant_reference_values():
    for workload in ("figures", "divergent", "grid"):
        record = json.loads(oracle.expected_path(workload).read_text())
        assert record["derived_with"]["env"]["REPRO_FASTPATH"] == "0"
        assert record["seed_invariant"] is True
        assert oracle.load(workload, 12345, [oracle.EXPECTED_DIR]) == record["seeds"]["2020"]
    figures = oracle.load("figures", 2020, [oracle.EXPECTED_DIR])
    assert figures["funnel/counts"] == [520, 75, 16, 5]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_children():
    spans = [
        ["root", 0, 100, None, None],
        ["a", 10, 40, 0, None],
        ["b", 15, 25, 1, None],
        ["c", 50, 90, 0, None],
    ]
    assert self_times(spans) == [30, 20, 10, 40]
    assert sum(self_times(spans)) == 100
    assert subtree(spans, 1) == {1, 2}


def _traced_region(tmp_path, unwrapped_s):
    """A measured region with one layer span and ``unwrapped_s`` of work
    outside any layer span; returns it as a traced job record."""
    recorder = SpanRecorder(str(tmp_path))
    start = time.monotonic_ns()
    root = recorder.open("bench.measure")
    recorder.span("simt.launch", time.sleep)(0.02)
    time.sleep(unwrapped_s)
    recorder.close(root)
    wall_s = (time.monotonic_ns() - start) / 1e9
    return {"host_wall_s": wall_s, "layers": layer_metrics(recorder, {}, 0.0)}


def test_span_check_catches_time_outside_layer_spans(tmp_path):
    job = _traced_region(tmp_path, unwrapped_s=0.05)
    assert job["layers"]["check"]["unattributed_s"] >= 0.05
    assert job["layers"]["metrics"]["simt.launch_s"] >= 0.02
    assert span_check([job], overhead_s=0.01)["within_overhead"] is False
    assert span_check([_traced_region(tmp_path, 0.0)], overhead_s=0.01)["within_overhead"]


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
def test_at_reference_scales_by_mean_sampled_speed():
    ref = speed.REFERENCE_PROBE_NS
    assert speed.at_reference(10.0, [ref, ref]) == 10.0
    # Half the time at half speed, half at full speed: 0.75 of the work.
    assert speed.at_reference(10.0, [2 * ref, ref]) == 7.5
    assert speed.at_reference(10.0, []) == 10.0


_SAMPLER_SCRIPT = """
import multiprocessing, sys, time
sys.path.insert(0, sys.argv[1])
import speed

def spin(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass

sampler = speed.SpeedSampler(sys.argv[2])
sampler.install(fork_children=True)
start = time.monotonic_ns()
sampler.start()
spin(0.5)
child = multiprocessing.get_context("fork").Process(target=spin, args=(0.5,))
child.start()
child.join()
sampler.stop()
own = len(sampler.samples)
print(own, len(sampler.durations(start, time.monotonic_ns())) - own)
"""


def test_sampler_collects_samples_from_forked_workers(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", _SAMPLER_SCRIPT, str(HERE), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    own, workers = map(int, out.stdout.split())
    # 0.5 CPU seconds each at one sample per SAMPLE_CPU_S (0.1 s).
    assert own >= 3 and workers >= 3


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def _corrupted_grid(tmp_path):
    record = json.loads(oracle.expected_path("grid").read_text())
    cells = record["seeds"]["2020"]
    cells["grid_path/cta007"][0] += 1  # one wrong cycle count
    (tmp_path / "grid.json").write_text(json.dumps(record))
    return tmp_path


def test_wrong_expected_value_fails_one_cell(tmp_path):
    out = _run("--check", "--workload", "grid", "--expected-dir",
               str(_corrupted_grid(tmp_path)))
    assert out.returncode == 1, out.stderr
    assert "cells=786 cells_failed=1" in out.stdout
    assert "grid_path/cta007" in out.stdout


def test_measuring_run_reports_failures_in_the_result_line(tmp_path):
    out = _run("--workload", "grid", "--seed", "7", "--seconds", "1", "--trace", "0",
               "--expected-dir", str(_corrupted_grid(tmp_path)))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] >= 786
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _run("--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_names_the_reported_metrics():
    from layers import UNITS
    from run import E2E_UNITS, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
