"""The CI timing gate over perfbench's leave-one-out table
(``benchmarks/loo_gate.py``), on synthetic tables."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "loo_gate.py"
_spec = importlib.util.spec_from_file_location("loo_gate", _PATH)
loo_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loo_gate)


def _row(knob, workload, off, on=2.0, cells_failed=0):
    return {"workload": workload, "knob": knob, "engages": True,
            "on_median_s": on, "off_median_s": off, "cells_failed": cells_failed}


def _skip(knob, workload):
    return {"workload": workload, "knob": knob, "engages": False,
            "reason": "cannot engage", "predicted_delta_s": 0.0}


def _table(rows=None):
    """A passing table shaped like ``--loo``'s: every expected row at 2x,
    the skipped pairs, and the retired knobs inside noise."""
    if rows is None:
        rows = [_row(knob, workload, off=4.0) for knob, workload in loo_gate.EXPECTED]
        rows += [_skip("warp_batch", "figures"), _skip("grid", "figures"),
                 _skip("grid", "divergent")]
        rows += [_row(knob, workload, off=2.0)
                 for knob in ("soa", "jit", "spec")
                 for workload in ("figures", "divergent", "grid")]
    return {"seed": 2020, "rounds": 3, "context": {"git_commit": "0" * 40},
            "rows": rows}


def _replace(table, knob, workload, **fields):
    for row in table["rows"]:
        if (row["knob"], row["workload"]) == (knob, workload):
            row.update(fields)
    return table


class TestLooGate:
    def test_passing_table(self):
        assert loo_gate.failures(_table()) == []

    def test_retired_knobs_are_ignored(self):
        # soa, jit and spec switch nothing: their rows sit at 1.0x and may
        # even carry failed cells without moving the gate.
        table = _replace(_table(), "spec", "grid", off_median_s=1.0, cells_failed=3)
        assert loo_gate.failures(table) == []
        assert {row["knob"] for row, _ in loo_gate.gate_rows(table)} == set(loo_gate.FLOORS)

    @pytest.mark.parametrize("knob", sorted(loo_gate.FLOORS))
    def test_layer_under_its_floor(self, knob):
        workload = next(w for k, w in loo_gate.EXPECTED if k == knob)
        floor = loo_gate.FLOORS[knob]
        table = _replace(_table(), knob, workload, off_median_s=2.0 * floor - 0.01)
        problems = loo_gate.failures(table)
        assert len(problems) == 1
        assert problems[0].startswith(f"{knob} on {workload}: off/on")
        assert f"below its {floor:.2f}x floor" in problems[0]
        # Exactly at the floor passes.
        assert loo_gate.failures(_replace(table, knob, workload,
                                          off_median_s=2.0 * floor)) == []

    def test_failed_cells(self):
        table = _replace(_table(), "segments", "divergent", cells_failed=2)
        assert loo_gate.failures(table) == ["segments on divergent: 2 failed cells"]

    def test_missing_row(self):
        table = _table()
        table["rows"] = [row for row in table["rows"]
                         if (row["knob"], row["workload"]) != ("grid", "grid")]
        assert loo_gate.failures(table) == ["grid on grid: no measured row"]

    def test_expected_row_that_did_not_engage(self):
        table = _table()
        table["rows"] = [
            _skip("warp_batch", "divergent")
            if (row["knob"], row["workload"]) == ("warp_batch", "divergent") else row
            for row in table["rows"]
        ]
        assert loo_gate.failures(table) == ["warp_batch on divergent: no measured row"]

    def test_main_reads_the_table(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "loo.json"
        monkeypatch.setattr(loo_gate, "LOO_TABLE", path)
        assert loo_gate.main() == 1
        assert "no table" in capsys.readouterr().out
        path.write_text(json.dumps(_table()))
        assert loo_gate.main() == 0
        out = capsys.readouterr().out
        assert "fastpath" in out and out.rstrip().endswith("passed")
        path.write_text(json.dumps(_replace(_table(), "fastpath", "grid", off_median_s=2.0)))
        assert loo_gate.main() == 1
        out = capsys.readouterr().out
        assert "FAIL fastpath on grid" in out and out.rstrip().endswith("failed")
