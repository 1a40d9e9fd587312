"""srkc and trace CLI driver tests."""

import json
import os

import pytest

from repro.tools.srkc import build_parser, main
from repro.tools.trace import main as trace_main

ITERATION_DELAY = "examples/kernels/iteration_delay.srk"

KERNEL = """
kernel axpy(n) {
    let i = tid();
    if (i < n) {
        store(100 + i, i * 2.0 + 1.0);
    }
}
"""

DIVERGENT = """
kernel d() {
    let acc = 0.0;
    let t = tid();
    predict L1;
    for i in 0..16 {
        if (hash01(t * 9.0 + i) < 0.2) {
            label L1: acc = acc + 1.0;
            acc = fma(acc, 0.99, 0.5); acc = fma(acc, 0.99, 0.5);
            acc = fma(acc, 0.99, 0.5); acc = fma(acc, 0.99, 0.5);
            acc = fma(acc, 0.99, 0.5); acc = fma(acc, 0.99, 0.5);
        }
    }
    store(t, acc);
}
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "axpy.srk"
    path.write_text(KERNEL)
    return str(path)


@pytest.fixture
def divergent_file(tmp_path):
    path = tmp_path / "d.srk"
    path.write_text(DIVERGENT)
    return str(path)


class TestCLI:
    def test_compile_only(self, kernel_file, capsys):
        assert main([kernel_file]) == 0
        assert capsys.readouterr().out == ""

    def test_emit_ir(self, kernel_file, capsys):
        main([kernel_file, "--emit-ir"])
        out = capsys.readouterr().out
        assert "func @axpy" in out and "kernel" in out

    def test_run_with_args(self, kernel_file, capsys):
        assert main([kernel_file, "--run", "--args", "8", "--threads", "16"]) == 0
        out = capsys.readouterr().out
        assert "SIMT efficiency" in out

    def test_dump_memory(self, kernel_file, capsys):
        main([kernel_file, "--run", "--args", "4", "--dump-memory"])
        out = capsys.readouterr().out
        assert "mem[100]" in out and "mem[103]" in out

    def test_compare_baseline(self, divergent_file, capsys):
        main([divergent_file, "--run", "--compare-baseline", "--threshold", "8"])
        out = capsys.readouterr().out
        assert "[sr]" in out and "[baseline]" in out and "speedup" in out

    def test_report(self, divergent_file, capsys):
        main([divergent_file, "--report"])
        out = capsys.readouterr().out
        assert "Predict" in out

    def test_optimize_flag(self, divergent_file, capsys):
        main([divergent_file, "--report", "--optimize"])
        out = capsys.readouterr().out
        assert "opt:" in out

    def test_mode_choices(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["x.srk", "--mode", "hyperdrive"])

    def test_float_args(self, tmp_path, capsys):
        path = tmp_path / "f.srk"
        path.write_text("kernel f(x) { store(tid(), x * 2.0); }")
        main([str(path), "--run", "--args", "1.5", "--dump-memory", "--threads", "1"])
        out = capsys.readouterr().out
        assert "3.0" in out

    def test_parse_error_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "bad.srk"
        path.write_text("kernel k( {")
        assert main([str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: expected 'name', got '{' at line 1\n"
        )

    def test_missing_source_is_one_line(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.srk")
        assert main([missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert missing in err

    def test_malformed_arg_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([ITERATION_DELAY, "--run", "--args", "abc"])
        assert exit_info.value.code == 2
        assert "invalid number value: 'abc'" in capsys.readouterr().err

    def test_example_kernels_compile_and_run(self, capsys):
        for path, args in (
            ("examples/kernels/iteration_delay.srk", ["--args", "16"]),
            ("examples/kernels/loop_merge.srk", ["--args", "64"]),
        ):
            assert main([path, "--run"] + args) == 0


class TestTraceCLI:
    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            trace_main(["--help"])
        assert exit_info.value.code == 0
        assert "--timeline" in capsys.readouterr().out

    def test_list(self, capsys):
        assert trace_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "funccall" in out and "mcb" in out

    def test_requires_exactly_one_target(self, divergent_file):
        with pytest.raises(SystemExit):
            trace_main([])
        with pytest.raises(SystemExit):
            trace_main(["funccall", "--source", divergent_file])

    def test_source_summary_and_spans(self, divergent_file, capsys):
        assert trace_main(
            ["--source", divergent_file, "--summary", "--spans"]
        ) == 0
        out = capsys.readouterr().out
        assert "SIMT efficiency" in out
        assert "Cycle attribution" in out
        assert "barrier_wait" in out
        assert "pdom-sync" in out

    def test_workload_export_is_valid_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert trace_main(["funccall", "-o", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        pids = {e["pid"] for e in events}
        assert pids == {0, 1}  # compiler spans and simulator events
        assert all("name" in e and "ph" in e for e in events)
        names = {e["name"] for e in events if e["pid"] == 0}
        assert "pdom-sync" in names

    def test_timeline_output(self, divergent_file, capsys):
        assert trace_main(
            ["--source", divergent_file, "--timeline", "--width", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "T00 |" in out and "cycles" in out

    def test_unknown_workload_errors(self, capsys):
        assert trace_main(["no-such-workload"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: unknown workload 'no-such-workload'"
        )

    def test_parse_error_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "bad.srk"
        path.write_text("kernel k( {")
        assert trace_main(["--source", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: expected 'name', got '{' at line 1\n"
        )

    def test_missing_source_is_one_line(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.srk")
        assert trace_main(["--source", missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert missing in err

    def test_malformed_arg_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            trace_main(["--source", ITERATION_DELAY, "--args", "abc"])
        assert exit_info.value.code == 2
        assert "invalid number value: 'abc'" in capsys.readouterr().err


class TestOptCLI:
    """python -m repro.tools.opt: pipelines over textual IR."""

    def test_list_passes(self, capsys):
        from repro.tools.opt import main as opt_main

        assert opt_main(["--list-passes"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines == sorted(lines)
        assert any(line.startswith("pdom-sync") for line in lines)
        assert any(line.startswith("deconflict") for line in lines)

    def test_srk_input_mode_pipeline(self, divergent_file, capsys):
        from repro.tools.opt import main as opt_main

        assert opt_main([divergent_file, "--mode", "sr"]) == 0
        out = capsys.readouterr().out
        assert "func @d" in out
        assert "bssy" in out  # barriers inserted

    def test_textual_ir_round_trip(self, divergent_file, tmp_path, capsys):
        from repro.tools.opt import main as opt_main

        ir_path = tmp_path / "d.ir"
        assert opt_main(
            [divergent_file, "--pipeline", "strip-directives",
             "-o", str(ir_path)]
        ) == 0
        assert opt_main(
            [str(ir_path), "--pipeline", "pdom-sync,allocate,verify",
             "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "pipeline: pdom-sync,allocate,verify" in out
        assert "span: pdom-sync" in out
        assert "analysis cache:" in out

    def test_record_and_bisect(self, divergent_file, tmp_path, capsys):
        from repro.tools.opt import main as opt_main

        trace_path = tmp_path / "trace.json"
        assert opt_main(
            [divergent_file, "--record-trace", str(trace_path)]
        ) == 0
        assert opt_main([divergent_file, "--bisect", str(trace_path)]) == 0
        assert "agree" in capsys.readouterr().out
        altered = (
            "collect-predictions,pdom-sync,sr-insert,deconflict[static],"
            "strip-directives,allocate,verify"
        )
        assert opt_main(
            [divergent_file, "--pipeline", altered,
             "--bisect", str(trace_path)]
        ) == 1
        assert "first divergence" in capsys.readouterr().out

    def test_stop_after_and_report(self, divergent_file, capsys):
        from repro.tools.opt import main as opt_main

        assert opt_main(
            [divergent_file, "--stop-after", "pdom-sync", "--report",
             "--emit-ir"]
        ) == 0
        out = capsys.readouterr().out
        assert "predict" in out  # directives still present mid-pipeline
        assert "pipeline:" in out

    def test_bad_pipeline_errors(self, divergent_file, capsys):
        from repro.tools.opt import main as opt_main

        assert opt_main(
            [divergent_file, "--pipeline", "no-such-pass"]
        ) == 1
        assert "unknown pass" in capsys.readouterr().err

    def test_missing_input_is_one_line(self, tmp_path, capsys):
        from repro.tools.opt import main as opt_main

        missing = str(tmp_path / "missing.ll")
        assert opt_main([missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert missing in err


class TestHarnessCLIFlags:
    def test_list_passes(self, capsys):
        from repro.harness.__main__ import main as harness_main

        assert harness_main(["--list-passes"]) == 0
        out = capsys.readouterr().out
        assert "pdom-sync" in out and "allocate" in out

    def test_pipeline_sets_env(self, monkeypatch):
        """``--pipeline`` sets ``REPRO_PIPELINE`` for the figures it runs,
        so their compiles run that pipeline, and restores the caller's
        value when it returns."""
        from repro.core import ReconvergenceCompiler
        from repro.core.passmgr import format_pipeline
        from repro.harness.__main__ import main as harness_main
        from repro.harness.figures import ALL_FIGURES, FigureResult

        monkeypatch.delenv("REPRO_PIPELINE", raising=False)
        seen = []

        def figure(seed):
            seen.append((
                os.environ.get("REPRO_PIPELINE"),
                format_pipeline(ReconvergenceCompiler().resolve_pipeline("sr")),
            ))
            return FigureResult(name="funccall", data=None, text="")

        monkeypatch.setitem(ALL_FIGURES, "funccall", figure)
        assert harness_main(
            ["--pipeline", "strip-directives,verify", "funccall"]
        ) == 0
        assert seen == [("strip-directives,verify", "strip-directives,verify")]
        assert "REPRO_PIPELINE" not in os.environ
        # A bad description fails fast, before any figure runs.
        assert harness_main(["--pipeline", "no-such-pass", "funccall"]) == 1
        assert len(seen) == 1
        assert "REPRO_PIPELINE" not in os.environ

    def test_repro_error_is_one_line(self, capsys):
        from repro.harness.__main__ import main as harness_main

        assert harness_main(["--pipeline", "bogus", "table2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown pass 'bogus'; ")
        assert captured.err.count("\n") == 1
