"""Compiler pipeline tests: modes, reports, immutability, determinism."""

import pytest

from repro.core import MODES, ReconvergenceCompiler, compile_baseline, compile_sr
from repro.errors import TransformError
from repro.ir import Opcode, format_module, parse_module, verify_module
from repro.simt import GPUMachine
from tests.helpers import STUCK_LOOP_IR, listing1_module


class TestModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(TransformError):
            ReconvergenceCompiler().compile(listing1_module(), mode="warp9")

    def test_all_modes_compile_and_verify(self):
        for mode in MODES:
            prog = ReconvergenceCompiler().compile(listing1_module(), mode=mode)
            assert verify_module(prog.module)

    def test_block_with_no_path_to_an_exit_compiles_in_every_mode(self):
        module = parse_module(STUCK_LOOP_IR)
        for mode in MODES:
            prog = ReconvergenceCompiler().compile(module, mode=mode)
            assert verify_module(prog.module)

    def test_input_module_never_mutated(self):
        module = listing1_module()
        before = format_module(module)
        ReconvergenceCompiler().compile(module, mode="sr")
        assert format_module(module) == before

    def test_baseline_has_pdom_only(self):
        prog = compile_baseline(listing1_module())
        origins = {
            i.attrs.get("origin")
            for _, _, i in prog.module.function("k").instructions()
            if i.is_barrier_op
        }
        assert origins == {"pdom"}

    def test_none_mode_has_no_barriers(self):
        prog = ReconvergenceCompiler().compile(listing1_module(), mode="none")
        assert not [
            i
            for _, _, i in prog.module.function("k").instructions()
            if i.is_barrier_op
        ]

    def test_sr_mode_has_both(self):
        prog = compile_sr(listing1_module())
        origins = {
            i.attrs.get("origin")
            for _, _, i in prog.module.function("k").instructions()
            if i.is_barrier_op
        }
        assert {"pdom", "sr"} <= origins

    def test_predict_stripped_in_every_mode(self):
        for mode in MODES:
            prog = ReconvergenceCompiler().compile(listing1_module(), mode=mode)
            assert not [
                i
                for _, _, i in prog.module.function("k").instructions()
                if i.opcode is Opcode.PREDICT
            ]


class TestReports:
    def test_report_contents(self):
        prog = compile_sr(listing1_module())
        report = prog.report
        assert report.mode == "sr"
        assert len(report.predictions) == 1
        assert len(report.sr_reports) == 1
        assert report.deconfliction_reports
        assert report.allocation["k"]
        assert "Predict" in report.describe()

    def test_baseline_report_skips_sr(self):
        prog = compile_baseline(listing1_module())
        assert prog.report.predictions == []
        assert prog.report.sr_reports == []


class TestDeterminism:
    def test_compilation_is_deterministic(self):
        a = compile_sr(listing1_module())
        b = compile_sr(listing1_module())
        assert format_module(a.module) == format_module(b.module)

    def test_none_mode_correctness(self):
        # Even with NO synchronization, per-thread results are identical —
        # barriers are a performance feature, never a correctness one.
        base = compile_baseline(listing1_module())
        none = ReconvergenceCompiler().compile(listing1_module(), mode="none")
        a = GPUMachine(base.module).launch("k", 32)
        b = GPUMachine(none.module).launch("k", 32)
        assert a.memory.snapshot() == b.memory.snapshot()
