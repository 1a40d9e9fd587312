"""Optimizer tests: constant folding, DCE, CFG simplification, pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ReconvergenceCompiler, collect_predictions
from repro.frontend import compile_kernel_source
from repro.ir import (
    Opcode,
    count_static_instructions,
    verify_module,
)
from repro.core.passes import run_opt_fixpoint
from repro.opt import dce_module, fold_module, simplify_module
from repro.simt import GPUMachine
from repro.workloads import get_workload
from tests.helpers import listing1_module, loop_merge_source


def _instr_count(module):
    return sum(count_static_instructions(fn.blocks) for fn in module)


class TestConstFold:
    def test_folds_constant_arithmetic(self):
        module = compile_kernel_source(
            "kernel k() { let x = 2 + 3 * 4; store(tid(), x); }"
        )
        fold_module(module)
        fn = module.function("k")
        consts = [
            i.operands[0].value
            for _, _, i in fn.instructions()
            if i.opcode is Opcode.CONST
        ]
        assert 14 in consts

    def test_copy_propagation(self):
        module = compile_kernel_source(
            "kernel k() { let a = tid(); let b = a; store(b, 1.0); }"
        )
        fold_module(module)
        assert verify_module(module)

    def test_does_not_fold_guarded_division(self):
        # 1/0 must stay an executable div (interpreter defines it as 0).
        module = compile_kernel_source("kernel k() { store(tid(), 1 / 0); }")
        fold_module(module)
        fn = module.function("k")
        assert any(i.opcode is Opcode.DIV for _, _, i in fn.instructions())

    def test_fold_preserves_results(self):
        module = compile_kernel_source(
            "kernel k() { let x = (3 + 4) * tid() - 2; store(tid(), x); }"
        )
        reference = GPUMachine(module).launch("k", 8).memory.snapshot()
        fold_module(module)
        assert GPUMachine(module).launch("k", 8).memory.snapshot() == reference


class TestDCE:
    def test_removes_unused_values(self):
        module = compile_kernel_source(
            "kernel k() { let dead = tid() * 99; store(0, 1.0); }"
        )
        before = _instr_count(module)
        removed = dce_module(module)
        assert removed >= 2
        assert _instr_count(module) < before

    def test_keeps_stores_and_atomics(self):
        module = compile_kernel_source(
            "kernel k() { store(5, 1.0); let q = atomadd(9, 1); }"
        )
        dce_module(module)
        fn = module.function("k")
        opcodes = {i.opcode for _, _, i in fn.instructions()}
        assert Opcode.ST in opcodes and Opcode.ATOMADD in opcodes

    def test_keeps_rand_stream_position(self):
        # A dead rand() still advances the stream; deleting it would shift
        # all later draws.
        module = compile_kernel_source(
            "kernel k() { let dead = rand(); store(tid(), rand()); }"
        )
        reference = GPUMachine(module).launch("k", 4).memory.snapshot()
        dce_module(module)
        assert GPUMachine(module).launch("k", 4).memory.snapshot() == reference

    def test_keeps_barrier_ops(self):
        prog = ReconvergenceCompiler(allocate=False).compile(
            listing1_module(), mode="sr"
        )
        before = sum(
            1
            for _, _, i in prog.module.function("k").instructions()
            if i.is_barrier_op
        )
        dce_module(prog.module)
        after = sum(
            1
            for _, _, i in prog.module.function("k").instructions()
            if i.is_barrier_op
        )
        assert after == before


class TestSimplifyCFG:
    def test_folds_constant_branch(self):
        module = compile_kernel_source(
            "kernel k() { if (1) { store(0, 1.0); } else { store(0, 2.0); } }"
        )
        fold_module(module)
        simplify_module(module)
        fn = module.function("k")
        assert not any(i.opcode is Opcode.CBR for _, _, i in fn.instructions())
        result = GPUMachine(module).launch("k", 1)
        assert result.memory.load(0) == 1.0

    def test_preserves_labeled_blocks(self):
        module = compile_kernel_source(loop_merge_source())
        simplify_module(module)
        fn = module.function("lm")
        assert fn.blocks_with_label("L1")
        assert collect_predictions(fn)

    def test_merges_straightline_chains(self):
        module = compile_kernel_source(
            "kernel k() { let a = 1; if (tid() < 99) { let b = 2; } store(0, a); }"
        )
        before = len(module.function("k").blocks)
        fold_module(module)
        simplify_module(module)
        assert len(module.function("k").blocks) <= before
        assert verify_module(module)


class TestPipeline:
    def test_standard_pipeline_shrinks_workload(self):
        module = compile_kernel_source(loop_merge_source())
        before = _instr_count(module)
        report = run_opt_fixpoint(module)
        assert report.total_changes > 0
        assert _instr_count(module) < before
        assert "constfold" in report.describe()

    @pytest.mark.parametrize("name", ["rsbench", "mcb", "pathtracer"])
    def test_pipeline_shrinks_workload_kernels(self, name):
        module = get_workload(name).module().clone()
        before = _instr_count(module)
        run_opt_fixpoint(module)
        assert _instr_count(module) < before

    def test_optimize_then_sr_results_identical(self):
        module = compile_kernel_source(loop_merge_source())
        plain = ReconvergenceCompiler().compile(module, mode="sr")
        opted = ReconvergenceCompiler(optimize=True).compile(module, mode="sr")
        assert opted.report.opt_report is not None
        a = GPUMachine(plain.module).launch("lm", 32, args=(96,))
        b = GPUMachine(opted.module).launch("lm", 32, args=(96,))
        assert a.memory.snapshot() == b.memory.snapshot()
        assert b.cycles <= a.cycles  # optimization never slows the sim

    def test_fixpoint_converges(self):
        module = compile_kernel_source("kernel k() { store(0, 1.0); }")
        run_opt_fixpoint(module)
        second = run_opt_fixpoint(module)
        assert second.total_changes == 0


@st.composite
def foldable_kernel(draw):
    """Kernels mixing constant and thread-dependent arithmetic."""
    lines = ["let acc = 0.0;"]
    exprs = ["tid()", "1.5", "3"]
    for i in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(["+", "-", "*"]))
        a = draw(st.sampled_from(exprs))
        b = draw(st.sampled_from(exprs + ["acc"]))
        lines.append(f"let v{i} = {a} {op} {b};")
        lines.append(f"acc = acc + v{i};")
        exprs.append(f"v{i}")
    lines.append("store(tid(), acc);")
    body = "\n    ".join(lines)
    return f"kernel k() {{\n    {body}\n}}"


class TestOptProperty:
    @settings(max_examples=40, deadline=None)
    @given(foldable_kernel())
    def test_optimization_preserves_semantics(self, source):
        module = compile_kernel_source(source)
        reference = GPUMachine(module.clone()).launch("k", 8).memory.snapshot()
        run_opt_fixpoint(module)
        assert verify_module(module)
        assert GPUMachine(module).launch("k", 8).memory.snapshot() == pytest.approx(
            reference
        )
