"""Pre-Volta stack-based reconvergence machine tests (Section 2)."""

import pytest

from repro.core import compile_baseline, compile_sr
from repro.errors import LaunchError
from repro.frontend import compile_kernel_source
from repro.simt import GlobalMemory, GPUMachine, StackGPUMachine
from repro.workloads import get_workload
from tests.helpers import listing1_module, loop_merge_source


class TestCorrectness:
    def test_straightline_kernel(self):
        module = compile_kernel_source("kernel k() { store(tid(), tid() * 2); }")
        result = StackGPUMachine(module).launch("k", 32)
        assert result.memory.load(5) == 10

    def test_if_else_matches_its(self):
        module = compile_kernel_source(
            """
kernel k() {
    if (tid() < 10) { store(tid(), 1.0); } else { store(tid(), 2.0); }
}
"""
        )
        its = GPUMachine(module).launch("k", 32)
        stack = StackGPUMachine(module).launch("k", 32)
        assert its.memory.snapshot() == stack.memory.snapshot()

    def test_divergent_loop_matches_its(self):
        module = compile_baseline(listing1_module()).module
        its = GPUMachine(module).launch("k", 32)
        stack = StackGPUMachine(module).launch("k", 32)
        assert its.memory.snapshot() == stack.memory.snapshot()

    def test_nested_divergence(self):
        module = compile_kernel_source(
            """
kernel k() {
    let x = 0.0;
    let t = tid();
    for i in 0..8 {
        if (hash01(t + i) < 0.5) {
            if (hash01(t * 3.0 + i) < 0.5) { x = x + 1.0; }
            else { x = x + 0.5; }
        }
    }
    store(t, x);
}
"""
        )
        its = GPUMachine(module).launch("k", 32)
        stack = StackGPUMachine(module).launch("k", 32)
        assert its.memory.snapshot() == stack.memory.snapshot()

    def test_function_calls(self):
        module = compile_kernel_source(
            """
func f(x) { if (x < 8) { return x * 2; } return x; }
kernel k() { store(tid(), @f(tid())); }
"""
        )
        stack = StackGPUMachine(module).launch("k", 16)
        assert stack.memory.load(3) == 6
        assert stack.memory.load(12) == 12

    def test_multiwarp(self):
        module = compile_kernel_source("kernel k() { store(tid(), warpid()); }")
        result = StackGPUMachine(module).launch("k", 70)
        assert result.memory.load(65) == 2

    def test_launch_validation(self):
        module = compile_kernel_source("func f() { return 0; }")
        with pytest.raises(LaunchError):
            StackGPUMachine(module).launch("f", 32)


class TestNoSpeculativeReconvergence:
    """SR annotations are inert on the stack machine — the reason the
    technique needs Volta's independent thread scheduling."""

    def test_sr_has_no_effect_on_stack_machine(self):
        module = compile_kernel_source(loop_merge_source())
        base = compile_baseline(module).module
        sr = compile_sr(module).module
        a = StackGPUMachine(base).launch("lm", 32, args=(128,))
        b = StackGPUMachine(sr).launch("lm", 32, args=(128,))
        assert a.memory.snapshot() == b.memory.snapshot()
        assert a.simt_efficiency == pytest.approx(b.simt_efficiency)
        # ITS, in contrast, reacts to the barriers.
        GPUMachine(base).launch("lm", 32, args=(128,))
        its_sr = GPUMachine(sr).launch("lm", 32, args=(128,))
        assert its_sr.profiler.barrier_issues > 0
        assert a.memory.snapshot() == its_sr.memory.snapshot()

    def test_stack_baseline_close_to_its_baseline(self):
        module = compile_baseline(compile_kernel_source(loop_merge_source())).module
        its = GPUMachine(module).launch("lm", 32, args=(128,))
        stack = StackGPUMachine(module).launch("lm", 32, args=(128,))
        assert stack.simt_efficiency == pytest.approx(its.simt_efficiency, abs=0.1)


class TestPinnedTotals:
    """Literal profiler totals, so an accounting change cannot zero or
    shift the stack machine's numbers while conformance (which compares
    the stack machine only with itself) still passes."""

    def test_pathtracer_baseline(self):
        workload = get_workload(
            "pathtracer", samples_per_thread=2, max_bounces=8, shade_cost=8
        )
        compiled = compile_baseline(workload.module())
        memory = GlobalMemory()
        args = workload.setup(memory)
        result = StackGPUMachine(compiled.module).launch(
            workload.kernel_name, 32, args=args, memory=memory
        )
        assert result.cycles == 1072
        assert result.profiler.issued == 1001
        assert result.simt_efficiency == 0.4388111888111888
        assert result.profiler.warp_cycles == {0: 1072}

    def test_loop_merge_sr_two_warps(self):
        module = compile_sr(compile_kernel_source(loop_merge_source())).module
        result = StackGPUMachine(module).launch("lm", 40, args=(128,))
        assert result.cycles == 3955
        assert result.profiler.issued == 6844
        assert result.simt_efficiency == 0.2860717416715371
        assert result.profiler.warp_cycles == {0: 3955, 1: 2922}
