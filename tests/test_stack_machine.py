"""Pre-Volta stack-based reconvergence machine tests (Section 2)."""

import pytest

from repro.core import compile_baseline, compile_sr
from repro.errors import ConfigError, LaunchError
from repro.frontend import compile_kernel_source
from repro.ir import parse_module
from repro.simt import (
    GlobalMemory,
    GPUMachine,
    GridLaunch,
    StackGPUMachine,
    make_scheduler,
    run_reference_thread,
)
from repro.workloads import get_workload
from tests.helpers import STUCK_LOOP_IR, listing1_module, loop_merge_source


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


#: The kernel the malformed-input tests launch.
MALFORMED_TARGET = "kernel k(n) { if (tid() < n) { store(tid(), 1.0); } }"


class TestLaunchErrorsMatchGPUMachine:
    """Both machines share one launch check and one issue budget, counted
    across the whole launch, so a bad launch fails with the same text."""

    @pytest.mark.parametrize(
        "n_threads, args, message",
        [
            (0, (), "launch needs at least one thread, got 0"),
            (64, (1,), "@k takes 0 arguments, got 1"),
            (64, (), "@k exceeded 200 issue slots"),
        ],
        ids=["no-threads", "wrong-arg-count", "issue-budget"],
    )
    def test_same_launch_error(self, n_threads, args, message):
        module = parse_module(STUCK_LOOP_IR)
        texts = []
        for machine_cls in (GPUMachine, StackGPUMachine):
            machine = machine_cls(module, max_issues=200)
            with pytest.raises(LaunchError, match=message) as info:
                machine.launch("k", n_threads, args)
            texts.append(str(info.value))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize(
        "source, kernel_name, n_threads, args, message",
        [
            ("kernel k() { store(tid(), 1.0); }", "k", 0, (),
             "launch needs at least one thread, got 0"),
            ("kernel k() { store(tid(), 1.0); }", "k", 64, (1,),
             "@k takes 0 arguments, got 1"),
            ("kernel k(a, b) { store(a, b); }", "k", 32, (5,),
             "@k takes 2 arguments, got 1"),
            ("func f() { return 0; }", "f", 32, (), "@f is not a kernel"),
        ],
        ids=["no-threads", "too-many-args", "too-few-args", "not-a-kernel"],
    )
    def test_reference_thread_same_launch_error(
        self, source, kernel_name, n_threads, args, message
    ):
        # The single-thread reference makes the same launch check before
        # its own tid-range check.
        module = compile_kernel_source(source)
        with pytest.raises(LaunchError, match=message) as machine:
            GPUMachine(module).launch(kernel_name, n_threads, args)
        with pytest.raises(LaunchError) as reference:
            run_reference_thread(module, kernel_name, 0, n_threads, args)
        assert str(reference.value) == str(machine.value)

    @pytest.mark.parametrize(
        "n_threads, args, message",
        [
            (32.0, (4,), "thread count must be an int, got 32.0"),
            ("32", (4,), "thread count must be an int, got '32'"),
            (True, (4,), "thread count must be an int, got True"),
            (32, ("x",), "@k arguments must be int, float or bool, got 'x'"),
        ],
        ids=["float-threads", "str-threads", "bool-threads", "str-arg"],
    )
    @pytest.mark.parametrize("machine_cls", [GPUMachine, StackGPUMachine])
    def test_malformed_launch_is_a_launch_error(
        self, machine_cls, n_threads, args, message
    ):
        module = compile_kernel_source(MALFORMED_TARGET)
        with pytest.raises(LaunchError, match=message):
            machine_cls(module).launch("k", n_threads, args)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda m: GridLaunch(m, 2.0, 32), LaunchError,
             "grid_dim must be an int, got 2.0"),
            (lambda m: GridLaunch(m, 2, 32.0), LaunchError,
             "cta_dim must be an int, got 32.0"),
            (lambda m: run_reference_thread(m, "k", 1.5, 32, (4,)),
             LaunchError, "tid must be an int, got 1.5"),
            (lambda m: make_scheduler("bogus"), ConfigError,
             "unknown scheduler 'bogus'"),
        ],
        ids=["float-grid-dim", "float-cta-dim", "float-tid",
             "unknown-scheduler"],
    )
    def test_malformed_setting_is_a_typed_error(self, call, error, message):
        module = compile_kernel_source(MALFORMED_TARGET)
        with pytest.raises(error, match=message):
            call(module)


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

    @pytest.mark.parametrize("name", ["mcb", "pathtracer"])
    def test_sr_inert_on_stack_effective_on_its(self, name):
        """On Table-2 workloads SR leaves the stack machine's efficiency
        exactly where it was and raises the ITS machine's."""
        workload = get_workload(name)
        efficiency = {}
        for mode in ("baseline", "sr"):
            module = workload.compile(mode=mode).module
            for machine_cls in (StackGPUMachine, GPUMachine):
                memory = GlobalMemory()
                args = workload.setup(memory)
                launch = machine_cls(module).launch(
                    workload.kernel_name, 32, args=args, memory=memory
                )
                efficiency[machine_cls, mode] = launch.simt_efficiency
        assert efficiency[StackGPUMachine, "sr"] == pytest.approx(
            efficiency[StackGPUMachine, "baseline"], abs=1e-9
        )
        assert efficiency[GPUMachine, "sr"] > efficiency[GPUMachine, "baseline"]

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
