"""Automatic detection heuristics (Section 4.5)."""

from repro.core import (
    ReconvergenceCompiler,
    detect_and_annotate,
    detect_candidates,
)
from repro.core.autodetect import KIND_ITERATION_DELAY, KIND_LOOP_MERGE
from repro.frontend import compile_kernel_source
from repro.ir import Opcode
from repro.simt import GPUMachine
from repro.workloads import get_workload
from tests.helpers import loop_merge_source

ITERATION_DELAY_SRC = """
kernel k() {
    let x = 0.0;
    let t = tid();
    for i in 0..16 {
        x = x * 0.99;
        if (hash01(t * 3.0 + i) < 0.2) {
            x = fma(x, 1.01, 0.5); x = fma(x, 1.01, 0.5);
            x = fma(x, 1.01, 0.5); x = fma(x, 1.01, 0.5);
            x = fma(x, 1.01, 0.5); x = fma(x, 1.01, 0.5);
            x = fma(x, 1.01, 0.5); x = fma(x, 1.01, 0.5);
            x = fma(x, 1.01, 0.5); x = fma(x, 1.01, 0.5);
            x = fma(x, 1.01, 0.5); x = fma(x, 1.01, 0.5);
        }
    }
    store(t, x);
}
"""

BALANCED_SRC = """
kernel k() {
    let x = 0.0;
    let y = 0.0;
    let t = tid();
    for i in 0..12 {
        if (hash01(t + i) < 0.5) {
            x = fma(x, 1.01, 0.5); x = fma(x, 1.01, 0.5);
            x = fma(x, 1.01, 0.5); x = fma(x, 1.01, 0.5);
        } else {
            y = fma(y, 1.01, 0.5); y = fma(y, 1.01, 0.5);
            y = fma(y, 1.01, 0.5); y = fma(y, 1.01, 0.5);
        }
    }
    store(t, x + y);
}
"""

WARPSYNC_SRC = """
kernel k() {
    let x = 0.0;
    let t = tid();
    while (t < 64) {
        let u = hash01(t * 1.1);
        let trips = floor(u * 20.0) + 1;
        let j = 0;
        while (j < trips) {
            x = fma(x, 1.01, 0.5); x = fma(x, 1.01, 0.5);
            x = fma(x, 1.01, 0.5); x = fma(x, 1.01, 0.5);
            warpsync;
            j = j + 1;
        }
        t = t + 32;
    }
    store(tid(), x);
}
"""

UNIFORM_SRC = """
kernel k() {
    let x = 0.0;
    for i in 0..10 { x = fma(x, 1.01, 0.5); }
    store(tid(), x);
}
"""


class TestDetection:
    def test_loop_merge_detected(self):
        module = compile_kernel_source(loop_merge_source())
        candidates = detect_candidates(module.function("lm"))
        accepted = [c for c in candidates if c.accepted]
        assert any(c.kind == KIND_LOOP_MERGE for c in accepted)

    def test_iteration_delay_detected(self):
        module = compile_kernel_source(ITERATION_DELAY_SRC)
        candidates = detect_candidates(module.function("k"))
        accepted = [c for c in candidates if c.accepted]
        assert any(c.kind == KIND_ITERATION_DELAY for c in accepted)

    def test_balanced_branches_rejected(self):
        module = compile_kernel_source(BALANCED_SRC)
        candidates = detect_candidates(module.function("k"))
        assert not [c for c in candidates if c.accepted]
        assert any(c.rejected == "balanced-paths" for c in candidates)

    def test_warpsync_region_rejected(self):
        module = compile_kernel_source(WARPSYNC_SRC)
        candidates = detect_candidates(module.function("k"))
        assert not [c for c in candidates if c.accepted]
        assert any(c.rejected == "warpsync" for c in candidates)

    def test_uniform_kernel_no_candidates(self):
        module = compile_kernel_source(UNIFORM_SRC)
        assert detect_candidates(module.function("k")) == []

    def test_rsbench_loop_merge_found(self):
        module = get_workload("rsbench").module()
        candidates = detect_candidates(module.function("rsbench_lookup"))
        accepted = [c for c in candidates if c.accepted]
        assert accepted and accepted[0].kind == KIND_LOOP_MERGE
        # The label is the inner-loop body side.
        assert accepted[0].label_block.startswith(("while.body", "L."))

    def test_candidate_describe(self):
        module = compile_kernel_source(loop_merge_source())
        candidate = detect_candidates(module.function("lm"))[0]
        text = candidate.describe()
        assert candidate.kind in text and candidate.label_block in text


class TestProfileGuided:
    def test_profile_rejects_already_efficient_regions(self):
        module = compile_kernel_source(UNIFORM_SRC + loop_merge_source())
        prog = ReconvergenceCompiler().compile(module, mode="baseline")
        launch = GPUMachine(prog.module).launch("lm", 32, args=(32 * 4,))
        candidates = detect_candidates(
            module.function("lm"), profiler=launch.profiler
        )
        # The divergent inner loop really is inefficient: stays accepted.
        assert [c for c in candidates if c.accepted]

    def test_profile_costs_used(self):
        module = compile_kernel_source(loop_merge_source())
        prog = ReconvergenceCompiler().compile(module, mode="baseline")
        launch = GPUMachine(prog.module).launch("lm", 32, args=(32 * 4,))
        static = detect_candidates(module.function("lm"))[0]
        profiled = detect_candidates(
            module.function("lm"), profiler=launch.profiler
        )[0]
        assert profiled.common_cost != static.common_cost


def _unannotated_loop_merge():
    """loop_merge_source without the user's own predict directive."""
    return compile_kernel_source(
        loop_merge_source().replace("    predict L1;\n", "")
    )


class TestAnnotation:
    def test_detect_and_annotate_inserts_directive(self):
        module = _unannotated_loop_merge()
        candidates = detect_and_annotate(module)
        accepted = [c for c in candidates if c.accepted]
        assert accepted
        fn = module.function("lm")
        predicts = [
            i for _, _, i in fn.instructions() if i.opcode is Opcode.PREDICT
        ]
        assert len(predicts) == 1
        assert predicts[0].attrs["threshold"] == 16

    def test_per_function_limit(self):
        module = _unannotated_loop_merge()
        detect_and_annotate(module, max_per_function=0)
        fn = module.function("lm")
        predicts = [
            i for _, _, i in fn.instructions() if i.opcode is Opcode.PREDICT
        ]
        assert not predicts

    def test_auto_mode_end_to_end_matches_baseline_results(self):
        module = _unannotated_loop_merge()
        baseline = ReconvergenceCompiler().compile(module, mode="baseline")
        auto = ReconvergenceCompiler().compile(module, mode="auto")
        assert [c for c in auto.report.auto_candidates if c.accepted]
        a = GPUMachine(baseline.module).launch("lm", 32, args=(32 * 4,))
        b = GPUMachine(auto.module).launch("lm", 32, args=(32 * 4,))
        assert a.memory.snapshot() == b.memory.snapshot()


#: The branch reads a call result. The callee returns a constant, so with
#: callee summaries (the module divergence analysis) the branch is
#: uniform; without them, as autodetect analyses each function, it is
#: divergent and the expensive side is an Iteration Delay candidate.
CALL_PREDICATE_SRC = """
func pick(v) {
    return 0.1;
}

kernel k() {
    let x = 0.0;
    let t = tid();
    for i in 0..16 {
        x = x * 0.99;
        if (@pick(i) < 0.2) {
            x = fma(x, 1.01, 0.5); x = fma(x, 1.01, 0.5);
            x = fma(x, 1.01, 0.5); x = fma(x, 1.01, 0.5);
            x = fma(x, 1.01, 0.5); x = fma(x, 1.01, 0.5);
            x = fma(x, 1.01, 0.5); x = fma(x, 1.01, 0.5);
            x = fma(x, 1.01, 0.5); x = fma(x, 1.01, 0.5);
            x = fma(x, 1.01, 0.5); x = fma(x, 1.01, 0.5);
        }
    }
    store(t, x);
}
"""


class TestSharedDivergence:
    """The autodetect pass reads the pass manager's module divergence
    analysis only where it equals the per-function one."""

    def test_functions_with_calls_keep_per_function_divergence(self):
        from repro.analysis.divergence import analyze_module_divergence

        module = compile_kernel_source(CALL_PREDICATE_SRC)
        module_divergence = analyze_module_divergence(module)
        assert not module_divergence["k"].divergent_branches
        compiled = ReconvergenceCompiler().compile(module, mode="auto")
        expected = detect_and_annotate(module.clone())
        assert [c.describe() for c in compiled.report.auto_candidates] == [
            c.describe() for c in expected
        ]
        assert any(
            c.function == "k" and c.kind == KIND_ITERATION_DELAY
            for c in expected
        )

    def test_call_free_functions_use_the_module_analysis(self, monkeypatch):
        from repro.analysis.divergence import analyze_module_divergence
        from repro.core import autodetect

        module = compile_kernel_source(CALL_PREDICATE_SRC)
        shared = analyze_module_divergence(module)
        seen = {}
        detect = autodetect.detect_candidates

        def spy(function, divergence=None, **options):
            seen[function.name] = divergence
            return detect(function, divergence=divergence, **options)

        monkeypatch.setattr(autodetect, "detect_candidates", spy)
        detect_and_annotate(module, module_divergence=shared)
        assert seen == {"pick": shared["pick"], "k": None}
