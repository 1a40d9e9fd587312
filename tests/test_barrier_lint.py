"""Barrier-discipline lint tests."""

import pytest
from hypothesis import given, settings

from repro.core import (
    BarrierNamer,
    ReconvergenceCompiler,
    collect_predictions,
    compile_sr,
)
from repro.core.barrier_lint import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    lint_function,
    lint_module,
)
from repro.core.directives import strip_directives
from repro.core.insertion import insert_speculative_reconvergence
from repro.core.pdom_sync import insert_pdom_sync
from repro.errors import DeadlockError
from repro.frontend import compile_kernel_source
from repro.frontend.lower import lower_program
from repro.ir import Barrier, Function, Instruction, Opcode, make, parse_module
from repro.simt import SCHEDULERS, GPUMachine, GridLaunch
from tests.helpers import listing1_module
from tests.test_conformance import CROSSED_BARRIERS, ctasync_source
from tests.test_properties import random_kernel
from tests.test_regression_guards import TICKET_DEADLOCK_IR
from tests.test_warp_batch import RUN_AHEAD_DEADLOCK_IR, STAGGERED_DEADLOCK_IR


class TestCleanOutput:
    def test_pipeline_output_is_conflict_free(self):
        for mode in ("baseline", "sr"):
            prog = ReconvergenceCompiler().compile(listing1_module(), mode=mode)
            errors = lint_module(prog.module, errors_only=True)
            assert errors == [], [f.describe() for f in errors]

    def test_workload_pipelines_clean(self):
        from repro.workloads import get_workload

        for name in ("rsbench", "mcb", "funccall"):
            prog = get_workload(name).compile(mode="sr")
            errors = lint_module(prog.module, errors_only=True)
            assert errors == [], (name, [f.describe() for f in errors])

    def test_barrier_free_function_has_no_findings(self):
        fn = Function("f", is_kernel=True)
        fn.new_block("entry").append(Instruction(Opcode.EXIT))
        assert lint_function(fn) == []


class TestHazardDetection:
    def test_orphan_wait_flagged(self):
        fn = Function("f", is_kernel=True)
        block = fn.new_block("entry")
        block.append(make(Opcode.BSYNC, None, Barrier("b0")))
        block.append(Instruction(Opcode.EXIT))
        findings = lint_function(fn)
        assert any(f.kind == "orphan-wait" for f in findings)

    def test_unresolved_conflict_flagged_as_error(self):
        # SR insertion without deconfliction: the Section 4.3 hazard.
        module = listing1_module()
        fn = module.function("k")
        namer = BarrierNamer()
        insert_pdom_sync(fn, namer=namer)
        prediction = collect_predictions(fn)[0]
        insert_speculative_reconvergence(fn, prediction, namer=namer)
        findings = lint_function(fn)
        errors = [f for f in findings if f.severity == SEVERITY_ERROR]
        assert any(f.kind == "unresolved-conflict" for f in errors)

    def test_deconfliction_silences_the_error(self):
        prog = ReconvergenceCompiler().compile(listing1_module(), mode="sr")
        findings = lint_module(prog.module)
        assert not any(f.kind == "unresolved-conflict" for f in findings)

    def test_finding_describe(self):
        fn = Function("f", is_kernel=True)
        block = fn.new_block("entry")
        block.append(make(Opcode.BSYNC, None, Barrier("b0")))
        block.append(Instruction(Opcode.EXIT))
        finding = lint_function(fn)[0]
        text = finding.describe()
        assert "orphan-wait" in text and "b0" in text


class TestLintVersusDeadlocks:
    """What the lint says about each kernel the fuzzers drive into a
    ``DeadlockError``, and about the hand-written deadlocks the suite pins
    (``docs/architecture.md``, "The lint versus real deadlocks")."""

    @pytest.mark.parametrize("use_shared", [False, True])
    @pytest.mark.parametrize("position", ["uniform", "divergent", "tail"])
    def test_ctasync_fuzz_kernels(self, position, use_shared):
        """``ctasync_kernel``'s shapes: a CTA barrier inside the divergent
        branch deadlocks against the SR barriers, one before or after the
        loop completes. The lint gives all of them the same single
        ``stranded`` warning and no error: it has no rule for ``ctasync``
        (a gap), so its verdict does not tell the deadlocks apart."""
        source = ctasync_source(2, 0.5, position, use_shared)
        module = compile_sr(compile_kernel_source(source)).module

        def launch():
            return GridLaunch(
                module, 4, 32, jobs=1, shared_words=4, seed=2020
            ).launch("k")

        if position == "divergent":
            with pytest.raises(DeadlockError):
                launch()
        else:
            launch()
        assert [f.kind for f in lint_module(module)] == ["stranded"]
        assert lint_module(module, errors_only=True) == []

    def test_crossed_cta_and_warp_syncs_are_missed(self):
        """``ctasync`` in one arm and ``warpsync`` in the other deadlock
        every launch; the lint, which reads convergence barriers only,
        finds nothing (a documented limit)."""
        module = compile_sr(compile_kernel_source(CROSSED_BARRIERS)).module
        with pytest.raises(DeadlockError):
            GPUMachine(module).launch("k", 32)
        assert lint_module(module) == []

    @pytest.mark.parametrize("source,n_threads", [
        (TICKET_DEADLOCK_IR, 96),
        (STAGGERED_DEADLOCK_IR, 32),
        (RUN_AHEAD_DEADLOCK_IR, 64),
    ])
    def test_hand_written_conflicts_are_warnings(self, source, n_threads):
        """The Section 4.3 deadlocks written as IR are flagged as an
        unresolved conflict, but as a warning only: their barriers carry
        no ``origin``, so nothing marks them as SR barriers."""
        module = parse_module(source)
        with pytest.raises(DeadlockError):
            GPUMachine(module).launch("k", n_threads)
        findings = lint_module(module)
        assert [(f.kind, f.severity) for f in findings] == [
            ("unresolved-conflict", SEVERITY_WARNING)
        ]

    def test_undeconflicted_insertion_is_an_error(self):
        """SR insertion without deconfliction deadlocks and is the one
        deadlock the lint reports as an error."""
        module = listing1_module()
        fn = module.function("k")
        namer = BarrierNamer()
        insert_pdom_sync(fn, namer=namer)
        insert_speculative_reconvergence(
            fn, collect_predictions(fn)[0], namer=namer
        )
        strip_directives(fn)
        with pytest.raises(DeadlockError):
            GPUMachine(module).launch("k", 32)
        assert any(
            f.kind == "unresolved-conflict"
            for f in lint_module(module, errors_only=True)
        )

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(random_kernel(allow_atomics=True))
    def test_random_kernels_do_not_deadlock(self, program):
        """``random_kernel`` drives no kernel into a deadlock: its atomic
        tickets feed only the stored value, never a branch, so barrier
        membership does not depend on them (none in 1,500 derandomized
        examples under each scheduler at 32 and 96 threads)."""
        module = compile_sr(lower_program(program)).module
        for scheduler in sorted(SCHEDULERS):
            GPUMachine(module, scheduler=scheduler).launch("k", 96)
