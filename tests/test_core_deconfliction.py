"""Conflict analysis and deconfliction (Section 4.3, Figure 5).

Includes the load-bearing demonstration: without deconfliction, the SR
barrier and the PDOM barrier deadlock the warp; either strategy fixes it.
"""

import pytest

from repro.core import (
    BarrierNamer,
    ConflictAnalysis,
    ReconvergenceCompiler,
    collect_predictions,
    deconflict,
    insert_pdom_sync,
    insert_speculative_reconvergence,
    literal_barriers,
    remove_barrier_ops,
)
from repro.errors import DeadlockError, DeconflictionError
from repro.ir import Opcode
from repro.simt import GPUMachine
from tests.helpers import listing1_module, oracle_joined_points


def _inserted(with_deconflict=None):
    """Listing 1 with pdom + SR barriers; optionally deconflicted."""
    module = listing1_module()
    fn = module.function("k")
    namer = BarrierNamer()
    insert_pdom_sync(fn, namer=namer)
    prediction = collect_predictions(fn)[0]
    report = insert_speculative_reconvergence(fn, prediction, namer=namer)
    sr_barriers = [report.barrier, report.exit_barrier]
    if with_deconflict:
        deconflict(fn, sr_barriers, strategy=with_deconflict)
    from repro.core.directives import strip_directives

    strip_directives(fn)
    return module, fn, report


class TestConflictAnalysis:
    def test_sr_conflicts_with_pdom(self):
        module, fn, report = _inserted()
        analysis = ConflictAnalysis(fn)
        conflicting = analysis.conflicts_with(report.barrier)
        assert conflicting, "SR barrier must conflict with the PDOM barrier"

    def test_exit_barrier_does_not_conflict(self):
        # The orthogonal region-exit barrier covers everything inclusively.
        module, fn, report = _inserted()
        analysis = ConflictAnalysis(fn)
        assert analysis.conflicts_with(report.exit_barrier) == []

    def test_interference_is_weaker_than_conflict(self):
        module, fn, report = _inserted()
        analysis = ConflictAnalysis(fn)
        # Exit barrier interferes (overlaps) with everything it encloses
        # even though it conflicts with nothing.
        others = [b for b in analysis.barriers if b != report.exit_barrier]
        assert any(analysis.interferes(report.exit_barrier, b) for b in others)

    def test_literal_barriers_in_first_use_order(self):
        module, fn, report = _inserted()
        names = literal_barriers(fn)
        assert len(names) == len(set(names)) >= 3

    @pytest.mark.parametrize("strategy", [None, "dynamic", "static"])
    def test_one_walk_matches_per_barrier_live_ranges(self, strategy):
        from repro.core.joined_barriers import JoinedBarriers

        module, fn, report = _inserted(with_deconflict=strategy)
        joined = JoinedBarriers(fn)
        names = literal_barriers(fn)
        expected = {name: oracle_joined_points(joined, name) for name in names}
        assert joined.joined_points_of(names) == expected
        assert {name: joined.joined_points(name) for name in names} == expected
        assert joined.joined_points_of([]) == {}

    def test_conflict_record_api(self):
        module, fn, report = _inserted()
        conflict = ConflictAnalysis(fn).conflicts[0]
        assert conflict.involves(conflict.first)
        assert conflict.other(conflict.first) == conflict.second
        with pytest.raises(ValueError):
            conflict.other("nope")


class TestDeadlockWithoutDeconfliction:
    def test_conflicting_barriers_deadlock_the_warp(self):
        """The 'unpredictable behavior' of Section 4.3, concretely."""
        module, fn, report = _inserted(with_deconflict=None)
        with pytest.raises(DeadlockError):
            GPUMachine(module).launch("k", 32)

    def test_dynamic_deconfliction_fixes_it(self):
        module, fn, report = _inserted(with_deconflict="dynamic")
        result = GPUMachine(module).launch("k", 32)
        assert result.simt_efficiency > 0

    def test_static_deconfliction_fixes_it(self):
        module, fn, report = _inserted(with_deconflict="static")
        result = GPUMachine(module).launch("k", 32)
        assert result.simt_efficiency > 0


class TestStrategies:
    def test_dynamic_inserts_cancel_before_wait(self):
        module, fn, report = _inserted(with_deconflict="dynamic")
        then = fn.block("then")
        wait_index = next(
            i
            for i, instr in enumerate(then.instructions)
            if instr.opcode is Opcode.BSYNC
        )
        breaks_before = [
            instr
            for instr in then.instructions[:wait_index]
            if instr.opcode is Opcode.BBREAK
            and instr.attrs.get("origin") == "deconflict"
        ]
        assert breaks_before

    def test_dynamic_removes_nothing(self):
        module_plain, fn_plain, _ = _inserted()
        module_dyn, fn_dyn, _ = _inserted(with_deconflict="dynamic")
        count = lambda fn, op: sum(
            1 for _, _, i in fn.instructions() if i.opcode is op
        )
        assert count(fn_dyn, Opcode.BSYNC) == count(fn_plain, Opcode.BSYNC)

    def test_static_removes_pdom_barrier(self):
        module, fn, report = _inserted(with_deconflict="static")
        analysis = ConflictAnalysis(fn)
        assert analysis.conflicts_with(report.barrier) == []
        origins = {
            i.attrs.get("origin")
            for _, _, i in fn.instructions()
            if i.is_barrier_op
        }
        # The conflicting pdom barrier ops are gone; SR ops remain.
        assert "sr" in origins

    def test_static_report_lists_removed(self):
        module = listing1_module()
        fn = module.function("k")
        namer = BarrierNamer()
        insert_pdom_sync(fn, namer=namer)
        prediction = collect_predictions(fn)[0]
        report = insert_speculative_reconvergence(fn, prediction, namer=namer)
        deconf = deconflict(fn, [report.barrier], strategy="static")
        assert deconf.removed_barriers

    def test_unknown_strategy_rejected(self):
        module, fn, report = _inserted()
        with pytest.raises(DeconflictionError):
            deconflict(fn, [report.barrier], strategy="quantum")

    def test_remove_barrier_ops_counts(self):
        module, fn, report = _inserted()
        analysis = ConflictAnalysis(fn)
        victim = analysis.conflicts_with(report.barrier)[0]
        removed = remove_barrier_ops(fn, victim)
        assert removed >= 2  # at least its join and wait

    def test_results_identical_across_strategies(self):
        baseline = ReconvergenceCompiler().compile(listing1_module(), mode="baseline")
        dynamic = ReconvergenceCompiler(deconfliction="dynamic").compile(
            listing1_module(), mode="sr"
        )
        static = ReconvergenceCompiler(deconfliction="static").compile(
            listing1_module(), mode="sr"
        )
        results = {}
        for name, prog in (("base", baseline), ("dyn", dynamic), ("stat", static)):
            results[name] = GPUMachine(prog.module).launch("k", 32).memory.snapshot()
        assert results["base"] == results["dyn"] == results["stat"]


# ---------------------------------------------------------------------------
# Interprocedural deconfliction (soft function-entry waits, Section 4.3+4.4)
# ---------------------------------------------------------------------------
def _soft_interproc_program(label_threshold=2, call_threshold=4):
    """A label prediction and a soft function prediction in one kernel.

    Both branches of a divergent loop body call @helper, whose entry holds
    the interprocedural SR wait; the label's region and the pdom barriers
    span the call sites. Found by the conformance fuzzer: with a soft call
    threshold, stragglers park inside @helper under threshold while the
    members needed to release them sit behind the pdom wait — a cross-
    barrier deadlock invisible to intra-function conflict analysis.
    """
    from repro.frontend import ast_nodes as A

    return A.Program(functions=[
        A.FuncDecl("k", [], A.Block([
            A.Let("acc", A.Num(0.0)),
            A.Let("t", A.CallExpr("tid", [])),
            A.Predict("L1", threshold=label_threshold),
            A.Predict("@helper", threshold=call_threshold),
            A.For("i", A.Num(0), A.Num(2), A.Block([
                A.If(
                    A.Bin("<",
                          A.CallExpr("hash01", [A.Bin(
                              "+",
                              A.Bin("*", A.Var("t"), A.Num(7.0)),
                              A.Var("i"))]),
                          A.Num(0.1015625)),
                    A.Block([
                        A.Label("L1", A.Assign("acc", A.CallExpr(
                            "fma",
                            [A.Var("acc"), A.Num(1.0001), A.Num(0.5)]))),
                        A.Assign("acc", A.CallExpr(
                            "helper", [A.Var("acc")])),
                    ]),
                    A.Block([
                        A.Assign("acc", A.CallExpr("helper", [A.Bin(
                            "+", A.Var("acc"), A.Num(1.0))])),
                    ])),
            ])),
            A.Store(A.Var("t"), A.Var("acc")),
        ]), is_kernel=True),
        A.FuncDecl("helper", ["x"], A.Block([
            A.Let("h", A.Var("x")),
            A.Assign("h", A.CallExpr(
                "fma", [A.Var("h"), A.Num(1.0003), A.Num(0.25)])),
            A.Return(A.Var("h")),
        ]), is_kernel=False),
    ])


class TestInterproceduralDeconfliction:
    def _module(self, **kwargs):
        from repro.frontend.lower import lower_program

        return lower_program(_soft_interproc_program(**kwargs))

    def test_soft_call_threshold_gets_call_site_cancels(self):
        compiled = ReconvergenceCompiler().compile(self._module(), mode="sr")
        interproc = [
            r for r in compiled.report.sr_reports
            if getattr(r, "callee", None) == "helper"
        ]
        assert interproc, "function prediction not lowered"
        barrier = interproc[0].barrier
        cancels = [
            r.cancels_inserted
            for r in compiled.report.deconfliction_reports
            if any(c.first == barrier for c in r.conflicts)
        ]
        assert cancels and cancels[0], "no call-site cancels inserted"

    @pytest.mark.parametrize("strategy", ["dynamic", "static"])
    def test_soft_call_threshold_no_deadlock(self, strategy):
        from repro.simt import GlobalMemory
        from repro.simt.reference import run_reference_launch

        module = self._module()
        reference = run_reference_launch(module, "k", 64)
        for mode in ("baseline", "sr", "none"):
            compiled = ReconvergenceCompiler(deconfliction=strategy).compile(
                module, mode=mode
            )
            launch = GPUMachine(compiled.module).launch(
                "k", 64, memory=GlobalMemory()
            )
            assert launch.store_traces() == reference, (strategy, mode)

    def test_hard_call_threshold_left_untouched(self):
        # The paper's Figure 2(c) claim: a *hard* function-entry wait does
        # not conflict with compiler-inserted reconvergence, so no
        # call-site cancels may appear (funccall's codegen is pinned).
        compiled = ReconvergenceCompiler().compile(
            self._module(call_threshold=None), mode="sr"
        )
        interproc = [
            r for r in compiled.report.sr_reports
            if getattr(r, "callee", None) == "helper"
        ]
        barrier = interproc[0].barrier
        assert not any(
            any(c.first == barrier for c in r.conflicts)
            for r in compiled.report.deconfliction_reports
        )
