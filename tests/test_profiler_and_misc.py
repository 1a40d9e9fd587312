"""Profiler, LaunchResult, harness CLI, and error-type coverage."""

import pytest

from repro.core import compile_sr
from repro.engine import engine_config
from repro.errors import (
    AnalysisError,
    DeadlockError,
    IRError,
    ParseError,
    ReproError,
    SimulationError,
    TransformError,
    VerifierError,
    WorkloadError,
)
from repro.frontend import compile_kernel_source
from repro.harness.__main__ import main as harness_main
from repro.ir import Opcode
from repro.simt import GPUMachine, Profiler, WARP_SIZE
from tests.helpers import loop_merge_source


class TestProfiler:
    def _run(self, source, n=32):
        module = compile_kernel_source(source)
        return GPUMachine(module).launch("k", n)

    def test_full_efficiency_on_convergent_kernel(self):
        result = self._run("kernel k() { store(tid(), 1.0); }")
        assert result.simt_efficiency == 1.0

    def test_partial_warp_reduces_efficiency(self):
        result = self._run("kernel k() { store(tid(), 1.0); }", n=16)
        assert result.simt_efficiency == pytest.approx(0.5)

    def test_empty_profiler_defaults(self):
        profiler = Profiler()
        assert profiler.simt_efficiency == 1.0
        assert profiler.total_cycles == 0

    def test_opcode_counts(self):
        result = self._run("kernel k() { store(tid(), tid() + 1.0); }")
        counts = result.launch.profiler.opcode_counts if hasattr(result, "launch") else result.profiler.opcode_counts
        assert counts[Opcode.ST] == 1
        assert counts[Opcode.TID] >= 1

    def test_block_visits(self):
        result = self._run(
            "kernel k() { for i in 0..5 { let x = i; } store(0, 1.0); }", n=32
        )
        profile = result.profiler.block_profile("k", "for.head")
        assert profile.visits == 6  # 5 iterations + exit test

    def test_region_efficiency_of_unknown_block(self):
        result = self._run("kernel k() { store(tid(), 1.0); }")
        assert result.profiler.region_efficiency([("k", "ghost")]) == 1.0

    def test_summary_keys(self):
        result = self._run("kernel k() { store(tid(), 1.0); }")
        summary = result.profiler.summary()
        assert set(summary) == {
            "issued",
            "cycles",
            "simt_efficiency",
            "barrier_issues",
            "avg_active_lanes",
            "opcode_issues",
            "stall_cycles",
            "counters",
        }
        assert summary["avg_active_lanes"] == pytest.approx(32.0)
        assert summary["opcode_issues"]["st"] == 1
        # No metrics attached -> empty stall attribution.
        assert summary["stall_cycles"] == {}

    def test_warp_cycles_per_warp(self):
        result = self._run("kernel k() { store(tid(), 1.0); }", n=WARP_SIZE * 2)
        assert len(result.profiler.warp_cycles) == 2


class _FakeExit:
    """The fields Profiler reads from a fused run's segment exit."""

    def __init__(self, fname, bname, start, opcodes, barrier_ops=0):
        self.fname = fname
        self.bname = bname
        self.start = start
        self.n = len(opcodes)
        self.end_pc = (fname, bname, start + self.n)
        counts = {}
        for opcode in opcodes:
            counts[opcode] = counts.get(opcode, 0) + 1
        self.opcode_counts = tuple(counts.items())
        self.barrier_ops = barrier_ops


class _Warp:
    def __init__(self, warp_id, cycles):
        self.warp_id = warp_id
        self.cycles = cycles


class TestProfilerAccounting:
    """Per-PC and per-segment records against hand-computed totals."""

    def _block(self, profiler, block):
        profile = profiler.block_profile("k", block)
        return (profile.issues, profile.active_sum, profile.visits,
                profile.cycles)

    def test_record_and_record_segment_totals(self):
        profiler = Profiler()
        profiler.record(0, ("k", "entry", 0), Opcode.TID, 32, 4)
        profiler.record(0, ("k", "entry", 1), Opcode.BSSY, 32, 2, True)
        profiler.record(1, ("k", "entry", 0), Opcode.TID, 16, 4)

        # Read mid-sequence: this fills the memo.
        assert profiler.issued == 3
        assert profiler.active_sum == 80
        assert profiler.cycles_sum == 10
        assert profiler.barrier_issues == 1
        assert profiler.opcode_issues() == {"tid": 2, "bssy": 1}
        assert self._block(profiler, "entry") == (3, 80, 2, 10)
        assert profiler.total_cycles == 6
        assert profiler.fused_issues == 0

        out = _FakeExit(
            "k", "body", 0, (Opcode.ADD, Opcode.MUL, Opcode.ADD, Opcode.BRA)
        )
        profiler.record_segment(1, out, 8, 9)
        profiler.record_segment(1, out, 4, 7)
        profiler.record(0, ("k", "body", 3), Opcode.BRA, 8, 1)

        # Every later record must invalidate the memo.
        assert profiler.issued == 3 + 4 + 4 + 1
        assert profiler.active_sum == 80 + 8 * 4 + 4 * 4 + 8
        assert profiler.cycles_sum == 10 + 9 + 7 + 1
        assert profiler.barrier_issues == 1
        assert profiler.opcode_issues() == {
            "add": 4, "bra": 3, "mul": 2, "tid": 2, "bssy": 1,
        }
        assert self._block(profiler, "entry") == (3, 80, 2, 10)
        assert self._block(profiler, "body") == (9, 56, 2, 17)
        assert profiler.total_cycles == 4 + 9 + 7  # warp 1
        assert profiler.warp_cycles == {0: 7, 1: 20}
        assert profiler.fused_issues == 8
        assert profiler.fused_segments == 2
        assert profiler.simt_efficiency == 136 / (12 * WARP_SIZE)

        # At launch end the warps' own cycle counters are authoritative.
        profiler.finish([_Warp(0, 7), _Warp(1, 20), _Warp(2, 3)])
        assert profiler.warp_cycles == {0: 7, 1: 20, 2: 3}

    def test_exits_account_their_own_slots_and_barrier_ops(self):
        """Two exits of one trace: each run counts the slots and barrier
        ops of the exit it took, and the unfused slots appear in the
        per-opcode fallback counters."""
        profiler = Profiler()
        through = _FakeExit(
            "k", "head", 0, (Opcode.CMPLT, Opcode.BSSY, Opcode.CBR), 1
        )
        before_cbr = _FakeExit("k", "head", 0, (Opcode.CMPLT, Opcode.BSSY), 1)
        profiler.record_segment(0, through, 32, 5)
        profiler.record_segment(0, before_cbr, 32, 4)
        profiler.record(0, ("k", "head", 2), Opcode.CBR, 32, 1)
        assert profiler.issued == 6
        assert profiler.fused_issues == 5
        assert profiler.barrier_issues == 2
        assert profiler.opcode_issues() == {"bssy": 2, "cbr": 2, "cmplt": 2}
        assert self._block(profiler, "head") == (6, 192, 2, 10)
        counters = profiler.engine_counters()
        assert counters["segments.fallback_instrs"] == 1
        assert counters["segments.fallback_cbr"] == 1
        assert sum(
            value for name, value in counters.items()
            if name.startswith("segments.fallback_")
            and name != "segments.fallback_instrs"
        ) == 1

    def test_block_profiles_invariant_under_fusion(self):
        """``summary()`` leaves block profiles out, so pin them here:
        fused, unfused and interpreted runs of one divergent launch."""
        module = compile_sr(compile_kernel_source(loop_merge_source())).module
        profilers = {}
        for name, config in (
            ("fused", {"fastpath": True, "segments": True}),
            ("unfused", {"fastpath": True, "segments": False}),
            ("interpreted", {"fastpath": False}),
        ):
            with engine_config(**config):
                launch = GPUMachine(module).launch("lm", 32, args=(128,))
            profilers[name] = launch.profiler
        fused = profilers.pop("fused")
        assert fused.fused_issues > 0
        assert fused.simt_efficiency < 1.0  # the launch diverges
        for name, other in profilers.items():
            assert other.fused_issues == 0, name
            assert other.block_profiles == fused.block_profiles, name
            assert other.opcode_counts == fused.opcode_counts, name
            assert other.warp_cycles == fused.warp_cycles, name


class TestLaunchResult:
    def test_retired_per_thread(self):
        module = compile_kernel_source(
            "kernel k() { if (tid() < 1) { let a = 1; let b = 2; } store(0, 1.0); }"
        )
        result = GPUMachine(module).launch("k", 2)
        retired = result.retired_per_thread()
        assert retired[0] > retired[1]

    def test_store_traces_ordering(self):
        module = compile_kernel_source(
            "kernel k() { store(tid(), 1.0); store(tid() + 100, 2.0); }"
        )
        result = GPUMachine(module).launch("k", 1)
        assert result.store_traces()[0] == [(0, 1.0), (100, 2.0)]


class TestHarnessCLI:
    def test_single_fast_figure(self, capsys):
        assert harness_main(["funccall"]) == 0
        out = capsys.readouterr().out
        assert "funccall" in out and "speedup" in out

    def test_table2_via_cli(self, capsys):
        assert harness_main(["table2"]) == 0
        assert "rsbench" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            harness_main(["fig99"])


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            IRError,
            ParseError,
            VerifierError,
            AnalysisError,
            TransformError,
            SimulationError,
            DeadlockError,
            WorkloadError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_parse_error_location(self):
        err = ParseError("bad", line=3, column=7)
        assert "line 3" in str(err) and "column 7" in str(err)
        assert err.line == 3

    def test_deadlock_error_payload(self):
        err = DeadlockError("stuck", warp_id=2, waiting=[(0, "b0")])
        assert err.warp_id == 2
        assert err.waiting == [(0, "b0")]
