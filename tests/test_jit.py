"""Unit net for the tiered segment JIT (:mod:`repro.simt.jit`).

The conformance matrix (test_conformance.py) pins bit-identity over the
corpus; this file pins the *mechanism*: tier-up threshold semantics,
compile-once memoization and the code cache, deopt on codegen veto, the
``engine_config`` escape hatches, the generated-source shape, and the post-mortem
integration.
"""

import pytest

from repro.core import compile_sr
from repro.engine import current_engine, engine_config
from repro.errors import LaunchError
from repro.frontend import compile_kernel_source
from repro.ir.instructions import Opcode
from repro.obs import counters as obs_counters
from repro.simt import GPUMachine, GlobalMemory
from repro.simt import jit as jit_module
from repro.simt.fastpath import clear_decode_cache

#: Straight-line kernel: one fused segment per launch per warp, so the
#: per-segment hit counter advances exactly once per launch (threshold
#: boundary tests count on this).
STRAIGHT = """
kernel k() {
    let t = tid();
    let x = t * 2.0;
    let y = x + 1.5;
    store(t, y);
}
"""

#: Same shape but with a runtime sqrt (never constant-folded), so
#: removing the SQRT lowering template forces a codegen veto.
WITH_SQRT = """
kernel k() {
    let t = tid();
    let s = sqrt(t + 2.0);
    store(t, s);
}
"""

RUNAWAY = """
kernel k() {
    let i = 0;
    while (i < 1000000) {
        i = i + 1;
    }
    store(tid(), i);
}
"""


@pytest.fixture
def forced_jit():
    """JIT on with tier-up forced (threshold 0) and fresh segments, so
    every test starts from cold per-segment hit counters and an empty
    code cache; everything is restored afterwards."""
    clear_decode_cache()
    try:
        with engine_config(jit=True, jit_threshold=0):
            yield
    finally:
        clear_decode_cache()


def _compiled(source):
    return compile_sr(compile_kernel_source(source))


def _run(compiled, **engine):
    """One launch with ``engine`` overrides on the current engine config."""
    memory = GlobalMemory()
    with engine_config(**engine):
        launch = GPUMachine(compiled.module).launch("k", 32, memory=memory)
    return launch, memory


class TestThreshold:
    def test_threshold_boundary(self, forced_jit):
        """Threshold N means exactly N interpreted executions; the N+1st
        tiers up. The hit counter lives on the (cached) segment, so the
        boundary spans launches."""
        compiled = _compiled(STRAIGHT)
        reference, ref_memory = _run(compiled, jit=False)
        for execution in (1, 2, 3):
            launch, memory = _run(compiled, jit_threshold=3)
            assert launch.profiler.jit_segments == 0, execution
            assert launch.profiler.jit_tierups == 0, execution
            assert memory.snapshot() == ref_memory.snapshot()
        hot, memory = _run(compiled, jit_threshold=3)
        assert hot.profiler.jit_tierups == 1
        assert hot.profiler.jit_segments == 1
        assert hot.profiler.jit_deopts == 0
        assert memory.snapshot() == ref_memory.snapshot()
        assert hot.store_traces() == reference.store_traces()

    def test_threshold_zero_compiles_on_first_execution(self, forced_jit):
        compiled = _compiled(STRAIGHT)
        launch, _ = _run(compiled, jit=True)
        assert launch.profiler.jit_segments > 0
        assert launch.counters["jit.executed_segments"] > 0

    def test_set_jit_threshold_returns_previous(self, forced_jit):
        assert current_engine().jit_threshold == 0
        with engine_config(jit_threshold=7):
            assert current_engine().jit_threshold == 7
        assert current_engine().jit_threshold == 0


class TestCodeCache:
    def test_compiles_once_then_steady_state(self, forced_jit):
        """A hot segment compiles exactly once; later launches run the
        memoized function without re-tiering, bit-identically."""
        compiled = _compiled(STRAIGHT)
        reference, ref_memory = _run(compiled, jit=False)

        before = obs_counters.snapshot()
        _, memory_a = _run(compiled, jit=True)
        moved = obs_counters.delta(obs_counters.snapshot(), before)
        assert moved["jit.compiled_segments"] == 1
        assert moved["jit.tierups"] == 1
        assert memory_a.snapshot() == ref_memory.snapshot()

        # Steady state: the compiled fn is memoized on the segment, so
        # re-running neither recompiles nor re-tiers.
        before = obs_counters.snapshot()
        launch, memory_b = _run(compiled, jit=True)
        moved = obs_counters.delta(obs_counters.snapshot(), before)
        assert moved["jit.compiled_segments"] == 0
        assert moved["jit.tierups"] == 0
        assert launch.profiler.jit_segments > 0
        assert memory_b.snapshot() == ref_memory.snapshot()

    def test_clear_decode_cache_clears_code_cache(self, forced_jit):
        compiled = _compiled(STRAIGHT)
        _run(compiled, jit=True)
        assert jit_module.CODE_CACHE.stats()["segments"] > 0
        clear_decode_cache()
        assert jit_module.CODE_CACHE.stats() == {"segments": 0}


class TestDeopt:
    def test_codegen_veto_deopts_and_stays_correct(
        self, forced_jit, monkeypatch
    ):
        """A segment codegen cannot lower runs interpreted forever —
        counted, cached as a deopt, and bit-identical."""
        compiled = _compiled(WITH_SQRT)
        reference, ref_memory = _run(compiled, jit=False)
        monkeypatch.delitem(jit_module._UNARY_EXPR, Opcode.SQRT)
        launch, memory = _run(compiled, jit=True)
        assert launch.profiler.jit_deopts > 0
        assert launch.profiler.jit_segments == 0
        assert memory.snapshot() == ref_memory.snapshot()
        assert launch.store_traces() == reference.store_traces()
        records = jit_module.compiled_segments()
        deopted = [r for r in records if r["deopt"]]
        assert deopted
        assert all(r["source"] is None for r in deopted)
        # The veto is cached: re-running neither retries codegen nor
        # recompiles, and results stay correct.
        before = obs_counters.snapshot()
        launch2, memory2 = _run(compiled, jit=True)
        moved = obs_counters.delta(obs_counters.snapshot(), before)
        assert moved["jit.compiled_segments"] == 0
        assert launch2.profiler.jit_tierups == 0
        assert memory2.snapshot() == ref_memory.snapshot()


class TestEscapeHatches:
    def test_machine_knob_overrides_global(self, forced_jit):
        compiled = _compiled(STRAIGHT)
        off, _ = _run(compiled, jit=False)
        assert off.profiler.jit_segments == 0
        assert off.profiler.jit_tierups == 0
        on, _ = _run(compiled, jit=True)
        assert on.profiler.jit_segments > 0

    def test_jit_disabled_context(self, forced_jit):
        compiled = _compiled(STRAIGHT)
        with engine_config(jit=False):
            assert not current_engine().jit
            launch, _ = _run(compiled)  # the machine reads the config
            assert launch.profiler.jit_segments == 0
        assert current_engine().jit

    def test_set_jit_returns_previous(self):
        previous = current_engine().jit
        with engine_config(jit=False):
            assert current_engine().jit is False
        assert current_engine().jit is previous

    def test_machine_on_while_global_off(self, forced_jit):
        """An inner override beats an outer one."""
        compiled = _compiled(STRAIGHT)
        with engine_config(jit=False):
            launch, _ = _run(compiled, jit=True)
        assert launch.profiler.jit_segments > 0

    def test_inert_without_segments(self, forced_jit):
        """No fused segments (segments=False) means nothing to tier up:
        the JIT knob must change nothing at all."""
        compiled = _compiled(STRAIGHT)
        launch, memory = _run(compiled, jit=True, segments=False)
        assert launch.profiler.jit_segments == 0
        assert launch.profiler.jit_tierups == 0
        reference, ref_memory = _run(compiled, jit=False, segments=False)
        assert memory.snapshot() == ref_memory.snapshot()
        assert launch.store_traces() == reference.store_traces()


class TestGeneratedSource:
    def test_generated_source_golden(self, forced_jit):
        """The exact lowering of a known segment: slot reads/writes on
        ``_r``, constants folded (the ``2.0``/``1.5`` CONST slots are
        written once at chunk end), one handler call for the store+branch
        tail, static cycles precomputed. A diff here means the codegen
        shape changed."""
        compiled = _compiled(STRAIGHT)
        _run(compiled, jit=True)
        records = [
            r for r in jit_module.compiled_segments()
            if r["segment"] == "@k/entry:0"
        ]
        assert len(records) == 1
        assert records[0]["source"] == (
            "# jit: segment @k/entry:0 n=9\n"
            "def _jit_segment(executor, warp, group):\n"
            "    _total = 8\n"
            "    for _t in group:\n"
            "        _f = _t.frames[-1]\n"
            "        _r = _f.regs\n"
            "        _s0 = _t.tid\n"
            "        _r[0] = _s0\n"
            "        _s1 = _s0\n"
            "        _r[1] = _s1\n"
            "        _s3 = (_s1 * 2.0)\n"
            "        _r[3] = _s3\n"
            "        _s4 = _s3\n"
            "        _r[4] = _s4\n"
            "        _s6 = (_s4 + 1.5)\n"
            "        _r[6] = _s6\n"
            "        _r[7] = _s6\n"
            "        _r[2] = 2.0\n"
            "        _r[5] = 1.5\n"
            "        _f.index = 8\n"
            "    _total += _h6(executor, warp, group)\n"
            "    return _total\n"
        )

    def test_last_executed_source(self, forced_jit):
        compiled = _compiled(STRAIGHT)
        _run(compiled, jit=True)
        last = jit_module.last_executed_source()
        assert last is not None
        segment, source = last
        assert "@k/entry:0" in segment
        assert "def _jit_segment" in source

    def test_codegen_spans_recorded(self, forced_jit):
        compiled = _compiled(STRAIGHT)
        before = len(jit_module.codegen_spans().spans)
        _run(compiled, jit=True)
        spans = jit_module.codegen_spans().spans
        assert len(spans) > before
        assert any(span.name.startswith("jit:") for span in spans)


class TestPostMortem:
    def test_post_mortem_carries_jit_source(self, forced_jit):
        """A launch that dies after executing JIT code attaches the
        generated source of the last-executed segment to the error's
        post-mortem report."""
        compiled = _compiled(RUNAWAY)
        memory = GlobalMemory()
        machine = GPUMachine(compiled.module, max_issues=1000)
        with pytest.raises(LaunchError) as excinfo:
            machine.launch("k", 32, memory=memory)
        report = excinfo.value.post_mortem
        assert "jit" in report
        assert "def _jit_segment" in report["jit"]["source"]
        assert report["jit"]["segment"].startswith("@k/")
