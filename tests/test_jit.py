"""Unit net for compiled segments (:mod:`repro.simt.jit`).

The conformance matrix (test_conformance.py) pins bit-identity over the
corpus; this file pins the *mechanism*: compilation when a segment is
built, the shared code memo and the code cache, the fallback to unfused
issue on a codegen veto, module lifetime, the ``engine_config`` escape
hatch, the generated-source shape, and the post-mortem integration.
"""

import gc
import weakref

import pytest

from repro.core import compile_sr
from repro.engine import current_engine, engine_config
from repro.errors import LaunchError
from repro.frontend import compile_kernel_source
from repro.ir.function import clear_module_caches
from repro.ir.instructions import Opcode
from repro.obs import counters as obs_counters
from repro.simt import DEFAULT_COST_MODEL, GPUMachine, GlobalMemory
from repro.simt import jit as jit_module
from repro.simt import memo as launch_memo
from repro.simt.fastpath import decode_program

#: Straight-line kernel: one fused segment, executed once per launch.
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
def segments_on():
    """Compiled segments on (with the fast path they build on), whatever
    the environment, with empty module caches and code cache; everything
    is restored afterwards."""
    clear_module_caches()
    jit_module.clear_code_cache()
    try:
        with engine_config(fastpath=True, segments=True):
            yield
    finally:
        clear_module_caches()
        jit_module.clear_code_cache()


def _compiled(source):
    return compile_sr(compile_kernel_source(source))


def _run(compiled, **engine):
    """One launch with ``engine`` overrides on the current engine config."""
    memory = GlobalMemory()
    with engine_config(**engine):
        launch = GPUMachine(compiled.module).launch("k", 32, memory=memory)
    return launch, memory


def _moved(before):
    return obs_counters.delta(obs_counters.snapshot(), before)


class TestThreshold:
    def test_threshold_zero_compiles_on_first_execution(self, segments_on):
        """There is no hotness threshold: a segment is compiled when it is
        built, so its very first execution runs compiled code."""
        compiled = _compiled(STRAIGHT)
        before = obs_counters.snapshot()
        launch, _ = _run(compiled)
        moved = _moved(before)
        assert launch.counters["jit.executed_segments"] > 0
        assert moved["jit.tierups"] == jit_module.CODE_CACHE.stats()["segments"]
        assert moved["jit.tierups"] > 0
        segment = decode_program(compiled.module, DEFAULT_COST_MODEL).segment_at(
            ("k", compiled.module.function("k").entry.name, 0)
        )
        assert segment.fn is jit_module.LAST_EXECUTED


class TestCodeCache:
    def test_compiles_once_then_steady_state(self, segments_on):
        """A segment compiles exactly once; later launches run the
        memoized function without lowering again, bit-identically."""
        compiled = _compiled(STRAIGHT)
        reference, ref_memory = _run(compiled, fastpath=False)

        before = obs_counters.snapshot()
        _, memory_a = _run(compiled)
        moved = _moved(before)
        assert moved["jit.compiled_segments"] == 1
        assert moved["jit.tierups"] == 1
        assert memory_a.snapshot() == ref_memory.snapshot()

        # Steady state: the compiled fn lives on the cached segment, so
        # re-running neither lowers nor compiles. (Emptying the launch
        # memo makes the re-run simulate instead of replaying.)
        clear_module_caches("launch_memo")
        before = obs_counters.snapshot()
        launch, memory_b = _run(compiled)
        moved = _moved(before)
        assert moved["jit.compiled_segments"] == 0
        assert moved["jit.tierups"] == 0
        assert launch.counters["jit.executed_segments"] > 0
        assert memory_b.snapshot() == ref_memory.snapshot()
        assert launch.store_traces() == reference.store_traces()

    def test_second_copy_shares_code(self, segments_on):
        """Two separately compiled copies of one kernel generate the same
        source: the second lowers its own segment but adds no compile()
        call, and runs bit-identically."""
        first, second = _compiled(STRAIGHT), _compiled(STRAIGHT)
        assert first.module is not second.module
        reference, ref_memory = _run(first, fastpath=False)
        launch_a, memory_a = _run(first)

        # Identical IR shares launch-memo entries: empty the memo so the
        # second copy simulates.
        clear_module_caches("launch_memo")
        before = obs_counters.snapshot()
        launch_b, memory_b = _run(second)
        moved = _moved(before)
        assert moved["jit.tierups"] == 1
        assert moved["jit.compiled_segments"] == 0
        assert jit_module.CODE_CACHE.stats() == {"segments": 2, "sources": 1}
        fn_a, fn_b = (
            decode_program(c.module, DEFAULT_COST_MODEL).segment_at(
                ("k", c.module.function("k").entry.name, 0)
            ).fn
            for c in (first, second)
        )
        assert fn_a is not fn_b
        assert fn_a.__code__ is fn_b.__code__
        for launch, memory in ((launch_a, memory_a), (launch_b, memory_b)):
            assert launch.counters["jit.executed_segments"] > 0
            assert memory.snapshot() == ref_memory.snapshot()
            assert launch.store_traces() == reference.store_traces()
            assert launch.cycles == reference.cycles

    def test_clearing_caches_frees_compiled_segments(self, segments_on):
        """The compiled segments live in their module's decode cache:
        clearing the module caches frees them, and clearing the code
        cache drops the shared code."""
        compiled = _compiled(STRAIGHT)
        _run(compiled)
        assert jit_module.CODE_CACHE.stats()["segments"] > 0
        clear_module_caches()
        gc.collect()
        assert jit_module.CODE_CACHE.stats() == {"segments": 0, "sources": 1}
        jit_module.clear_code_cache()
        assert jit_module.CODE_CACHE.stats() == {"segments": 0, "sources": 0}


class TestModuleLifetime:
    def test_dropped_module_frees_decode_and_segments(self, segments_on):
        """The decode cache is keyed weakly by module: once the last
        outside reference to a launched module goes, its decode and its
        compiled segments are freed."""
        compiled = _compiled(STRAIGHT)
        _run(compiled)
        module = weakref.ref(compiled.module)
        decoded = weakref.ref(decode_program(compiled.module, DEFAULT_COST_MODEL))
        assert jit_module.CODE_CACHE.stats()["segments"] > 0
        del compiled
        gc.collect()
        assert module() is None
        assert decoded() is None
        assert jit_module.CODE_CACHE.stats()["segments"] == 0

    def test_memo_entry_freed_with_last_module(self, segments_on):
        """Two copies with identical IR share one launch-memo entry. It
        outlives the copy that recorded it and is freed with the last
        copy, and it keeps no compiled segment alive."""
        first, second = _compiled(STRAIGHT), _compiled(STRAIGHT)
        _run(first)
        _run(second)
        assert launch_memo.stats() == {"programs": 1, "entries": 1}
        module = weakref.ref(first.module)
        del first
        gc.collect()
        assert module() is None
        assert launch_memo.stats() == {"programs": 1, "entries": 1}
        del second
        gc.collect()
        assert launch_memo.stats() == {"programs": 0, "entries": 0}
        assert jit_module.CODE_CACHE.stats()["segments"] == 0


class TestDeopt:
    def test_codegen_veto_deopts_and_stays_correct(
        self, segments_on, monkeypatch
    ):
        """A run codegen cannot lower is not fused: it issues one
        instruction at a time, counted in ``jit.deopts``, bit-identically."""
        compiled = _compiled(WITH_SQRT)
        reference, ref_memory = _run(compiled, fastpath=False)
        monkeypatch.delitem(jit_module._UNARY_EXPR, Opcode.SQRT)
        before = obs_counters.snapshot()
        launch, memory = _run(compiled)
        moved = _moved(before)
        assert moved["jit.deopts"] > 0
        entry = ("k", compiled.module.function("k").entry.name, 0)
        decoded = decode_program(compiled.module, DEFAULT_COST_MODEL)
        assert decoded.segment_at(entry) is None
        assert "@k/entry:0" not in [
            r["segment"] for r in jit_module.compiled_segments()
        ]
        assert memory.snapshot() == ref_memory.snapshot()
        assert launch.store_traces() == reference.store_traces()
        assert launch.cycles == reference.cycles
        # The veto is cached: re-running neither retries codegen nor
        # compiles, and results stay correct. (Emptying the launch memo
        # makes the re-run simulate.)
        clear_module_caches("launch_memo")
        before = obs_counters.snapshot()
        _, memory2 = _run(compiled)
        moved = _moved(before)
        assert moved["jit.deopts"] == 0
        assert moved["jit.compiled_segments"] == 0
        assert memory2.snapshot() == ref_memory.snapshot()


class TestEscapeHatches:
    """``segments=False`` is the one switch: no segment is built, so no
    compiled code runs."""

    def test_machine_knob_overrides_global(self, segments_on):
        compiled = _compiled(STRAIGHT)
        off, _ = _run(compiled, segments=False)
        assert off.counters["jit.executed_segments"] == 0
        on, _ = _run(compiled, segments=True)
        assert on.counters["jit.executed_segments"] > 0

    def test_jit_disabled_context(self, segments_on):
        compiled = _compiled(STRAIGHT)
        with engine_config(segments=False):
            assert not current_engine().segments
            launch, _ = _run(compiled)  # the machine reads the config
            assert launch.counters["jit.executed_segments"] == 0
        assert current_engine().segments

    def test_set_jit_returns_previous(self):
        previous = current_engine().segments
        with engine_config(segments=False):
            assert current_engine().segments is False
        assert current_engine().segments is previous

    def test_machine_on_while_global_off(self, segments_on):
        """An inner override beats an outer one."""
        compiled = _compiled(STRAIGHT)
        with engine_config(segments=False):
            launch, _ = _run(compiled, segments=True)
        assert launch.counters["jit.executed_segments"] > 0

    def test_inert_without_segments(self, segments_on):
        """With fusion off nothing is lowered or executed, and results
        match the interpreted reference."""
        compiled = _compiled(STRAIGHT)
        before = obs_counters.snapshot()
        launch, memory = _run(compiled, segments=False)
        assert launch.counters["jit.executed_segments"] == 0
        assert _moved(before)["jit.tierups"] == 0
        assert jit_module.CODE_CACHE.stats()["segments"] == 0
        reference, ref_memory = _run(compiled, fastpath=False)
        assert memory.snapshot() == ref_memory.snapshot()
        assert launch.store_traces() == reference.store_traces()


class TestGeneratedSource:
    def test_generated_source_golden(self, segments_on):
        """The exact lowering of a known segment: slot reads/writes on
        ``_r``, constants folded (the ``2.0``/``1.5`` CONST slots are
        written once at chunk end), one handler call for the store+branch
        tail, static cycles precomputed. A diff here means the codegen
        shape changed."""
        compiled = _compiled(STRAIGHT)
        _run(compiled)
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

    def test_last_executed_source(self, segments_on):
        compiled = _compiled(STRAIGHT)
        _run(compiled)
        last = jit_module.last_executed_source()
        assert last is not None
        segment, source = last
        assert "@k/entry:0" in segment
        assert "def _jit_segment" in source

    def test_codegen_spans_recorded(self, segments_on):
        compiled = _compiled(STRAIGHT)
        before = len(jit_module.codegen_spans().spans)
        _run(compiled)
        spans = jit_module.codegen_spans().spans
        assert len(spans) > before
        assert any(span.name.startswith("jit:") for span in spans)


class TestPostMortem:
    def test_post_mortem_carries_jit_source(self, segments_on):
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
