"""The per-module cache (:func:`repro.ir.function.module_cache`).

Compiled programs, decoded programs, the launch memo's entry table,
launch classifications, CTA coupling and program order all live in their
module's cache. These tests pin its one invalidation rule (a structure
change empties every layer) and its one lifetime rule (the caches die
with their module).
"""

import gc
import weakref

import pytest

from repro import compile_kernel_source
from repro.analysis import memeffects
from repro.core.program_cache import compile_cached
from repro.engine import engine_config
from repro.ir import function as ir_function
from repro.ir.function import clear_module_caches, module_cache
from repro.obs import counters as obs_counters
from repro.simt import DEFAULT_COST_MODEL, GPUMachine
from repro.simt import memo as launch_memo
from repro.simt.fastpath import decode_program

KERNEL = """
kernel k() {
    let t = tid();
    store(t, t * 2.0 + 1.0);
}
"""

#: Two warps, so the launch is classified before its warps run apart.
N_THREADS = 64


@pytest.fixture
def engine():
    """Every cached layer on, whatever the environment."""
    with engine_config(fastpath=True, warp_batch=True, compile_cache=True):
        yield


@pytest.fixture
def classified(monkeypatch):
    """The launches classified since the test started."""
    calls = []
    classify = memeffects._classify

    def counting(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(memeffects, "_classify", counting)
    return calls


def _launch(module):
    before = obs_counters.snapshot()
    result = GPUMachine(module).launch("k", N_THREADS)
    return result, obs_counters.delta(obs_counters.snapshot(), before)


class TestInvalidation:
    def test_layers_are_built_once(self):
        module = compile_kernel_source(KERNEL)
        cache = module_cache(module, "test")
        assert module_cache(module, "test") is cache
        assert module_cache(module, "other", list) == []

    def test_structure_change_recomputes_every_layer(self, engine, classified):
        module = compile_cached(compile_kernel_source(KERNEL)).module
        first, moved = _launch(module)
        assert moved["fastpath.decode_cache_miss"] == 1
        assert len(classified) == 1
        table = module_cache(module, "launch_memo")
        order = module_cache(module, "program_order")
        _, moved = _launch(module)
        assert moved["launch.memo_hits"] == 1

        # A new (never called) function changes the structure token and
        # the printed IR, but not what the kernel computes.
        module.add(module.function("k").clone("spare"))
        again, moved = _launch(module)
        assert moved["fastpath.decode_cache_miss"] == 1
        assert moved["fastpath.decode_cache_hit"] == 0
        assert moved["launch.memo_hits"] == 0
        assert len(classified) == 2
        assert module_cache(module, "launch_memo") is not table
        assert module_cache(module, "program_order") is not order
        assert again.cycles == first.cycles
        assert again.memory.snapshot() == first.memory.snapshot()

    def test_clear_one_layer_keeps_the_others(self, engine, classified):
        module = compile_cached(compile_kernel_source(KERNEL)).module
        _launch(module)
        decoded = decode_program(module, DEFAULT_COST_MODEL)
        clear_module_caches("launch_class")
        _, moved = _launch(module)
        assert moved["launch.memo_hits"] == 1
        assert decode_program(module, DEFAULT_COST_MODEL) is decoded
        assert memeffects.classify_launch(module, "k", (), N_THREADS) == (
            "disjoint"
        )
        assert len(classified) == 2


class TestLifetime:
    def test_dropped_module_frees_programs_and_caches(self, engine):
        """A lowered module's compiled programs, and the compiled
        module's decode, classification and memo entries, are freed with
        the last outside reference."""
        gc.collect()
        held = len(ir_function._MODULE_CACHES)
        programs = launch_memo.stats()["programs"]
        lowered = compile_kernel_source(KERNEL)
        compiled = compile_cached(lowered)
        _launch(compiled.module)
        assert module_cache(compiled.module, "launch_class")
        refs = [
            weakref.ref(obj)
            for obj in (
                lowered,
                compiled,
                compiled.module,
                decode_program(compiled.module, DEFAULT_COST_MODEL),
            )
        ]
        assert len(ir_function._MODULE_CACHES) == held + 2
        assert launch_memo.stats()["programs"] == programs + 1
        del lowered, compiled
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        assert len(ir_function._MODULE_CACHES) == held
        assert launch_memo.stats()["programs"] == programs
