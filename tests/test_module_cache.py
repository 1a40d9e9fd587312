"""The per-module cache (:func:`repro.ir.function.module_cache`).

Compiled programs, decoded programs, frame templates, the launch memo's
entry table, launch classifications, CTA coupling and program order all
live in their module's cache. These tests pin its one invalidation rule (a structure
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
from repro.ir import format_module, parse_module
from repro.ir.function import Function, clear_module_caches, module_cache
from repro.ir.instructions import Imm, Instruction, Opcode, Reg
from repro.obs import counters as obs_counters
from repro.simt import DEFAULT_COST_MODEL, GPUMachine
from repro.simt import jit as jit_module
from repro.simt import memo as launch_memo
from repro.simt.fastpath import decode_program
from repro.simt.warp import frame_templates

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
    with engine_config(fastpath=True, warp_batch=True):
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
        templates = frame_templates(module)
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
        assert frame_templates(module) is not templates
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
                frame_templates(compiled.module),
            )
        ]
        assert len(ir_function._MODULE_CACHES) == held + 2
        assert launch_memo.stats()["programs"] == programs + 1
        del lowered, compiled
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        assert len(ir_function._MODULE_CACHES) == held
        assert launch_memo.stats()["programs"] == programs

    def test_dropped_module_is_freed_without_the_collector(self):
        """No reference cycle holds a compiled and launched module: its
        functions, blocks and decode state die by reference counting
        alone, and so does the code generated for them. ``@f``'s ``mul``
        issues alone and is lowered; ``@k``'s ``tid``/``add`` run fused,
        so their entries are never lowered."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            with engine_config(fastpath=True, segments=True,
                               warp_batch=True):
                lowered = parse_module(CALLS)
                compiled = compile_cached(lowered)
                GPUMachine(compiled.module).launch("k", N_THREADS, (5,))
            # Post-mortems keep the last executed segment's function.
            jit_module.LAST_EXECUTED = None
            module = compiled.module
            decoded = decode_program(module, DEFAULT_COST_MODEL)
            alone = decoded.entry(("f", "entry", 0))
            fused = decoded.entry(("k", "entry", 1))
            assert alone.move == ("f", "entry", 1)
            assert fused.move is None
            segment = decoded.segment_at(("k", "entry", 0))
            assert segment.n >= 2
            kernel = module.function("k")
            refs = [
                weakref.ref(obj)
                for obj in (lowered, module, kernel, kernel.entry, decoded,
                            alone, fused, alone.run, segment.fn)
            ]
            del lowered, compiled, module, decoded, alone, fused, segment, kernel
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()

    def test_compile_and_launch_leave_no_cycles(self):
        """A compile and launch of a fresh module, dropped at once, leave
        the collector nothing to free (the first run warms one-time
        caches)."""

        def compile_and_launch():
            compiled = compile_cached(parse_module(CALLS))
            GPUMachine(compiled.module).launch("k", N_THREADS, (5,))

        enabled = gc.isenabled()
        try:
            with engine_config(fastpath=True, segments=True,
                               warp_batch=True):
                compile_and_launch()
                gc.collect()
                gc.disable()
                compile_and_launch()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


#: A kernel calling a device function; TestLifetime launches it,
#: TestLaunchTemplate edits both.
CALLS = """
func @f(%x) {
entry:
  %y = mul %x, 2
  ret %y
}

func @k(%base) kernel {
entry:
  %t = tid
  %a = add %t, %base
  %r = call @f, %a
  st %t, %r
  exit
}
"""


@pytest.fixture
def slot_maps(monkeypatch):
    """The functions whose slot map was built since the test started."""
    built = []
    reg_slots = Function.reg_slots

    def counting(function):
        built.append(function.name)
        return reg_slots(function)

    monkeypatch.setattr(Function, "reg_slots", counting)
    return built


def _reference(module, kernel, n_threads, args=()):
    """The interpreted reference's launch of ``module`` parsed afresh."""
    with engine_config(fastpath=False):
        return GPUMachine(parse_module(format_module(module))).launch(
            kernel, n_threads, args
        )


def _observed(result):
    return result.store_traces(), result.retired_per_thread(), result.cycles


class TestLaunchTemplate:
    """A launch builds its threads, and a call its frames, from the
    function's template in the ``"launch_template"`` layer: one slot map
    per function per module structure, whatever the thread count."""

    @pytest.mark.parametrize("fastpath", [True, False])
    def test_one_slot_map_per_function(self, slot_maps, fastpath):
        module = parse_module(CALLS)
        with engine_config(fastpath=fastpath):
            machine = GPUMachine(module)
            result = machine.launch("k", N_THREADS, (5,))
            machine.launch("k", 2 * N_THREADS, (7,))
        assert sorted(slot_maps) == ["f", "k"]
        assert result.store_traces() == {
            tid: [(tid, (tid + 5) * 2)] for tid in range(N_THREADS)
        }

    @pytest.mark.parametrize("fastpath", [True, False])
    def test_structure_change_rebuilds_the_kernel_template(self, fastpath):
        """An instruction with a fresh register added to the kernel: the
        relaunch on the same machine lays its frames out by the new slot
        map (the added store reads the new slot) and matches the
        reference interpreter."""
        module = parse_module(CALLS)
        kernel = module.function("k")
        with engine_config(fastpath=fastpath):
            machine = GPUMachine(module)
            first = machine.launch("k", N_THREADS, (5,))
            template = frame_templates(module)["k"]
            fresh = kernel.new_reg("fresh")
            kernel.entry.insert_before_terminator(
                Instruction(Opcode.ADD, dst=fresh, operands=[Reg("t"), Imm(1000)])
            )
            kernel.entry.insert_before_terminator(
                Instruction(Opcode.ST, operands=[fresh, Reg("r")])
            )
            again = machine.launch("k", N_THREADS, (5,))
        rebuilt = frame_templates(module)["k"]
        assert rebuilt is not template
        assert len(rebuilt.regs) == len(template.regs) + 1
        assert again.store_traces() == {
            tid: first.store_traces()[tid] + [(tid + 1000, (tid + 5) * 2)]
            for tid in range(N_THREADS)
        }
        assert _observed(again) == _observed(
            _reference(module, "k", N_THREADS, (5,))
        )

    @pytest.mark.parametrize("fastpath", [True, False])
    def test_call_frames_take_the_callee_template(self, fastpath):
        """A ``call`` pushes a frame laid out by the callee's cached slot
        map; after an edit adds a register to the callee, the relaunch's
        call frames use the rebuilt map."""
        module = parse_module(CALLS)
        callee = module.function("f")
        with engine_config(fastpath=fastpath):
            machine = GPUMachine(module)
            machine.launch("k", N_THREADS, (5,))
            template = frame_templates(module)["f"]
            assert len(template.regs) == 2  # %x, %y
            entry = callee.entry
            entry.remove(entry.terminator)
            fresh = callee.new_reg("w")
            entry.append(
                Instruction(Opcode.ADD, dst=fresh, operands=[Reg("y"), Imm(1)])
            )
            entry.append(Instruction(Opcode.RET, operands=[fresh]))
            again = machine.launch("k", N_THREADS, (5,))
        assert len(frame_templates(module)["f"].regs) == 3
        assert again.store_traces() == {
            tid: [(tid, (tid + 5) * 2 + 1)] for tid in range(N_THREADS)
        }
        assert _observed(again) == _observed(
            _reference(module, "k", N_THREADS, (5,))
        )
