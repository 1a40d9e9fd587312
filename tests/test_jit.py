"""Unit net for generated code (:mod:`repro.simt.jit`).

The conformance matrix (test_conformance.py) pins bit-identity over the
corpus; this file pins the *mechanism*: compilation when a segment is
built, the shared code memo and the code cache, the fallback to unfused
issue on a codegen veto, every pure op issued alone against the
interpreter, module lifetime, the ``engine_config`` escape hatch, the
generated-source shape, and the post-mortem integration.
"""

import gc
import itertools
import math
import weakref

import pytest

from repro.core import compile_sr
from repro.engine import current_engine, engine_config
from repro.errors import LaunchError, SimulationError
from repro.frontend import compile_kernel_source
from repro.ir import parse_module
from repro.ir.function import clear_module_caches
from repro.ir.instructions import Barrier, Imm, Instruction, Opcode, Reg
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

#: One block whose trace runs through ``bssy``, a ``bbreak`` and a
#: ``cbr`` whose lanes disagree (lanes below 16 take ``^low``).
TRACE = """
func @k() kernel {
entry:
  %t = tid
  %p = cmplt %t, 16
  bssy $B0
  bbreak $B0
  cbr %p, ^low, ^high
low:
  st %t, 1
  exit
high:
  st %t, 2
  exit
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


#: The op at ``LONE_PC`` issues alone whatever the engine: the ``bsync``s
#: on a barrier no lane joined pass through, and end every fusable run.
#: Ops with no destination leave ``%d`` holding ``%a``.
LONE = """
func @k(%a, %b, %c) kernel {
entry:
  %t = tid
  %d = mov %a
  bsync $F
  %d = mov %a
  bsync $F
  st %t, %d
  exit
}
"""
LONE_PC = ("k", "entry", 3)

#: Operand values: ints, a float, and floats with no exact ``repr``
#: literal (signed zero, infinity, NaN), which reach the guards of
#: ``div``/``rem``/``sqrt``/``log`` and the ``int()`` coercions.
VALUES = (3, -2, 0, -0.0, 2.5, math.inf, math.nan)

#: Three-operand ops draw from fewer values (every shape, every value).
VALUES_3 = (0, -0.0, 2.5, math.nan)

#: Operand count of every pure opcode that reads operands.
_ARITY = {
    **dict.fromkeys(jit_module._BINARY_EXPR, 2),
    **dict.fromkeys(jit_module._UNARY_EXPR, 1),
    Opcode.SEL: 3,
    Opcode.FMA: 3,
}


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


#: Two kernels of one segment shape under different function, block and
#: register names: the entry block is one trace ending in an agreeing
#: ``cbr`` (every lane's ``2 * tid`` is below 100).
SHAPE_K = """
func @k() kernel {
entry:
  %t = tid
  %x = mul %t, 2
  %p = cmplt %x, 100
  cbr %p, ^low, ^high
low:
  st %t, %x
  exit
high:
  st %t, 1
  exit
}
"""

SHAPE_Q = (
    SHAPE_K.replace("@k", "@q").replace("entry", "start")
    .replace("low", "small").replace("high", "big")
    .replace("%t", "%a").replace("%x", "%b").replace("%p", "%c")
)

#: The same pair failing inside the segment: the copy of the unwritten
#: register fails at the third slot with an error naming the register,
#: function and block.
UNDEF_K = """
func @k() kernel {
entry:
  %t = tid
  %x = add %t, 1
  %y = mov %u
  st %t, %y
  exit
}
"""

UNDEF_Q = (
    UNDEF_K.replace("@k", "@q").replace("entry", "start")
    .replace("%t", "%a").replace("%u", "%w")
)


def _launch(text, **engine):
    module = parse_module(text)
    (kernel,) = module.functions
    memory = GlobalMemory()
    with engine_config(**engine):
        launch = GPUMachine(module).launch(kernel, 32, memory=memory)
    return module, launch, memory


class TestShapeCache:
    def test_one_lowering_per_shape(self, segments_on):
        """The second module of a shape generates no source: one shape
        miss, one ``compile()``, one hit. Each segment still gets its own
        header, exits and handlers, and runs as the reference does."""
        before = obs_counters.snapshot()
        runs = [_launch(text) for text in (SHAPE_K, SHAPE_Q)]
        moved = _moved(before)
        assert moved["jit.tierups"] == 2
        assert moved["jit.shape_hits"] == 1
        assert moved["jit.compiled_segments"] == 1
        assert jit_module.CODE_CACHE.shape_count() == 1
        sources = []
        for (module, launch, memory), (kernel, block, small, big) in zip(
            runs, (("k", "entry", "low", "high"), ("q", "start", "small", "big"))
        ):
            segment = decode_program(module, DEFAULT_COST_MODEL).segment_at(
                (kernel, block, 0)
            )
            header, source = segment.fn.__jit_source__.split("\n", 1)
            assert header == f"# jit: segment @{kernel}/{block}:0 n=4"
            assert segment.fn.__jit_segment__ == f"@{kernel}/{block}:0 n=4"
            sources.append(source)
            # The chunk computes the predicate, so it routes the ``cbr``:
            # no exit before it, and a split exit to both targets.
            assert [
                (exit.fname, exit.bname, exit.n, exit.end_pc, exit.targets)
                for exit in segment.exits
            ] == [
                (kernel, block, 4, (kernel, small, 0), None),
                (kernel, block, 4, (kernel, big, 0), None),
                (kernel, block, 4, None,
                 ((kernel, small, 0), (kernel, big, 0))),
            ]
            assert launch.counters["jit.executed_segments"] > 0
            _, reference, ref_memory = _launch(
                SHAPE_K if kernel == "k" else SHAPE_Q, fastpath=False
            )
            assert memory.snapshot() == ref_memory.snapshot()
            assert launch.store_traces() == reference.store_traces()
            assert launch.cycles == reference.cycles
        assert sources[0] == sources[1]
        fns = [
            decode_program(module, DEFAULT_COST_MODEL).segment_at(pc).fn
            for (module, _, _), pc in zip(
                runs, (("k", "entry", 0), ("q", "start", 0))
            )
        ]
        assert fns[0].__code__ is fns[1].__code__
        assert fns[0].__jit_ops__ is fns[1].__jit_ops__

    def test_failure_in_a_hit_segment_is_the_references(self, segments_on):
        """A segment lowered from a cached shape fails at the reference's
        slot with the reference's error, naming its own register,
        function and block."""

        def failure(text, **engine):
            with pytest.raises(SimulationError) as excinfo:
                _launch(text, **engine)
            return str(excinfo.value), excinfo.value.post_mortem["issued"]

        assert failure(UNDEF_K)[1] == 2
        before = obs_counters.snapshot()
        fused = failure(UNDEF_Q)
        assert _moved(before)["jit.shape_hits"] == 1
        assert fused == failure(UNDEF_Q, fastpath=False)
        assert fused[0].startswith(
            "read of undefined register %w in @q/start"
        )

    def test_clear_code_cache_drops_shapes(self, segments_on):
        _launch(SHAPE_K)
        assert jit_module.CODE_CACHE.shape_count() == 1
        jit_module.clear_code_cache()
        assert jit_module.CODE_CACHE.shape_count() == 0
        before = obs_counters.snapshot()
        _launch(SHAPE_Q)
        moved = _moved(before)
        assert moved["jit.shape_hits"] == 0
        assert moved["jit.compiled_segments"] == 1


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


def _lone_instruction(opcode, shape, values):
    """The pure ``opcode`` with its operands in ``shape`` (``R`` reads
    param ``%a``/``%b``/``%c``, ``I`` is the literal from ``values``)."""
    if opcode is Opcode.CONST:
        return Instruction(opcode, Reg("d"), [Imm(values[0])])
    if opcode is Opcode.DELAY:
        return Instruction(opcode, None, [Imm(7)])
    if opcode in (Opcode.NOP, Opcode.PREDICT):
        return Instruction(opcode)
    operands = [
        Reg(param) if kind == "R" else Imm(value)
        for param, kind, value in zip("abc", shape, values)
    ]
    return Instruction(opcode, Reg("d"), operands)


def _lone_cases(opcode):
    """``(shape, values)`` for every operand shape and value of
    ``opcode``."""
    arity = _ARITY.get(opcode, 0)
    if opcode is Opcode.CONST:
        return [("I", (value,)) for value in VALUES]
    values = VALUES_3 if arity == 3 else VALUES
    return [
        ("".join(shape), combo)
        for shape in itertools.product("RI", repeat=arity)
        for combo in itertools.product(values, repeat=arity)
    ]


def _lone_outcome(module, args, **engine):
    """Stored values (type and ``repr``, so signed zeros and NaNs
    compare), cycles, and the lone op's unfused issues of one launch, or
    the error it raised."""
    try:
        launch, memory = _run_lone(module, args, **engine)
    except Exception as error:  # the reference raises these too
        return type(error), str(error)
    stored = [memory.load(tid) for tid in range(4)]
    issues = launch.profiler.pc_stats[LONE_PC][0]
    return [(type(v), repr(v)) for v in stored], launch.cycles, issues


def _run_lone(module, args, **engine):
    memory = GlobalMemory()
    with engine_config(**engine):
        launch = GPUMachine(module).launch("k", 4, args=args, memory=memory)
    return launch, memory


def _lone_module(instr):
    module = parse_module(LONE)
    module.function("k").block("entry").instructions[LONE_PC[2]] = instr
    return module


class TestLoneOps:
    """Every pure op issued alone runs code lowered from the segment
    templates; it must match the interpreter bit for bit."""

    @pytest.mark.parametrize(
        "opcode", sorted(jit_module._PURE_OPS, key=lambda op: op.value),
        ids=lambda op: op.value,
    )
    def test_lone_op_matches_interpreter(self, segments_on, opcode):
        before = obs_counters.snapshot()
        for shape, values in _lone_cases(opcode):
            instr = _lone_instruction(opcode, shape, values)
            # One module per engine, so no launch reuses another's code.
            modules = [_lone_module(instr) for _ in range(3)]
            args = tuple(
                value if kind == "R" else 0
                for kind, value in zip(shape, values)
            ) + (0,) * (3 - len(shape))
            expected = _lone_outcome(modules[0], args, fastpath=False)
            for module, segments in zip(modules[1:], (False, True)):
                actual = _lone_outcome(module, args, segments=segments)
                assert actual == expected, (shape, values, segments)
        # Every case lowered: none fell back to the interpreter.
        assert _moved(before)["jit.deopts"] == 0

    def test_every_pure_op_has_a_lowering(self, segments_on):
        """A new pure opcode without a template fails here, instead of
        silently running interpreted."""
        for opcode in jit_module._PURE_OPS:
            shape = "R" * _ARITY.get(opcode, 0)
            instr = _lone_instruction(opcode, shape, (1, 2, 3))
            module = _lone_module(instr)
            entry = decode_program(module, DEFAULT_COST_MODEL).entry(LONE_PC)
            fn = jit_module.lower_op(
                entry, module.function("k").reg_slots(), LONE_PC
            )
            assert fn.__name__ == "_jit_op", opcode

    def test_veto_runs_interpreted_once_counted(self, segments_on):
        """A lone op codegen vetoes (here a barrier operand) runs the
        interpreter, counted once in ``jit.deopts``, never retried."""
        instr = Instruction(Opcode.MOV, Reg("d"), [Barrier("F")])
        module = _lone_module(instr)
        reference = _lone_outcome(_lone_module(instr), (1, 2, 3),
                                  fastpath=False)
        before = obs_counters.snapshot()
        assert _lone_outcome(module, (1, 2, 3), segments=False) == reference
        assert _moved(before)["jit.deopts"] == 1
        clear_module_caches("launch_memo")
        before = obs_counters.snapshot()
        assert _lone_outcome(module, (1, 2, 3), segments=False) == reference
        assert _moved(before)["jit.deopts"] == 0


class TestEscapeHatches:
    """``segments=False`` is the one switch: no segment is built (lone
    pure ops still run generated code)."""

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
        """With fusion off no segment is lowered or executed, and results
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
        written once at chunk end), one handler call for the store tail,
        static cycles precomputed into the one exit's return. A diff here
        means the codegen shape changed."""
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
            "    _total = 0\n"
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
            "    return _total + 8, _x7\n"
        )

    def test_trace_source_golden(self, segments_on):
        """A trace through ``bssy``, a guarded ``bbreak`` and an ending
        ``cbr`` on a predicate from before the handlers: the guard leaves
        before the ``bbreak``; the ``cbr`` files the lanes by predicate,
        leaves before the branch when a test raises, moves the lanes, and
        has one exit per target plus a split exit that reports both
        buckets."""
        module = parse_module(TRACE)
        GPUMachine(module).launch("k", 32)
        records = [
            r for r in jit_module.compiled_segments()
            if r["segment"] == "@k/entry:0"
        ]
        assert len(records) == 1
        assert records[0]["source"] == (
            "# jit: segment @k/entry:0 n=5\n"
            "def _jit_segment(executor, warp, group):\n"
            "    _total = 0\n"
            "    for _t in group:\n"
            "        _f = _t.frames[-1]\n"
            "        _r = _f.regs\n"
            "        _s0 = _t.tid\n"
            "        _r[0] = _s0\n"
            "        _r[1] = (1 if _s0 < 16 else 0)\n"
            "        _f.index = 2\n"
            "    _total += _h6(executor, warp, group)\n"
            "    _b = warp.barriers.barriers_dict().get(_k7)\n"
            "    if _b is not None and _b.parked_mask:\n"
            "        return _total + 2, _x8\n"
            "    _total += _h9(executor, warp, group)\n"
            "    _tk = []\n"
            "    _fl = []\n"
            "    try:\n"
            "        for _t in group:\n"
            "            if _t.frames[-1].regs[1] != 0:\n"
            "                _tk.append(_t)\n"
            "            else:\n"
            "                _fl.append(_t)\n"
            "    except Exception:\n"
            "        return _total + 2, _x10\n"
            "    for _t in _tk:\n"
            "        _f = _t.frames[-1]\n"
            "        _f.block_name = _k11\n"
            "        _f.index = 0\n"
            "    for _t in _fl:\n"
            "        _f = _t.frames[-1]\n"
            "        _f.block_name = _k12\n"
            "        _f.index = 0\n"
            "    if not _fl:\n"
            "        return _total + 3, _x13\n"
            "    if not _tk:\n"
            "        return _total + 3, _x14\n"
            "    executor.moved = ((_p15, _tk), (_p16, _fl))\n"
            "    return _total + 3, _x17\n"
        )

    def test_routed_branch_source_golden(self, segments_on):
        """A chunk that computes its ``cbr``'s predicate routes the
        branch in its own lane loop: the predicate's last definition is
        a local the lane tail tests, each lane moves and is filed as it
        finishes the chunk, and no exit leaves before the branch."""
        module = parse_module(SHAPE_K)
        GPUMachine(module).launch("k", 32)
        (record,) = [
            r for r in jit_module.compiled_segments()
            if r["segment"] == "@k/entry:0"
        ]
        assert record["source"] == (
            "# jit: segment @k/entry:0 n=4\n"
            "def _jit_segment(executor, warp, group):\n"
            "    _total = 0\n"
            "    _tk = []\n"
            "    _fl = []\n"
            "    for _t in group:\n"
            "        _f = _t.frames[-1]\n"
            "        _r = _f.regs\n"
            "        _s0 = _t.tid\n"
            "        _r[0] = _s0\n"
            "        _s1 = (_s0 * 2)\n"
            "        _r[1] = _s1\n"
            "        _s2 = (1 if _s1 < 100 else 0)\n"
            "        _r[2] = _s2\n"
            "        if _s2 != 0:\n"
            "            _f.block_name = _k6\n"
            "            _tk.append(_t)\n"
            "        else:\n"
            "            _f.block_name = _k7\n"
            "            _fl.append(_t)\n"
            "        _f.index = 0\n"
            "    if not _fl:\n"
            "        return _total + 4, _x8\n"
            "    if not _tk:\n"
            "        return _total + 4, _x9\n"
            "    executor.moved = ((_p10, _tk), (_p11, _fl))\n"
            "    return _total + 4, _x12\n"
        )
        # Every line past the chunk's ops maps to no op.
        fn = decode_program(module, DEFAULT_COST_MODEL).segment_at(
            ("k", "entry", 0)
        ).fn
        lines = fn.__jit_source__.split("\n")[1:]
        routed = [i for i, line in enumerate(lines)
                  if "block_name" in line or "append" in line]
        assert routed and all(fn.__jit_ops__[i] is None for i in routed)

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
