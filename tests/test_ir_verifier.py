"""IR verifier violation tests."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VerifierError
from repro.ir import (
    BlockRef,
    FuncRef,
    Function,
    Imm,
    Instruction,
    Module,
    Opcode,
    Reg,
    make,
    verify_function,
    verify_module,
)
from tests.helpers import listing1_module, oracle_verify_module


def _kernel_with(instructions):
    fn = Function("f", is_kernel=True)
    block = fn.new_block("entry")
    for instr in instructions:
        block.instructions.append(instr)  # bypass append() checks on purpose
    return fn


class TestStructure:
    def test_valid_listing1_verifies(self):
        assert verify_module(listing1_module())

    def test_empty_function_rejected(self):
        with pytest.raises(VerifierError):
            verify_function(Function("f"))

    def test_empty_block_rejected(self):
        fn = Function("f")
        fn.new_block("entry")
        with pytest.raises(VerifierError, match="empty block"):
            verify_function(fn)

    def test_missing_terminator_rejected(self):
        fn = _kernel_with([Instruction(Opcode.NOP)])
        with pytest.raises(VerifierError, match="terminator"):
            verify_function(fn)

    def test_terminator_midblock_rejected(self):
        fn = _kernel_with([Instruction(Opcode.EXIT), Instruction(Opcode.NOP), Instruction(Opcode.EXIT)])
        with pytest.raises(VerifierError, match="not at block end"):
            verify_function(fn)

    def test_unknown_branch_target_rejected(self):
        fn = _kernel_with([make(Opcode.BRA, None, BlockRef("ghost"))])
        with pytest.raises(VerifierError, match="unknown block"):
            verify_function(fn)

    def test_unknown_callee_rejected_with_module(self):
        module = Module("m")
        fn = _kernel_with(
            [make(Opcode.CALL, Reg("r"), FuncRef("ghost")), Instruction(Opcode.EXIT)]
        )
        module.add(fn)
        with pytest.raises(VerifierError, match="unknown function"):
            verify_module(module)


class TestOperandShapes:
    def test_binary_arity_enforced(self):
        fn = _kernel_with(
            [make(Opcode.ADD, Reg("d"), Reg("a")), Instruction(Opcode.EXIT)]
        )
        with pytest.raises(VerifierError, match="expects 2 operands"):
            verify_function(fn, check_defs=False)

    def test_dst_required_for_value_ops(self):
        fn = _kernel_with(
            [make(Opcode.ADD, None, Reg("a"), Reg("b")), Instruction(Opcode.EXIT)]
        )
        with pytest.raises(VerifierError, match="must define"):
            verify_function(fn, check_defs=False)

    def test_dst_forbidden_for_stores(self):
        fn = _kernel_with(
            [make(Opcode.ST, Reg("d"), Reg("a"), Reg("v")), Instruction(Opcode.EXIT)]
        )
        with pytest.raises(VerifierError, match="must not define"):
            verify_function(fn, check_defs=False)

    def test_bra_target_must_be_block(self):
        fn = _kernel_with([make(Opcode.BRA, None, Reg("x"))])
        with pytest.raises(VerifierError):
            verify_function(fn, check_defs=False)

    def test_cbr_targets_must_be_blocks(self):
        fn = _kernel_with([make(Opcode.CBR, None, Reg("p"), Reg("x"), BlockRef("entry"))])
        with pytest.raises(VerifierError, match="cbr targets"):
            verify_function(fn, check_defs=False)

    def test_barrier_needs_barrier_operand(self):
        fn = _kernel_with(
            [make(Opcode.BSSY, None, Imm(3)), Instruction(Opcode.EXIT)]
        )
        with pytest.raises(VerifierError, match="barrier"):
            verify_function(fn, check_defs=False)

    def test_ret_at_most_one_operand(self):
        fn = _kernel_with([make(Opcode.RET, None, Reg("a"), Reg("b"))])
        with pytest.raises(VerifierError):
            verify_function(fn, check_defs=False)

    def test_call_optional_dst_ok(self):
        module = Module("m")
        helper = Function("h")
        block = helper.new_block("entry")
        block.append(Instruction(Opcode.RET))
        module.add(helper)
        fn = _kernel_with(
            [make(Opcode.CALL, None, FuncRef("h")), Instruction(Opcode.EXIT)]
        )
        module.add(fn)
        assert verify_module(module, check_defs=False)


class TestDefBeforeUse:
    def test_use_before_def_rejected(self):
        fn = _kernel_with(
            [
                make(Opcode.ADD, Reg("d"), Reg("undefined"), Imm(1)),
                Instruction(Opcode.EXIT),
            ]
        )
        with pytest.raises(VerifierError, match="used before any definition"):
            verify_function(fn)

    def test_def_on_one_path_only_rejected(self):
        fn = Function("f", is_kernel=True)
        entry = fn.new_block("entry")
        then_block = fn.new_block("then")
        join = fn.new_block("join")
        p = fn.new_reg("p")
        entry.append(make(Opcode.TID, p))
        entry.append(make(Opcode.CBR, None, p, BlockRef("then"), BlockRef("join")))
        x = fn.new_reg("x")
        then_block.append(make(Opcode.CONST, x, Imm(1)))
        then_block.append(make(Opcode.BRA, None, BlockRef("join")))
        join.append(make(Opcode.ST, None, p, x))  # x undefined on else path
        join.append(Instruction(Opcode.EXIT))
        with pytest.raises(VerifierError, match="%x"):
            verify_function(fn)

    def test_loop_carried_defs_accepted(self):
        from tests.helpers import loop_function

        module, fn = loop_function()
        assert verify_function(fn)

    def test_params_count_as_defined(self):
        fn = Function("f", params=[Reg("a")])
        block = fn.new_block("entry")
        block.append(make(Opcode.RET, None, Reg("a")))
        assert verify_function(fn)


# ----------------------------------------------------------------------
# Differential: the bitset verifier against the reference verifier in
# tests/helpers.py, on compiled corpus IR broken in targeted ways.
# ----------------------------------------------------------------------

MUTATIONS = (
    "delete-def",
    "hoist-use",
    "drop-terminator",
    "misplace-terminator",
    "unknown-target",
    "retarget",
    "operand-count",
)


@functools.lru_cache(maxsize=None)
def _compiled_pool():
    """Compiled modules: a spread of corpus apps (baseline and auto) and
    two workloads with device functions and calls (sr)."""
    from repro.core import ReconvergenceCompiler
    from repro.workloads import get_workload
    from repro.workloads.corpus import generate_corpus

    compiler = ReconvergenceCompiler()
    pool = []
    for app in generate_corpus()[::26]:
        for mode in ("baseline", "auto"):
            pool.append(compiler.compile(app.module(), mode=mode).module)
    for name in ("funccall", "pathtracer"):
        workload = get_workload(name)
        pool.append(compiler.compile(workload.module(), mode="sr").module)
    return tuple(pool)


def _sites(module, keep):
    """Every (function, block, index, instr) for which ``keep`` holds."""
    return [
        (fn, block, index, instr)
        for fn in module
        for block in fn.blocks
        for index, instr in enumerate(block.instructions)
        if keep(instr)
    ]


def _mutate(module, kind, pick, extra):
    """Apply mutation ``kind`` in place; False when the module offers no
    site for it. ``pick`` and ``extra`` choose the site and variant."""
    if kind == "delete-def":
        sites = _sites(module, lambda i: i.dst is not None)
    elif kind == "hoist-use":
        sites = _sites(module, lambda i: i.uses() and not i.is_terminator)
    elif kind in ("drop-terminator", "misplace-terminator"):
        sites = _sites(module, lambda i: i.is_terminator)
    elif kind in ("unknown-target", "retarget"):
        sites = _sites(module, lambda i: i.block_targets())
    else:
        sites = _sites(module, lambda i: True)
    if not sites:
        return False
    fn, block, index, instr = sites[pick % len(sites)]
    if kind in ("delete-def", "drop-terminator"):
        del block.instructions[index]
    elif kind == "hoist-use":
        # Above every definition in its own block, or to the very top of
        # the function, ahead of the entry block's definitions.
        del block.instructions[index]
        target = fn.entry if extra % 2 else block
        target.instructions.insert(0, instr)
    elif kind == "misplace-terminator":
        del block.instructions[index]
        block.instructions.insert(extra % (index + 1), instr)
    elif kind in ("unknown-target", "retarget"):
        # An unknown block, or another block of the function: that skips
        # definitions on some paths and can leave blocks unreachable.
        refs = [i for i, op in enumerate(instr.operands)
                if isinstance(op, BlockRef)]
        name = "nowhere"
        if kind == "retarget":
            name = fn.blocks[extra % len(fn.blocks)].name
        instr.operands[refs[extra % len(refs)]] = BlockRef(name)
    elif extra % 2 or not instr.operands:
        instr.operands.append(Reg("extra") if extra % 4 == 1 else Imm(0))
    else:
        del instr.operands[extra % len(instr.operands)]
    return True


def _outcome(verify, module):
    try:
        verify(module)
    except Exception as exc:  # noqa: BLE001 - compared, never swallowed
        return type(exc).__name__, str(exc)
    return None


def _differential(index, kind, pick, extra):
    module = _compiled_pool()[index].clone()
    if not _mutate(module, kind, pick, extra):
        return None
    expected = _outcome(oracle_verify_module, module)
    assert _outcome(verify_module, module) == expected, (kind, pick, extra)
    return expected


class TestVerifierDifferential:
    def test_compiled_pool_verifies(self):
        for module in _compiled_pool():
            assert verify_module(module)
            assert oracle_verify_module(module)

    def test_every_mutation_kind_is_caught(self):
        """A fixed sweep: the verifiers agree, and each kind of mutation
        yields VerifierErrors (so the hypothesis test compares more than
        two passes)."""
        caught = {kind: 0 for kind in MUTATIONS}
        for index in range(len(_compiled_pool())):
            for kind in MUTATIONS:
                for pick in range(0, 60, 7):
                    outcome = _differential(index, kind, pick, pick // 7)
                    if outcome is not None and outcome[0] == "VerifierError":
                        caught[kind] += 1
        assert all(caught.values()), caught

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(MUTATIONS),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_same_error_as_reference(self, index, kind, pick, extra):
        _differential(index % len(_compiled_pool()), kind, pick, extra)
