"""Unit tests for the segment-fused execution engine (repro.simt.segments).

The conformance matrix (tests/test_conformance.py) pins fused-vs-unfused
bit-identity over the corpus; this file tests the machinery directly:
segment partitioning, the pick a fused run relies on, every fallback trigger,
the slot-indexed register files, and the UNDEF sentinel.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compile_sr
from repro.engine import current_engine, engine_config
from repro.errors import SimulationError
from repro.frontend import compile_kernel_source
from repro.ir import parse_module
from repro.ir.instructions import Opcode
from repro.obs.sinks import ListSink
from repro.simt import (
    DEFAULT_COST_MODEL,
    GPUMachine,
    decode_program,
)
from repro.simt import machine as machine_module
from repro.simt.scheduler import (
    ConvergenceScheduler,
    OldestFirstScheduler,
    RoundRobinScheduler,
)
from repro.simt.segments import Segment
from repro.simt.warp import UNDEF
from tests.helpers import split_engine

STRAIGHT = """
kernel k() {
    let a = tid();
    let b = a * 2;
    let c = b + 1;
    store(a, c);
}
"""

LOOPED = """
kernel k() {
    let i = 0;
    let acc = 0;
    while (i < 8) {
        acc = acc + i * 3;
        i = i + 1;
    }
    store(tid(), acc);
}
"""

DIVERGENT = """
kernel k() {
    let x = 0;
    if (tid() % 2 == 0) {
        x = tid() * 2;
    } else {
        x = tid() * 3 + 1;
    }
    store(tid(), x);
}
"""

#: ``cmplt %t, 16`` splits the warp into two 16-lane arms of equal size;
#: each arm is a straight run of fusable ops ending in ``bra`` to a join.
DIVERGENT_ARMS = """
func @k() kernel {
entry:
  %t = tid
  %p = cmplt %t, 16
  cbr %p, ^low, ^high
low:
  %x = mul %t, 2
  %y = add %x, 1
  bra ^join
high:
  %x = mul %t, 3
  %y = add %x, 7
  bra ^join
join:
  st %t, %y
  exit
}
"""


def _fingerprint(result):
    return (
        result.store_traces(),
        result.retired_per_thread(),
        result.profiler.issued,
        result.profiler.total_cycles,
        result.profiler.simt_efficiency,
    )


def _run(module, n_threads=32, **kwargs):
    """One launch; engine fields in ``kwargs`` go to ``engine_config``."""
    engine, machine_kwargs = split_engine(kwargs)
    with engine_config(**engine):
        return GPUMachine(module, **machine_kwargs).launch("k", n_threads)


# ---------------------------------------------------------------------------
# Fusion fires, and every escape hatch falls back with identical results
# ---------------------------------------------------------------------------
class TestFusionAndFallback:
    def test_fusion_fires_on_straight_line_code(self):
        module = compile_kernel_source(LOOPED)
        fused = _run(module, segments=True)
        assert fused.profiler.fused_issues > 0
        assert fused.profiler.fused_segments > 0
        assert fused.profiler.fused_issues <= fused.profiler.issued

    def test_machine_kwarg_off_is_bit_identical(self):
        module = compile_kernel_source(LOOPED)
        fused = _run(module, segments=True)
        unfused = _run(module, segments=False)
        assert unfused.profiler.fused_issues == 0
        assert _fingerprint(fused) == _fingerprint(unfused)

    def test_global_toggle_and_context_manager(self):
        module = compile_kernel_source(STRAIGHT)
        with engine_config(segments=True):
            with engine_config(segments=False):
                assert not current_engine().segments
                off = _run(module)  # the machine reads the config
                assert off.profiler.fused_issues == 0
            assert current_engine().segments
            on = _run(module)
        assert on.profiler.fused_issues > 0
        assert _fingerprint(on) == _fingerprint(off)

    def test_set_segments_returns_previous(self):
        assert current_engine().segments is True
        with engine_config(segments=False):
            assert current_engine().segments is False
            with engine_config(segments=True):
                assert current_engine().segments is True
            assert current_engine().segments is False
        assert current_engine().segments is True

    @staticmethod
    def _event_key(event):
        return tuple(
            getattr(event, field)
            for field in ("kind", "warp_id", "ts")
        ) + tuple(
            getattr(event, field, None)
            for field in ("function", "block", "index", "opcode", "lanes",
                          "dur", "active", "barrier", "targets", "parked")
        )

    def test_trace_disables_fusion_with_identical_trace(self):
        """The issue trace a sink sees under the default engine is the
        interpreted reference's, event for event."""
        module = compile_kernel_source(LOOPED)
        sink = ListSink()
        traced = _run(module, sink=sink, segments=True)
        assert traced.profiler.fused_issues == 0
        reference_sink = ListSink()
        _run(module, sink=reference_sink, fastpath=False)
        issues = sink.of_kind("issue")
        assert len(issues) == traced.profiler.issued
        assert (
            [self._event_key(e) for e in issues]
            == [self._event_key(e) for e in reference_sink.of_kind("issue")]
        )

    def test_sink_disables_fusion_with_identical_events(self):
        module = compile_kernel_source(LOOPED)
        sink = ListSink()
        observed = _run(module, sink=sink, segments=True)
        assert observed.profiler.fused_issues == 0
        reference_sink = ListSink()
        reference = _run(module, sink=reference_sink, segments=False)
        assert (
            [self._event_key(e) for e in sink.events]
            == [self._event_key(e) for e in reference_sink.events]
        )
        assert _fingerprint(observed) == _fingerprint(reference)

    def test_fastpath_off_disables_fusion(self):
        module = compile_kernel_source(LOOPED)
        result = _run(module, fastpath=False, segments=True)
        assert result.profiler.fused_issues == 0

    def test_multi_warp_launch_is_bit_identical(self):
        """With several live warps only the surviving tail may fuse; the
        interleaved phase must stay per-instruction and results must not
        move either way."""
        module = compile_kernel_source(DIVERGENT)
        fused = _run(module, segments=True, n_threads=96)
        unfused = _run(module, segments=False, n_threads=96)
        assert _fingerprint(fused) == _fingerprint(unfused)

    def test_divergent_kernel_still_fuses_forced_picks(self):
        module = compile_kernel_source(DIVERGENT)
        fused = _run(module, segments=True)
        unfused = _run(module, segments=False)
        assert _fingerprint(fused) == _fingerprint(unfused)

    def test_runaway_kernel_still_hits_issue_budget(self):
        from repro.errors import LaunchError

        runaway = """
        kernel k() {
            let i = 0;
            while (i < 1000000) {
                i = i + 1;
            }
            store(tid(), i);
        }
        """
        module = compile_kernel_source(runaway)
        with pytest.raises(LaunchError, match="issue slots"):
            _run(module, segments=True, max_issues=1000)

    def test_summary_has_no_fused_counters(self):
        """Fused diagnostics must not leak into the pinned summary shape."""
        module = compile_kernel_source(STRAIGHT)
        summary = _run(module, segments=True).profiler.summary()
        assert "fused_issues" not in summary
        assert "fused_segments" not in summary


# ---------------------------------------------------------------------------
# Segment partitioning
# ---------------------------------------------------------------------------
class TestSegmentTable:
    def _decoded(self, source):
        module = compile_kernel_source(source)
        # Force-decode by touching segment_at once.
        return module, decode_program(module, DEFAULT_COST_MODEL)

    def test_straight_line_block_is_one_segment(self):
        module, decoded = self._decoded(STRAIGHT)
        kernel = module.function("k")
        entry = kernel.entry
        segment = decoded.segment_at(("k", entry.name, 0))
        assert segment is not None
        # The run stops at the first non-fusable instruction (EXIT/CBR/...).
        fusable_prefix = 0
        from repro.simt.segments import FUSABLE_OPS

        for instr in entry.instructions:
            if instr.opcode not in FUSABLE_OPS:
                break
            fusable_prefix += 1
        assert segment.n == fusable_prefix
        assert segment.n >= 2

    def test_mid_run_entry_gets_suffix_segment(self):
        module, decoded = self._decoded(STRAIGHT)
        entry = module.function("k").entry
        whole = decoded.segment_at(("k", entry.name, 0))
        suffix = decoded.segment_at(("k", entry.name, 1))
        assert suffix is not None
        assert suffix.start == 1
        assert suffix.n == whole.n - 1
        assert suffix.exits[-1].end_pc == whole.exits[-1].end_pc

    def test_short_runs_are_not_segments(self):
        module, decoded = self._decoded(STRAIGHT)
        entry = module.function("k").entry
        whole = decoded.segment_at(("k", entry.name, 0))
        # One instruction before the run's end: length 1, never fused.
        assert decoded.segment_at(("k", entry.name, whole.n - 1)) is None

    def test_bra_terminated_segment_ends_at_target(self):
        module, decoded = self._decoded(LOOPED)
        bra_blocks = [
            (block, instr)
            for block in module.function("k").blocks
            for instr in block.instructions
            if instr.opcode is Opcode.BRA
        ]
        assert bra_blocks, "loop lowering should emit BRA terminators"
        found = False
        for block, bra in bra_blocks:
            segment = decoded.segment_at(("k", block.name, 0))
            if segment is None:
                continue
            if segment.start + segment.n == len(block.instructions):
                target = bra.operands[0].name
                assert segment.exits[-1].end_pc == ("k", target, 0)
                found = True
        assert found, "no BRA-terminated segment found"

    def test_non_bra_segment_ends_in_block(self):
        module, decoded = self._decoded(STRAIGHT)
        entry = module.function("k").entry
        segment = decoded.segment_at(("k", entry.name, 0))
        if entry.instructions[segment.n - 1].opcode is not Opcode.BRA:
            assert segment.exits[-1].end_pc == ("k", entry.name, segment.n)

    def test_conflicts_detects_interior_group(self):
        module, decoded = self._decoded(STRAIGHT)
        entry = module.function("k").entry
        segment = decoded.segment_at(("k", entry.name, 0))
        inside = ("k", entry.name, 1)
        at_end = segment.exits[-1].end_pc
        elsewhere = ("k", "no.such.block", 0)
        assert segment.conflicts({inside: []})
        assert not segment.conflicts({at_end: []})
        assert not segment.conflicts({elsewhere: []})
        assert not segment.conflicts({("k", entry.name, 0): []})

    def test_segment_lookup_is_cached(self):
        module, decoded = self._decoded(STRAIGHT)
        entry = module.function("k").entry
        pc = ("k", entry.name, 0)
        assert decoded.segment_at(pc) is decoded.segment_at(pc)


# ---------------------------------------------------------------------------
# Forced-pick contract
# ---------------------------------------------------------------------------
class _FakeThread:
    __slots__ = ("lane",)

    def __init__(self, lane):
        self.lane = lane


def _lanes(n, base=0):
    return [_FakeThread(base + i) for i in range(n)]


class TestForcedPick:
    """A stateless policy's pick is *forced* through a fusable segment:
    while the picked group advances index by index, with other groups
    elsewhere, ``pick`` keeps returning that group. The machine relies on
    this to fuse whatever such a policy picks."""

    def _order(self, pc):
        return pc

    def _picks(self, scheduler, groups, n):
        """The PCs ``scheduler`` picks over ``n`` slots when each slot
        moves the picked group one index forward, as a fusable op does."""
        groups = dict(groups)
        picked = []
        for _ in range(n):
            pc = scheduler.pick(groups, self._order)
            picked.append(pc)
            group = groups.pop(pc)
            groups.setdefault((pc[0], pc[1], pc[2] + 1), []).extend(group)
        return picked

    @staticmethod
    def _walk(block, n):
        return [("k", block, index) for index in range(n)]

    def test_singleton_forced_for_every_policy(self):
        groups = {("k", "bb", 0): _lanes(4)}
        for scheduler in (
            ConvergenceScheduler(),
            OldestFirstScheduler(),
            RoundRobinScheduler(),
        ):
            assert self._picks(scheduler, groups, 4) == self._walk("bb", 4)

    def test_convergence_strict_largest_is_forced(self):
        """The largest group wins over an older and a younger one."""
        groups = {
            ("k", "a", 0): _lanes(3),
            ("k", "b", 0): _lanes(5, base=3),
            ("k", "c", 0): _lanes(3, base=8),
        }
        picks = self._picks(ConvergenceScheduler(), groups, 4)
        assert picks == self._walk("b", 4)

    def test_convergence_size_tie_is_forced(self):
        """The oldest of the largest groups stays the oldest while it
        advances: a tied group elsewhere, or one waiting at the end of
        the segment, is younger than every PC the walk passes."""
        groups = {
            ("k", "a", 0): _lanes(2),
            ("k", "b", 0): _lanes(3, base=2),
            ("k", "b", 4): _lanes(3, base=5),
            ("k", "c", 0): _lanes(3, base=8),
        }
        picks = self._picks(ConvergenceScheduler(), groups, 4)
        assert picks == self._walk("b", 4)

    def test_oldest_first_multi_group_is_forced(self):
        groups = {
            ("k", "b", 0): _lanes(3),
            ("k", "c", 0): _lanes(8, base=3),
        }
        picks = self._picks(OldestFirstScheduler(), groups, 4)
        assert picks == self._walk("b", 4)

    def test_round_robin_never_fuses_multi_group(self, monkeypatch):
        """Round-robin's rotation moves on every pick, so a multi-group
        pick is not forced; the machine fuses only its lone groups."""
        groups = {
            ("k", "b", 0): _lanes(3),
            ("k", "c", 0): _lanes(8, base=3),
        }
        assert self._picks(RoundRobinScheduler(), groups, 2) == [
            ("k", "b", 0), ("k", "c", 0),
        ]
        fused_group_counts = []
        execute = Segment.execute

        def spy(segment, executor, warp, group):
            fused_group_counts.append(len(warp.groups()))
            return execute(segment, executor, warp, group)

        monkeypatch.setattr(Segment, "execute", spy)
        module = parse_module(DIVERGENT_ARMS)
        fused = _run(module, scheduler="round-robin")
        assert fused.counters["sched.nonforced_multi_group"] > 0
        assert fused_group_counts and set(fused_group_counts) == {1}
        reference = _run(module, scheduler="round-robin", fastpath=False)
        assert _fingerprint(fused) == _fingerprint(reference)

    def test_round_robin_consume_matches_repeated_picks(self):
        """A fused run of n slots must leave the rotation exactly where n
        singleton pick() calls would have."""
        groups = {("k", "bb", 0): _lanes(1)}
        picked = RoundRobinScheduler()
        for _ in range(7):
            picked.pick(groups, self._order)
        consumed = RoundRobinScheduler()
        consumed.consume(7)
        assert picked._counter == consumed._counter

    def test_base_consume_is_a_noop(self):
        ConvergenceScheduler().consume(100)
        OldestFirstScheduler().consume(100)


#: A drawn group table's PCs: two functions, four blocks, six indices.
_PCS = st.tuples(
    st.sampled_from(["k", "h"]),
    st.sampled_from(["a", "b", "c", "d"]),
    st.integers(0, 5),
)


class TestRoundRobinRotation:
    """Round-robin's pick, which sorts only for an inner position, is the
    rotation ``sorted(groups, key=program_order)[counter % n]`` over any
    table and counter, with ``consume`` calls in between."""

    @settings(max_examples=200, deadline=None)
    @given(
        tables=st.lists(
            st.lists(_PCS, min_size=1, max_size=7, unique=True),
            min_size=1, max_size=12,
        ),
        block_order=st.permutations(["a", "b", "c", "d"]),
        start=st.integers(0, 10**6),
        consumed=st.lists(st.integers(0, 5), min_size=12, max_size=12),
    )
    def test_pick_is_the_sorted_rotation(self, tables, block_order, start,
                                         consumed):
        position = {block: i for i, block in enumerate(block_order)}

        def program_order(pc):
            return (pc[0], position[pc[1]], pc[2])

        scheduler = RoundRobinScheduler()
        scheduler.consume(start)
        counter = start
        for pcs, skipped in zip(tables, consumed):
            groups = {pc: _lanes(1) for pc in pcs}
            expected = sorted(groups, key=program_order)[
                counter % len(groups)
            ]
            assert scheduler.pick(groups, program_order) == expected
            scheduler.consume(skipped)
            counter += 1 + skipped


class TestPickOnce:
    """The machine asks the scheduler once per slot: a slot
    ``_run_exclusive`` picked and could not fuse is issued in the same
    call with that pick, and round-robin's rotation moves once per
    slot."""

    def _launch(self, scheduler, monkeypatch):
        made = []
        make = machine_module.make_scheduler

        def spy(name):
            made.append(make(name))
            return made[-1]

        monkeypatch.setattr(machine_module, "make_scheduler", spy)
        module = compile_sr(compile_kernel_source(DIVERGENT)).module
        return _run(module, scheduler=scheduler), made[0]

    @pytest.mark.parametrize(
        "policy", [ConvergenceScheduler, OldestFirstScheduler]
    )
    def test_stateless_policy_picks_each_slot_once(self, policy, monkeypatch):
        picks = []
        pick = policy.pick

        def counted(scheduler, groups, program_order):
            picks.append((id(groups), tuple(groups)))
            return pick(scheduler, groups, program_order)

        monkeypatch.setattr(policy, "pick", counted)
        launch, _ = self._launch(policy.name, monkeypatch)
        assert picks  # the warp diverged
        # A lone group is its own pick, and no grouping is asked twice.
        assert all(len(keys) > 1 for _, keys in picks)
        assert all(a != b for a, b in zip(picks, picks[1:]))
        assert launch.counters["sched.nonforced_multi_group"] == 0

    def test_round_robin_rotates_once_per_slot(self, monkeypatch):
        launch, scheduler = self._launch("round-robin", monkeypatch)
        assert launch.counters["segments.fused_instrs"] > 0
        assert scheduler._counter == launch.profiler.issued


# ---------------------------------------------------------------------------
# Slot register files and the UNDEF sentinel
# ---------------------------------------------------------------------------
class TestRegisterSlots:
    def test_params_get_the_first_slots(self):
        module = compile_kernel_source("kernel k(n) { store(tid(), n); }")
        kernel = module.function("k")
        slots = kernel.reg_slots()
        assert slots[kernel.params[0].name] == 0
        assert sorted(slots.values()) == list(range(len(slots)))

    def test_cache_invalidates_on_new_register(self):
        """The slot map lives in the module's "launch_template" cache: an
        instruction defining a fresh register changes the structure token,
        so the next lookup builds a template whose slots include it."""
        from repro.ir.instructions import Imm, Instruction
        from repro.simt.warp import frame_templates

        module = compile_kernel_source(STRAIGHT)
        kernel = module.function("k")
        first = frame_templates(module)["k"]
        assert frame_templates(module)["k"] is first  # cached
        fresh = kernel.new_reg("fresh")
        kernel.entry.insert_before_terminator(
            Instruction(Opcode.CONST, dst=fresh, operands=[Imm(1)])
        )
        template = frame_templates(module)["k"]
        assert template is not first
        assert set(template.slots) == set(first.slots) | {fresh.name}
        assert len(template.regs) == len(first.regs) + 1

    def test_undef_read_raises_through_frame(self):
        from repro.ir.instructions import Reg
        from repro.simt.warp import Frame, frame_templates

        module = compile_kernel_source(STRAIGHT)
        template = frame_templates(module)["k"]
        frame = Frame(template, template.fill(()))
        some_reg = next(iter(template.slots))
        with pytest.raises(SimulationError, match="undefined register"):
            frame.read(Reg(some_reg))

    def test_undef_arithmetic_raises(self):
        for operation in (
            lambda: UNDEF + 1,
            lambda: 1 + UNDEF,
            lambda: UNDEF * 2,
            lambda: UNDEF < 3,
            lambda: int(UNDEF),
            lambda: bool(UNDEF),
            lambda: -UNDEF,
        ):
            with pytest.raises(SimulationError, match="undefined register"):
                operation()

    def test_undef_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(UNDEF)
