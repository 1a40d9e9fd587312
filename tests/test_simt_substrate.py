"""Tests for the SIMT substrate: RNG, memory, cost model, barrier file."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.ir import Opcode
from repro.simt import (
    BarrierFile,
    ConvergenceBarrier,
    CostModel,
    GlobalMemory,
    XorShift32,
    mix_seed,
)


class TestRNG:
    def test_deterministic_streams(self):
        a = XorShift32(7, tid=3)
        b = XorShift32(7, tid=3)
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    def test_distinct_threads_distinct_streams(self):
        a = XorShift32(7, tid=3)
        b = XorShift32(7, tid=4)
        assert [a.uniform() for _ in range(4)] != [b.uniform() for _ in range(4)]

    def test_uniform_in_unit_interval(self):
        rng = XorShift32(11)
        for _ in range(1000):
            value = rng.uniform()
            assert 0.0 <= value < 1.0

    def test_uniform_covers_range(self):
        rng = XorShift32(13)
        values = [rng.uniform() for _ in range(2000)]
        assert min(values) < 0.05 and max(values) > 0.95

    def test_randint_inclusive_bounds(self):
        rng = XorShift32(5)
        values = {rng.randint(2, 5) for _ in range(500)}
        assert values == {2, 3, 4, 5}

    def test_mix_seed_never_zero(self):
        assert all(mix_seed(seed, tid) != 0 for seed in range(50) for tid in range(10))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31), st.integers(0, 4096))
    def test_mix_seed_in_32_bits(self, seed, tid):
        assert 0 < mix_seed(seed, tid) < 2**32


class TestMemory:
    def test_default_zero(self):
        assert GlobalMemory().load(123) == 0

    def test_store_load(self):
        mem = GlobalMemory()
        mem.store(5, 2.5)
        assert mem.load(5) == 2.5

    def test_alloc_bumps(self):
        mem = GlobalMemory()
        a = mem.alloc(10)
        b = mem.alloc(5)
        assert b == a + 10

    def test_alloc_array_initializes(self):
        mem = GlobalMemory()
        base = mem.alloc_array([1, 2, 3])
        assert [mem.load(base + i) for i in range(3)] == [1, 2, 3]

    def test_named_regions(self):
        mem = GlobalMemory()
        mem.alloc_array([7, 8], name="tbl")
        assert mem.read_region("tbl") == [7, 8]

    def test_missing_region_raises(self):
        with pytest.raises(SimulationError):
            GlobalMemory().region("nope")

    def test_negative_alloc_rejected(self):
        with pytest.raises(SimulationError):
            GlobalMemory().alloc(-1)

    def test_atom_add_returns_old(self):
        mem = GlobalMemory()
        assert mem.atom_add(0, 1) == 0
        assert mem.atom_add(0, 1) == 1
        assert mem.load(0) == 2

    def test_snapshot_is_copy(self):
        mem = GlobalMemory()
        mem.store(1, 9)
        snap = mem.snapshot()
        mem.store(1, 10)
        assert snap[1] == 9


class TestCostModel:
    def test_known_latencies(self):
        model = CostModel()
        assert model.latency(Opcode.FMA) == 1
        assert model.latency(Opcode.SIN) > model.latency(Opcode.ADD)

    def test_coalesced_load_pays_base_only(self):
        model = CostModel()
        addresses = list(range(8))  # one segment
        assert model.memory_cost(Opcode.LD, addresses) == model.latency(Opcode.LD)

    def test_scattered_load_pays_per_segment(self):
        model = CostModel()
        addresses = [i * 100 for i in range(4)]  # four segments
        expected = model.latency(Opcode.LD) + 3 * model.load_segment_cost
        assert model.memory_cost(Opcode.LD, addresses) == expected

    def test_store_uses_store_segment_cost(self):
        model = CostModel()
        addresses = [0, 1000]
        expected = model.latency(Opcode.ST) + model.store_segment_cost
        assert model.memory_cost(Opcode.ST, addresses) == expected

    def test_empty_access_is_base(self):
        model = CostModel()
        assert model.memory_cost(Opcode.LD, []) == model.latency(Opcode.LD)

    def test_scaled(self):
        model = CostModel().scaled(2.0)
        assert model.latency(Opcode.DIV) == 16


def _mask(*lanes):
    """The barrier mask of ``lanes``."""
    return sum(1 << lane for lane in set(lanes))


class TestConvergenceBarrier:
    """Every barrier op takes a lane mask (bit i is lane i)."""

    def test_join_is_idempotent(self):
        barrier = ConvergenceBarrier("b")
        barrier.join(_mask(1))
        barrier.join(_mask(1))
        assert barrier.members == {1}

    def test_hard_release_requires_all_members(self):
        barrier = ConvergenceBarrier("b")
        barrier.join(_mask(1, 2, 3))
        barrier.park(_mask(1, 2))
        assert barrier.releasable() == 0
        barrier.park(_mask(3))
        assert barrier.releasable() == _mask(1, 2, 3)

    def test_park_nonmember_is_passthrough(self):
        barrier = ConvergenceBarrier("b")
        assert barrier.park(_mask(9)) == 0
        assert barrier.parked == set()

    def test_park_passes_nonmembers_through_a_mixed_mask(self):
        barrier = ConvergenceBarrier("b")
        barrier.join(_mask(1, 2))
        assert barrier.park(_mask(1, 2, 5)) == _mask(1, 2)
        assert barrier.parked == {1, 2}
        assert barrier.members == {1, 2}

    def test_withdraw_can_trigger_release(self):
        barrier = ConvergenceBarrier("b")
        barrier.join(_mask(1, 2))
        barrier.park(_mask(1))
        assert barrier.releasable() == 0
        barrier.withdraw(_mask(2))
        assert barrier.releasable() == _mask(1)

    def test_soft_threshold_releases_pool(self):
        barrier = ConvergenceBarrier("b")
        barrier.join(_mask(*range(6)))
        barrier.park(_mask(0, 1), threshold=3)
        assert barrier.releasable() == 0
        barrier.park(_mask(2), threshold=3)
        assert barrier.releasable() == _mask(0, 1, 2)

    def test_soft_all_members_parked_releases_below_threshold(self):
        barrier = ConvergenceBarrier("b")
        barrier.join(_mask(0, 1))
        barrier.park(_mask(0, 1), threshold=10)
        assert barrier.releasable() == _mask(0, 1)

    def test_soft_thresholds_track_parked_soft_lanes(self):
        """``thresholds`` holds exactly the parked soft lanes across park,
        withdraw and release; hard waits add nothing to it."""
        barrier = ConvergenceBarrier("b")
        barrier.join(_mask(*range(8)))

        def soft_lanes():
            return set(barrier.thresholds)

        barrier.park(_mask(0, 1, 2), threshold=6)
        barrier.park(_mask(3))
        assert soft_lanes() == {0, 1, 2}
        barrier.park(_mask(4), threshold=5)
        assert barrier.thresholds == {0: 6, 1: 6, 2: 6, 4: 5}
        barrier.withdraw(_mask(1, 3))
        assert soft_lanes() == {0, 2, 4}
        assert barrier.releasable() == 0  # 3 parked, lowest threshold 5
        barrier.park(_mask(5, 6), threshold=5)
        assert barrier.releasable() == _mask(0, 2, 4, 5, 6)
        barrier.release(_mask(0, 2, 4, 5, 6))
        assert soft_lanes() == set()
        assert barrier.members == {7}
        # A hard wait on a released lane leaves no stale soft entry.
        barrier.join(_mask(0))
        barrier.park(_mask(0), threshold=3)
        barrier.park(_mask(0))
        assert soft_lanes() == set()

    def test_release_clears_membership(self):
        barrier = ConvergenceBarrier("b")
        barrier.join(_mask(0))
        barrier.park(_mask(0))
        barrier.release(_mask(0))
        assert barrier.members == set()
        assert barrier.arrived_count == 0

    def test_release_unparked_lane_rejected(self):
        barrier = ConvergenceBarrier("b")
        barrier.join(_mask(0))
        with pytest.raises(SimulationError):
            barrier.release(_mask(0))

    def test_release_error_names_barrier_and_lanes(self):
        barrier = ConvergenceBarrier("b7")
        barrier.join(_mask(0, 1, 2))
        barrier.park(_mask(0))
        with pytest.raises(SimulationError, match=r"\[1, 2\].*barrier b7"):
            barrier.release(_mask(0, 1, 2))
        # Nothing was released.
        assert barrier.parked == {0}
        assert barrier.members == {0, 1, 2}

    def test_arrived_count(self):
        barrier = ConvergenceBarrier("b")
        barrier.join(_mask(0, 4))
        assert barrier.arrived_count == 2


class TestBarrierFile:
    def test_get_creates_on_demand(self):
        barriers = BarrierFile()
        assert "b0" not in barriers
        barriers.get("b0")
        assert "b0" in barriers

    def test_withdraw_from_all(self):
        barriers = BarrierFile()
        barriers.get("a").join(_mask(1))
        barriers.get("b").join(_mask(1))
        barriers.get("c").join(_mask(2))
        touched = barriers.withdraw_from_all(_mask(1))
        assert [b.name for b in touched] == ["a", "b"]
        assert barriers.get("a").members == set()


#: Lanes 0-13 wait on $B0 alone and lanes 14-27 on $B1 alone; lanes
#: 28-31, members of both, are the smallest group, so the convergence
#: scheduler issues their ``exit`` last, and that one issue opens both
#: barriers.
EXIT_OPENS_TWO_BARRIERS = """
func @k() kernel {
entry:
  %t = tid
  bssy $B0
  bssy $B1
  %a = cmplt %t, 14
  cbr %a, ^wait0, ^split
split:
  %b = cmplt %t, 28
  cbr %b, ^wait1, ^last
wait0:
  bbreak $B1
  bsync $B0
  st %t, 1
  exit
wait1:
  bbreak $B0
  bsync $B1
  st %t, 2
  exit
last:
  exit
}
"""


class TestWarpRelease:
    def test_one_exit_releases_two_barriers_in_file_order(self):
        """One drain after the ``exit`` releases $B0 then $B1 (barrier-file
        order), with the same release and reconvergence events on the
        decoded path as on the interpreted reference."""
        from repro.engine import engine_config
        from repro.ir import parse_module
        from repro.obs.sinks import ListSink
        from repro.simt import GPUMachine

        def events(fastpath):
            sink = ListSink()
            with engine_config(fastpath=fastpath):
                GPUMachine(
                    parse_module(EXIT_OPENS_TWO_BARRIERS), sink=sink
                ).launch("k", 32)
            return [
                (e.kind, getattr(e, "barrier", None), e.ts, sorted(e.lanes))
                for e in sink.events
                if e.kind in ("barrier_release", "reconverge")
            ]

        expected = events(fastpath=False)
        assert [(kind, barrier) for kind, barrier, _, _ in expected] == [
            ("barrier_release", "B0"), ("reconverge", None),
            ("barrier_release", "B1"), ("reconverge", None),
        ]
        release_ts = {ts for kind, _, ts, _ in expected}
        assert len(release_ts) == 1  # both in the exit's drain
        assert expected[0][3] == list(range(14))
        assert expected[2][3] == list(range(14, 28))
        assert events(fastpath=True) == expected

    def test_release_of_runnable_lane_rejected(self):
        """A lane parked on the barrier but not WAITING is an engine bug."""
        from repro.ir import parse_module
        from repro.simt.warp import Thread, Warp

        kernel = parse_module(
            "func @k() kernel {\nentry:\n  exit\n}\n"
        ).function("k")
        warp = Warp(0, [Thread(lane, lane, 0, kernel, (), 1)
                        for lane in range(2)])
        barrier = warp.barriers.get("b")
        barrier.join(_mask(0, 1))
        barrier.park(_mask(0, 1))
        warp.threads[0].park("b")
        with pytest.raises(SimulationError, match="lane 1 released but not"):
            warp.release(barrier, _mask(0, 1))


class TestMemoryAliasing:
    """Aliasing and out-of-bounds behavior of the flat word-addressed memory
    (direct unit coverage: the simulator exercises these only indirectly)."""

    def test_named_regions_never_overlap(self):
        memory = GlobalMemory()
        a = memory.alloc(16, name="a")
        b = memory.alloc_array(list(range(8)), name="b")
        c = memory.alloc(4, name="c")
        spans = sorted(
            [(a, 16), (b, 8), (c, 4)]
        )
        for (base1, size1), (base2, _) in zip(spans, spans[1:]):
            assert base1 + size1 <= base2

    def test_writes_through_one_region_leave_others_intact(self):
        memory = GlobalMemory()
        memory.alloc_array([7] * 8, name="left")
        right = memory.alloc_array([9] * 8, name="right")
        left_base, _ = memory.region("left")
        for offset in range(8):
            memory.store(left_base + offset, 100 + offset)
        assert memory.read_region("right") == [9] * 8
        assert memory.load(right) == 9

    def test_float_addresses_alias_their_truncated_cell(self):
        """Address arithmetic in kernels can produce floats; load/store
        truncate via int(), so 5.0, 5.7, and 5 are the same cell."""
        memory = GlobalMemory()
        memory.store(5.0, 42)
        assert memory.load(5) == 42
        assert memory.load(5.7) == 42
        memory.store(5.9, 43)
        assert memory.load(5) == 43

    def test_atom_add_aliases_with_plain_stores(self):
        memory = GlobalMemory()
        memory.store(3, 10)
        assert memory.atom_add(3.2, 5) == 10
        assert memory.load(3) == 15

    def test_out_of_bounds_load_reads_zero(self):
        """The flat memory has no hard bounds: addresses past every
        allocation read the fill value, never raise."""
        memory = GlobalMemory()
        base = memory.alloc(4, name="small")
        assert memory.load(base + 4) == 0
        assert memory.load(base + 1000) == 0
        assert memory.load(-1) == 0

    def test_out_of_bounds_store_does_not_corrupt_regions(self):
        memory = GlobalMemory()
        memory.alloc_array([1, 2, 3, 4], name="data")
        base, size = memory.region("data")
        memory.store(base + size + 10, 99)
        assert memory.read_region("data") == [1, 2, 3, 4]
        assert memory.load(base + size + 10) == 99

    def test_next_alloc_lands_after_oob_store_untouched(self):
        """A stray store past the bump pointer aliases with a later
        allocation's cells — the documented hazard of a flat address
        space. The allocator does not skip dirtied words."""
        memory = GlobalMemory()
        base = memory.alloc(2)
        memory.store(base + 3, 77)
        nxt = memory.alloc(4)
        assert nxt == base + 2
        assert memory.load(nxt + 1) == 77


class TestRNGStreamIndependence:
    """XorShift32 per-tid stream independence (direct unit coverage)."""

    def test_streams_differ_across_tids(self):
        seed = 2020
        sequences = [
            [XorShift32(seed, tid).next_u32() for _ in range(32)]
            for tid in range(8)
        ]
        for i in range(8):
            for j in range(i + 1, 8):
                assert sequences[i] != sequences[j], (i, j)

    def test_advancing_one_stream_leaves_others_fixed(self):
        a = XorShift32(2020, tid=0)
        b = XorShift32(2020, tid=1)
        expected_b = XorShift32(2020, tid=1).next_u32()
        for _ in range(100):
            a.next_u32()
        assert b.next_u32() == expected_b

    def test_same_tid_same_seed_is_bitwise_reproducible(self):
        rng = XorShift32(7, tid=5)
        first = [rng.next_u32() for _ in range(10)]
        replay = XorShift32(7, tid=5)
        assert [replay.next_u32() for _ in range(10)] == first

    def test_seed_changes_every_stream(self):
        tid = 3
        assert (
            [XorShift32(1, tid).next_u32() for _ in range(8)]
            != [XorShift32(2, tid).next_u32() for _ in range(8)]
        )

    def test_fork_is_independent_of_parent_continuation(self):
        parent = XorShift32(2020, tid=0)
        child = parent.fork(salt=0xABCD)
        child_draws = [child.next_u32() for _ in range(8)]
        # Re-derive: same parent state at fork time gives the same child,
        # regardless of what the parent does afterwards.
        parent2 = XorShift32(2020, tid=0)
        child2 = parent2.fork(salt=0xABCD)
        for _ in range(50):
            parent2.next_u32()
        assert [child2.next_u32() for _ in range(8)] == child_draws
