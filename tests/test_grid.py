"""Grid launch hierarchy: GridLaunch validation, the SM occupancy model,
per-CTA shared memory, the CTA-wide barrier, and serial-vs-sharded parity.

The flat ``GPUMachine.launch`` is the reference semantics: a grid is
defined as its CTAs run atomically in ``cta_id`` order on the shared
global memory, each CTA being one ordinary launch under a
:class:`CTAContext` carrying global tid/warp bases. Everything here pins
that definition — and that the pool-sharded path (licensed only by a
``"disjoint"`` ``classify_launch`` proof) is bit-identical to it.
"""

import gc

import pytest

from repro.engine import current_engine, engine_config
from repro.errors import LaunchError, SimulationError
from repro.frontend import compile_kernel_source
from repro.harness import parallel
from repro.ir import parse_module
from repro.obs import counters as obs_counters
from repro.obs.counters import ENGINE_COUNTERS
from repro.simt import (
    CTAContext,
    GlobalMemory,
    GPUMachine,
    GridLaunch,
    SharedMemory,
    XorShift32,
)
from repro.simt import warp as warp_module
from repro.workloads import GRID_CTA_DIM, grid_corpus

DIVERGENT = """
kernel k() {
    let t = tid();
    let trips = floor(hash01(t * 3.1) * 6.0) + 1;
    let x = 0.0;
    let i = 0;
    while (i < trips) {
        x = fma(x, 1.0001, 0.5);
        i = i + 1;
    }
    store(t, x);
}
"""

TID_ONLY = "kernel k() { store(tid(), tid() * 2.0); }"


def _divergent_module():
    return compile_kernel_source(DIVERGENT)


def _observables(result):
    """The comparable surface shared by LaunchResult and GridResult."""
    return (
        result.store_traces(),
        result.retired_per_thread(),
        result.cycles,
        result.simt_efficiency,
    )


class TestValidation:
    def test_rejects_empty_grid(self):
        module = _divergent_module()
        with pytest.raises(LaunchError, match="at least one CTA"):
            GridLaunch(module, 0, 32)

    def test_rejects_empty_cta(self):
        module = _divergent_module()
        with pytest.raises(LaunchError, match="at least one thread"):
            GridLaunch(module, 2, 0)

    def test_multi_cta_needs_whole_warps(self):
        # Warps must never span CTAs, or warp identity (and with it RNG
        # streams and the classify_launch warp envelopes) would diverge from
        # the flat launch of the same thread range.
        module = _divergent_module()
        with pytest.raises(LaunchError, match="multiple of 32"):
            GridLaunch(module, 2, 48)
        # The degenerate single-CTA grid is exactly a flat launch, so any
        # width a flat launch accepts is fine there.
        GridLaunch(module, 1, 48)

    def test_rejects_cta_over_warp_limit(self):
        module = _divergent_module()
        with pytest.raises(LaunchError, match="over the SM limit"):
            GridLaunch(module, 1, 65 * 32)

    def test_rejects_shared_over_sm_limit(self):
        module = _divergent_module()
        with pytest.raises(LaunchError, match="shared memory"):
            GridLaunch(module, 1, 32, shared_words=12289)

    def test_rejects_zero_sms(self):
        module = _divergent_module()
        with pytest.raises(LaunchError, match="at least one SM"):
            GridLaunch(module, 1, 32, n_sms=0)


class TestFlatEquivalence:
    def test_single_cta_grid_is_bit_identical_to_flat_launch(self):
        module = _divergent_module()
        flat = GPUMachine(module, seed=7).launch("k", 96)
        grid = GridLaunch(module, 1, 96, seed=7).launch("k")
        assert grid.store_traces() == flat.store_traces()
        assert grid.retired_per_thread() == flat.retired_per_thread()
        assert grid.cycles == flat.cycles
        assert grid.issued == flat.profiler.issued
        assert grid.simt_efficiency == flat.simt_efficiency
        assert not grid.sharded

    def test_multi_cta_grid_matches_flat_launch_of_same_range(self):
        # The kernel never reads its launch shape, so any factorization of
        # the same 128-thread range produces the same per-thread results.
        module = _divergent_module()
        flat = GPUMachine(module, seed=7).launch("k", 128)
        grid = GridLaunch(module, 4, 32, jobs=1, seed=7).launch("k")
        assert grid.n_threads == 128
        assert grid.store_traces() == flat.store_traces()
        assert grid.retired_per_thread() == flat.retired_per_thread()
        assert grid.issued == flat.profiler.issued


class TestGridIntrinsics:
    def test_ctaid_ctadim_nctas(self):
        module = compile_kernel_source(
            "kernel k() { store(tid(), ctaid() * 100 + ctadim() + nctas()); }"
        )
        result = GridLaunch(module, 3, 32, jobs=1).launch("k")
        memory = result.memory
        for cta_id in range(3):
            for lane in range(32):
                tid = cta_id * 32 + lane
                assert memory.load(tid) == cta_id * 100 + 32 + 3

    def test_flat_launch_is_the_degenerate_grid(self):
        module = compile_kernel_source(
            "kernel k() { store(tid(), ctaid() * 100 + ctadim() + nctas()); }"
        )
        result = GPUMachine(module).launch("k", 8)
        assert result.memory.load(0) == 8 + 1


class TestSharedMemoryUnit:
    def test_store_load_roundtrip(self):
        shared = SharedMemory(16)
        shared.store(3, 2.5)
        assert shared.load(3) == 2.5
        assert shared.load(4) == 0
        assert shared.snapshot() == {3: 2.5}

    def test_atom_add_returns_old_value(self):
        shared = SharedMemory(4)
        assert shared.atom_add(0, 2.0) == 0
        assert shared.atom_add(0, 3.0) == 2.0
        assert shared.load(0) == 5.0

    @pytest.mark.parametrize("addr", [-1, 16, 100])
    def test_out_of_bounds_raises(self, addr):
        shared = SharedMemory(16)
        with pytest.raises(SimulationError, match="out of bounds"):
            shared.load(addr)
        with pytest.raises(SimulationError, match="out of bounds"):
            shared.store(addr, 1.0)
        with pytest.raises(SimulationError, match="out of bounds"):
            shared.atom_add(addr, 1.0)

    def test_negative_size_raises(self):
        with pytest.raises(SimulationError, match="negative"):
            SharedMemory(-1)

    def test_addresses_do_not_alias_global_memory(self):
        # Address 0 in shared memory and address 0 in global memory are
        # different cells: the scratchpad is its own address space.
        module = compile_kernel_source(
            "kernel k() { shst(0, 7.0); store(0, 1.0); store(1, shld(0)); }"
        )
        result = GPUMachine(module).launch(
            "k", 1, cta=CTAContext(shared_words=4)
        )
        assert result.memory.load(0) == 1.0
        assert result.memory.load(1) == 7.0


SHARED_REDUCE = """
kernel k() {
    let ignored = shatom(0, 1.0);
    ctasync;
    if (tid() - ctaid() * ctadim() == 0) {
        store(1000 + ctaid(), shld(0));
    }
}
"""

SHARED_PRIVATE = """
kernel k() {
    if (tid() - ctaid() * ctadim() == 0) {
        shst(0, ctaid() + 1.0);
    }
    ctasync;
    store(tid(), shld(0));
}
"""


class TestSharedMemoryKernels:
    def test_per_cta_reduction(self):
        # Every thread bumps shared[0]; after the CTA barrier, the CTA's
        # lane 0 publishes the count. Each CTA must see exactly cta_dim.
        module = compile_kernel_source(SHARED_REDUCE)
        result = GridLaunch(
            module, 3, 32, jobs=1, shared_words=1
        ).launch("k")
        for cta_id in range(3):
            assert result.memory.load(1000 + cta_id) == 32.0

    def test_scratchpads_are_cta_private(self):
        # CTA i's lane 0 writes i+1 into shared[0]; every thread of CTA i
        # must read i+1 — never a neighbour CTA's value.
        module = compile_kernel_source(SHARED_PRIVATE)
        result = GridLaunch(
            module, 4, 32, jobs=1, shared_words=1
        ).launch("k")
        for tid in range(4 * 32):
            assert result.memory.load(tid) == tid // 32 + 1.0

    def test_kernel_oob_raises(self):
        module = compile_kernel_source("kernel k() { shst(9, 1.0); }")
        with pytest.raises(SimulationError, match="out of bounds"):
            GridLaunch(module, 1, 32, shared_words=4).launch("k")

    def test_flat_launch_needs_explicit_context_for_shared(self):
        # A flat launch defaults to a zero-word scratchpad; shared ops need
        # an explicit CTAContext budget.
        module = compile_kernel_source("kernel k() { shst(0, 1.0); }")
        with pytest.raises(SimulationError, match="out of bounds"):
            GPUMachine(module).launch("k", 1)
        GPUMachine(module).launch("k", 1, cta=CTAContext(shared_words=1))


class TestSMSchedule:
    def test_round_robin_assignment_single_wave(self):
        module = compile_kernel_source(TID_ONLY)
        result = GridLaunch(module, 6, 32, n_sms=4, jobs=1).launch("k")
        by_sm = {entry["sm"]: entry for entry in result.sm_schedule}
        assert by_sm[0]["ctas"] == [0, 4]
        assert by_sm[1]["ctas"] == [1, 5]
        assert by_sm[2]["ctas"] == [2]
        assert by_sm[3]["ctas"] == [3]
        # Default occupancy fits all of an SM's CTAs in one wave.
        assert all(entry["waves"] == 1 for entry in result.sm_schedule)
        assert by_sm[0]["resident_warps"] == 2

    def test_occupancy_limit_splits_waves(self):
        # One SM limited to 2 resident warps runs 4 one-warp CTAs in two
        # waves; SM time is the sum of the wave maxima.
        module = _divergent_module()
        result = GridLaunch(
            module, 4, 32, n_sms=1, max_warps_per_sm=2, jobs=1
        ).launch("k")
        (entry,) = result.sm_schedule
        assert entry["waves"] == 2
        assert entry["resident_ctas"] == 2
        cycles = {r["cta_id"]: r["cycles"] for r in result.cta_records}
        expected = max(cycles[0], cycles[1]) + max(cycles[2], cycles[3])
        assert entry["cycles"] == expected
        assert result.cycles == expected

    def test_grid_cycles_is_busiest_sm(self):
        module = _divergent_module()
        result = GridLaunch(module, 5, 32, n_sms=2, jobs=1).launch("k")
        assert result.cycles == max(
            entry["cycles"] for entry in result.sm_schedule
        )

    def test_occupancy_limited_by_max_ctas(self):
        module = compile_kernel_source(TID_ONLY)
        launch = GridLaunch(module, 1, 32, max_ctas_per_sm=3)
        assert launch.resident_ctas == 3


SHARED_GRID = """
kernel k() {
    let ignored = shatom(0, 1.0);
    ctasync;
    store(tid(), shld(0) + tid());
}
"""

CONFLICTING = "kernel k() { store(0, tid()); }"

#: Each thread reads 520 words above its tid and stores at twice its tid.
#: Over tids [0, 256) alone the reads and writes never meet, but over the
#: grid's whole range a later warp reads what an earlier warp of the same
#: CTA stores (thread 568 reads cell 1088, which thread 544 writes).
SHIFTED_READ = """
kernel k() {
    let t = tid();
    let v = ld(t + 520);
    store(t * 2, v + 1.0);
}
"""

#: Every store changes its cell's type (int 2 -> 2.0) or the sign of its
#: zero (0.0 -> -0.0) without changing its value under ``==``.
SAME_VALUE_STORES = """
kernel k() {
    let t = tid();
    store(t, t * 0.0 + 2.0);
    store(t + 128, 0.0 * -1.0);
}
"""


@pytest.fixture
def grid_sharding():
    """Own the sharding setting, so sharding tests still shard under the
    CI REPRO_GRID=0 leg."""
    with engine_config(grid=True):
        yield


#: Each thread adds to its own cell and stores the value it replaced.
PER_THREAD_ATOMICS = """
kernel k() {
    let t = tid();
    let old = atomadd(t, 2);
    store(t + 256, old);
}
"""


class TestSharding:
    def test_sharded_matches_serial(self, grid_sharding):
        # The whole point of the disjointness proof: CTA ranges run on
        # pool workers must be indistinguishable from the in-process loop
        # — traces, retirement, per-CTA cycles, and final memory.
        module = compile_kernel_source(SHARED_GRID)
        serial = GridLaunch(
            module, 8, 32, jobs=1, shared_words=1, seed=11
        ).launch("k")
        sharded = GridLaunch(
            module, 8, 32, jobs=2, shared_words=1, seed=11
        ).launch("k")
        assert not serial.sharded
        assert sharded.sharded
        assert sharded.jobs == 2
        assert _observables(sharded) == _observables(serial)
        assert sharded.cta_records == serial.cta_records
        assert (
            sharded.memory.snapshot() == serial.memory.snapshot()
        )

    def test_sharded_keeps_writes_equal_by_value(self, grid_sharding):
        # A write is a change of the cell, not of its value under ``==``:
        # the sharded merge must keep every one the serial loop keeps.
        module = compile_kernel_source(SAME_VALUE_STORES)
        final = {}
        for jobs in (1, 2):
            memory = GlobalMemory()
            memory.alloc_array([2] * 128 + [0.0] * 128)
            result = GridLaunch(module, 4, 32, jobs=jobs).launch(
                "k", memory=memory
            )
            assert result.sharded == (jobs == 2)
            final[jobs] = repr(memory.snapshot())
        assert "2.0, 128: -0.0" in final[1]
        assert final[2] == final[1]

    def test_sharded_keeps_atomic_writes(self, grid_sharding):
        # A chunk reports the cells its atomics wrote as well as its
        # stores', in a memory that already holds cells.
        module = compile_kernel_source(PER_THREAD_ATOMICS)
        final = {}
        for jobs in (1, 2):
            memory = GlobalMemory()
            memory.alloc_array([5] * 128)
            result = GridLaunch(module, 4, 32, jobs=jobs).launch(
                "k", memory=memory
            )
            assert result.sharded == (jobs == 2)
            final[jobs] = repr(memory.snapshot())
        assert "0: 7, 1: 7" in final[1] and "256: 5" in final[1]
        assert final[2] == final[1]

    def test_guarded_classification_stays_serial(self):
        # All threads hammer cell 0, so CTAs conflict through global
        # memory: the launch must take the deterministic serial loop even
        # when jobs would allow sharding.
        module = compile_kernel_source(CONFLICTING)
        result = GridLaunch(module, 4, 32, jobs=2).launch("k")
        assert result.classification == "guarded"
        assert not result.sharded
        # cta_id order is the defined serialization: the last CTA's last
        # thread wins cell 0.
        assert result.memory.load(0) == 4 * 32 - 1

    def test_guarded_grid_ctas_stay_interleaved(self):
        # The CTAs of a guarded grid run serially, and each CTA must keep
        # its warps interleaved: the grid's proof covers the whole tid
        # range, and a CTA's own [0, cta_dim) would wrongly say disjoint.
        module = compile_kernel_source(SHIFTED_READ)
        grid = GridLaunch(module, 3, 256, jobs=1).launch("k")
        with engine_config(fastpath=False):
            reference = GridLaunch(module, 3, 256, jobs=1).launch("k")
        assert grid.classification == "guarded"
        assert _observables(grid) == _observables(reference)
        assert grid.memory.snapshot() == reference.memory.snapshot()
        assert not grid.counters.get("batch.independent_launches")

    def test_repro_grid_0_disables_sharding_only(self):
        module = compile_kernel_source(TID_ONLY)
        with engine_config(grid=False):
            assert not current_engine().grid
            result = GridLaunch(module, 4, 32, jobs=2).launch("k")
        assert not result.sharded
        assert result.classification == "disjoint"
        for tid in range(4 * 32):
            assert result.memory.load(tid) == tid * 2.0

    def test_grid_counters(self):
        module = compile_kernel_source(TID_ONLY)
        before = obs_counters.snapshot()
        GridLaunch(module, 3, 32, jobs=1).launch("k")
        moved = obs_counters.delta(obs_counters.snapshot(), before)
        assert moved["grid.ctas_launched"] == 3
        assert moved["grid.pool_sharded_ctas"] == 0

    def test_sharded_counters_merge_from_workers(self, grid_sharding):
        module = compile_kernel_source(SHARED_GRID)
        before = obs_counters.snapshot()
        result = GridLaunch(
            module, 4, 32, jobs=2, shared_words=1
        ).launch("k")
        assert result.sharded
        moved = obs_counters.delta(obs_counters.snapshot(), before)
        assert moved["grid.ctas_launched"] == 4
        assert moved["grid.pool_sharded_ctas"] == 4
        # Each CTA's lazy scratchpad allocation happened inside a worker;
        # the byte count must still flow back through the pool's counter
        # aggregation (4 CTAs x 1 word x 8 bytes).
        assert moved["grid.shared_bytes"] == 4 * 8

    def test_sm_occupancy_counter_is_high_water(self):
        module = compile_kernel_source(TID_ONLY)
        GridLaunch(module, 2, 64, jobs=1).launch("k")
        peak = ENGINE_COUNTERS.grid_sm_occupancy
        assert peak >= 2
        # A smaller grid must not lower the recorded peak.
        GridLaunch(module, 1, 32, jobs=1).launch("k")
        assert ENGINE_COUNTERS.grid_sm_occupancy == peak


#: Every thread reads ``%u``, which nothing writes: each CTA's launch
#: raises in its worker.
UNDEF_GRID = """
func @k() kernel {
entry:
  %t = tid
  %y = add %t, %u
  st %t, %y
  exit
}
"""


@pytest.fixture
def caller_thresholds():
    """Give this process collector thresholds of its own for the test
    (none of them the policy's), and put back the ones it had."""
    saved = gc.get_threshold()
    gc.set_threshold(1234, 9, 8)
    try:
        yield (1234, 9, 8)
    finally:
        gc.set_threshold(*saved)


class TestShardedCollector:
    """The parent of a sharded launch waits for its workers and merges
    their records under the collector policy, and the caller's
    thresholds come back however the launch ends."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """The parent's thresholds while the pool runs each sharded
        launch's tasks."""
        seen = []
        run = parallel.run_tasks_observed

        def observed(*args, **kwargs):
            seen.append(gc.get_threshold())
            return run(*args, **kwargs)

        monkeypatch.setattr(parallel, "run_tasks_observed", observed)
        return seen

    def test_restored_after_a_sharded_launch(
        self, grid_sharding, caller_thresholds, seen
    ):
        module = compile_kernel_source(TID_ONLY)
        result = GridLaunch(module, 4, 32, jobs=2).launch("k")
        assert result.sharded
        assert seen == [(parallel.GC_YOUNG_THRESHOLD, 9, 8)]
        assert gc.get_threshold() == caller_thresholds

    def test_restored_when_a_worker_raises(
        self, grid_sharding, caller_thresholds, seen
    ):
        module = parse_module(UNDEF_GRID)
        with pytest.raises(SimulationError, match="undefined register %u"):
            GridLaunch(module, 4, 32, jobs=2).launch("k")
        assert seen == [(parallel.GC_YOUNG_THRESHOLD, 9, 8)]
        assert gc.get_threshold() == caller_thresholds


class TestGridResult:
    def test_aggregation_and_summary(self):
        module = _divergent_module()
        result = GridLaunch(module, 3, 32, jobs=1, seed=5).launch("k")
        assert result.issued == sum(
            r["issued"] for r in result.cta_records
        )
        assert result.active_sum == sum(
            r["active_sum"] for r in result.cta_records
        )
        assert 0.0 < result.simt_efficiency <= 1.0
        summary = result.summary()
        assert summary["grid_dim"] == 3
        assert summary["cta_dim"] == 32
        assert summary["n_threads"] == 96
        assert summary["classification"] == "disjoint"
        assert summary["counters"]["grid.ctas_launched"] == 3
        assert [r["cta_id"] for r in result.cta_records] == [0, 1, 2]

    def test_machine_kwargs_reach_every_cta(self):
        # A different seed must change the per-thread RNG streams through
        # the grid path exactly as it does for a flat launch.
        module = compile_kernel_source(
            "kernel k() { store(tid(), rand()); }"
        )
        a = GridLaunch(module, 2, 32, jobs=1, seed=1).launch("k")
        b = GridLaunch(module, 2, 32, jobs=1, seed=2).launch("k")
        flat = GPUMachine(module, seed=1).launch("k", 64)
        assert a.store_traces() == flat.store_traces()
        assert a.store_traces() != b.store_traces()


#: CTAs per grid-corpus launch here; the corpus default is GRID_GRID_DIM.
CORPUS_CTAS = 8


class TestGridCorpus:
    """The grid-corpus apps are launch-shape invariant: at a reduced grid
    of ``GRID_CTA_DIM``-thread CTAs, the flat launch of the whole range,
    the serial grid and the pool-sharded grid agree."""

    @pytest.mark.parametrize("app", grid_corpus(), ids=lambda app: app.name)
    def test_flat_serial_and_sharded_agree(self, app, grid_sharding):
        n_threads = CORPUS_CTAS * GRID_CTA_DIM
        memory = GlobalMemory()
        flat = GPUMachine(app.module(), seed=2020).launch(
            app.kernel_name, n_threads, app.setup(memory, n_threads),
            memory=memory,
        )
        grids = {}
        # With more workers than CPUs chunks finish out of order; the
        # merge must still apply them in chunk order.
        for jobs in (1, 2, 3):
            memory = GlobalMemory()
            grids[jobs] = GridLaunch(
                app.module(), CORPUS_CTAS, GRID_CTA_DIM, jobs=jobs, seed=2020
            ).launch(app.kernel_name, app.setup(memory, n_threads),
                     memory=memory)
        assert not grids[1].sharded
        assert grids[2].sharded and grids[3].sharded
        expected = (flat.store_traces(), flat.retired_per_thread(),
                    flat.profiler.issued)
        assert len(expected[0]) == n_threads
        for grid in grids.values():
            assert (grid.store_traces(), grid.retired_per_thread(),
                    grid.issued) == expected
            # The digest covers the cells' order, not only their values.
            assert grid.memory.digest() == grids[1].memory.digest()


#: Two draws per thread, so the checks see the stream, not only its start.
RAND_TWICE = """
kernel k() {
    let t = tid();
    store(t, rand());
    store(t + 1000, rand());
}
"""


def _draws(seed, n_threads):
    """Each thread's two stores, drawn from ``XorShift32(seed, tid)``."""
    draws = {}
    for tid in range(n_threads):
        rng = XorShift32(seed, tid)
        draws[tid] = [(tid, rng.uniform()), (tid + 1000, rng.uniform())]
    return draws


@pytest.fixture
def seeded(monkeypatch):
    """The ``(seed, tid)`` of every thread stream seeded since the test
    started."""
    built = []

    class Counting(XorShift32):
        __slots__ = ()

        def __init__(self, seed, tid=0):
            built.append((seed, tid))
            super().__init__(seed, tid)

    monkeypatch.setattr(warp_module, "XorShift32", Counting)
    return built


class TestLazyRng:
    """A thread seeds its stream, ``XorShift32(seed, global tid)``, on its
    first ``rand`` and never before: the draws are the ones a stream
    seeded at thread creation would give, in a flat launch and in a grid
    launch run serially or sharded, and a launch that never draws seeds
    nothing. The interpreter and the generated code both read
    ``Thread.rng``; the process-config cases run under each CI leg's
    ``REPRO_*`` environment."""

    @pytest.mark.parametrize("engine", [
        None, {"fastpath": False}, {"segments": False},
    ], ids=["process", "interpreted", "unfused"])
    def test_flat_launch_draws(self, seeded, engine):
        module = compile_kernel_source(RAND_TWICE)
        with engine_config(**(engine or {})):
            result = GPUMachine(module, seed=11).launch("k", 96)
        assert result.store_traces() == _draws(11, 96)
        assert sorted(seeded) == [(11, tid) for tid in range(96)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_grid_launch_draws(self, jobs):
        """Serial, and sharded across two workers unless the process
        config turns sharding off (the ``REPRO_GRID=0`` leg)."""
        module = compile_kernel_source(RAND_TWICE)
        result = GridLaunch(module, 4, 32, jobs=jobs, seed=11).launch("k")
        assert result.sharded == (jobs > 1 and current_engine().grid)
        assert result.store_traces() == _draws(11, 128)

    def test_launch_without_rand_seeds_nothing(self, seeded):
        module = _divergent_module()
        GPUMachine(module).launch("k", 96)
        GridLaunch(module, 4, 32, jobs=1).launch("k")
        assert seeded == []
