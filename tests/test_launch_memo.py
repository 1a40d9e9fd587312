"""The launch memo (:mod:`repro.simt.memo`).

A repeat of an eligible launch returns the recorded result and applies
the recorded writes to the caller's memory instead of simulating. These
tests pin that a hit is indistinguishable from a fresh simulation, that
every key component separates launches, which launches never memoize,
that failures are never recorded, and what a hit counts.
"""

import gc
import hashlib
import json
import weakref

import pytest

from repro import compile_kernel_source, compile_sr
from repro.engine import current_engine, engine_config
from repro.errors import LaunchError
from repro.ir.function import clear_module_caches
from repro.obs import ListSink
from repro.obs import counters as obs_counters
from repro.obs.counters import COUNTERS
from repro.obs.sinks import set_ambient_sink
from repro.simt import CostModel, CTAContext, GlobalMemory, GPUMachine
from repro.simt import memo as launch_memo

#: Loads initial memory, takes an int and a float argument, draws from
#: rand() (so the seed matters), diverges on a per-thread trip count, and
#: both stores and atomically adds.
KERNEL = """
kernel k(base, scale) {
    let t = tid();
    let x = ld(base + t) * scale;
    if (rand() < 0.5) {
        x = x + 1.0;
    }
    let i = 0;
    while (i < t % 5) {
        x = x * 1.5 + 0.25;
        i = i + 1;
    }
    store(base + t, x);
    atomadd(base + 100, 1);
}
"""

RUNAWAY = """
kernel k(base, scale) {
    let i = 0;
    while (i < 1000000) {
        i = i + 1;
    }
    store(base + tid(), i * scale);
}
"""


@pytest.fixture
def fast():
    """The fast path on (a precondition of the memo), whatever the
    environment; the memo is empty (tests/conftest.py)."""
    with engine_config(fastpath=True):
        yield


def _module(source=KERNEL):
    return compile_sr(compile_kernel_source(source)).module


def _memory(values=None):
    memory = GlobalMemory()
    if values is None:
        values = [float(i) for i in range(100)]
    memory.alloc_array(values, name="data")
    memory.alloc(4)
    return memory


def _launch(module, n_threads=32, args=None, memory=None, cta=None,
            **machine):
    memory = _memory() if memory is None else memory
    if args is None:
        args = (memory.region("data")[0], 2.0)
    return GPUMachine(module, **machine).launch(
        "k", n_threads, args=args, memory=memory, cta=cta
    )


@pytest.fixture
def hits():
    """Memo hits since the test started."""
    start = obs_counters.ENGINE_COUNTERS.launch_memo_hits
    return lambda: obs_counters.ENGINE_COUNTERS.launch_memo_hits - start


def _digest(store_traces):
    traces = {str(tid): trace for tid, trace in sorted(store_traces.items())}
    return hashlib.sha256(
        json.dumps(traces, sort_keys=True).encode()
    ).hexdigest()


def _fingerprint(result):
    summary = result.profiler.summary()
    summary.pop("counters")
    return (
        result.cycles,
        result.simt_efficiency,
        _digest(result.store_traces()),
        result.memory.snapshot(),
        result.retired_per_thread(),
        summary,
    )


class TestHit:
    @pytest.mark.parametrize("n_threads", [32, 96])
    def test_hit_matches_fresh_simulation(self, fast, n_threads, hits):
        module = _module()
        first = _launch(module, n_threads)
        hit = _launch(module, n_threads)
        assert hits() == 1
        clear_module_caches("launch_memo")
        fresh = _launch(module, n_threads)
        assert hits() == 1
        assert _fingerprint(hit) == _fingerprint(fresh)
        assert _fingerprint(first) == _fingerprint(fresh)

    def test_default_memory_hits(self, fast, hits):
        module = _module()
        args = (0, 2.0)
        first = GPUMachine(module).launch("k", 32, args=args)
        hit = GPUMachine(module).launch("k", 32, args=args)
        assert hits() == 1
        assert hit.memory is not first.memory
        assert hit.memory.snapshot() == first.memory.snapshot()

    def test_hit_counts_a_launch_and_folds_no_engine_work(self, fast):
        module = _module()
        _launch(module)
        before = obs_counters.snapshot()
        hit = _launch(module)
        after = obs_counters.snapshot()
        # A plain difference, high-water marks included: a hit raises
        # no peak either.
        moved = {name: after[name] - before[name] for name in COUNTERS}
        assert moved["launch.count"] == 1
        assert moved["launch.memo_hits"] == 1
        for name in COUNTERS:
            if name not in ("launch.count", "launch.memo_hits"):
                assert moved[name] == 0, name
        for name, value in hit.counters.items():
            assert value == 0, name
            if name in COUNTERS:
                assert moved[name] == value, name

    def test_mutating_memory_after_a_hit(self, fast, hits):
        """A hit's writes are applied to the caller's memory; changing
        that memory (or the first launch's) afterwards does not reach
        the next hit."""
        module = _module()
        first = _launch(module)
        expected = first.memory.snapshot()
        hit = _launch(module)
        for result in (first, hit):
            base = result.memory.region("data")[0]
            for offset in range(0, 101):
                result.memory.store(base + offset, -1.0)
            result.threads.clear()
        again = _launch(module)
        assert hits() == 2
        assert again.memory.snapshot() == expected
        assert len(again.threads) == 32

    def test_identical_ir_shares_one_entry(self, fast, hits):
        first, second = _module(), _module()
        assert first is not second
        a = _launch(first)
        b = _launch(second)
        assert hits() == 1
        assert launch_memo.stats() == {"programs": 1, "entries": 1}
        assert _fingerprint(a) == _fingerprint(b)

    @pytest.mark.parametrize("n_threads", [32, 96])
    def test_entry_does_not_keep_its_module_alive(self, fast, n_threads):
        module = _module()
        _launch(module, n_threads)
        _launch(module, n_threads, seed=7)
        assert launch_memo.stats() == {"programs": 1, "entries": 2}
        ref = weakref.ref(module)
        del module
        gc.collect()
        assert ref() is None
        assert launch_memo.stats() == {"programs": 0, "entries": 0}


def _changed(module, change):
    """The base launch with one key component changed."""
    if change == "seed":
        return _launch(module, seed=7)
    if change == "memory":
        return _launch(module, memory=_memory([float(i) + 0.5
                                               for i in range(100)]))
    if change == "args":
        return _launch(module, args=(0, 3.0))
    if change == "int-arg":
        return _launch(module, args=(0, 2))
    if change == "threads":
        return _launch(module, n_threads=33)
    if change == "scheduler":
        return _launch(module, scheduler="oldest-first")
    if change == "engine":
        with engine_config(segments=not current_engine().segments):
            return _launch(module)
    if change == "cost-model":
        return _launch(module, cost_model=CostModel(load_segment_cost=3))
    if change == "max-issues":
        return _launch(module, max_issues=10_000_000)
    raise AssertionError(change)


class TestKey:
    @pytest.mark.parametrize("change", [
        "seed", "memory", "args", "int-arg", "threads", "scheduler",
        "engine", "cost-model", "max-issues",
    ])
    def test_one_changed_component_misses(self, fast, change, hits):
        module = _module()
        base = _launch(module)
        changed = _changed(module, change)
        assert hits() == 0, change
        assert launch_memo.stats()["entries"] == 2
        # The changed launch is recorded under its own key.
        again = _changed(module, change)
        assert hits() == 1
        assert _fingerprint(again) == _fingerprint(changed)
        if change in ("seed", "memory", "args", "threads", "cost-model"):
            # Replaying the base launch here would have been wrong.
            assert _fingerprint(changed) != _fingerprint(base), change


class TestAlwaysSimulates:
    @pytest.mark.parametrize("observer", ["sink", "metrics"])
    def test_observed_launches(self, fast, observer, hits):
        module = _module()
        kwargs = {
            "sink": {"sink": ListSink()},
            "metrics": {"metrics": True},
        }[observer]
        for _ in range(2):
            _launch(module, **kwargs)
        assert hits() == 0
        assert launch_memo.stats()["entries"] == 0

    def test_ambient_sink(self, fast, hits):
        module = _module()
        previous = set_ambient_sink(ListSink())
        try:
            for _ in range(2):
                _launch(module)
        finally:
            set_ambient_sink(previous)
        assert hits() == 0
        assert launch_memo.stats()["entries"] == 0

    def test_cta_launches(self, fast, hits):
        module = _module()
        for _ in range(2):
            _launch(module, cta=CTAContext(cta_dim=32))
        assert hits() == 0
        assert launch_memo.stats()["entries"] == 0

    def test_reference_interpreter(self, hits):
        module = _module()
        with engine_config(fastpath=False):
            for _ in range(2):
                _launch(module)
        assert hits() == 0
        assert launch_memo.stats()["entries"] == 0

    def test_process_config_decides(self, hits):
        """Under the process-wide engine (``REPRO_FASTPATH=0`` runs the
        reference), a repeat is a hit exactly when the fast path is on."""
        module = _module()
        first = _launch(module)
        second = _launch(module)
        assert hits() == (1 if current_engine().fastpath else 0)
        assert _fingerprint(second) == _fingerprint(first)


class TestErrors:
    def test_over_budget_raises_again_and_is_never_stored(self, fast):
        module = _module(RUNAWAY)
        before = obs_counters.snapshot()
        for _ in range(2):
            with pytest.raises(LaunchError, match="issue slots"):
                _launch(module, max_issues=2_000)
        moved = obs_counters.delta(obs_counters.snapshot(), before)
        assert moved["launch.errors"] == 2
        assert moved["launch.memo_hits"] == 0
        assert launch_memo.stats()["entries"] == 0

    def test_failed_launch_keeps_no_table_past_a_clear(self, fast, hits):
        """A traceback that outlives a failed launch (here held on
        purpose, elsewhere by a cycle awaiting collection) keeps the
        launch frame alive. It must not keep the program's entry table
        alive too, or a later module with the same IR would adopt the
        table and replay launches recorded after the clear."""
        with pytest.raises(LaunchError) as failed:
            _launch(_module(), max_issues=10)
        clear_module_caches("launch_memo")
        _launch(_module())
        clear_module_caches("launch_memo")
        _launch(_module())
        assert hits() == 0
        assert failed.value is not None

    def test_clearing_module_caches_clears_the_memo(self, fast, hits):
        module = _module()
        _launch(module)
        assert launch_memo.stats()["entries"] == 1
        clear_module_caches()
        assert launch_memo.stats()["entries"] == 0
        _launch(module)
        assert hits() == 0


class TestWriteDelta:
    def test_changes_since_sees_type_and_sign_changes(self):
        """A cell rewritten with an equal value of another type, or a
        zero of the other sign, changed; the same value did not."""
        memory = GlobalMemory()
        memory.alloc_array([1, 0.0, 2.5, 7])
        before = memory.snapshot()
        memory.store(0, 1.0)
        memory.store(1, -0.0)
        memory.store(2, 2.5)
        memory.store(9, 3)
        assert memory.changes_since(before) == {0: 1.0, 1: -0.0, 9: 3}
        assert repr(memory.changes_since(before)[1]) == "-0.0"
        replay = GlobalMemory()
        replay.alloc_array([1, 0.0, 2.5, 7])
        replay.apply(memory.changes_since(before))
        assert repr(replay.snapshot()) == repr(memory.snapshot())
        assert replay.digest() == memory.digest()
