"""Independent warps: the launch-time memory proof, warp order, escape hatches.

The conformance matrix (tests/test_conformance.py) pins the multi-warp
engine bit-identical to the interleaved reference over the full corpus;
this file covers the pieces in isolation:

* :mod:`repro.analysis.memeffects` — which launches classify as
  ``disjoint`` (warps may run one at a time) vs ``guarded`` (they stay
  interleaved);
* which path a multi-warp launch takes on real launches (the
  ``batch.*`` counters): per-warp profiler attribution, the issue-budget
  boundary, the reasons a launch stays interleaved, and every escape
  hatch (``engine_config`` overrides, observability, single warp);
* error order: a launch run warp by warp raises the error the
  interleave raises first (deadlock identity, budget vs deadlock);
* the persistent worker pool in :mod:`repro.harness.parallel`.
"""

import os
import signal
import subprocess
import sys

import pytest

from repro.core import compile_baseline
from repro.engine import current_engine, engine_config
from repro.errors import DeadlockError, LaunchError
from repro.frontend import compile_kernel_source
from repro.harness import parallel
from repro.harness.parallel import run_tasks, shutdown_pool, task
from repro.ir import parse_module
from repro.ir.function import clear_module_caches
from repro.simt import CTAContext, GPUMachine, GlobalMemory
from repro.simt.profiler import MULTIWARP_COUNTERS
from repro.analysis.memeffects import classify_launch
from tests.helpers import split_engine

# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------

#: One store per thread at ``out + tid`` — the canonical disjoint kernel.
TID_STORE = """
kernel k(out) {
    store(out + tid(), tid() * 2.0);
}
"""

#: The corpus' static-coarsening loop: ``t = tid; ...; t += stride``.
#: Disjoint exactly when the stride covers the launch width.
TASK_LOOP = """
kernel k(out, n, stride) {
    let t = tid();
    let acc = 0.0;
    while (t < n) {
        acc = fma(acc, 1.0001, 0.5);
        acc = fma(acc, 1.0001, 0.5);
        acc = fma(acc, 1.0001, 0.5);
        store(out + t, acc + t);
        t = t + stride;
    }
}
"""

#: Every thread bumps one shared counter: must be guarded.
SHARED_COUNTER = """
kernel k(counter, out) {
    let i = atomadd(counter, 1);
    store(out + tid(), i);
}
"""

#: A dynamic work queue (rsbench-shaped): conflicting atomics every epoch.
WORK_QUEUE = """
kernel k(queue, out, n) {
    let t = atomadd(queue, 1);
    while (t < n) {
        let acc = fma(t, 1.0001, 0.5);
        acc = fma(acc, 1.0001, 0.5);
        acc = fma(acc, 1.0001, 0.5);
        store(out + t, acc);
        t = atomadd(queue, 1);
    }
}
"""

#: Store through a loaded pointer: the address is unanalyzable (top).
UNKNOWN_WRITE = """
kernel k(p) {
    store(ld(p), 1.0);
}
"""

#: Table lookup through a modulus — the read lands in a bounded window
#: even though the hash is unanalyzable; writes stay tid-strided.
TABLE_LOOKUP = """
kernel k(table, out, tsize) {
    let idx = floor(hash01(tid()) * 1000.0) % tsize;
    let v = ld(table + idx);
    store(out + tid(), v + 1.0);
}
"""


def _module(source):
    return compile_baseline(compile_kernel_source(source)).module


# ----------------------------------------------------------------------
# Static analysis: launch classification
# ----------------------------------------------------------------------

class TestClassifyLaunch:
    def test_tid_store_is_disjoint(self):
        module = _module(TID_STORE)
        assert classify_launch(module, "k", (0,), 96) == "disjoint"

    def test_task_loop_stride_covers_launch(self):
        module = _module(TASK_LOOP)
        assert classify_launch(module, "k", (0, 960, 96), 96) == "disjoint"

    def test_task_loop_short_stride_is_guarded(self):
        # stride 64 < 96 threads: thread 64 and thread 0's second task
        # collide, and the analysis must notice.
        module = _module(TASK_LOOP)
        assert classify_launch(module, "k", (0, 960, 64), 96) == "guarded"

    def test_shared_counter_is_guarded(self):
        module = _module(SHARED_COUNTER)
        assert classify_launch(module, "k", (0, 8), 96) == "guarded"

    def test_unknown_write_is_guarded(self):
        module = _module(UNKNOWN_WRITE)
        assert classify_launch(module, "k", (0,), 96) == "guarded"

    def test_bounded_read_disjoint_from_strided_write(self):
        # Table at [0, 255], outputs at [1000, 1095]: spans never touch.
        module = _module(TABLE_LOOKUP)
        assert classify_launch(module, "k", (0, 1000, 256), 96) == "disjoint"

    def test_bounded_read_overlapping_write_is_guarded(self):
        # Outputs on top of the table: a write can clobber another
        # thread's pending read.
        module = _module(TABLE_LOOKUP)
        assert classify_launch(module, "k", (0, 100, 256), 96) == "guarded"

    def test_classification_is_cached_per_launch_shape(self):
        module = _module(TID_STORE)
        clear_module_caches("launch_class")
        first = classify_launch(module, "k", (0,), 96)
        again = classify_launch(module, "k", (0,), 96)
        assert first == again == "disjoint"
        clear_module_caches("launch_class")
        assert classify_launch(module, "k", (0,), 96) == "disjoint"


# ----------------------------------------------------------------------
# Engine behavior on real launches
# ----------------------------------------------------------------------

def _run(source, args_for, n_threads, **kwargs):
    """Compile ``source`` and launch it on a fresh memory; ``args_for``
    maps the memory to the kernel argument tuple. Engine fields in
    ``kwargs`` go to ``engine_config``."""
    module = _module(source)
    memory = GlobalMemory()
    args = args_for(memory)
    engine, machine_kwargs = split_engine(kwargs)
    with engine_config(**engine):
        machine = GPUMachine(module, **machine_kwargs)
        return machine.launch("k", n_threads, args=args, memory=memory)


def _task_loop_args(n, stride):
    def setup(memory):
        out = memory.alloc(n, name="out")
        return (out, out + n, stride)
    return setup


def _fingerprint(launch):
    summary = launch.profiler.summary()
    # Engine telemetry legitimately differs between engine
    # configurations (the interpreter counts every slot as observed);
    # results must not.
    summary.pop("counters", None)
    return (
        launch.store_traces(),
        launch.retired_per_thread(),
        summary,
        launch.cycles,
    )


def _mode(launch):
    """The ``batch.*`` counter that counted ``launch`` (None: one warp)."""
    moved = [name for name in MULTIWARP_COUNTERS.values()
             if launch.counters[name]]
    assert len(moved) <= 1, moved
    return moved[0] if moved else None


class TestIndependentLaunches:
    """A disjoint launch runs its warps one at a time, a guarded one stays
    interleaved; both match the interleaved engine exactly."""

    def test_disjoint_launch_runs_warps_apart_and_matches_serial(self):
        setup = _task_loop_args(384, 128)
        serial = _run(TASK_LOOP, setup, 128, warp_batch=False)
        batched = _run(TASK_LOOP, setup, 128, warp_batch=True)
        assert _fingerprint(batched) == _fingerprint(serial)
        assert _mode(serial) == "batch.interleaved_engine"
        assert _mode(batched) == "batch.independent_launches"

    def test_guarded_launch_stays_interleaved_and_matches_serial(self):
        def setup(memory):
            queue = memory.alloc(1, name="queue")
            out = memory.alloc(256, name="out")
            return (queue, out, 256)
        serial = _run(WORK_QUEUE, setup, 96, warp_batch=False)
        batched = _run(WORK_QUEUE, setup, 96, warp_batch=True)
        assert _fingerprint(batched) == _fingerprint(serial)
        # Every warp draws tickets from the queue cell, so the footprints
        # are not disjoint and the warps must stay interleaved.
        assert _mode(batched) == "batch.interleaved_memory"

    def test_per_warp_profiler_attribution(self):
        """record_segment must charge cycles and issues to the *owning*
        warp and block when the warps run one after another."""
        setup = _task_loop_args(512, 128)
        serial = _run(TASK_LOOP, setup, 128, warp_batch=False)
        batched = _run(TASK_LOOP, setup, 128, warp_batch=True)
        assert _mode(batched) == "batch.independent_launches"
        assert batched.profiler.warp_cycles == serial.profiler.warp_cycles
        assert set(batched.profiler.warp_cycles) == {0, 1, 2, 3}
        serial_blocks = serial.profiler.block_profiles
        batched_blocks = batched.profiler.block_profiles
        assert set(batched_blocks) == set(serial_blocks)
        for key, expect in serial_blocks.items():
            got = batched_blocks[key]
            assert (got.issues, got.active_sum, got.visits, got.cycles) == (
                expect.issues, expect.active_sum, expect.visits,
                expect.cycles,
            ), key

    def test_issue_budget_raises_at_the_same_slot(self):
        setup = _task_loop_args(384, 128)
        full = _run(TASK_LOOP, setup, 128, warp_batch=False)
        cap = full.profiler.issued // 2
        with pytest.raises(LaunchError, match="issue slots") as serial_err:
            _run(TASK_LOOP, setup, 128, warp_batch=False, max_issues=cap)
        with pytest.raises(LaunchError, match="issue slots") as batched_err:
            _run(TASK_LOOP, setup, 128, warp_batch=True, max_issues=cap)
        assert str(batched_err.value) == str(serial_err.value)


class TestEscapeHatches:
    def test_machine_parameter_disables(self):
        setup = _task_loop_args(384, 128)
        launch = _run(TASK_LOOP, setup, 128, warp_batch=False)
        assert _mode(launch) == "batch.interleaved_engine"

    def test_context_manager_disables_default(self):
        setup = _task_loop_args(384, 128)
        with engine_config(warp_batch=True):
            with engine_config(warp_batch=False):
                assert not current_engine().warp_batch
                launch = _run(TASK_LOOP, setup, 128)
            assert current_engine().warp_batch
        assert _mode(launch) == "batch.interleaved_engine"

    def test_machine_parameter_overrides_global_default(self):
        """An inner override beats an outer one."""
        setup = _task_loop_args(384, 128)
        with engine_config(warp_batch=False):
            launch = _run(TASK_LOOP, setup, 128, warp_batch=True)
        assert _mode(launch) == "batch.independent_launches"

    def test_nested_engine_config_overrides_restore(self):
        # Starts from an explicit setting, so the REPRO_WARP_BATCH=0 CI
        # leg runs it too.
        process = current_engine().warp_batch
        with engine_config(warp_batch=True):
            assert current_engine().warp_batch is True
            with engine_config(warp_batch=False):
                assert current_engine().warp_batch is False
                with engine_config(warp_batch=True):
                    assert current_engine().warp_batch is True
                assert current_engine().warp_batch is False
            assert current_engine().warp_batch is True
        assert current_engine().warp_batch is process

    def test_single_warp_counts_in_no_multiwarp_mode(self):
        launch = _run(TASK_LOOP, _task_loop_args(96, 32), 32)
        assert _mode(launch) is None

    def test_observability_sinks_keep_warps_interleaved(self):
        setup = _task_loop_args(384, 128)
        observed = _run(TASK_LOOP, setup, 128, warp_batch=True, metrics=True)
        assert _mode(observed) == "batch.interleaved_engine"
        reference = _run(TASK_LOOP, setup, 128, warp_batch=False,
                         metrics=True)
        assert _fingerprint(observed) == _fingerprint(reference)


# ----------------------------------------------------------------------
# Error order and the reasons a launch stays interleaved
# ----------------------------------------------------------------------

#: Warp ``w`` loops ``12 - 5w`` times, then splits its lanes across two
#: soft barriers that can never open (the Section 4.3 deadlock). No
#: memory is touched before the deadlock, so the warps are independent,
#: and the later-id warp deadlocks in an earlier round.
STAGGERED_DEADLOCK_IR = """
func @k() kernel {
entry:
  %t = tid
  %w = warpid
  %x = mul %w, 5
  %n = sub 12, %x
  %i = mov 0
  bra ^loop
loop:
  %q = cmplt %i, %n
  cbr %q, ^body, ^stall
body:
  %i = add %i, 1
  bra ^loop
stall:
  bssy $spec
  bssy $pdom
  %l = lane
  %p = cmplt %l, 16
  cbr %p, ^low, ^high
low:
  bsync.soft $spec, 32
  bra ^join
high:
  bsync.soft $pdom, 32
  bra ^join
join:
  st %t, %i
  exit
}
"""

#: Slots the interleaved two-warp launch issues before warp 1 deadlocks.
STAGGERED_DEADLOCK_SLOTS = 87


def _expected_mode(reason):
    """``reason`` when the process engine can run warps independently,
    else the engine-off reason (the ``REPRO_WARP_BATCH=0`` CI leg)."""
    engine = current_engine()
    if engine.fastpath and engine.segments and engine.warp_batch:
        return reason
    return "engine"


def _outcome(module, n_threads, memory=None, cta=None, **kwargs):
    """What one launch ends in: its results, its deadlock identity, or
    the budget error text; plus the multi-warp mode the flight recorder
    logged."""
    engine, machine_kwargs = split_engine(kwargs)
    with engine_config(**engine):
        machine = GPUMachine(module, flight_recorder="on", **machine_kwargs)
        try:
            launch = machine.launch("k", n_threads, memory=memory, cta=cta)
        except DeadlockError as exc:
            mode = exc.post_mortem["events"][0]["data"]["multiwarp"]
            return ("deadlock", exc.warp_id, exc.waiting), mode
        except LaunchError as exc:
            mode = exc.post_mortem["events"][0]["data"]["multiwarp"]
            return ("budget", str(exc)), mode
    return _fingerprint(launch), launch.profiler.multiwarp


class TestErrorOrder:
    """A launch run warp by warp must fail exactly as the interleaved
    reference (``fastpath=False``) does. Runs under the process engine,
    so the ``REPRO_WARP_BATCH=0`` leg checks the interleave too."""

    def _pair(self, max_issues=None):
        module = parse_module(STAGGERED_DEADLOCK_IR)
        kwargs = {} if max_issues is None else {"max_issues": max_issues}
        got, mode = _outcome(module, 64, **kwargs)
        expected, _ = _outcome(module, 64, fastpath=False, **kwargs)
        assert mode == _expected_mode("independent")
        return got, expected

    def test_later_warp_deadlocks_first(self):
        got, expected = self._pair()
        assert got == expected
        kind, warp_id, waiting = got
        assert (kind, warp_id) == ("deadlock", 1)
        assert len(waiting) == 32

    def test_budget_beats_later_deadlock(self):
        got, expected = self._pair(STAGGERED_DEADLOCK_SLOTS - 1)
        assert got == expected
        assert got[0] == "budget"
        got, expected = self._pair(STAGGERED_DEADLOCK_SLOTS)
        assert got == expected
        assert got[:2] == ("deadlock", 1)

    def test_every_budget_matches_reference(self):
        """Around and below the deadlock round, every issue budget ends
        the launch the same way on both engines."""
        for max_issues in range(0, STAGGERED_DEADLOCK_SLOTS + 8):
            got, expected = self._pair(max_issues)
            assert got == expected, max_issues


#: Disjoint, with tid-dependent trip counts so the schedulers differ.
DIVERGENT_STORE = """
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

#: Guarded: every thread reads the cell another warp writes.
SHIFTED_STORE = """
kernel k() {
    let t = tid();
    let v = ld(t + 40);
    store(t, v + 1.0);
}
"""

#: CTA channels: a CTA-wide barrier, and a shared-memory scratchpad.
CTASYNC_STORE = """
kernel k() {
    let t = tid();
    store(t, t * 2.0);
    ctasync;
    store(t + 200, t * 3.0);
}
"""
SHARED_STORE = """
kernel k() {
    let t = tid();
    shst(t % 4, t);
    store(t, t * 2.0);
}
"""


class TestStaysInterleaved:
    """Launches whose warps can observe each other keep the round-robin
    interleave, with the reason counted, and match the reference."""

    def _check(self, source, reason, n_threads=96, cta=None, **kwargs):
        module = _module(source)

        def outcome(**engine):
            launch_cta = None if cta is None else cta()
            return _outcome(module, n_threads, memory=GlobalMemory(),
                            cta=launch_cta, **kwargs, **engine)

        got, mode = outcome()
        expected, _ = outcome(fastpath=False)
        assert got == expected
        assert mode == _expected_mode(reason)

    def test_round_robin_scheduler(self):
        # The same kernel runs warp by warp under a per-warp policy.
        self._check(DIVERGENT_STORE, "independent")
        self._check(DIVERGENT_STORE, "independent", scheduler="oldest-first")
        self._check(DIVERGENT_STORE, "scheduler", scheduler="round-robin")

    def test_guarded_memory(self):
        self._check(SHIFTED_STORE, "memory")

    def test_ctasync(self):
        self._check(CTASYNC_STORE, "cta")

    def test_shared_memory(self):
        self._check(SHARED_STORE, "cta",
                    cta=lambda: CTAContext(shared_words=4))


# ----------------------------------------------------------------------
# Persistent worker pool
# ----------------------------------------------------------------------

def _square(x):
    return x * x


def _worker_pid(_):
    return os.getpid()


def _explode(_):
    raise ValueError("worker exploded")


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test starts and ends without a live pool."""
    shutdown_pool()
    yield
    shutdown_pool()
    os.environ.pop("REPRO_POOL_TEST_KNOB", None)


class TestPersistentPool:
    def test_serial_degrade_skips_the_pool(self):
        assert run_tasks([task(_square, i) for i in range(4)], jobs=1) == [
            0, 1, 4, 9,
        ]
        assert parallel._POOL is None
        # A single task degrades too, even with jobs > 1.
        assert run_tasks([task(_square, 5)], jobs=4) == [25]
        assert parallel._POOL is None

    def test_results_in_submission_order(self):
        out = run_tasks([task(_square, i) for i in range(16)], jobs=2)
        assert out == [i * i for i in range(16)]

    def test_pool_is_reused_across_calls(self):
        run_tasks([task(_square, i) for i in range(4)], jobs=2)
        first = parallel._POOL
        assert first is not None
        run_tasks([task(_square, i) for i in range(4)], jobs=2)
        assert parallel._POOL is first

    def test_work_runs_in_worker_processes(self):
        pids = set(run_tasks([task(_worker_pid, i) for i in range(8)],
                             jobs=2))
        assert os.getpid() not in pids

    def test_repro_env_change_invalidates(self):
        run_tasks([task(_square, i) for i in range(4)], jobs=2)
        first = parallel._POOL
        os.environ["REPRO_POOL_TEST_KNOB"] = "1"
        run_tasks([task(_square, i) for i in range(4)], jobs=2)
        assert parallel._POOL is not first

    def test_engine_knob_change_invalidates(self):
        run_tasks([task(_square, i) for i in range(4)], jobs=2)
        first = parallel._POOL
        with engine_config(warp_batch=not current_engine().warp_batch):
            run_tasks([task(_square, i) for i in range(4)], jobs=2)
            assert parallel._POOL is not first

    def test_jobs_change_invalidates(self):
        run_tasks([task(_square, i) for i in range(4)], jobs=2)
        first = parallel._POOL
        run_tasks([task(_square, i) for i in range(4)], jobs=3)
        assert parallel._POOL is not first

    def test_worker_exception_tears_down_and_propagates(self):
        with pytest.raises(ValueError, match="worker exploded"):
            run_tasks([task(_explode, i) for i in range(4)], jobs=2)
        assert parallel._POOL is None
        # The next sweep transparently reforks.
        assert run_tasks([task(_square, i) for i in range(4)], jobs=2) == [
            0, 1, 4, 9,
        ]

    def test_shutdown_pool_is_idempotent(self):
        run_tasks([task(_square, i) for i in range(4)], jobs=2)
        shutdown_pool()
        assert parallel._POOL is None
        shutdown_pool()


#: Child-process script for TestWorkerDeath: kills a pool worker through
#: one sweep path, expects WorkerError, then runs the path again cleanly.
WORKER_DEATH_CHILD = """
import multiprocessing
import sys

from repro.engine import engine_config
from repro.errors import WorkerError
from repro.frontend import compile_kernel_source
from repro.harness.parallel import run_tasks, run_tasks_observed, task
from repro.obs.counters import ENGINE_COUNTERS
from repro.simt import GlobalMemory
from repro.simt.grid import GridLaunch
from tests.helpers import DiesWhenUnpickled, die_in_worker

start_method, path = sys.argv[1:]
if start_method == "spawn":
    # As on a platform without fork: the pool falls back to spawn.
    real_get_context = multiprocessing.get_context

    def get_context(method=None):
        if method == "fork":
            raise ValueError("fork is unavailable")
        return real_get_context(method)

    multiprocessing.get_context = get_context

module = compile_kernel_source(
    "kernel k(out, unused) { store(out + tid(), tid() * 2.0); }"
)


def sweep(kill=None):
    if path == "grid":
        memory = GlobalMemory()
        out = memory.alloc(128)
        unused = 0 if kill is None else DiesWhenUnpickled(kill)
        with engine_config(grid=True):
            result = GridLaunch(module, 4, 32, jobs=2).launch(
                "k", (out, unused), memory=memory
            )
        return [memory.load(out + t) for t in range(128)], result
    tasks = [task(abs, -1), task(abs, -2), task(abs, -3)]
    if kill is not None:
        tasks[1] = task(die_in_worker, kill)
    if path == "observed":
        return run_tasks_observed(tasks, jobs=2)[0]
    return run_tasks(tasks, jobs=2)


for kill, exitcode in (("exit", 3), ("sigkill", -9)):
    deaths = ENGINE_COUNTERS.pool_worker_deaths
    try:
        sweep(kill)
    except WorkerError as exc:
        assert exc.exitcode == exitcode, (exc.exitcode, exitcode)
        assert exc.task_index in (0, 1), exc.task_index
        assert exc.function, exc
    else:
        raise AssertionError("the sweep survived its dead worker")
    assert ENGINE_COUNTERS.pool_worker_deaths == deaths + 1
    if path == "grid":
        cells, result = sweep()
        assert cells == [t * 2.0 for t in range(128)], cells
        assert result.classification == "disjoint"
    else:
        assert sweep() == [1, 2, 3]
print("survived")
"""


class TestWorkerDeath:
    """A pool worker that dies mid-sweep raises a typed WorkerError
    instead of hanging, and the next sweep runs on a fresh pool. Each
    case runs in a child process with a hard timeout, so a regression
    fails instead of hanging the suite."""

    @pytest.mark.parametrize("path", ["run_tasks", "observed", "grid"])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_dead_worker_raises_worker_error(self, start_method, path):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
        )
        child = subprocess.Popen(
            [sys.executable, "-c", WORKER_DEATH_CHILD, start_method, path],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True,
        )
        try:
            out, _ = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            # Take the child's pool workers down with it.
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail(f"{path} under {start_method} hung on a dead worker")
        assert child.returncode == 0, out
        assert out.strip().endswith("survived"), out
