"""Parallel sweep runner: fan independent experiment configs over workers.

Every figure regeneration is a bag of independent experiments — one
``compare_workload`` per Table 2 row, one compile-and-launch per threshold
sweep point — that share nothing but the (deterministic) seed. This module
farms such a bag over a :class:`concurrent.futures.ProcessPoolExecutor`
and merges results in submission order, so a parallel sweep is
*bit-identical* to the serial one: results are collected future by future
in submission order, each worker runs with its own process-private
caches, and all randomness is derived from the explicit seed, never from
worker identity or scheduling.

The pool is **persistent**: the first parallel ``run_tasks`` call starts
it, later calls reuse it, so a session of many small sweeps (threshold
scans especially) pays pool spin-up and per-process cache warming once
instead of per sweep. Workers snapshot their settings when they start,
so the pool is keyed by everything that shapes worker behaviour: the
worker count, the ``REPRO_*`` environment and the process-wide
:class:`~repro.engine.EngineConfig` (one frozen, hashable value, so a
field added to it is in the key automatically). When the key changes,
the pool is transparently torn down and restarted. The pool initializer
installs the parent's engine config in every worker, so an
``engine_config(...)`` override reaches the workers under both the
``fork`` and the ``spawn`` start method (spawned workers would otherwise
re-parse the environment), and raises the worker's young-generation
collector threshold (:func:`collector_policy`, which the figure CLI
applies to its own process too).
:func:`shutdown_pool` retires the pool explicitly (also registered
``atexit``). A task exception lets the sweep's other tasks finish, then
terminates the pool before propagating so no half-poisoned workers
outlive the error. A worker that
dies mid-sweep (``os._exit``, a signal, the OOM killer) breaks the
executor, which fails every pending future at once: the sweep raises a
typed :class:`~repro.errors.WorkerError` instead of waiting forever, the
pool is retired, and the next sweep starts a fresh one.

Tasks are ``(fn, args, kwargs)`` triples with ``fn`` a module-level
function (workers import it by reference under the fork start method, and
by qualified name under spawn). ``jobs<=1``, a single task, or an
unavailable ``multiprocessing`` all degrade to a plain serial loop — the
``--jobs`` flag can therefore be wired through unconditionally.

:func:`run_tasks_observed` is the telemetry-carrying variant: each worker
snapshots the process-global engine counters around its task (and, with
``events=True``, collects every simulator event through the ambient
sink) and ships the delta back alongside the result. The parent merges
worker counter deltas into its own :data:`~repro.obs.counters.ENGINE_COUNTERS`,
so the registry reflects all work done on a sweep's behalf whether it ran
serially or on the pool — ``--jobs`` runs are no longer observability
black holes. The per-worker reports feed
:func:`repro.obs.chrome_trace.merged_worker_trace` (one Chrome process
per worker, so colliding warp tids stay distinguishable) and the
``tools.stats`` aggregate table.
"""

from __future__ import annotations

import atexit
import gc
import multiprocessing
import os
import signal

from repro import engine as _engine
from repro.engine import current_engine, parse_int
from repro.errors import WorkerError
from repro.obs import counters as _counters
from repro.obs.counters import ENGINE_COUNTERS

__all__ = [
    "GC_YOUNG_THRESHOLD",
    "collector_policy",
    "resolve_jobs",
    "run_tasks",
    "run_tasks_observed",
    "shutdown_pool",
    "task",
]


def resolve_jobs(jobs=None):
    """Normalize a ``--jobs`` value: None/0 consult ``REPRO_JOBS``, then 1.

    An explicit negative value means "one worker per CPU".
    """
    if jobs is None or jobs == 0:
        env = os.environ.get("REPRO_JOBS", "")
        if not env.strip():
            return 1
        jobs = parse_int("REPRO_JOBS", env)
    jobs = int(jobs)
    if jobs < 0:
        return max(1, os.cpu_count() or 1)
    return max(1, jobs)


#: The cyclic collector's young-generation threshold in the processes this
#: package runs: the pool workers and the figure CLI (CPython's default
#: is 700). A simulation keeps large object graphs alive (modules,
#: decoded programs, launch memos, thread frames); at the default, every
#: few hundred allocations start a collection, and each full one rescans
#: all of them. At 10,000 the collector's time in ``python -m
#: repro.harness --full`` halves, and in a serial 10^5-thread grid it
#: falls sevenfold (docs/performance.md, "Collector policy and grid
#: shards").
GC_YOUNG_THRESHOLD = 10_000


def collector_policy():
    """Raise this process's young-generation threshold to
    :data:`GC_YOUNG_THRESHOLD`, keeping the older generations' own;
    returns the thresholds it replaced, for ``gc.set_threshold``."""
    previous = gc.get_threshold()
    gc.set_threshold(GC_YOUNG_THRESHOLD, *previous[1:])
    return previous


def task(fn, *args, **kwargs):
    """Package one unit of work for :func:`run_tasks`."""
    return (fn, args, kwargs)


#: The live pool and the key it was started under (see _pool_key).
_POOL = None
_POOL_KEY = None


def _pool_key(jobs):
    """Everything a worker snapshots that a later sweep may have changed:
    the worker count, REPRO_* environment variables and the engine
    config."""
    env = tuple(sorted(
        (key, value)
        for key, value in os.environ.items()
        if key.startswith("REPRO_")
    ))
    return (jobs, env, current_engine())


def _init_worker(config):
    """Pool initializer: give the worker the parent's engine config and
    the collector policy."""
    _engine._install(config)
    collector_policy()


def _workers(pool):
    """The executor's worker processes (its private ``_processes``)."""
    return list((pool._processes or {}).values())


def shutdown_pool():
    """Retire the persistent pool (no-op when none is alive): terminate
    the workers, busy or not, and wait until the executor has reaped
    them all, so their exit codes are final."""
    global _POOL, _POOL_KEY
    pool = _POOL
    _POOL = None
    _POOL_KEY = None
    if pool is not None:
        ENGINE_COUNTERS.pool_teardowns += 1
        for worker in _workers(pool):
            worker.terminate()
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pool)


def _acquire_pool(jobs):
    """The persistent pool for ``jobs`` workers under the current
    settings, restarting it if any changed since the last call."""
    global _POOL, _POOL_KEY
    # Imported on first use: concurrent.futures would add about 12 ms to
    # the start-up of every process, most of which never start a pool.
    from concurrent.futures import ProcessPoolExecutor

    key = _pool_key(jobs)
    if _POOL is not None and _POOL_KEY == key:
        ENGINE_COUNTERS.pool_reuses += 1
        return _POOL
    shutdown_pool()
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = multiprocessing.get_context("spawn")
    _POOL = ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=context,
        initializer=_init_worker,
        initargs=(key[2],),
    )
    _POOL_KEY = key
    return _POOL


def _map(wrapper, items, jobs):
    """``wrapper(item)`` for every item on the pool, in submission order
    (each item starts with its task's function).

    Every submitted task runs to its end, so a failing task never cuts
    another short (its post-mortem, say); then the first error in
    submission order is raised. A task's own exception propagates
    unchanged; a dead worker raises :class:`WorkerError`. Either way the
    pool is retired first.
    """
    from concurrent.futures import wait
    from concurrent.futures.process import BrokenProcessPool

    pool = _acquire_pool(jobs)
    ENGINE_COUNTERS.pool_tasks += len(items)
    results = []
    try:
        # A worker can die while later tasks are still being submitted.
        futures = [pool.submit(wrapper, item) for item in items]
        wait(futures)
        for future in futures:
            results.append(future.result())
    except BrokenProcessPool:
        ENGINE_COUNTERS.pool_worker_deaths += 1
        workers = _workers(pool)
        shutdown_pool()
        # Every other worker was terminated (-SIGTERM) after the death.
        exitcode = next((worker.exitcode for worker in workers
                         if worker.exitcode not in (None, -signal.SIGTERM)),
                        None)
        index = len(results)
        fn = items[index][0]
        name = f"{fn.__module__}.{getattr(fn, '__qualname__', fn)}"
        raise WorkerError(
            f"a pool worker died (exit code {exitcode}) before task "
            f"{index} of {len(items)} ({name}) returned",
            task_index=index, function=name, exitcode=exitcode,
        ) from None
    except BaseException:
        shutdown_pool()
        raise
    return results


def run_tasks(tasks, jobs=None):
    """Run ``(fn, args, kwargs)`` triples; results in submission order.

    With ``jobs`` (resolved per :func:`resolve_jobs`) greater than one and
    more than one task, the tasks run on the persistent process pool;
    otherwise serially in-process. Worker exceptions propagate to the
    caller either way (and retire the pool first); a worker process that
    dies raises :class:`~repro.errors.WorkerError`. Pool workers' engine
    counters are merged into the parent's, as in
    :func:`run_tasks_observed`.
    """
    return run_tasks_observed(tasks, jobs)[0]


def _call_observed(packed):
    """Worker-side wrapper: run the task, return ``(result, report)``.

    The report carries the worker's engine-counter delta over the task
    (its process-global registry accumulates across tasks; the delta is
    this task's share) and, when requested, every simulator event the
    task's launches emitted — captured through the ambient sink so the
    task itself needs no observability plumbing.
    """
    fn, args, kwargs, events = packed
    from repro.obs.sinks import ListSink, set_ambient_sink

    before = _counters.snapshot()
    sink = previous = None
    if events:
        sink = ListSink()
        previous = set_ambient_sink(sink)
    try:
        result = fn(*args, **kwargs)
    finally:
        if sink is not None:
            set_ambient_sink(previous)
    report = {
        "pid": os.getpid(),
        "counters": _counters.delta(_counters.snapshot(), before),
        "events": sink.events if sink is not None else [],
    }
    return result, report


def run_tasks_observed(tasks, jobs=None, events=False):
    """Like :func:`run_tasks`, returning ``(results, worker_reports)``.

    ``worker_reports`` is one dict per task, in submission order:
    ``{"pid": worker os pid, "counters": engine-counter delta,
    "events": [simulator events]}`` (``events`` empty unless
    ``events=True`` — event capture flips launches into observing mode,
    which disables segment fusion and independent warps, so only ask for it
    when you want the timeline rather than representative counters).

    When the tasks ran on the pool, each worker's counter delta is merged
    into the parent's registry, so :data:`ENGINE_COUNTERS` accounts for
    the whole sweep either way; cross-process results remain bit-identical
    to the serial run (the wrapper only reads counters around the task).
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    packed = [(fn, args, kwargs, events) for fn, args, kwargs in tasks]
    if jobs <= 1 or len(tasks) <= 1:
        out = [_call_observed(item) for item in packed]
        return [r for r, _ in out], [rep for _, rep in out]
    out = _map(_call_observed, packed, jobs)
    reports = [rep for _, rep in out]
    for report in reports:
        ENGINE_COUNTERS.merge(report["counters"])
    return [r for r, _ in out], reports
