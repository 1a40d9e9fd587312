"""Single-thread reference execution.

Runs one thread of a kernel *alone*, with every convergence-barrier
instruction treated as a no-op. Because barriers only affect scheduling,
a thread's observable behavior (its store trace and retired non-barrier
instructions) must be identical under warp execution with any
synchronization whatsoever — the library's central correctness invariant,
checked differentially in ``tests/test_reference_diff.py``.

Only valid for kernels whose threads do not communicate (no atomics used
for cross-thread data flow, loads only from launch-time memory); the
Table 2 workloads with static coarsening qualify.
"""

from __future__ import annotations

from repro.errors import LaunchError
from repro.simt.costs import DEFAULT_COST_MODEL
from repro.simt.executor import Executor
from repro.simt.machine import DEFAULT_MAX_ISSUES
from repro.simt.memory import GlobalMemory
from repro.simt.profiler import Profiler
from repro.simt.warp import WARP_SIZE, Thread, Warp


def run_reference_thread(
    module, kernel_name, tid, n_threads, args=(), memory=None, seed=2020,
    max_issues=DEFAULT_MAX_ISSUES,
):
    """Execute thread ``tid`` of a launch in isolation.

    Returns the :class:`~repro.simt.warp.Thread` after completion (its
    ``store_trace`` is the observable result). ``memory`` is mutated the
    same way the thread alone would mutate it.
    """
    kernel = module.function(kernel_name)
    if not kernel.is_kernel:
        raise LaunchError(f"@{kernel_name} is not a kernel")
    if not 0 <= tid < n_threads:
        raise LaunchError(f"tid {tid} outside launch of {n_threads}")
    memory = memory if memory is not None else GlobalMemory()
    profiler = Profiler()
    executor = Executor(module, memory, DEFAULT_COST_MODEL, profiler)
    warp_id = tid // WARP_SIZE
    template = executor.templates[kernel_name]
    thread = Thread(
        tid, tid % WARP_SIZE, warp_id, template, template.fill(args), seed
    )
    # A warp containing just this thread; barrier releases are handled
    # below (never through Warp.release, which indexes lanes positionally).
    warp = Warp(warp_id, [thread], template.pc)

    issues = 0
    while not thread.is_exited:
        if not thread.is_runnable:
            # Alone in the warp, any barrier the thread parks on is
            # immediately releasable (it is the only member).
            released = 0
            bit = 1 << thread.lane
            for barrier in warp.barriers.barriers():
                mask = barrier.releasable()
                if mask:
                    barrier.release(mask)
                    thread.unpark()
                    released += 1
            if not released:
                # Soft barriers with threshold > 1: force the release (no
                # other participant can ever arrive).
                for barrier in warp.barriers.barriers():
                    if barrier.parked_mask & bit:
                        barrier.withdraw(bit)
                        thread.unpark()
            if not thread.is_runnable:
                raise LaunchError("reference thread wedged on a barrier")
        pc = thread.pc()
        executor.execute(warp, pc, [thread])
        issues += 1
        if issues > max_issues:
            raise LaunchError(
                f"reference thread {tid} exceeded {max_issues} issue slots; "
                "likely an infinite loop"
            )
    return thread


def run_reference_launch(module, kernel_name, n_threads, args=(), seed=2020):
    """Reference store traces for every thread, each run in isolation on a
    private copy of the initial memory."""
    traces = {}
    for tid in range(n_threads):
        thread = run_reference_thread(
            module, kernel_name, tid, n_threads, args=args,
            memory=GlobalMemory(), seed=seed,
        )
        traces[tid] = list(thread.store_trace)
    return traces
