"""The GPU machine: kernel launches, warp interleaving, deadlock detection.

Warps execute independently (their cycle counters advance in parallel);
the machine interleaves them round-robin one issue at a time so that
cross-warp atomics are deterministic. A launch returns a
:class:`LaunchResult` with the profiler, final memory, and per-thread
traces used by correctness tests.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from repro.errors import DeadlockError, LaunchError, SimulationError
from repro.obs.counters import ENGINE_COUNTERS
from repro.obs.metrics import LaunchMetrics
from repro.obs.recorder import attach_post_mortem, make_recorder
from repro.obs.sinks import ambient_sink
from repro.simt.costs import DEFAULT_COST_MODEL
from repro.simt.cta import CTAContext
from repro.simt.executor import Executor
from repro.simt.memory import GlobalMemory
from repro.simt.profiler import Profiler
from repro.simt.scheduler import make_scheduler
from repro.simt.warp import WARP_SIZE, Thread, Warp

#: Issue-slot budget shared by every execution engine (GPU, stack,
#: single-thread reference) so runaway-loop detection behaves the same
#: no matter which path runs a kernel.
DEFAULT_MAX_ISSUES = 20_000_000

_by_lane = operator.attrgetter("lane")


@dataclass
class LaunchResult:
    """Everything observable about one kernel launch."""

    kernel: str
    n_threads: int
    profiler: Profiler
    memory: GlobalMemory
    threads: list
    #: per-launch engine-layer counters (Profiler.engine_counters());
    #: telemetry only, never part of the simulated result
    counters: dict = field(default=None, repr=False)
    #: the launch's FlightRecorder (None when recording is off)
    flight_recorder: object = field(default=None, repr=False)
    #: the CTA context the launch ran under (grid identity, shared memory)
    cta: object = field(default=None, repr=False)

    @property
    def simt_efficiency(self):
        return self.profiler.simt_efficiency

    @property
    def cycles(self):
        return self.profiler.total_cycles

    def store_traces(self):
        """Per-thread ordered (addr, value) store lists, keyed by tid."""
        return {t.tid: list(t.store_trace) for t in self.threads}

    def retired_per_thread(self):
        return {t.tid: t.retired for t in self.threads}

    @property
    def metrics(self):
        """Stall-reason metrics (LaunchMetrics), or None when disabled."""
        return self.profiler.metrics


class GPUMachine:
    """Executes kernels of a module under a scheduler and cost model."""

    def __init__(
        self,
        module,
        cost_model=None,
        scheduler="convergence",
        seed=2020,
        max_issues=DEFAULT_MAX_ISSUES,
        trace=False,
        sink=None,
        metrics=False,
        flight_recorder=None,
    ):
        self.module = module
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.scheduler_name = scheduler
        self.seed = seed
        self.max_issues = max_issues
        # Observability, all off by default (the fast path stays
        # allocation-free): ``trace`` records cycle-stamped IssueEvents for
        # timeline rendering, ``sink`` streams every event kind to a
        # repro.obs sink, ``metrics`` enables stall-reason attribution.
        self.trace = trace
        self.sink = sink
        self.metrics = metrics
        # None defers to the global repro.obs.recorder level; True/False
        # and the level strings ("on"/"off"/"verbose") force it.
        self.flight_recorder = flight_recorder
        #: the active launch's recorder (the batcher records into it)
        self._recorder = None

    def launch(self, kernel_name, n_threads, args=(), memory=None, cta=None):
        kernel = self.module.function(kernel_name)
        if not kernel.is_kernel:
            raise LaunchError(f"@{kernel_name} is not a kernel")
        if n_threads <= 0:
            raise LaunchError(f"launch needs at least one thread, got {n_threads}")
        if len(args) != len(kernel.params):
            raise LaunchError(
                f"@{kernel_name} takes {len(kernel.params)} arguments, "
                f"got {len(args)}"
            )
        memory = memory if memory is not None else GlobalMemory()
        # One launch = one CTA. The default context is the degenerate
        # single-CTA grid (cta_id 0, zero tid/warp bases), which makes a
        # flat launch bit-identical to the pre-grid engine; GridLaunch
        # passes one context per CTA with global bases.
        if cta is None:
            cta = CTAContext(cta_dim=n_threads)
        elif cta.cta_dim is None:
            cta.cta_dim = n_threads
        profiler = Profiler(trace=self.trace)
        metrics = LaunchMetrics() if self.metrics else None
        profiler.metrics = metrics
        # Machines built without an explicit sink pick up the ambient one
        # (the parallel harness installs one around observed worker tasks
        # so --jobs sweeps stream events back to the parent).
        sink = self.sink if self.sink is not None else ambient_sink()
        executor = Executor(
            self.module, memory, self.cost_model, profiler,
            sink=sink, metrics=metrics, cta=cta,
        )
        scheduler = make_scheduler(self.scheduler_name)

        # Grid launches offset tids and warp ids by the CTA's global bases,
        # so RNG streams and warp identity match the equivalent flat launch
        # of the whole grid (both are zero for a flat launch).
        tid_base = cta.tid_base
        warp_base = cta.warp_base
        warps = []
        all_threads = []
        for base in range(0, n_threads, WARP_SIZE):
            warp_id = warp_base + base // WARP_SIZE
            threads = [
                Thread(
                    tid_base + tid, tid - base, warp_id, kernel, args,
                    self.seed,
                )
                for tid in range(base, min(base + WARP_SIZE, n_threads))
            ]
            warps.append(Warp(warp_id, threads))
            all_threads.extend(threads)
        cta.warps = warps

        recorder = make_recorder(kernel_name, n_threads, self.flight_recorder)
        self._recorder = recorder
        executor.recorder = recorder
        if recorder is not None:
            recorder.record(
                "launch", {"kernel": kernel_name, "n_threads": n_threads,
                           "warps": len(warps)}
            )

        batcher = None
        if len(warps) > 1:
            from repro.simt.batch import make_batcher

            batcher = make_batcher(
                self, executor, scheduler, kernel_name, args, n_threads
            )

        issues = 0
        live_warps = list(warps)
        try:
            while live_warps:
                if len(live_warps) == 1 and executor.segment_at is not None:
                    # Exactly one live warp (single-warp launch, or the
                    # tail of a multi-warp one): nothing can interleave
                    # with it, so segment fusion cannot perturb cross-warp
                    # memory order.
                    self._run_exclusive(
                        live_warps[0], executor, scheduler, issues,
                        kernel_name
                    )
                    break
                if batcher is not None:
                    # Lockstep epoch: every live warp advances the same
                    # number of fused slots, with memory disjointness
                    # proven statically or enforced by the optimistic
                    # write-set guard. Falls through to one ordinary
                    # per-slot round when it cannot engage (non-forced
                    # pick, no segment, drain needed, ...).
                    advanced = batcher.try_epoch(live_warps, issues)
                    if advanced is not None:
                        # Segment ops cannot exit or park, so the live set
                        # is unchanged.
                        issues = advanced
                        continue
                progressed = []
                for warp in live_warps:
                    if self._step(warp, executor, scheduler):
                        issues += 1
                        if issues > self.max_issues:
                            raise LaunchError(
                                f"@{kernel_name} exceeded {self.max_issues} "
                                "issue slots; likely an infinite loop"
                            )
                    if not warp.done:
                        progressed.append(warp)
                live_warps = progressed
        except SimulationError as exc:
            self._abort_launch(exc, recorder, profiler, sink)
            raise
        finally:
            self._recorder = None

        counters = profiler.engine_counters()
        ENGINE_COUNTERS.merge(counters)
        ENGINE_COUNTERS.launch_count += 1
        if recorder is not None:
            recorder.record(
                "launch-end",
                {"issued": profiler.issued, "cycles": profiler.total_cycles},
            )
        return LaunchResult(
            kernel=kernel_name,
            n_threads=n_threads,
            profiler=profiler,
            memory=memory,
            threads=all_threads,
            counters=counters,
            flight_recorder=recorder,
            cta=cta,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _abort_launch(exc, recorder, profiler, sink):
        """Death rites for a launch that raised mid-kernel: account the
        failure, attach the flight-recorder post-mortem to the error, and
        finalize the sink so a file-backed trace keeps the events leading
        up to the failure instead of silently losing them."""
        ENGINE_COUNTERS.launch_errors += 1
        if recorder is not None:
            recorder.record(
                "error",
                {"type": type(exc).__name__, "issued": profiler.issued},
            )
        from repro.simt.jit import jit_post_mortem

        # The generated source of the last-executed JIT segment rides on
        # the report, but only when this launch actually ran JIT code.
        extra = jit_post_mortem() if profiler.jit_segments else None
        attach_post_mortem(exc, recorder, extra=extra)
        if sink is not None:
            try:
                sink.close()
            except Exception:  # pragma: no cover - must not mask the error
                pass

    # ------------------------------------------------------------------
    def _run_exclusive(self, warp, executor, scheduler, issues, kernel_name):
        """Run the last live warp to completion with segment fusion.

        Fusion fires only when three proofs hold at once: the scheduler's
        pick is *forced* for the whole run (``forced_pick``), a fusable
        segment starts at that PC (``executor.segment_at``), and no other
        group sits inside the segment (``Segment.conflicts``). Everything
        else falls through to the ordinary per-instruction ``_step`` —
        including draining, deadlock detection, and warp completion — so
        the fused schedule is pick-for-pick identical to the slow one.
        """
        segment_at = executor.segment_at
        program_order = executor.program_order
        profiler = executor.profiler
        max_issues = self.max_issues
        recorder = self._recorder
        verbose = recorder is not None and recorder.verbose
        while not warp.done:
            groups = warp.groups_cache
            if groups is None:
                groups = warp.groups()
            if groups:
                pc = scheduler.forced_pick(groups, program_order)
                if pc is not None:
                    segment = segment_at(pc)
                    if segment is not None and (
                        len(groups) == 1 or not segment.conflicts(groups)
                    ):
                        group = groups[pc]
                        cycles = segment.execute(executor, warp, group)
                        n = segment.n
                        scheduler.consume(n)
                        for thread in group:
                            thread.retired += n
                        profiler.record_segment(
                            warp.warp_id, pc, segment, len(group), cycles
                        )
                        if verbose:
                            recorder.record(
                                "segment",
                                {"warp": warp.warp_id, "pc": list(pc),
                                 "slots": n},
                            )
                        warp.cycles += cycles
                        issues += n
                        if issues > max_issues:
                            raise LaunchError(
                                f"@{kernel_name} exceeded {max_issues} issue "
                                "slots; likely an infinite loop"
                            )
                        # Segment ops cannot park, release, or split, so
                        # the other groups are untouched: patch the issued
                        # bucket over to end_pc exactly as _step's uniform
                        # carry-over would have, one instruction at a time.
                        del groups[pc]
                        end_pc = segment.end_pc
                        resident = groups.get(end_pc)
                        if resident is None:
                            groups[end_pc] = group
                        else:
                            resident.extend(group)
                            resident.sort(key=_by_lane)
                        warp.groups_cache = groups
                        continue
            # No fusable forced pick here: hand the grouping to _step (an
            # empty dict still routes through its drain/done/deadlock
            # logic) and issue one instruction the ordinary way.
            warp.groups_cache = groups
            if self._step(warp, executor, scheduler):
                issues += 1
                if issues > max_issues:
                    raise LaunchError(
                        f"@{kernel_name} exceeded {max_issues} issue "
                        "slots; likely an infinite loop"
                    )
        return issues

    # ------------------------------------------------------------------
    def _step(self, warp, executor, scheduler):
        """Issue one instruction for ``warp``; returns True if issued."""
        on_release = None
        if executor.observing:
            on_release = (
                lambda barrier, lanes: executor.observe_release(
                    warp, barrier, lanes
                )
            )
        # After a uniform op only the issued bucket moved, so the previous
        # grouping was patched in place — reuse it instead of regrouping.
        groups = warp.groups_cache
        warp.groups_cache = None
        if groups is None:
            groups = warp.groups()
        if not groups:
            warp.drain_releasable(on_release)
            groups = warp.groups()
        if not groups:
            if not warp.live_threads():
                warp.done = True
                return False
            cta = executor.cta
            if cta is not None and cta.has_ctasync_waiters(warp):
                # CTA-wide barrier: arrival happens in the ctasync handler,
                # but the *exit* of a thread in another warp can shrink the
                # membership — re-check release here. When the barrier
                # cannot open yet, stall (no issue) as long as a sibling
                # warp can still make progress toward it.
                if cta.maybe_release():
                    return False
                if cta.others_can_progress(warp):
                    return False
            waiting = [
                (t.lane, t.waiting_on) for t in warp.threads if not t.is_exited
            ]
            raise DeadlockError(
                f"warp {warp.warp_id}: no runnable threads and no releasable "
                f"barrier (conflicting barriers? see Section 4.3). "
                f"Waiting lanes: {waiting}",
                warp_id=warp.warp_id,
                waiting=waiting,
            )
        profiler = executor.profiler
        if executor.segment_at is None:
            # No segment engine this launch (observers attached, or
            # fastpath/segments off): every slot is out of reach for the
            # forced-pick fast lanes, whatever the scheduler says.
            profiler.nonforced_observed += 1
        elif len(groups) > 1 and (
            scheduler.forced_pick(groups, executor.program_order) is None
        ):
            if scheduler.name == "convergence":
                profiler.nonforced_tie += 1
            else:
                profiler.nonforced_multi_group += 1
        pc = scheduler.pick(groups, executor.program_order)
        group = groups[pc]
        executor.execute(warp, pc, group)
        released = warp.drain_releasable(on_release)
        if released == 0 and executor.issued_uniform:
            # A uniform op moved every thread of ``group`` to one new PC and
            # could not park, exit, or release anything, so the other groups
            # are exactly as they were: patch the dict instead of rescanning
            # the warp. (Schedulers order by injective PC keys, so dict
            # insertion order cannot influence the pick.)
            del groups[pc]
            frame = group[0].frames[-1]
            new_pc = (frame.fname, frame.block_name, frame.index)
            resident = groups.get(new_pc)
            if resident is None:
                groups[new_pc] = group
            else:
                # Landed on an already-populated PC: buckets stay in lane
                # order, as Warp.groups() would have produced.
                resident.extend(group)
                resident.sort(key=_by_lane)
            warp.groups_cache = groups
        return True
