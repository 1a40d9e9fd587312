"""The GPU machine: kernel launches, warp interleaving, deadlock detection.

Warps execute independently (their cycle counters advance in parallel).
The reference schedule interleaves them round-robin, one issue slot per
warp per round, so that cross-warp memory traffic is deterministic. When
no warp can observe another — global footprints proven disjoint, a
scheduler without cross-warp state, no ``ctasync`` or shared memory —
every interleaving gives the same result, and the machine runs the warps
one at a time to completion instead (with segment fusion throughout),
raising the error the interleave would have raised first. A launch that
stays interleaved for its scheduler or its memory still fuses: a warp
runs a segment no other warp can observe at once and owes the rounds
its remaining slots would have taken. A launch
returns a :class:`LaunchResult` with the profiler, final memory, and
per-thread traces used by correctness tests. A flat, unobserved launch
on the fast path that this process has already simulated returns the
recorded result instead (:mod:`repro.simt.memo`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.memeffects import classify_launch, cta_coupled
from repro.errors import DeadlockError, LaunchError, SimulationError
from repro.obs.counters import ENGINE_COUNTERS
from repro.obs.metrics import LaunchMetrics
from repro.obs.recorder import attach_post_mortem
from repro.obs.sinks import ambient_sink
from repro.simt import memo as launch_memo
from repro.simt.costs import DEFAULT_COST_MODEL
from repro.simt.cta import CTAContext
from repro.simt.executor import Executor
from repro.simt.jit import fused_failure
from repro.simt.memory import GlobalMemory
from repro.simt.profiler import Profiler
from repro.simt.scheduler import make_scheduler
from repro.simt.warp import (
    WARP_SIZE,
    ThreadState,
    insert_bucket,
    launch_warps,
)

_EXITED = ThreadState.EXITED

#: Issue-slot budget shared by every execution engine (GPU, stack,
#: single-thread reference) so runaway-loop detection behaves the same
#: no matter which path runs a kernel.
DEFAULT_MAX_ISSUES = 20_000_000


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
        sink=None,
        metrics=False,
    ):
        self.module = module
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.scheduler_name = scheduler
        self.seed = seed
        self.max_issues = max_issues
        # Observability, both off by default (the fast path stays
        # allocation-free): ``sink`` streams every event kind to a
        # repro.obs sink, ``metrics`` enables stall-reason attribution.
        self.sink = sink
        self.metrics = metrics

    def launch(self, kernel_name, n_threads, args=(), memory=None, cta=None):
        check_launch(self.module, kernel_name, n_threads, args)
        memory = memory if memory is not None else GlobalMemory()
        # A flat launch this process has already simulated returns the
        # recorded result (repro.simt.memo); grid CTAs always simulate.
        memo = None
        if cta is None:
            memo = launch_memo.lookup(
                self, kernel_name, n_threads, args, memory
            )
            if memo is not None and memo.entry is not None:
                return self._replay(memo.entry, kernel_name, n_threads, memory)
        # One launch = one CTA. The default context is the degenerate
        # single-CTA grid (cta_id 0, zero tid/warp bases), which makes a
        # flat launch bit-identical to the pre-grid engine; GridLaunch
        # passes one context per CTA with global bases.
        cta_id = None if cta is None else cta.cta_id
        if cta is None:
            cta = CTAContext(cta_dim=n_threads)
        elif cta.cta_dim is None:
            cta.cta_dim = n_threads
        profiler = Profiler()
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
        warps = launch_warps(
            executor.templates[kernel_name], args, n_threads, self.seed,
            cta.tid_base, cta.warp_base,
        )
        all_threads = [thread for warp in warps for thread in warp.threads]
        cta.warps = warps

        run_ahead = None
        if len(warps) > 1:
            profiler.multiwarp, run_ahead = self._multiwarp_mode(
                executor, scheduler, kernel_name, args, n_threads, cta
            )

        if profiler.multiwarp == "independent":
            issued, error = self._run_independent(
                warps, executor, scheduler, kernel_name
            )
        else:
            issued, error = self._run_interleaved(
                warps, executor, scheduler, kernel_name, run_ahead
            )
        if error is not None:
            if isinstance(error, SimulationError):
                abort_launch(error, kernel_name, n_threads, profiler, sink,
                             cta_id, issued)
            raise error

        profiler.finish(warps)
        counters = profiler.engine_counters()
        ENGINE_COUNTERS.merge(counters)
        ENGINE_COUNTERS.launch_count += 1
        result = LaunchResult(
            kernel=kernel_name,
            n_threads=n_threads,
            profiler=profiler,
            memory=memory,
            threads=all_threads,
            counters=counters,
            cta=cta,
        )
        if memo is not None:
            memo.store(result)
        return result

    @staticmethod
    def _replay(entry, kernel_name, n_threads, memory):
        """The result a memo hit returns: the recorded launch, with its
        writes applied to ``memory``. It folds no engine-layer work, so
        its counters are all zero."""
        memory.apply(entry.writes)
        ENGINE_COUNTERS.launch_count += 1
        ENGINE_COUNTERS.launch_memo_hits += 1
        return LaunchResult(
            kernel=kernel_name,
            n_threads=n_threads,
            profiler=entry.profiler,
            memory=memory,
            threads=list(entry.threads),
            counters=Profiler().engine_counters(),
            cta=entry.cta,
        )

    # ------------------------------------------------------------------
    def _multiwarp_mode(self, executor, scheduler, kernel_name, args,
                        n_threads, cta):
        """How a multi-warp launch runs, and the segment lookup its
        interleave runs ahead through.

        The mode is ``"independent"`` (one warp at a time,
        :meth:`_run_independent`), or the reason the launch stays
        interleaved — ``"engine"`` (no segment engine, or ``warp_batch``
        off), ``"scheduler"`` (policy state shared across warps),
        ``"cta"`` (``ctasync`` or shared memory reachable) or ``"memory"``
        (global footprints not proven disjoint). The lookup is
        ``executor.segment_at`` when the footprints are proven disjoint,
        ``executor.memory_free_segment_at`` when they are not, and None
        (one slot per warp per round) for ``"engine"`` and ``"cta"``.
        """
        if executor.segment_at is None or not executor.engine.warp_batch:
            return "engine", None
        shared = scheduler.shares_state
        if cta_coupled(self.module, kernel_name):
            return ("scheduler" if shared else "cta"), None
        # A grid CTA reuses the grid's proof over the whole tid range; a
        # flat launch proves its own [0, n_threads). A hand-built context
        # with other bases has no proof.
        proof = cta.classification
        if proof is None and not (cta.tid_base or cta.warp_base):
            proof = classify_launch(
                self.module, kernel_name, tuple(args), n_threads
            )
        if proof != "disjoint":
            return ("scheduler" if shared else "memory"), (
                executor.memory_free_segment_at
            )
        if shared:
            return "scheduler", executor.segment_at
        return "independent", None

    # ------------------------------------------------------------------
    def _run_interleaved(self, warps, executor, scheduler, kernel_name,
                         run_ahead):
        """The reference schedule: every live warp issues one slot per
        round, in warp order. Returns ``(issued, error)``: the slots the
        schedule issued before it ended, and the exception it ended in
        (None when the launch completed).

        With a ``run_ahead`` segment lookup (:meth:`_multiwarp_mode`), a
        warp whose next segment no other warp can observe runs that
        segment at once (:meth:`_issuer`) and *owes* the rest of
        its slots. In each owed round the warp runs nothing, but it still
        counts one slot and one ``scheduler.consume(1)`` at its own
        position, so every other warp's pick and the issue budget see the
        reference schedule. A segment that fails after running some slots
        owes those after the first, and the warp's next round then raises
        the failing slot's error. The last live warp settles what it owes
        and runs to completion with segment fusion, since nothing can
        interleave with it.
        """
        max_issues = self.max_issues
        profiler = executor.profiler
        issue = self._issuer(executor, scheduler, run_ahead)
        issues = 0
        owed = {}
        failing = {}  # warp -> the error its last owed round raises
        live_warps = warps
        try:
            while live_warps:
                if len(live_warps) == 1 and executor.segment_at is not None:
                    warp = live_warps[0]
                    settled = owed.get(warp, 0)
                    error = failing.get(warp)
                    if error is not None:
                        settled -= 1  # the last owed round fails
                    if settled:
                        scheduler.consume(settled)
                        issues += settled
                    if error is None:
                        issues, error = self._run_exclusive(
                            warp, executor, scheduler, issues, max_issues + 1
                        )
                    if issues > max_issues:
                        return max_issues + 1, budget_error(
                            kernel_name, max_issues
                        )
                    return issues, error
                idle = False
                for warp in live_warps:
                    owe = owed.get(warp)
                    if owe:
                        if owe == 1 and warp in failing:
                            return issues, failing[warp]
                        owed[warp] = owe - 1
                        scheduler.consume(1)
                        issued = True
                    else:
                        try:
                            issued = issue(warp)
                        except _FusedFailure as failure:
                            if not failure.slots:
                                return issues, failure.error
                            # This round ran the segment's first slot.
                            scheduler.consume(1)
                            issued = 1
                            owed[warp] = failure.slots
                            failing[warp] = failure.error
                        if issued > 1:
                            owed[warp] = issued - 1
                            profiler.ahead_instrs += issued - 1
                    if issued:
                        issues += 1
                        if issues > max_issues:
                            return issues, budget_error(
                                kernel_name, max_issues
                            )
                    else:
                        idle = True  # done, or stalled at a ctasync
                if idle:
                    live_warps = [warp for warp in live_warps if not warp.done]
        except SimulationError as exc:  # the caller decides when to raise it
            return issues, exc
        return issues, None

    def _run_independent(self, warps, executor, scheduler, kernel_name):
        """Run each warp to completion in warp order, then return the
        error the interleaved schedule would have raised first, as
        ``(issued, error)`` like :meth:`_run_interleaved`.

        Without stalls (no ``ctasync``), the interleave gives a live warp
        exactly one slot per round, so a warp's *round* is its own issue
        count: its error falls in the round in which the failing step or
        fused segment started, and the issue-budget error falls at the
        first (round, warp position) where the summed count passes
        ``max_issues``. Later-positioned warps need only run up to the
        earliest event round found so far (a tie goes to the earlier
        position), and no warp past ``max_issues + 1`` slots. ``issued``
        is the interleave's count at that event (:func:`_slots_before`).
        """
        max_issues = self.max_issues
        #: per warp position, the rounds it issues in (a lower bound for
        #: a warp stopped at its cap)
        rounds = []
        first = None  # (round, position, error) of the earliest error
        for position, warp in enumerate(warps):
            cap = max_issues + 1
            if first is not None:
                cap = min(cap, first[0])
            budget = _budget_event(rounds, max_issues)
            if budget is not None:
                cap = min(cap, budget[0])
            issued, error = self._run_exclusive(
                warp, executor, scheduler, 0, cap
            )
            rounds.append(issued)
            if error is not None and (first is None or issued < first[0]):
                first = (issued, position, error)
        budget = _budget_event(rounds, max_issues)
        if budget is not None and (first is None or budget < first[:2]):
            return max_issues + 1, budget_error(kernel_name, max_issues)
        if first is not None:
            return _slots_before(rounds, *first[:2]), first[2]
        return sum(rounds), None

    # ------------------------------------------------------------------
    def _run_exclusive(self, warp, executor, scheduler, issues, limit):
        """Run ``warp`` with segment fusion until it completes or
        ``issues`` reaches ``limit``; returns ``(issues, error)``, where
        ``error`` is the exception a slot raised (None if none did) and
        ``issues`` the count when that slot started. Nothing else runs in
        between, so a fused segment's slots are all accounted at once,
        and so are those a failing segment ran before its failing slot.
        """
        issue = self._issuer(executor, scheduler, executor.segment_at)
        shares_state = scheduler.shares_state
        try:
            while not warp.done and issues < limit:
                n = issue(warp)
                if n > 1 and shares_state:
                    scheduler.consume(n - 1)
                issues += n
        except _FusedFailure as failure:
            # The failing slot is the segment's slot number
            # ``failure.slots``; the limit may come first.
            issues += failure.slots
            return issues, failure.error if issues < limit else None
        except Exception as exc:  # the caller decides when to raise it
            return issues, exc
        return issues, None

    def _issuer(self, executor, scheduler, segment_at):
        """The one slot function of a launch: returns ``issue(warp)``,
        which issues ``warp``'s next slot and returns the slots run (0
        when nothing issued). :meth:`_run_exclusive` and the interleave
        both issue through it; ``segment_at`` is the segment lookup the
        caller may fuse through, None for one slot per call.

        The one fusion rule: a segment that starts at the scheduler's
        pick runs as one step unless another group sits inside it
        (``Segment.conflicts``). The pick then stays the same for every
        slot of the segment (``SchedulerBase.pick``). A policy with
        shared state (``shares_state``) must pick once per slot, so
        under it only a lone group fuses. The segment reports the exit
        it took, and the slots up to that exit are accounted at once,
        except the scheduler's: ``issue`` consumes the first slot of a
        policy with shared state, and the caller consumes the rest at
        their own slots. The issued bucket moves to the exit's PC; a
        split exit (a ``cbr`` whose lanes disagree, the segment's last
        slot) moves its taken and fallen lanes as the ``cbr`` reported
        them in ``executor.moved``, as an unfused ``cbr`` does.

        Everything else — including an exit that ran no slot — issues
        one decoded instruction in the same call, with the pick already
        made when the policy is stateless, so the fused schedule is
        pick-for-pick identical to the slow one. The slot attributes
        itself (``sched.*``), picks, pops the group, runs the decoded
        entry, retires and records the issue (``Profiler.record``,
        inlined for a PC already seen), and moves the group by the
        entry's move report (:class:`~repro.simt.fastpath.
        DecodedInstruction`): the whole bucket to a static PC, the
        buckets the handler reported in ``executor.moved``, or, for
        ``call``, ``ret``, ``exit`` and interpreted entries, thread by
        thread (``Warp.rebucket``). Each bucket merges into a resident
        one in lane order. Then it drains the barriers the op handed
        over in ``executor.touched`` (:func:`_drain`).

        After every issue no barrier of the warp is releasable, and
        ``warp.table`` equals ``warp.groups()``. A warp with an empty
        table issues nothing (:meth:`_step`). With the fast path off,
        ``issue`` is the interpreted reference's slot instead: the same
        pick, ``Executor.execute``, a re-bucket and the drain.
        """
        program_order = executor.program_order
        profiler = executor.profiler
        pick = scheduler.pick
        shares_state = scheduler.shares_state
        idle = self._step
        decoded = executor.decoded

        if decoded is None:
            execute = executor.execute

            def issue(warp):
                table = warp.table
                if not table:
                    idle(warp, executor)
                    return 0
                profiler.nonforced_observed += 1
                pc = pick(table, program_order)
                group = table.pop(pc)
                execute(warp, pc, group)
                warp.rebucket(group)
                if executor.touched is not None:
                    _drain(warp, executor)
                return 1

            return issue

        entry_at = decoded.entry
        record = profiler.record
        record_segment = profiler.record_segment
        pc_stats = profiler.pc_stats
        # No segment engine this launch (observers attached, or segments
        # off): no slot can fuse.
        unfusable = executor.segment_at is None
        observing = executor.observing

        def issue(warp):
            table = warp.table
            n_groups = len(table)
            if not n_groups:
                idle(warp, executor)
                return 0
            pc = None
            if segment_at is not None:
                segment = None
                if n_groups == 1:
                    pc = next(iter(table))
                    segment = segment_at(pc)
                elif not shares_state:
                    pc = pick(table, program_order)
                    segment = segment_at(pc)
                    if segment is not None and segment.conflicts(table):
                        segment = None
                if segment is not None:
                    group = table[pc]
                    try:
                        cycles, out = segment.execute(executor, warp, group)
                    except Exception as exc:
                        raise _FusedFailure(
                            *fused_failure(segment, executor, warp, group, exc)
                        ) from None
                    n = out.n
                    if n:
                        if shares_state:
                            scheduler.consume(1)
                        for thread in group:
                            thread.retired += n
                        record_segment(out, len(group), cycles)
                        warp.cycles += cycles
                        # Segment ops cannot park or release, so the
                        # other groups are untouched: the issued bucket
                        # moves to the exit's PC, or, at a split exit,
                        # its taken and fallen lanes to the ending
                        # ``cbr``'s targets, as that ``cbr`` reported.
                        del table[pc]
                        end_pc = out.end_pc
                        if end_pc is None:
                            moved = executor.moved
                            executor.moved = None
                            for target, bucket in moved:
                                insert_bucket(table, target, bucket)
                        else:
                            insert_bucket(table, end_pc, group)
                        return n
            # One decoded instruction.
            if unfusable:
                profiler.nonforced_observed += 1
            elif n_groups > 1 and shares_state:
                # A policy with shared state fuses lone groups only.
                profiler.nonforced_multi_group += 1
            if pc is None or shares_state:
                # Round-robin picks once per slot.
                pc = pick(table, program_order)
            # Out of the table while it issues: a ctasync release inserts
            # the other threads it frees during the issue.
            group = table.pop(pc)
            entry = entry_at(pc)
            cycles = entry.run(executor, warp, group)
            for thread in group:
                thread.retired += 1
            if observing:
                executor.observe_issue(warp, pc, entry.opcode, group, cycles)
            stats = pc_stats.get(pc)
            if stats is None:
                record(pc, entry.opcode, len(group), cycles,
                       entry.is_barrier_op)
            else:
                stats[0] += 1
                stats[1] += len(group)
                stats[2] += cycles
                profiler.derived = None
            warp.cycles += cycles
            move = entry.move
            if move is not None:
                if move in table:
                    insert_bucket(table, move, group)
                else:
                    table[move] = group
            else:
                moved = executor.moved
                if moved is None:
                    warp.rebucket(group)
                else:
                    executor.moved = None
                    for target, bucket in moved:
                        if bucket:
                            insert_bucket(table, target, bucket)
            if executor.touched is not None:
                _drain(warp, executor)
            return 1

        return issue

    # ------------------------------------------------------------------
    def _step(self, warp, executor):
        """The slot of a warp with no runnable group: nothing issues.

        The warp is done when no thread is live. A warp waiting at a
        ``ctasync`` stalls: the barrier may open here (the exit of a
        thread in another warp can shrink its membership), and otherwise
        the warp waits while a sibling warp can still make progress
        toward it. Any other warp is deadlocked: :class:`DeadlockError`.
        """
        for thread in warp.threads:
            if thread.state is not _EXITED:
                break
        else:
            warp.done = True
            return
        cta = executor.cta
        if cta is not None and cta.has_ctasync_waiters(warp):
            # Arrival happens in the ctasync handler; only the release
            # is re-checked here.
            if cta.maybe_release() or cta.others_can_progress(warp):
                return
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


class _FusedFailure(Exception):
    """Raised by an issuer's slot when a fused segment fails: the segment
    ran ``slots`` slots before its failing one, and the reference raises
    ``error`` there (:func:`~repro.simt.jit.fused_failure`). The loops
    account the slots, then raise the error at the failing slot."""

    def __init__(self, slots, error):
        super().__init__(slots, error)
        self.slots = slots
        self.error = error


def _drain(warp, executor):
    """Release what the issue that set ``executor.touched`` (the barriers
    whose masks it changed in a way that can complete a release) made
    releasable, and clear it. ``bssy`` only adds runnable members, and
    ``cbr``/``bra`` touch no barrier, so they never set it. Each ready
    barrier releases once, since no release can make another barrier
    releasable (``Warp.drain``)."""
    touched = executor.touched
    executor.touched = None
    on_release = None
    if executor.observing:
        on_release = (
            lambda barrier, lanes: executor.observe_release(
                warp, barrier, lanes
            )
        )
    warp.drain(touched, on_release)


def check_int(value, what):
    """Raise :class:`LaunchError` unless ``value`` is an int (a bool is
    not a count or an id)."""
    if type(value) is bool or not isinstance(value, int):
        raise LaunchError(f"{what} must be an int, got {value!r}")


def check_launch(module, kernel_name, n_threads, args):
    """The kernel a launch of ``n_threads`` with ``args`` runs, after the
    checks every machine makes first; raises :class:`LaunchError`."""
    kernel = module.function(kernel_name)
    if not kernel.is_kernel:
        raise LaunchError(f"@{kernel_name} is not a kernel")
    check_int(n_threads, "thread count")
    if n_threads <= 0:
        raise LaunchError(f"launch needs at least one thread, got {n_threads}")
    if len(args) != len(kernel.params):
        raise LaunchError(
            f"@{kernel_name} takes {len(kernel.params)} arguments, "
            f"got {len(args)}"
        )
    for arg in args:
        if not isinstance(arg, launch_memo.ARG_TYPES):
            raise LaunchError(
                f"@{kernel_name} arguments must be int, float or bool, "
                f"got {arg!r}"
            )
    return kernel


def budget_error(kernel_name, max_issues):
    """The error of a launch that issued more than ``max_issues`` slots,
    counted across all its warps."""
    return LaunchError(
        f"@{kernel_name} exceeded {max_issues} issue slots; "
        "likely an infinite loop"
    )


def abort_launch(exc, kernel_name, n_threads, profiler, sink, cta_id=None,
                 issued=None):
    """Death rites for a launch that raised mid-kernel, shared by every
    machine: account the failure, attach the post-mortem to the error
    (:func:`~repro.obs.recorder.attach_post_mortem`; ``cta_id`` for a
    grid CTA), and finalize the sink so a file-backed trace keeps the
    events leading up to the failure instead of silently losing them.
    ``issued`` is the slots the machine's schedule issued before the
    failure (default: every slot the profiler recorded)."""
    ENGINE_COUNTERS.launch_errors += 1
    from repro.simt.jit import jit_post_mortem

    # The generated source of the last-executed segment rides on the
    # report, but only when this launch actually ran fused segments.
    jit = jit_post_mortem() if profiler.segment_stats else None
    attach_post_mortem(
        exc, kernel_name, n_threads, -(-n_threads // WARP_SIZE), profiler,
        cta_id, jit, issued,
    )
    if sink is not None:
        try:
            sink.close()
        except Exception:  # pragma: no cover - must not mask the error
            pass


def _budget_event(rounds, max_issues):
    """``(round, position)`` of the issue slot that takes an interleaved
    launch past ``max_issues``, when the warp at position ``p`` issues
    one slot in each round below ``rounds[p]``; None if none does."""
    if sum(rounds) <= max_issues:
        return None
    # Rounds below r hold sum(min(a, r)) slots; bisect for the round that
    # holds slot number max_issues + 1.
    lo, hi = 0, max(rounds)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sum(min(a, mid) for a in rounds) <= max_issues:
            lo = mid
        else:
            hi = mid
    issuing = [position for position, a in enumerate(rounds) if a > lo]
    return lo, issuing[max_issues - sum(min(a, lo) for a in rounds)]


def _slots_before(rounds, round_, position):
    """Slots an interleaved launch issues before the slot at ``(round_,
    position)``, when the warp at position ``p`` issues one slot in each
    round below ``rounds[p]``."""
    return sum(min(a, round_) for a in rounds) + sum(
        1 for a in rounds[:position] if a > round_
    )
