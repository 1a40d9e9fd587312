"""Batched multi-warp segment execution (lockstep epochs).

``GPUMachine.launch`` interleaves live warps round-robin one issue slot
at a time so cross-warp atomics are deterministic. That loop is the last
place the per-slot machine overhead survives after PR 4: the segment
engine only engaged once a single warp remained. This module extends it
to the multi-warp phase without changing a single observable value.

The unit of batched progress is the **lockstep epoch**. One epoch:

1. Every live warp must offer a *forced* pick (counter-independent, see
   ``SchedulerBase.forced_pick``) at the head of a fusable segment with
   no other group inside the segment's run — otherwise the machine falls
   back to one ordinary per-slot round.
2. ``L`` is the minimum segment length over the live warps; every warp
   executes exactly ``L`` slots (longer segments are cut by
   ``DecodedProgram.segment_bounded``). Equal lengths keep every warp's
   issued-slot count aligned with the serial schedule at all times, so
   deadlock/issue-budget errors surface at the identical slot, and the
   shared round-robin counter is advanced by ``consume(L)`` per warp
   exactly as ``L`` singleton picks would have.
3. Segments cannot park, exit, diverge, call, or release barriers
   (``FUSABLE_OPS``), so the only cross-warp channel inside an epoch is
   global memory. When the launch-time classification
   (:func:`repro.analysis.memeffects.classify_launch`) proves the
   kernel's footprints **disjoint**, warps simply run their segments
   back-to-back. When it is **guarded**, each memory-touching burst runs
   optimistically against a :class:`~repro.simt.memory.FootprintMemory`
   and the epoch is rolled back — memory undone, thread state restored
   from checkpoints — if any burst's footprint overlaps an earlier
   burst's (or overflows the footprint cap). Rolled-back warps replay
   their ``L`` slots through the ordinary per-slot ``_step``, preserving
   the reference interleaving bit-for-bit; register-pure bursts commit
   either way since they cannot interact.

Why commit-time accounting: retirement counts, profiler records, warp
cycles, scheduler consumption, and the groups-cache patch all happen
only after a burst is known conflict-free, so a rollback needs to
restore nothing but thread state (registers, RNG, frame position, store
trace length) and memory.

``REPRO_WARP_BATCH=0`` (or ``engine_config(warp_batch=False)``,
:mod:`repro.engine`) disables the layer and restores the exact serial
path; observability sinks, metrics, traces, and disabled
fastpath/segments disable it implicitly because no fused segments exist
then. Repeated conflicts
(``_MAX_CONFLICT_STREAK`` epochs in a row) switch the batcher off for
the rest of the launch — correctness never depends on the guess.
"""

from __future__ import annotations

from repro.analysis.memeffects import classify_launch
from repro.obs.counters import ENGINE_COUNTERS
from repro.obs.recorder import dump_post_mortem
from repro.simt.memory import FootprintMemory, FootprintOverflow
from repro.simt.warp import WARP_SIZE

__all__ = [
    "WarpBatcher",
    "make_batcher",
]

#: Consecutive conflicted epochs before the batcher gives up on a launch.
_MAX_CONFLICT_STREAK = 8

#: Footprint cap per guarded epoch (addresses); overflow means rollback.
_FOOTPRINT_LIMIT = 4096


def make_batcher(machine, executor, scheduler, kernel_name, args, n_threads):
    """A :class:`WarpBatcher` for this launch, or None when batching
    cannot engage (``warp_batch`` off, no fused segments available,
    single warp)."""
    if not executor.engine.warp_batch or n_threads <= WARP_SIZE:
        return None
    if executor.segment_at is None:
        # Observability sink, metrics, issue trace, fastpath off, or
        # segments off: no fused segments exist, nothing to batch.
        return None
    classification = classify_launch(
        machine.module, kernel_name, tuple(args), n_threads
    )
    guarded = classification != "disjoint"
    if guarded:
        ENGINE_COUNTERS.batch_guarded_launches += 1
    else:
        ENGINE_COUNTERS.batch_disjoint_launches += 1
    recorder = machine._recorder
    if recorder is not None:
        recorder.record("batch-classify", {"classification": classification})
    return WarpBatcher(machine, executor, scheduler, guarded=guarded)


class WarpBatcher:
    """Advances all live warps one lockstep epoch at a time."""

    __slots__ = (
        "machine", "executor", "scheduler", "profiler", "guarded",
        "enabled", "_streak", "_segment_bounded",
    )

    def __init__(self, machine, executor, scheduler, guarded):
        self.machine = machine
        self.executor = executor
        self.scheduler = scheduler
        self.profiler = executor.profiler
        self.guarded = guarded
        self.enabled = True
        self._streak = 0
        self._segment_bounded = executor._decoded.segment_bounded

    # ------------------------------------------------------------------
    def try_epoch(self, live_warps, issues):
        """Run one lockstep epoch across ``live_warps``.

        Returns the updated issue count, or None when the epoch cannot
        engage — the caller then runs one ordinary per-slot round, after
        which conditions may hold again.
        """
        if not self.enabled:
            return None
        executor = self.executor
        scheduler = self.scheduler
        segment_at = executor.segment_at
        program_order = executor.program_order

        plan = []
        length = None
        for warp in live_warps:
            groups = warp.groups_cache
            if groups is None:
                groups = warp.groups()
                warp.groups_cache = groups
            if not groups:
                return None  # needs drain/done/deadlock handling
            pc = scheduler.forced_pick(groups, program_order)
            if pc is None:
                return None
            segment = segment_at(pc)
            if segment is None:
                return None
            if len(groups) > 1 and segment.conflicts(groups):
                return None
            plan.append((warp, groups, pc, segment))
            if length is None or segment.n < length:
                length = segment.n

        total = length * len(plan)
        if issues + total > self.machine.max_issues:
            # Let the per-slot loop raise LaunchError at the exact slot
            # the serial schedule would have.
            return None

        for i, (warp, groups, pc, segment) in enumerate(plan):
            if segment.n > length:
                # Conflict-freedom was proven over the maximal run, so
                # the bounded prefix cannot merge with resident groups.
                plan[i] = (warp, groups, pc,
                           self._segment_bounded(pc, length))

        if self.guarded:
            committed = self._guarded_epoch(plan, length)
        else:
            for warp, groups, pc, segment in plan:
                group = groups[pc]
                cycles = segment.execute(executor, warp, group)
                self._commit(warp, groups, pc, segment, cycles, group)
            committed = True

        profiler = self.profiler
        profiler.batch_epochs += 1
        recorder = self.machine._recorder
        if committed:
            self._streak = 0
            if recorder is not None and recorder.verbose:
                recorder.record(
                    "epoch-commit",
                    {"warps": len(plan), "slots": length},
                )
        else:
            profiler.batch_rollbacks += 1
            self._streak += 1
            if recorder is not None:
                recorder.record(
                    "epoch-rollback",
                    {"warps": len(plan), "slots": length,
                     "streak": self._streak},
                )
            if self._streak >= _MAX_CONFLICT_STREAK:
                # Persistent sharing: stop guessing for this launch.
                self.enabled = False
                ENGINE_COUNTERS.batch_guard_disables += 1
                if recorder is not None:
                    recorder.record(
                        "guard-disable", {"streak": self._streak}
                    )
                    dump_post_mortem(recorder, "guard-disable")
        return issues + total

    # ------------------------------------------------------------------
    def _guarded_epoch(self, plan, length):
        """Optimistic epoch under the write-set guard. Returns True when
        every burst committed, False when the epoch conflicted and the
        memory-touching warps were replayed per-slot instead."""
        executor = self.executor

        # Register-pure bursts touch only thread-private state, so they
        # commit unconditionally, in any order, conflict or not.
        memory_plan = []
        for warp, groups, pc, segment in plan:
            if segment.touches_memory:
                memory_plan.append((warp, groups, pc, segment))
            else:
                group = groups[pc]
                cycles = segment.execute(executor, warp, group)
                self._commit(warp, groups, pc, segment, cycles, group)
        if not memory_plan:
            return True

        guard = FootprintMemory(executor.memory, limit=_FOOTPRINT_LIMIT)
        real = executor.memory
        acc_reads = set()
        acc_writes = set()
        done = []
        restore = []
        conflict = False
        for warp, groups, pc, segment in memory_plan:
            group = groups[pc]
            saved = _checkpoint(group)
            restore.append((group, saved))
            executor.memory = guard
            try:
                cycles = segment.execute(executor, warp, group)
                overflow = False
            except FootprintOverflow:
                overflow = True
            finally:
                executor.memory = real
            reads, writes = guard.take()
            if (
                overflow
                or not writes.isdisjoint(acc_writes)
                or not writes.isdisjoint(acc_reads)
                or not reads.isdisjoint(acc_writes)
            ):
                conflict = True
                break
            acc_reads |= reads
            acc_writes |= writes
            done.append((warp, groups, pc, segment, cycles, group))

        profiler = self.profiler
        if guard.peak > profiler.batch_peak_footprint:
            profiler.batch_peak_footprint = guard.peak

        if not conflict:
            guard.commit()
            for warp, groups, pc, segment, cycles, group in done:
                self._commit(warp, groups, pc, segment, cycles, group)
            return True

        # Roll back every optimistic burst: memory first (newest write
        # undone first), then thread state. Nothing was committed for
        # these warps, so accounting needs no repair.
        guard.rollback()
        for group, saved in restore:
            _restore(group, saved)

        # Replay the memory-touching warps per-slot in rotation order —
        # the exact reference interleaving among the warps that can
        # interact. Every pick inside the bursts is forced (plan checked
        # that over the maximal runs), so _step retraces them verbatim.
        machine = self.machine
        scheduler = self.scheduler
        for _round in range(length):
            for warp, _groups, _pc, _segment in memory_plan:
                machine._step(warp, executor, scheduler)
        profiler.batch_replayed_slots += length * len(memory_plan)
        return False

    # ------------------------------------------------------------------
    def _commit(self, warp, groups, pc, segment, cycles, group):
        """Post-burst accounting, mirroring ``GPUMachine._run_exclusive``:
        retire, profile, charge cycles, consume scheduler slots, and
        patch the issued bucket over to ``end_pc``."""
        n = segment.n
        self.scheduler.consume(n)
        for thread in group:
            thread.retired += n
        self.profiler.record_segment(warp.warp_id, pc, segment, len(group),
                                     cycles)
        warp.cycles += cycles
        del groups[pc]
        end_pc = segment.end_pc
        resident = groups.get(end_pc)
        if resident is None:
            groups[end_pc] = group
        else:
            resident.extend(group)
            resident.sort(key=lambda thread: thread.lane)
        warp.groups_cache = groups


def _checkpoint(group):
    """Thread state a rolled-back burst must restore: frame position,
    registers, RNG stream, and store-trace length. Fusable ops cannot
    push/pop frames, park, or exit, so nothing else can change."""
    saved = []
    for thread in group:
        frame = thread.frames[-1]
        saved.append((
            frame.block_name,
            frame.index,
            frame.regs[:],
            thread.rng.state,
            len(thread.store_trace),
        ))
    return saved


def _restore(group, saved):
    for thread, (block_name, index, regs, rng_state, trace_len) in zip(
        group, saved
    ):
        frame = thread.frames[-1]
        frame.block_name = block_name
        frame.index = index
        frame.regs[:] = regs
        thread.rng.state = rng_state
        del thread.store_trace[trace_len:]
