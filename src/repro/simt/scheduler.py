"""Warp schedulers.

The default :class:`ConvergenceScheduler` models Volta's convergence
optimizer: among the groups of runnable threads that share a PC, it issues
the largest group, "grouping together threads that execute the same code in
parallel for maximum convergence" (Section 2). Ties break deterministically
by program order, so simulations are reproducible.

:class:`RoundRobinScheduler` and :class:`OldestFirstScheduler` are
alternative policies used by the simulator tests and the scheduling
ablation bench — the correctness property (per-thread results are
schedule-invariant) is verified across all of them.
"""

from __future__ import annotations


class SchedulerBase:
    """Picks which PC-group a warp issues next."""

    name = "base"

    #: True when the policy keeps state that one warp's picks change and
    #: another warp's picks read. One scheduler instance serves a whole
    #: launch, so such a policy couples the warps' issue orders and
    #: ``GPUMachine`` must interleave them as the reference does.
    shares_state = False

    def pick(self, groups, program_order):
        """Return the chosen PC key.

        ``groups`` maps pc -> list of threads; ``program_order`` maps pc to a
        sortable program-position tuple.
        """
        raise NotImplementedError

    def forced_pick(self, groups, program_order):
        """The PC this policy is *guaranteed* to pick for the next issue —
        and to keep picking while that group advances through a fusable
        segment — or None when the pick depends on state a fused run would
        change.

        The base answer is conservative: only a single group is forced
        (there is nothing else to pick, and that stays true while the group
        advances, since fusable ops cannot split it or wake other lanes).
        Policies whose key cannot flip mid-segment may widen this. Used by
        the segment-fusion engine (:mod:`repro.simt.segments`); must err on
        the side of None — a wrong non-None answer changes issue order.
        """
        if len(groups) == 1:
            return next(iter(groups))
        return None

    def consume(self, n):
        """Account for ``n`` issue slots granted without calling ``pick``
        (a fused segment). Stateless policies ignore this; stateful ones
        (round-robin) advance their internal position as if ``pick`` had
        run ``n`` times.
        """


class ConvergenceScheduler(SchedulerBase):
    """Largest group first; ties broken by program order."""

    name = "convergence"

    def pick(self, groups, program_order):
        if len(groups) == 1:
            # Fully converged warp (the common case): min of a singleton.
            return next(iter(groups))
        # One pass, reading program order only on a size tie. Program
        # order is injective over PCs, so the lane tiebreak never decides.
        best = None
        best_len = 0
        for pc, threads in groups.items():
            size = len(threads)
            if size > best_len or (
                size == best_len and program_order(pc) < program_order(best)
            ):
                best = pc
                best_len = size
        return best

    def forced_pick(self, groups, program_order):
        # A *strictly* largest group wins regardless of program order or
        # lane, and fusable ops can change neither its size nor any other
        # group's, so the pick stays forced for a whole segment. A size tie
        # is not forced: the tiebreak reads program_order(pc), which moves
        # as the fused group advances.
        if len(groups) == 1:
            return next(iter(groups))
        best = None
        best_len = -1
        tie = False
        for pc, threads in groups.items():
            size = len(threads)
            if size > best_len:
                best = pc
                best_len = size
                tie = False
            elif size == best_len:
                tie = True
        return None if tie else best


class OldestFirstScheduler(SchedulerBase):
    """Earliest program position first (depth-first serialization)."""

    name = "oldest-first"

    def pick(self, groups, program_order):
        if len(groups) == 1:
            return next(iter(groups))
        # Program order is injective over PCs, so it never ties.
        return min(groups, key=program_order)


class RoundRobinScheduler(SchedulerBase):
    """Rotates across groups; exists to stress schedule-invariance tests."""

    name = "round-robin"

    #: The rotation counter advances on every warp's picks.
    shares_state = True

    def __init__(self):
        self._counter = 0

    def pick(self, groups, program_order):
        ordered = sorted(groups, key=program_order)
        choice = ordered[self._counter % len(ordered)]
        self._counter += 1
        return choice

    def forced_pick(self, groups, program_order):
        # Only a singleton is forced (the base answer), but even then the
        # counter must advance per slot — see consume().
        if len(groups) == 1:
            return next(iter(groups))
        return None

    def consume(self, n):
        # pick() on a singleton group would have incremented the counter
        # once per issue; a fused run of n slots must advance it by n so
        # the rotation phase matches the per-instruction schedule.
        self._counter += n


SCHEDULERS = {
    cls.name: cls
    for cls in (ConvergenceScheduler, OldestFirstScheduler, RoundRobinScheduler)
}


def make_scheduler(name="convergence"):
    try:
        return SCHEDULERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
