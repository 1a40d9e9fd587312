"""Warp schedulers.

The default :class:`ConvergenceScheduler` models Volta's convergence
optimizer: among the groups of runnable threads that share a PC, it issues
the largest group, "grouping together threads that execute the same code in
parallel for maximum convergence" (Section 2). Ties break deterministically
by program order, so simulations are reproducible.

:class:`RoundRobinScheduler` and :class:`OldestFirstScheduler` are
alternative policies used by the simulator tests and the scheduling
ablation (``tests/test_paper_claims.py``) — the correctness property
(per-thread results are schedule-invariant) is verified across all of
them.
"""

from __future__ import annotations

from repro.errors import ConfigError


class SchedulerBase:
    """Picks which PC-group a warp issues next."""

    name = "base"

    #: True when the policy keeps state that one warp's picks change and
    #: another warp's picks read. One scheduler instance serves a whole
    #: launch, so such a policy couples the warps' issue orders and
    #: ``GPUMachine`` must interleave them as the reference does. Its
    #: ``pick`` also runs exactly once per issued slot, so segment fusion
    #: takes only a lone group (whose pick is the same whatever the
    #: state) and accounts the slots with ``consume``. Inside the
    #: interleave, a warp that runs such a segment ahead consumes one
    #: slot per round at its own position, so every other warp's pick
    #: reads the state the reference schedule gives it.
    shares_state = False

    def pick(self, groups, program_order):
        """Return the chosen PC key.

        ``groups`` maps pc -> list of threads; ``program_order`` maps pc to a
        sortable program-position tuple.

        Without shared state, the machine fuses the whole segment that
        starts at the pick (``GPUMachine._run_exclusive``). That is sound
        for every stateless policy here: each reads only group sizes and
        program order and, among groups its size rule cannot separate,
        takes the oldest. A segment's ops change no group's size and move
        only the picked group, forward through its block past no other
        group (an agreeing ``cbr`` leaves the block, but only as the
        segment's last slot), so it stays the pick for every slot of the
        segment. The pick reads only the picking warp's groups, so this
        holds inside an interleave too, where the machine runs the
        segment ahead of the other warps' slots.
        """
        raise NotImplementedError

    def consume(self, n):
        """Account for ``n`` issue slots granted without calling ``pick``
        (a fused segment's slots, consumed one at a time at their own
        positions when other warps interleave). Stateless policies ignore
        this; stateful ones (round-robin) advance their internal position
        as if ``pick`` had run ``n`` times.
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
        # The rotation is ``sorted(groups, key=program_order)[counter %
        # len(groups)]``; the first and last positions (every pick of a
        # table of at most two groups) need no sort.
        n = len(groups)
        position = self._counter % n
        self._counter += 1
        if n == 1:
            return next(iter(groups))
        if position == 0:
            return min(groups, key=program_order)
        if position == n - 1:
            return max(groups, key=program_order)
        return sorted(groups, key=program_order)[position]

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
        raise ConfigError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
