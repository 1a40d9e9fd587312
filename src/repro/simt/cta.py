"""CTA (cooperative thread array) launch context.

One :class:`~repro.simt.machine.GPUMachine.launch` executes exactly one CTA.
A flat ``launch()`` call is the degenerate single-CTA grid — the default
:class:`CTAContext` has ``cta_id == 0``, ``grid_dim == 1`` and zero bases,
so thread ids, warp ids and RNG streams are bit-identical to the pre-grid
engine. :class:`repro.simt.grid.GridLaunch` builds one context per CTA with
global tid/warp bases and schedules them onto simulated SMs.

The context also owns the two pieces of CTA-wide dynamic state:

* the lazily created per-CTA :class:`~repro.simt.memory.SharedMemory`
  scratchpad (``shld`` / ``shst`` / ``shatom``), and
* the CTA-wide barrier (``ctasync``): an arrival set spanning every warp of
  the CTA, distinct from the per-warp Volta convergence barriers — it opens
  only once every *live* thread of the CTA has arrived (exited threads do
  not participate, mirroring the ``warpsync`` live-thread rule).
"""

from __future__ import annotations

import operator

from repro.obs.counters import ENGINE_COUNTERS
from repro.simt.memory import SharedMemory

#: ``Thread.waiting_on`` marker for threads parked at the CTA-wide barrier.
CTASYNC_BARRIER = "__ctasync__"

_by_tid = operator.attrgetter("tid")


class CTAContext:
    """Identity and CTA-wide state of one CTA within a grid launch."""

    __slots__ = (
        "cta_id",
        "grid_dim",
        "cta_dim",
        "tid_base",
        "warp_base",
        "shared_words",
        "classification",
        "warps",
        "arrived",
        "_shared",
    )

    def __init__(
        self,
        cta_id=0,
        grid_dim=1,
        cta_dim=None,
        tid_base=0,
        warp_base=0,
        shared_words=0,
        classification=None,
    ):
        self.cta_id = cta_id
        self.grid_dim = grid_dim
        self.cta_dim = cta_dim
        self.tid_base = tid_base
        self.warp_base = warp_base
        self.shared_words = shared_words
        #: the grid's global-memory proof over its whole tid range
        #: (:func:`repro.analysis.memeffects.classify_launch`), or None for
        #: a flat launch, which classifies its own ``[0, n_threads)``
        self.classification = classification
        #: the CTA's warps, set by ``GPUMachine.launch`` after warp build
        self.warps = []
        #: tid -> thread, for threads parked at the CTA barrier
        self.arrived = {}
        self._shared = None

    # ------------------------------------------------------------------
    # Shared memory
    # ------------------------------------------------------------------
    def shared(self):
        """The CTA's scratchpad, created on first access."""
        if self._shared is None:
            self._shared = SharedMemory(self.shared_words)
            ENGINE_COUNTERS.grid_shared_bytes += 8 * self.shared_words
        return self._shared

    # ------------------------------------------------------------------
    # CTA-wide barrier (ctasync)
    # ------------------------------------------------------------------
    def arrive(self, thread):
        """Park ``thread`` at the CTA barrier and record its arrival."""
        thread.park(CTASYNC_BARRIER)
        self.arrived[thread.tid] = thread

    def live_count(self):
        return sum(
            1 for warp in self.warps for t in warp.threads if not t.is_exited
        )

    def maybe_release(self, arriving=()):
        """Open the barrier iff every live CTA thread has arrived.

        Returns True when threads were released. Threads that exited before
        reaching the barrier shrink the membership (the slot of a warp with
        no runnable group, ``GPUMachine._step``, re-checks this, so a late
        exit in one warp can open the barrier for the others).

        A release crosses warp boundaries, so each released thread joins
        its own warp's group table (``Warp.rebucket``) — except those of
        ``arriving``, the group whose ``ctasync`` issue is under way: the
        machine re-buckets that group after the issue.
        """
        if not self.arrived or len(self.arrived) < self.live_count():
            return False
        threads = sorted(self.arrived.values(), key=_by_tid)
        self.arrived.clear()
        skip = set(map(id, arriving))
        by_warp = {}
        for thread in threads:
            thread.unpark()
            if id(thread) not in skip:
                by_warp.setdefault(thread.warp_id, []).append(thread)
        warps = self.warps
        for warp_id, released in by_warp.items():
            # tid order is lane order within a warp
            warps[warp_id - self.warp_base].rebucket(released)
        return True

    def has_ctasync_waiters(self, warp):
        """True if any live thread of ``warp`` is parked at the barrier."""
        return any(
            t.waiting_on == CTASYNC_BARRIER
            for t in warp.threads
            if not t.is_exited
        )

    def others_can_progress(self, warp):
        """True if another CTA warp can still arrive at (or shrink) the
        barrier: it has a runnable thread. (Between its issues no warp
        holds a releasable SR barrier: each issue drains the barriers it
        made releasable, ``GPUMachine._issuer``.)

        Used by the machine's deadlock check so a warp fully parked at
        ``ctasync`` stalls instead of raising while siblings still run.
        """
        return any(
            other.table for other in self.warps
            if other is not warp and not other.done
        )

    def __repr__(self):
        return (
            f"<CTAContext cta_id={self.cta_id} grid_dim={self.grid_dim} "
            f"cta_dim={self.cta_dim} tid_base={self.tid_base}>"
        )
