"""Baseline post-dominator reconvergence insertion (Section 2 / Figure 1a).

Models what production GPU compilers do: for every divergent conditional
branch, join a convergence barrier at the branch and wait at the branch's
immediate reconvergence point — the nearest common post-dominator of its
successors. Threads therefore reconverge "at the earliest possible point
where all threads are guaranteed to arrive".

This pass is both the baseline we measure Speculative Reconvergence
against and a prerequisite of it (SR deconflicts against these barriers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg_utils import CFGView
from repro.analysis.divergence import DivergenceAnalysis
from repro.analysis.dominators import compute_post_dominators
from repro.core.primitives import BarrierNamer, join_barrier, wait_barrier
from repro.ir.instructions import Opcode

ORIGIN = "pdom"


@dataclass
class PdomSyncReport:
    """What the pass inserted: branch block -> (barrier, reconvergence block)."""

    barriers: dict = field(default_factory=dict)
    skipped_branches: list = field(default_factory=list)

    def describe(self):
        parts = [
            f"{branch}->{barrier}@{join}"
            for branch, (barrier, join) in sorted(self.barriers.items())
        ]
        body = ", ".join(parts) if parts else "no divergent branches"
        if self.skipped_branches:
            body += f" (skipped {len(self.skipped_branches)})"
        return body


def insert_pdom_sync(
    function,
    namer=None,
    divergence=None,
    assume_all_divergent=False,
    callee_summaries=None,
):
    """Insert PDOM reconvergence barriers into ``function`` (in place).

    Args:
        namer: barrier name allocator shared across passes.
        divergence: precomputed :class:`DivergenceAnalysis` of the
            function's current CFG (else computed); its CFG view and
            post-dominator tree are reused.
        assume_all_divergent: barrier every conditional branch regardless of
            the divergence analysis (a stress mode used in tests).
    Returns a :class:`PdomSyncReport`.
    """
    namer = namer or BarrierNamer()
    report = PdomSyncReport()
    if assume_all_divergent:
        view = CFGView.of_function(function)
        pdom = compute_post_dominators(view)
    else:
        if divergence is None:
            divergence = DivergenceAnalysis(
                function, callee_summaries=callee_summaries
            )
        # The analysis describes the function's current CFG and already
        # holds its view and post-dominator tree.
        view, pdom = divergence.view, divergence.pdom

    for block in list(function.blocks):
        term = block.terminator
        if term is None or term.opcode is not Opcode.CBR:
            continue
        if not assume_all_divergent and not divergence.is_divergent_branch(
            block.name
        ):
            report.skipped_branches.append((block.name, "uniform"))
            continue
        join_point = pdom.branch_reconvergence_point(block.name, view)
        if join_point is None:
            # Paths reconverge only at the function exit; hardware drains
            # exiting lanes from every barrier, so no explicit sync helps.
            report.skipped_branches.append((block.name, "no-post-dominator"))
            continue
        if join_point in (name for name in view.succs[block.name]):
            # Both successors *are* the join point or it is immediate on one
            # side: a branch like `cbr p, ^next, ^next` has no divergence.
            if view.succs[block.name][0] == view.succs[block.name][1]:
                report.skipped_branches.append((block.name, "single-target"))
                continue
        barrier = namer.fresh()
        block.insert_before_terminator(join_barrier(barrier, ORIGIN))
        function.block(join_point).prepend(wait_barrier(barrier, ORIGIN))
        report.barriers[block.name] = (barrier, join_point)
    return report
