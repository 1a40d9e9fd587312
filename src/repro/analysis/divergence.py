"""Thread-divergence analysis.

Determines which registers may hold thread-varying values and which branches
are therefore *divergent* (Section 2). Sources of divergence:

* thread identity (``tid``, ``lane``) and per-thread randomness (``rand``),
* atomics (``atomadd`` returns a distinct value per thread),
* loads through divergent addresses,
* values computed from divergent operands,
* *sync dependence*: registers (re)defined under divergent control — inside
  the influence region between a divergent branch and its immediate
  post-dominator — merge differently per thread at join points.

The analysis runs to a fixpoint because sync dependence can make more
branches divergent, which widens influence regions.

This powers the baseline PDOM synchronization pass (which barriers divergent
branches) and the automatic-detection heuristics of Section 4.5.
"""

from __future__ import annotations

from repro.analysis.cfg_utils import CFGView
from repro.analysis.dominators import compute_post_dominators
from repro.ir.instructions import DIVERGENT_SOURCES, FuncRef, Opcode, Reg


def influence_region(view, pdom, branch_block):
    """Blocks divergently executed due to a branch in ``branch_block``.

    These are the blocks on paths from the branch's successors to (but
    excluding) the branch's immediate reconvergence point — nodes both
    reachable from a successor and able to reach the reconvergence point
    (or a function exit, for paths that leave early).
    """
    succs = view.succs[branch_block]
    if len(succs) < 2:
        return set()
    join = pdom.nearest_common_post_dominator(succs)
    region = set()
    for succ in succs:
        if succ == join:
            continue
        # Nodes reachable from the successor without passing through the
        # reconvergence point: DFS that never enters ``join``.
        seen = {succ}
        frontier = [succ]
        while frontier:
            node = frontier.pop()
            for nxt in view.succs[node]:
                if nxt != join and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        region |= seen
    region.discard(branch_block)
    return region


class DivergenceAnalysis:
    """Per-function divergence facts.

    Attributes:
        divergent_regs: set of :class:`Reg` that may be thread-varying.
        divergent_branches: set of block names whose terminator is a
            divergent conditional branch.
        view, pdom: the function's CFG view and post-dominator tree
            (both keyed by block name).

    The result keeps no reference to the function it was computed on,
    only registers and block names, so it describes every clone of that
    function equally (:class:`~repro.core.passmgr.AnalysisManager` shares
    it between the compiles of one input module).
    """

    def __init__(self, function, callee_summaries=None):
        self.callee_summaries = callee_summaries or {}
        self.view = CFGView.of_function(function)
        self.pdom = compute_post_dominators(self.view)
        self.divergent_regs = set()
        self.divergent_branches = set()
        # Kernel parameters are uniform launch arguments; device-function
        # parameters are conservatively thread-varying (call sites may pass
        # divergent values).
        if not function.is_kernel:
            self.divergent_regs.update(function.params)
        self._solve(function)
        self._returns_divergent = False
        for block in function.blocks:
            term = block.terminator
            if term is not None and term.opcode is Opcode.RET and term.operands:
                value = term.operands[0]
                if isinstance(value, Reg) and value in self.divergent_regs:
                    self._returns_divergent = True

    # ------------------------------------------------------------------
    def _result_inputs(self, instr):
        """What makes ``instr``'s result divergent: True when it always is,
        else the registers any one of which, if divergent, makes it so.
        Callee summaries are fixed for the analysis, so this never
        changes while the fixpoint runs."""
        opcode = instr.opcode
        if opcode in DIVERGENT_SOURCES:
            return True
        if opcode is Opcode.LD:
            addr = instr.operands[0]
            return (addr,) if isinstance(addr, Reg) else ()
        operands = instr.operands
        if opcode is Opcode.CALL:
            callee = operands[0]
            summary = self.callee_summaries.get(
                callee.name if isinstance(callee, FuncRef) else None
            )
            if summary is None:
                return True  # unknown callee: conservative
            if summary.get("returns_divergent", True):
                return True
            operands = operands[1:]
        return tuple(op for op in operands if isinstance(op, Reg))

    def _solve(self, function):
        # Kernel parameters are uniform (launch arguments); device-function
        # parameters take the assumed divergence passed in via summaries.
        # The CFG does not change while the fixpoint runs, so each
        # definition's inputs and each branch's influence region are
        # computed once.
        divergent = self.divergent_regs
        defs = [
            (instr.dst, self._result_inputs(instr))
            for block in function.blocks
            for instr in block.instructions
            if instr.dst is not None
        ]
        branches = []
        for block in function.blocks:
            term = block.terminator
            if term is not None and term.opcode is Opcode.CBR:
                branches.append((block.name, term.operands[0]))
        regions = {}
        changed = True
        while changed:
            changed = False
            # 1. Value propagation.
            for dst, inputs in defs:
                if dst in divergent:
                    continue
                if inputs is True or not divergent.isdisjoint(inputs):
                    divergent.add(dst)
                    changed = True
            # 2. Divergent branches.
            for name, pred in branches:
                if (
                    isinstance(pred, Reg)
                    and pred in divergent
                    and name not in self.divergent_branches
                ):
                    self.divergent_branches.add(name)
                    changed = True
            # 3. Sync dependence: defs inside divergent influence regions.
            for branch_block in list(self.divergent_branches):
                region = regions.get(branch_block)
                if region is None:
                    region = influence_region(self.view, self.pdom, branch_block)
                    regions[branch_block] = region
                for name in region:
                    for instr in function.block(name):
                        if (
                            instr.dst is not None
                            and instr.dst not in divergent
                        ):
                            divergent.add(instr.dst)
                            changed = True

    # ------------------------------------------------------------------
    def is_divergent(self, reg):
        return reg in self.divergent_regs

    def is_divergent_branch(self, block_name):
        return block_name in self.divergent_branches

    def summary(self):
        """Callee summary used by callers' analyses."""
        return {"returns_divergent": self._returns_divergent}


def analyze_module_divergence(module):
    """Divergence analyses for all functions, resolving callee summaries.

    Functions are analyzed callees-first (reverse topological over the call
    graph); recursion falls back to conservative summaries.
    """
    from repro.analysis.callgraph import call_graph, reverse_topological

    graph = call_graph(module)
    summaries = {}
    analyses = {}
    for name in reverse_topological(graph):
        function = module.function(name)
        analysis = DivergenceAnalysis(function, callee_summaries=summaries)
        analyses[name] = analysis
        summaries[name] = analysis.summary()
    return analyses
