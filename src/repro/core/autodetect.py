"""Automatic detection of reconvergence points (Section 4.5).

Looks for the two CFG patterns of Section 3 inside each function:

* **Loop Merge** — an inner loop whose trip count is divergent (a divergent
  exit branch), nested inside an outer loop; the predicted reconvergence
  point is the inner-loop body.
* **Iteration Delay** — a divergent branch inside a loop whose expensive
  side is worth collecting threads for; the predicted point is that side.

Profitability follows the paper's three metrics:

1. *weighted instruction cost*: instruction latencies weighted by assumed
   (or profiled) trip counts and nest depth — common-code cost must
   sufficiently exceed the prolog/epilog cost that will become divergent;
2. *memory access patterns*: uniform-address loads/stores in the
   prolog/epilog are penalized, since the transform makes them divergent;
3. *synchronization requirements*: regions containing ``warpsync`` are
   rejected outright (CUDA 9.0 semantics make implicit convergence
   assumptions illegal, but re-timing explicit sync is still unsafe).

With a profiler from a baseline run, static weights are replaced by
measured per-block cycles and candidates are kept only where measured SIMT
efficiency is actually poor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.divergence import DivergenceAnalysis
from repro.analysis.loops import compute_loops
from repro.ir.instructions import Imm, Instruction, Opcode, Reg
from repro.simt.costs import DEFAULT_COST_MODEL

KIND_LOOP_MERGE = "loop-merge"
KIND_ITERATION_DELAY = "iteration-delay"


@dataclass
class Candidate:
    """One detected Speculative Reconvergence opportunity."""

    function: str
    kind: str
    start_block: str       # where the Predict directive goes
    label_block: str       # predicted reconvergence point
    score: float           # common-cost / serialized-cost ratio
    common_cost: float
    serialized_cost: float
    memory_penalty: float = 0.0
    rejected: str = None   # reason, if filtered out

    @property
    def accepted(self):
        return self.rejected is None

    def describe(self):
        status = "ok" if self.accepted else f"rejected({self.rejected})"
        return (
            f"@{self.function} {self.kind}: predict ^{self.label_block} "
            f"from ^{self.start_block}, score={self.score:.2f} [{status}]"
        )


def _block_cost(block, cost_model):
    cost = 0.0
    for instr in block:
        if instr.opcode is Opcode.DELAY and instr.operands:
            cost += float(instr.operands[0].value)
        else:
            cost += cost_model.latency(instr.opcode)
    return cost


def _uniform_memory_ops(block, divergence):
    """Loads/stores through warp-uniform addresses (coalesced today)."""
    count = 0
    for instr in block:
        if instr.opcode in (Opcode.LD, Opcode.ST) and instr.operands:
            addr = instr.operands[0]
            if isinstance(addr, Imm) or (
                isinstance(addr, Reg) and not divergence.is_divergent(addr)
            ):
                count += 1
    return count


def _contains_warpsync(function, block_names):
    for name in block_names:
        for instr in function.block(name):
            if instr.opcode is Opcode.WARPSYNC:
                return True
    return False


def _preheader(view, loop, entry_name):
    """The unique out-of-loop predecessor of the loop header, else entry."""
    outside = [p for p in view.preds[loop.header] if p not in loop.body]
    if len(outside) == 1:
        return outside[0]
    return entry_name


class CostEstimator:
    """Static or profile-guided block cost and activity estimates."""

    def __init__(self, function, cost_model=None, profiler=None, trip=8):
        self.function = function
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.profiler = profiler
        self.trip = trip

    def region_cost(self, block_names, nest):
        """Aggregate cost of a block set.

        With a profiler: measured cycles. Statically: latency sums weighted
        by ``trip ** depth`` where depth comes from ``nest``.
        """
        total = 0.0
        for name in block_names:
            if self.profiler is not None:
                profile = self.profiler.block_profile(self.function.name, name)
                total += profile.cycles
            else:
                depth = nest.loop_depth(name)
                weight = float(self.trip) ** max(depth - 1, 0)
                total += _block_cost(self.function.block(name), self.cost_model) * weight
        return total

    def region_efficiency(self, block_names):
        """Measured SIMT efficiency of a region (1.0 without a profile)."""
        if self.profiler is None:
            return 0.0  # unknown; treat as poor so static mode can proceed
        keys = [(self.function.name, name) for name in block_names]
        return self.profiler.region_efficiency(keys)


def detect_candidates(
    function,
    cost_model=None,
    profiler=None,
    divergence=None,
    min_score=1.5,
    trip=8,
    memory_penalty=16.0,
    efficiency_cutoff=0.8,
):
    """Find and score SR candidates in one function.

    ``divergence``, when given, must describe the function's current CFG:
    its CFG view and post-dominator tree are reused.
    """
    divergence = divergence or DivergenceAnalysis(function)
    view = divergence.view
    nest = compute_loops(view)
    estimator = CostEstimator(
        function, cost_model=cost_model, profiler=profiler, trip=trip
    )
    entry_name = function.entry.name
    candidates = []

    # ------------------------------------------------------- Loop Merge
    for loop in nest:
        if loop.parent is None:
            continue
        exit_branches = [
            src
            for src, _ in loop.exit_edges(view)
            if divergence.is_divergent_branch(src)
        ]
        if not exit_branches:
            continue
        branch = exit_branches[0]
        in_loop_succs = [s for s in view.succs[branch] if s in loop.body]
        if not in_loop_succs:
            continue
        label_block = in_loop_succs[0]
        outer = loop.parent
        common = set(loop.body)
        serialized = outer.body - loop.body
        candidate = _score(
            function,
            KIND_LOOP_MERGE,
            start_block=_preheader(view, outer, entry_name),
            label_block=label_block,
            common=common,
            serialized=serialized,
            estimator=estimator,
            divergence=divergence,
            nest=nest,
            min_score=min_score,
            memory_penalty=memory_penalty,
            efficiency_cutoff=efficiency_cutoff,
        )
        candidates.append(candidate)

    # -------------------------------------------------- Iteration Delay
    for branch_name in sorted(divergence.divergent_branches):
        loop = nest.innermost_containing(branch_name)
        if loop is None:
            continue
        succs = view.succs[branch_name]
        if len(succs) != 2 or any(s not in loop.body for s in succs):
            continue  # loop-exit branches belong to Loop Merge
        join = divergence.pdom.nearest_common_post_dominator(succs)
        side_costs = []
        for succ in succs:
            region = _side_region(view, branch_name, succ, loop, join=join)
            side_costs.append((estimator.region_cost(region, nest), succ, region))
        side_costs.sort(reverse=True, key=lambda item: item[0])
        (hi_cost, hi_block, hi_region), (lo_cost, lo_block, lo_region) = side_costs
        if hi_block == lo_block or not hi_region:
            continue
        if lo_cost * 3.0 > hi_cost:
            # Balanced if/else: the paths are *disjoint* work, not common
            # code arriving at different times — the first category of
            # Section 3, which SR cannot exploit.
            candidates.append(
                Candidate(
                    function=function.name,
                    kind=KIND_ITERATION_DELAY,
                    start_block=_preheader(view, loop, entry_name),
                    label_block=hi_block,
                    score=0.0,
                    common_cost=hi_cost,
                    serialized_cost=lo_cost,
                    rejected="balanced-paths",
                )
            )
            continue
        serialized = loop.body - hi_region - {branch_name}
        candidate = _score(
            function,
            KIND_ITERATION_DELAY,
            start_block=_preheader(view, loop, entry_name),
            label_block=hi_block,
            common=hi_region,
            serialized=serialized,
            estimator=estimator,
            divergence=divergence,
            nest=nest,
            min_score=min_score,
            memory_penalty=memory_penalty,
            efficiency_cutoff=efficiency_cutoff,
        )
        candidates.append(candidate)

    candidates.sort(key=lambda c: -c.score)
    return candidates


def _side_region(view, branch, succ, loop, join=None):
    """Blocks executed on one side of a branch, inside the loop, before
    rejoining the other side's territory.

    The branch's reconvergence point (``join``) is not a "side": an
    if-without-else has an empty else side, not the whole continuation.
    """
    if succ == join:
        return set()
    other = [s for s in view.succs[branch] if s != succ]
    blocked = set(other) | {branch}
    seen = set()
    frontier = [succ]
    while frontier:
        node = frontier.pop()
        if node in seen or node in blocked or node not in loop.body:
            continue
        seen.add(node)
        for nxt in view.succs[node]:
            frontier.append(nxt)
    # Remove blocks also reachable from the other side (shared join code).
    other_seen = set()
    frontier = list(other)
    while frontier:
        node = frontier.pop()
        if node in other_seen or node == branch or node not in loop.body:
            continue
        if node == succ:
            continue
        other_seen.add(node)
        for nxt in view.succs[node]:
            frontier.append(nxt)
    return seen - other_seen


def _score(
    function,
    kind,
    start_block,
    label_block,
    common,
    serialized,
    estimator,
    divergence,
    nest,
    min_score,
    memory_penalty,
    efficiency_cutoff,
):
    common_cost = estimator.region_cost(sorted(common), nest)
    serialized_cost = estimator.region_cost(sorted(serialized), nest)
    penalty = 0.0
    for name in sorted(serialized):
        penalty += memory_penalty * _uniform_memory_ops(
            function.block(name), divergence
        )
    denominator = serialized_cost + penalty + 1.0
    score = common_cost / denominator
    candidate = Candidate(
        function=function.name,
        kind=kind,
        start_block=start_block,
        label_block=label_block,
        score=score,
        common_cost=common_cost,
        serialized_cost=serialized_cost,
        memory_penalty=penalty,
    )
    if _contains_warpsync(function, sorted(common | serialized)):
        candidate.rejected = "warpsync"
    elif score < min_score:
        candidate.rejected = "unprofitable"
    elif estimator.profiler is not None:
        efficiency = estimator.region_efficiency(sorted(common))
        if efficiency > efficiency_cutoff:
            candidate.rejected = "already-efficient"
    return candidate


def annotate(function, candidate, name_hint=None, threshold=None):
    """Materialize an accepted candidate as a label + Predict directive."""
    label = name_hint or f"auto.{candidate.label_block}"
    target = function.block(candidate.label_block)
    target.attrs["label"] = label
    start = function.block(candidate.start_block)
    attrs = {"label": label, "origin": "auto"}
    if threshold is not None:
        attrs["threshold"] = int(threshold)
    start.insert_before_terminator(Instruction(Opcode.PREDICT, attrs=attrs))
    return label


def _has_call(function):
    return any(
        instr.opcode is Opcode.CALL
        for block in function.blocks
        for instr in block.instructions
    )


def detect_and_annotate(module, max_per_function=1, auto_threshold=16,
                        module_divergence=None, **options):
    """Run detection on every function; annotate the best candidates.

    Overlapping candidates (e.g. the conflicting levels of a triply nested
    loop, Section 4.5) are resolved best-score-first; lower-scoring
    candidates whose blocks overlap an accepted one are skipped.
    Returns every candidate considered (accepted and rejected).

    Detection uses each function's own divergence analysis, without
    callee summaries. ``module_divergence`` (function name ->
    :class:`DivergenceAnalysis`, as the pass manager's ``divergence``
    analysis holds it) stands in for that analysis in functions that make
    no call: summaries matter only at call sites, so there the two are
    the same computation.
    """
    all_candidates = []
    for function in module:
        fn_options = options
        if module_divergence is not None and not _has_call(function):
            fn_options = dict(options, divergence=module_divergence[function.name])
        candidates = detect_candidates(function, **fn_options)
        accepted = 0
        claimed = set()
        for candidate in candidates:
            if not candidate.accepted:
                continue
            if accepted >= max_per_function:
                candidate.rejected = "per-function-limit"
                continue
            if candidate.label_block in claimed or candidate.start_block in claimed:
                candidate.rejected = "overlaps-better-candidate"
                continue
            annotate(function, candidate, threshold=auto_threshold)
            claimed.add(candidate.label_block)
            claimed.add(candidate.start_block)
            accepted += 1
        all_candidates.extend(candidates)
    return all_candidates
