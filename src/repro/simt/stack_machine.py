"""Pre-Volta stack-based reconvergence execution (Section 2).

"Pre-Volta GPUs use a stack based mechanism to handle nested control
divergence" — a per-warp stack of (active lanes, PC, reconvergence PC)
entries. Only the top entry executes; a divergent branch pushes one entry
per outcome with the branch's immediate post-dominator as the
reconvergence PC; when the top entry reaches its reconvergence PC it pops,
implicitly merging with the entry below.

This machine ignores convergence-barrier instructions (``bssy``/``bsync``/
``bbreak`` are architectural no-ops here): reconvergence is *structural*,
decided entirely by the stack. That is exactly why Speculative
Reconvergence requires Volta's independent thread scheduling — compiling
with SR annotations changes nothing on this machine, which
``benchmarks/bench_stack_vs_its.py`` demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cfg_utils import CFGView
from repro.analysis.dominators import compute_post_dominators
from repro.errors import SimulationError
from repro.ir.instructions import Opcode
from repro.obs.counters import ENGINE_COUNTERS
from repro.obs.events import ReconvergeEvent
from repro.obs.metrics import LaunchMetrics
from repro.obs.sinks import ambient_sink
from repro.simt.costs import DEFAULT_COST_MODEL
from repro.simt.executor import Executor
from repro.simt.machine import (
    DEFAULT_MAX_ISSUES,
    LaunchResult,
    abort_launch,
    budget_error,
    check_launch,
)
from repro.simt.memory import GlobalMemory
from repro.simt.profiler import Profiler
from repro.simt.warp import launch_warps


@dataclass
class _StackEntry:
    """(active lanes, reconvergence point) — the PC lives in the threads,
    which execute in lockstep within an entry. ``parent`` is the
    reconvergence entry the lanes merge back into at the rpc."""

    lanes: set
    rpc: object = None        # (function, block) reconvergence point or None
    label: str = "entry"
    parent: object = None     # the reconvergence _StackEntry

    def describe(self):
        return f"<{self.label} lanes={sorted(self.lanes)} rpc={self.rpc}>"


class _ReconvergenceTable:
    """Per-function branch -> reconvergence block map (immediate pdom)."""

    def __init__(self, module):
        self._table = {}
        for function in module:
            view = CFGView.of_function(function)
            pdom = compute_post_dominators(view)
            for block in function.blocks:
                term = block.terminator
                if term is not None and term.opcode is Opcode.CBR:
                    self._table[(function.name, block.name)] = (
                        pdom.branch_reconvergence_point(block.name, view)
                    )

    def reconvergence_of(self, function_name, block_name):
        return self._table.get((function_name, block_name))


class StackGPUMachine:
    """Executes kernels with stack-based (pre-Volta) reconvergence."""

    def __init__(self, module, cost_model=None, seed=2020,
                 max_issues=DEFAULT_MAX_ISSUES, sink=None, metrics=False):
        self.module = module
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.seed = seed
        self.max_issues = max_issues
        self.sink = sink
        self.metrics = metrics
        self._rpcs = _ReconvergenceTable(module)

    def launch(self, kernel_name, n_threads, args=(), memory=None):
        check_launch(self.module, kernel_name, n_threads, args)
        memory = memory if memory is not None else GlobalMemory()
        profiler = Profiler()
        metrics = LaunchMetrics() if self.metrics else None
        profiler.metrics = metrics
        sink = self.sink if self.sink is not None else ambient_sink()
        executor = Executor(
            self.module, memory, self.cost_model, profiler,
            sink=sink, metrics=metrics,
        )

        warps = launch_warps(
            executor.templates[kernel_name], args, n_threads, self.seed
        )
        all_threads = [thread for warp in warps for thread in warp.threads]
        issues = 0
        try:
            for warp in warps:
                issues = self._run_warp(warp, executor, kernel_name, issues)
        except SimulationError as exc:
            abort_launch(exc, kernel_name, n_threads, profiler, sink)
            raise

        profiler.finish(warps)
        counters = profiler.engine_counters()
        ENGINE_COUNTERS.merge(counters)
        ENGINE_COUNTERS.launch_count += 1
        return LaunchResult(
            kernel=kernel_name,
            n_threads=n_threads,
            profiler=profiler,
            memory=memory,
            threads=all_threads,
            counters=counters,
        )

    # ------------------------------------------------------------------
    def _run_warp(self, warp, executor, kernel_name, issues):
        """Run ``warp`` to completion; ``issues`` is the launch's slot count
        so far, and the count after the warp is returned. The issue budget
        covers the whole launch."""
        stack = [_StackEntry(lanes={t.lane for t in warp.threads}, rpc=None)]
        while stack:
            entry = stack[-1]
            entry.lanes = {
                lane for lane in entry.lanes if not warp.threads[lane].is_exited
            }
            if not entry.lanes:
                stack.pop()
                continue
            group = [warp.threads[lane] for lane in sorted(entry.lanes)]
            pc = group[0].pc()
            for thread in group[1:]:
                if thread.pc() != pc:
                    raise SimulationError(
                        f"stack machine lost lockstep: {thread.pc()} vs {pc} "
                        f"in {entry.describe()}"
                    )
            function_name, block_name, index = pc
            # Reconvergence: the top entry reached its rpc -> pop & merge.
            if (
                entry.rpc is not None
                and (function_name, block_name) == entry.rpc
                and index == 0
                and entry.parent is not None
            ):
                stack.pop()
                entry.parent.lanes |= entry.lanes
                if executor.sink.enabled:
                    # Structural reconvergence: the popped entry's lanes
                    # merge with the parent at the reconvergence PC.
                    executor.sink.emit(
                        ReconvergeEvent(
                            warp_id=warp.warp_id,
                            function=function_name,
                            block=block_name,
                            ts=warp.cycles,
                            lanes=frozenset(entry.parent.lanes),
                        )
                    )
                continue

            instr = executor.fetch(pc)
            if instr.is_barrier_op or instr.opcode is Opcode.WARPSYNC:
                # Pre-Volta: convergence barriers do not exist; skip the
                # instruction without charging an issue slot beyond NOP.
                for thread in group:
                    if instr.dst is not None:
                        # barcnt/bmov still define a value; give a benign 0
                        thread.frame.write(instr.dst, 0)
                    thread.advance()
                continue

            issues += 1
            executor.execute(warp, pc, group)
            if issues > self.max_issues:
                raise budget_error(kernel_name, self.max_issues)
            if instr.opcode is Opcode.CBR:
                taken = {}
                for thread in group:
                    target = thread.pc()[1]
                    taken.setdefault(target, set()).add(thread.lane)
                if len(taken) > 1:
                    rpc_block = self._rpcs.reconvergence_of(
                        function_name, block_name
                    )
                    rpc = (
                        (function_name, rpc_block)
                        if rpc_block is not None
                        else None
                    )
                    # The current entry becomes the reconvergence entry;
                    # push one entry per outcome (not-taken first, so the
                    # taken path executes first, matching hardware).
                    outcomes = sorted(taken.items())
                    for target, lanes in outcomes:
                        stack.append(
                            _StackEntry(
                                lanes=lanes, rpc=rpc, label=target, parent=entry
                            )
                        )
                    entry.lanes = set()
        return issues
