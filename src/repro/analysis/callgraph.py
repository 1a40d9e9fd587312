"""Call graph construction and orderings.

Used by the interprocedural barrier propagation (Section 4.4), which pushes
barrier information "upwards through the call graph from the callee to the
call site", and by module-level divergence analysis.
"""

from __future__ import annotations

from repro.ir.instructions import FuncRef, Opcode


class CallGraph:
    """callees/callers maps plus the call sites for each edge."""

    def __init__(self):
        self.callees = {}    # caller -> set of callee names
        self.callers = {}    # callee -> set of caller names
        self.call_sites = {} # (caller, callee) -> list of (block_name, index)

    def add_function(self, name):
        self.callees.setdefault(name, set())
        self.callers.setdefault(name, set())

    def add_call(self, caller, callee, block_name, index):
        self.add_function(caller)
        self.add_function(callee)
        self.callees[caller].add(callee)
        self.callers[callee].add(caller)
        self.call_sites.setdefault((caller, callee), []).append((block_name, index))

    def sites(self, caller, callee):
        return list(self.call_sites.get((caller, callee), []))

    def all_sites_of(self, callee):
        """Every call site of ``callee`` as (caller, block_name, index)."""
        result = []
        for (caller, target), sites in self.call_sites.items():
            if target == callee:
                result.extend((caller, block, index) for block, index in sites)
        return result

    def functions(self):
        return list(self.callees)


def call_graph(module):
    """Build the call graph of a module."""
    graph = CallGraph()
    for function in module:
        graph.add_function(function.name)
        for block, index, instr in function.instructions():
            if instr.opcode is Opcode.CALL:
                callee = instr.operands[0]
                if isinstance(callee, FuncRef):
                    graph.add_call(function.name, callee.name, block.name, index)
    return graph


def reverse_topological(graph):
    """Callees-first order; cycles (recursion) broken arbitrarily."""
    visited = set()
    order = []
    for name in sorted(graph.functions()):
        _visit(graph, name, set(), visited, order)
    return order


def _visit(graph, name, stack, visited, order):
    # A module-level function: a nested one that calls itself would be a
    # reference cycle per call, which only the collector frees.
    if name in visited or name in stack:
        return
    stack.add(name)
    for callee in sorted(graph.callees.get(name, ())):
        _visit(graph, callee, stack, visited, order)
    stack.remove(name)
    visited.add(name)
    order.append(name)
