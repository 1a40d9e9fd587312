"""CFG traversal utilities: orders, reachability, and a light graph view.

All analyses in this package work on name-keyed adjacency maps so that they
can operate both on real functions and on synthetic graphs in tests.
"""

from __future__ import annotations

from repro.errors import AnalysisError


class CFGView:
    """An adjacency view of a function's CFG (or a synthetic graph)."""

    def __init__(self, succs, entry):
        if entry not in succs:
            raise AnalysisError(f"entry {entry!r} is not a node")
        self.succs = {node: list(targets) for node, targets in succs.items()}
        self.entry = entry
        self.preds = {node: [] for node in self.succs}
        for node, targets in self.succs.items():
            for target in targets:
                if target not in self.succs:
                    raise AnalysisError(f"edge to unknown node {target!r}")
                self.preds[target].append(node)

    @classmethod
    def of_function(cls, function):
        return cls(function.successors(), function.entry.name)

    @property
    def nodes(self):
        return list(self.succs)

    def reversed(self, entry):
        """The reverse CFG, rooted at ``entry`` (typically a virtual exit)."""
        view = CFGView.__new__(CFGView)
        view.succs = {node: list(targets) for node, targets in self.preds.items()}
        view.entry = entry
        view.preds = {node: list(targets) for node, targets in self.succs.items()}
        if entry not in view.succs:
            raise AnalysisError(f"entry {entry!r} is not a node")
        return view


def reverse_postorder(view):
    """Reverse postorder over nodes reachable from the entry (iterative DFS)."""
    visited = set()
    postorder = []
    stack = [(view.entry, iter(view.succs[view.entry]))]
    visited.add(view.entry)
    while stack:
        node, children = stack[-1]
        advanced = False
        for child in children:
            if child not in visited:
                visited.add(child)
                stack.append((child, iter(view.succs[child])))
                advanced = True
                break
        if not advanced:
            postorder.append(node)
            stack.pop()
    postorder.reverse()
    return postorder


def reachable_from(view, start=None):
    """The set of nodes reachable from ``start`` (default: entry)."""
    start = view.entry if start is None else start
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for succ in view.succs[node]:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen


def can_reach(view, targets):
    """The set of nodes from which any node in ``targets`` is reachable.

    Backward reachability: walks predecessor edges from the targets.
    """
    seen = set()
    frontier = []
    for target in targets:
        if target in view.preds and target not in seen:
            seen.add(target)
            frontier.append(target)
    while frontier:
        node = frontier.pop()
        for pred in view.preds[node]:
            if pred not in seen:
                seen.add(pred)
                frontier.append(pred)
    return seen


def add_virtual_exit(view, exit_name="__exit__"):
    """A copy of the CFG with a virtual exit node fed by all sink nodes.

    Needed for post-dominator computation on functions with multiple
    ``ret``/``exit`` blocks (or none reachable).
    """
    if exit_name in view.succs:
        raise AnalysisError(f"node name {exit_name!r} already used")
    succs = {node: list(targets) for node, targets in view.succs.items()}
    succs[exit_name] = []
    # A node with no path to a sink (an infinite loop, with or without an
    # exit elsewhere) conceptually flows to the exit too: attach every such
    # node, so each node has a post-dominator. Conservative but sufficient
    # for pdom queries.
    reaches_sink = can_reach(
        view, [node for node, targets in view.succs.items() if not targets]
    )
    for node, targets in view.succs.items():
        if not targets or node not in reaches_sink:
            succs[node].append(exit_name)
    return CFGView(succs, view.entry), exit_name
