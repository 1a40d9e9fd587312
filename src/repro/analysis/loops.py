"""Natural loop detection and loop-nest construction.

A back edge ``t -> h`` exists when ``h`` dominates ``t``. The natural loop
of that edge is ``{h} ∪ {nodes that can reach t without passing through h}``.
Loops sharing a header are merged. Nesting is by body containment.

Used by the automatic-detection heuristics (Section 4.5) to find divergent
branches inside loops (Iteration Delay candidates) and divergent-trip-count
inner loops nested in outer loops (Loop Merge candidates).
"""

from __future__ import annotations

from repro.analysis.cfg_utils import CFGView
from repro.analysis.dominators import compute_dominators


class Loop:
    """A natural loop: header, body blocks, exits, parent/children."""

    def __init__(self, header):
        self.header = header
        self.body = {header}           # includes the header
        self.latches = []              # sources of back edges
        self.parent = None
        self.children = []

    @property
    def depth(self):
        """Nesting depth; top-level loops have depth 1."""
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def exit_edges(self, view):
        """Edges leaving the loop as (src, dst) pairs."""
        edges = []
        for node in sorted(self.body):
            for succ in view.succs[node]:
                if succ not in self.body:
                    edges.append((node, succ))
        return edges

    def exit_blocks(self, view):
        """Targets of exit edges (outside the loop), deduplicated."""
        seen = []
        for _, dst in self.exit_edges(view):
            if dst not in seen:
                seen.append(dst)
        return seen

    def contains(self, node):
        return node in self.body

    def __repr__(self):
        return f"<Loop header={self.header} body={sorted(self.body)}>"


class LoopNest:
    """All loops of a CFG plus nesting structure and membership queries."""

    def __init__(self, loops):
        self.loops = loops
        self._by_header = {loop.header: loop for loop in loops}

    def loop_with_header(self, header):
        return self._by_header.get(header)

    def innermost_containing(self, node):
        """The innermost loop whose body contains ``node`` (or None)."""
        best = None
        for loop in self.loops:
            if node in loop.body:
                if best is None or len(loop.body) < len(best.body):
                    best = loop
        return best

    def loop_depth(self, node):
        loop = self.innermost_containing(node)
        return loop.depth if loop is not None else 0

    def __iter__(self):
        return iter(self.loops)

    def __len__(self):
        return len(self.loops)


def _natural_loop_body(view, header, latch):
    body = {header, latch}
    stack = [latch] if latch != header else []
    while stack:
        node = stack.pop()
        for pred in view.preds[node]:
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body


def compute_loops(view):
    """Find all natural loops and build the nest."""
    dom = compute_dominators(view)
    reachable = set(dom.order)
    loops_by_header = {}
    for node in dom.order:
        for succ in view.succs[node]:
            if succ in reachable and dom.dominates(succ, node):
                loop = loops_by_header.get(succ)
                if loop is None:
                    loop = Loop(succ)
                    loops_by_header[succ] = loop
                loop.latches.append(node)
                loop.body |= _natural_loop_body(view, succ, node)
    loops = sorted(loops_by_header.values(), key=lambda l: (len(l.body), l.header))
    # Parent = smallest strictly-containing loop.
    for i, loop in enumerate(loops):
        for candidate in loops[i + 1 :]:
            if loop.header in candidate.body and loop is not candidate:
                if loop.body <= candidate.body:
                    loop.parent = candidate
                    candidate.children.append(loop)
                    break
    return LoopNest(loops)


def loop_nest(function):
    """Loop nest of a function's CFG."""
    return compute_loops(CFGView.of_function(function))
