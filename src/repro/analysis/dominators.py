"""Dominator and post-dominator trees (Cooper-Harvey-Kennedy algorithm).

Post-dominators are computed as dominators of the reverse CFG rooted at a
virtual exit, so functions with multiple or no explicit exits are handled.
"""

from __future__ import annotations

from repro.analysis.cfg_utils import CFGView, add_virtual_exit, reverse_postorder
from repro.errors import AnalysisError

VIRTUAL_EXIT = "__exit__"


class DominatorTree:
    """Immediate-dominator tree over the nodes reachable from the root."""

    def __init__(self, idom, order):
        self.idom = idom            # node -> immediate dominator (root -> root)
        self.order = order          # reverse postorder
        self._rpo_index = {node: i for i, node in enumerate(order)}
        self.children = {node: [] for node in order}
        for node, parent in idom.items():
            if node != parent:
                self.children[parent].append(node)

    @property
    def root(self):
        return self.order[0]

    def dominates(self, a, b):
        """True if ``a`` dominates ``b`` (every node dominates itself)."""
        if a not in self.idom or b not in self.idom:
            raise AnalysisError(f"node not in dominator tree: {a!r} or {b!r}")
        node = b
        while True:
            if node == a:
                return True
            parent = self.idom[node]
            if parent == node:
                return False
            node = parent

    def strictly_dominates(self, a, b):
        return a != b and self.dominates(a, b)

    def dominators_of(self, node):
        """All dominators of ``node``, nearest first."""
        result = [node]
        while self.idom[node] != node:
            node = self.idom[node]
            result.append(node)
        return result

    def nearest_common_dominator(self, a, b):
        """The lowest node dominating both ``a`` and ``b``."""
        ancestors = set(self.dominators_of(a))
        node = b
        while node not in ancestors:
            node = self.idom[node]
        return node

    def depth(self, node):
        depth = 0
        while self.idom[node] != node:
            node = self.idom[node]
            depth += 1
        return depth


def _intersect(idom, rpo_index, a, b):
    while a != b:
        while rpo_index[a] > rpo_index[b]:
            a = idom[a]
        while rpo_index[b] > rpo_index[a]:
            b = idom[b]
    return a


def compute_dominators(view):
    """Cooper-Harvey-Kennedy iterative dominators for ``view``."""
    order = reverse_postorder(view)
    rpo_index = {node: i for i, node in enumerate(order)}
    idom = {view.entry: view.entry}
    changed = True
    while changed:
        changed = False
        for node in order:
            if node == view.entry:
                continue
            processed = [p for p in view.preds[node] if p in idom]
            if not processed:
                continue
            new_idom = processed[0]
            for pred in processed[1:]:
                new_idom = _intersect(idom, rpo_index, new_idom, pred)
            if idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True
    return DominatorTree(idom, order)


def dominator_tree(function):
    """Dominator tree of ``function``'s CFG."""
    return compute_dominators(CFGView.of_function(function))


class PostDominatorTree:
    """Post-dominator tree; wraps a DominatorTree over the reverse CFG."""

    def __init__(self, tree, exit_name):
        self._tree = tree
        self.exit_name = exit_name

    def ipdom(self, node):
        """Immediate post-dominator; None if it is the virtual exit."""
        parent = self._tree.idom[node]
        if parent == node or parent == self.exit_name:
            return None
        return parent

    def nearest_common_post_dominator(self, nodes):
        nodes = list(nodes)
        if not nodes:
            raise AnalysisError("need at least one node")
        acc = nodes[0]
        for node in nodes[1:]:
            acc = self._tree.nearest_common_dominator(acc, node)
        return None if acc == self.exit_name else acc

    def branch_reconvergence_point(self, block_name, view):
        """The immediate post-dominator used as the PDOM reconvergence point.

        For a branch in ``block_name`` this is the nearest common
        post-dominator of its successors — the point where the baseline
        compiler reconverges diverged threads (Section 2).
        """
        succs = view.succs[block_name]
        if not succs:
            return None
        return self.nearest_common_post_dominator(succs)


def compute_post_dominators(view):
    augmented, exit_name = add_virtual_exit(view, VIRTUAL_EXIT)
    reverse = augmented.reversed(exit_name)
    tree = compute_dominators(reverse)
    return PostDominatorTree(tree, exit_name)


def post_dominator_tree(function):
    """Post-dominator tree of ``function``'s CFG."""
    return compute_post_dominators(CFGView.of_function(function))
