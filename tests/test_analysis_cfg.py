"""Tests for CFG utilities, dominators, and loops — including a hypothesis
comparison of our dominator algorithm against networkx on random graphs."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    CFGView,
    add_virtual_exit,
    can_reach,
    compute_dominators,
    compute_loops,
    compute_post_dominators,
    dominator_tree,
    loop_nest,
    post_dominator_tree,
    reachable_from,
    reverse_postorder,
)
from repro.errors import AnalysisError
from tests.helpers import listing1_module, loop_function

DIAMOND = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}
LOOP = {"e": ["h"], "h": ["b", "x"], "b": ["h"], "x": []}
NESTED = {
    "e": ["oh"],
    "oh": ["p", "x"],
    "p": ["ih"],
    "ih": ["ib", "ep"],
    "ib": ["ih"],
    "ep": ["oh"],
    "x": [],
}


class TestCFGView:
    def test_predecessors_computed(self):
        view = CFGView(DIAMOND, "a")
        assert sorted(view.preds["d"]) == ["b", "c"]

    def test_unknown_entry_rejected(self):
        with pytest.raises(AnalysisError):
            CFGView(DIAMOND, "zzz")

    def test_edge_to_unknown_node_rejected(self):
        with pytest.raises(AnalysisError):
            CFGView({"a": ["ghost"]}, "a")

    def test_reversed_swaps_edges(self):
        view = CFGView(DIAMOND, "a").reversed("d")
        assert sorted(view.succs["d"]) == ["b", "c"]

    def test_of_function(self):
        module, fn = loop_function()
        view = CFGView.of_function(fn)
        assert view.entry == "entry"
        assert "head" in view.succs


class TestOrders:
    def test_rpo_starts_at_entry(self):
        assert reverse_postorder(CFGView(DIAMOND, "a"))[0] == "a"

    def test_rpo_topological_on_dag(self):
        order = reverse_postorder(CFGView(DIAMOND, "a"))
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_rpo_handles_loops(self):
        order = reverse_postorder(CFGView(LOOP, "e"))
        assert set(order) == {"e", "h", "b", "x"}
        assert order[0] == "e"

    def test_reachable_from(self):
        view = CFGView({"a": ["b"], "b": [], "iso": []}, "a")
        assert reachable_from(view) == {"a", "b"}

    def test_can_reach(self):
        view = CFGView(DIAMOND, "a")
        assert can_reach(view, ["d"]) == {"a", "b", "c", "d"}
        assert can_reach(view, ["b"]) == {"a", "b"}

    def test_virtual_exit_attaches_to_sinks(self):
        augmented, exit_name = add_virtual_exit(CFGView(DIAMOND, "a"))
        assert exit_name in augmented.succs["d"]

    def test_virtual_exit_on_infinite_loop(self):
        graph = {"a": ["b"], "b": ["a"]}
        augmented, exit_name = add_virtual_exit(CFGView(graph, "a"))
        assert reachable_from(augmented) >= {"a", "b", exit_name}


class TestDominators:
    def test_diamond_idoms(self):
        tree = compute_dominators(CFGView(DIAMOND, "a"))
        assert tree.idom == {"a": "a", "b": "a", "c": "a", "d": "a"}

    def test_dominates_reflexive(self):
        tree = compute_dominators(CFGView(DIAMOND, "a"))
        assert tree.dominates("b", "b")
        assert not tree.strictly_dominates("b", "b")

    def test_loop_header_dominates_body(self):
        tree = compute_dominators(CFGView(LOOP, "e"))
        assert tree.dominates("h", "b")
        assert tree.idom["b"] == "h"

    def test_nearest_common_dominator(self):
        tree = compute_dominators(CFGView(DIAMOND, "a"))
        assert tree.nearest_common_dominator("b", "c") == "a"

    def test_depth(self):
        tree = compute_dominators(CFGView(LOOP, "e"))
        assert tree.depth("e") == 0
        assert tree.depth("b") == 2

    def test_function_wrapper(self):
        module, fn = loop_function()
        tree = dominator_tree(fn)
        assert tree.dominates("entry", "exit")


class TestPostDominators:
    def test_diamond_ipdoms(self):
        pdom = compute_post_dominators(CFGView(DIAMOND, "a"))
        assert pdom.ipdom("b") == "d"
        assert pdom.ipdom("c") == "d"
        assert pdom.ipdom("a") == "d"
        assert pdom.ipdom("d") is None

    def test_branch_reconvergence_point(self):
        view = CFGView(DIAMOND, "a")
        pdom = compute_post_dominators(view)
        assert pdom.branch_reconvergence_point("a", view) == "d"

    def test_loop_exit_is_pdom_of_header(self):
        view = CFGView(LOOP, "e")
        pdom = compute_post_dominators(view)
        assert pdom.ipdom("h") == "x"
        assert pdom.branch_reconvergence_point("h", view) == "x"

    def test_block_with_no_path_to_an_exit_flows_to_virtual_exit(self):
        # ``spin`` never reaches the sink ``x``; it still gets a
        # post-dominator (the virtual exit), and so does its branch.
        view = CFGView({"e": ["spin", "x"], "spin": ["spin"], "x": []}, "e")
        pdom = compute_post_dominators(view)
        assert pdom.ipdom("spin") is None
        assert pdom.ipdom("x") is None
        assert pdom.ipdom("e") is None
        augmented, exit_name = add_virtual_exit(view)
        assert augmented.succs["spin"] == ["spin", exit_name]
        assert augmented.succs["e"] == ["spin", "x"]

    def test_listing1_reconvergence_at_epilog(self):
        module = listing1_module()
        fn = module.function("k")
        view = CFGView.of_function(fn)
        pdom = post_dominator_tree(fn)
        assert pdom.branch_reconvergence_point("prolog", view) == "epilog"


class TestLoops:
    def test_single_loop_detected(self):
        nest = compute_loops(CFGView(LOOP, "e"))
        assert len(nest) == 1
        loop = nest.loops[0]
        assert loop.header == "h"
        assert loop.body == {"h", "b"}
        assert loop.latches == ["b"]

    def test_nested_loops(self):
        nest = compute_loops(CFGView(NESTED, "e"))
        assert len(nest) == 2
        inner = nest.loop_with_header("ih")
        outer = nest.loop_with_header("oh")
        assert inner.parent is outer
        assert inner.depth == 2
        assert outer.depth == 1

    def test_innermost_containing(self):
        nest = compute_loops(CFGView(NESTED, "e"))
        assert nest.innermost_containing("ib").header == "ih"
        assert nest.innermost_containing("ep").header == "oh"
        assert nest.innermost_containing("x") is None

    def test_exit_edges(self):
        nest = compute_loops(CFGView(NESTED, "e"))
        view = CFGView(NESTED, "e")
        inner = nest.loop_with_header("ih")
        assert inner.exit_edges(view) == [("ih", "ep")]

    def test_loop_depth_outside_is_zero(self):
        nest = compute_loops(CFGView(NESTED, "e"))
        assert nest.loop_depth("e") == 0

    def test_function_wrapper(self):
        module, fn = loop_function()
        nest = loop_nest(fn)
        assert nest.loop_with_header("head") is not None


@st.composite
def random_digraph(draw):
    """A random rooted digraph for cross-checking against networkx."""
    n = draw(st.integers(2, 10))
    nodes = [f"n{i}" for i in range(n)]
    succs = {node: [] for node in nodes}
    # A spine guarantees reachability from the root.
    for i in range(1, n):
        parent = nodes[draw(st.integers(0, i - 1))]
        succs[parent].append(nodes[i])
    extra = draw(st.integers(0, n * 2))
    for _ in range(extra):
        a = nodes[draw(st.integers(0, n - 1))]
        b = nodes[draw(st.integers(0, n - 1))]
        if b not in succs[a]:
            succs[a].append(b)
    return succs, nodes[0]


class TestDominatorsAgainstNetworkx:
    @settings(max_examples=80, deadline=None)
    @given(random_digraph())
    def test_idoms_match_networkx(self, graph_and_root):
        succs, root = graph_and_root
        view = CFGView(succs, root)
        tree = compute_dominators(view)
        graph = nx.DiGraph()
        graph.add_nodes_from(succs)
        for src, targets in succs.items():
            for dst in targets:
                graph.add_edge(src, dst)
        expected = dict(nx.immediate_dominators(graph, root))
        expected[root] = root  # some networkx versions omit the root entry
        assert tree.idom == expected
