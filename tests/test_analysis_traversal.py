"""Tests for traversal orders, visitor actions, and ancestor queries."""

import pytest

from repro.analysis.traversal import (Order, VisitAction, ancestors, bfs,
                                      common_ancestor, iterate, postorder,
                                      preorder, visit)
from repro.bench.profile_oracle import ObjectProfile, add_path
from repro.core.frame import intern_frame


@pytest.fixture
def tree():
    cct = ObjectProfile()
    add_path(cct, [intern_frame(n) for n in ("main", "a", "b")])
    add_path(cct, [intern_frame(n) for n in ("main", "a", "c")])
    add_path(cct, [intern_frame(n) for n in ("main", "d")])
    return cct


def names(nodes):
    return [n.frame.name for n in nodes]


class TestOrders:
    def test_preorder_parents_first(self, tree):
        order = names(preorder(tree.root))
        assert order.index("main") < order.index("a") < order.index("b")
        assert len(order) == 6

    def test_postorder_children_first(self, tree):
        order = names(postorder(tree.root))
        assert order.index("b") < order.index("a") < order.index("main")
        assert order[-1] == "<root>"

    def test_bfs_level_by_level(self, tree):
        order = names(bfs(tree.root))
        assert order[0] == "<root>"
        assert order[1] == "main"
        assert set(order[2:4]) == {"a", "d"}
        assert set(order[4:]) == {"b", "c"}

    def test_iterate_dispatch(self, tree):
        assert names(iterate(tree.root, Order.PRE)) == names(
            preorder(tree.root))
        assert names(iterate(tree.root, Order.POST)) == names(
            postorder(tree.root))
        assert names(iterate(tree.root, Order.BFS)) == names(bfs(tree.root))

    def test_postorder_deep_tree_no_recursion_error(self):
        cct = ObjectProfile()
        add_path(cct, [intern_frame("f%d" % i) for i in range(3000)])
        assert len(list(postorder(cct.root))) == 3001


class TestVisit:
    def test_visit_counts_nodes(self, tree):
        assert visit(tree.root, lambda n: None) == 6

    def test_skip_prunes_subtree(self, tree):
        visited = []

        def callback(node):
            visited.append(node.frame.name)
            if node.frame.name == "a":
                return VisitAction.SKIP
            return VisitAction.CONTINUE

        visit(tree.root, callback)
        assert "a" in visited
        assert "b" not in visited and "c" not in visited
        assert "d" in visited

    def test_stop_aborts(self, tree):
        count = visit(tree.root, lambda n: VisitAction.STOP)
        assert count == 1

    def test_stop_in_postorder(self, tree):
        count = visit(tree.root,
                      lambda n: VisitAction.STOP if n.frame.name == "a"
                      else None, order=Order.POST)
        assert 0 < count < 6


class TestAncestry:
    def test_ancestors_to_root(self, tree):
        b = tree.find_by_name("b")[0]
        assert names(ancestors(b)) == ["a", "main", "<root>"]

    def test_common_ancestor_siblings(self, tree):
        b = tree.find_by_name("b")[0]
        c = tree.find_by_name("c")[0]
        lca = common_ancestor(b, c)
        assert lca.frame.name == "a"

    def test_common_ancestor_of_node_and_its_ancestor(self, tree):
        a = tree.find_by_name("a")[0]
        b = tree.find_by_name("b")[0]
        assert common_ancestor(b, a) is a
        assert common_ancestor(a, b) is a

    def test_common_ancestor_distant(self, tree):
        b = tree.find_by_name("b")[0]
        d = tree.find_by_name("d")[0]
        assert common_ancestor(b, d).frame.name == "main"
