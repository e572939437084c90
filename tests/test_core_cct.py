"""Tests for the calling context tree (built through the oracle's object
mutators: the facade itself has none)."""

import pytest
from hypothesis import given, strategies as st

from repro import ProfileBuilder
from repro.bench.profile_oracle import ObjectProfile, add_path, add_sample
from repro.core.cct import CCT
from repro.core.frame import FrameKind, intern_frame


def frames(*names):
    return [intern_frame(name, "t.c", i + 1) for i, name in enumerate(names)]


class TestPrefixMerging:
    def test_shared_prefix_shares_nodes(self):
        tree = ObjectProfile()
        leaf1 = add_path(tree, frames("main", "a", "b"))
        leaf2 = add_path(tree, frames("main", "a", "c"))
        assert leaf1.parent is leaf2.parent
        # root + main + a + b + c
        assert tree.node_count() == 5

    def test_identical_paths_merge_completely(self):
        tree = ObjectProfile()
        leaf1 = add_path(tree, frames("main", "a"))
        leaf2 = add_path(tree, frames("main", "a"))
        assert leaf1 is leaf2
        assert tree.node_count() == 3

    def test_same_name_different_line_distinct(self):
        tree = ObjectProfile()
        add_path(tree, [intern_frame("main", "t.c", 1),
                        intern_frame("f", "t.c", 5)])
        add_path(tree, [intern_frame("main", "t.c", 1),
                        intern_frame("f", "t.c", 6)])
        assert tree.node_count() == 4  # two distinct f contexts

    @given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1,
                             max_size=6), min_size=1, max_size=30))
    def test_node_count_bounded_by_distinct_prefixes(self, paths):
        tree = ObjectProfile()
        for path in paths:
            add_path(tree, [intern_frame(c) for c in path])
        prefixes = {tuple(path[:i + 1]) for path in paths
                    for i in range(len(path))}
        assert tree.node_count() == len(prefixes) + 1


class TestMetrics:
    def test_add_sample_accumulates_on_leaf(self):
        tree = ObjectProfile()
        add_sample(tree, frames("main", "f"), {0: 10.0})
        leaf = add_sample(tree, frames("main", "f"), {0: 5.0})
        assert leaf.exclusive(0) == 15.0
        assert leaf.parent.exclusive(0) == 0.0

    def test_missing_metric_is_zero(self):
        tree = ObjectProfile()
        leaf = add_path(tree, frames("main"))
        assert leaf.exclusive(7) == 0.0


class TestNavigation:
    def test_call_path_excludes_root(self):
        tree = ObjectProfile()
        leaf = add_path(tree, frames("main", "a", "b"))
        assert [f.name for f in leaf.call_path()] == ["main", "a", "b"]

    def test_depth(self):
        tree = ObjectProfile()
        leaf = add_path(tree, frames("main", "a", "b"))
        assert leaf.depth() == 3
        assert tree.root.depth() == 0

    def test_max_depth(self):
        tree = ObjectProfile()
        add_path(tree, frames("main", "a"))
        add_path(tree, frames("main", "a", "b", "c"))
        assert tree.cct.max_depth() == 4

    def test_find_by_name(self):
        tree = ObjectProfile()
        add_path(tree, frames("main", "hot"))
        add_path(tree, frames("main", "other", "hot"))
        found = tree.find_by_name("hot")
        assert len(found) == 2

    def test_leaf_nodes(self):
        tree = ObjectProfile()
        add_path(tree, frames("main", "a"))
        add_path(tree, frames("main", "b"))
        leaves = {n.frame.name for n in tree.cct.leaf_nodes()}
        assert leaves == {"a", "b"}

    def test_walk_visits_every_node_once(self):
        tree = ObjectProfile()
        add_path(tree, frames("main", "a", "b"))
        add_path(tree, frames("main", "c"))
        visited = list(tree.nodes())
        assert len(visited) == len({id(n) for n in visited}) == 5

    def test_sorted_children_deterministic(self):
        tree = ObjectProfile()
        add_path(tree, frames("main", "zeta"))
        add_path(tree, frames("main", "alpha"))
        main = tree.find_by_name("main")[0]
        names = [c.frame.name for c in main.sorted_children()]
        assert names == sorted(names)

    def test_deep_path_no_recursion_error(self):
        tree = ObjectProfile()
        path = [intern_frame("f%d" % i) for i in range(5000)]
        leaf = add_path(tree, path)
        assert leaf.depth() == 5000
        assert tree.node_count() == 5001


class TestReadOnlyFacade:
    def test_an_edit_through_the_facade_is_an_attribute_error(self):
        builder = ProfileBuilder()
        cpu = builder.metric("cpu")
        builder.sample(["main"], {cpu: 1.0})
        profile = builder.build()
        node = profile.find_by_name("main")[0]
        for name in ("child", "add_value", "set_value"):
            assert not hasattr(node, name)
        for name in ("add_path", "add_sample"):
            assert not hasattr(profile.cct, name)
        assert not hasattr(profile, "add_sample")
        with pytest.raises(AttributeError):
            profile.cct = CCT()
        assert profile.total("cpu") == 1.0
