"""Tests for top-down, bottom-up, and flat transformations."""

import pytest

from repro import ProfileBuilder
from repro.analysis.transform import bottom_up, flat, top_down, transform


class TestTopDown:
    def test_total_preserved(self, simple_profile):
        tree = top_down(simple_profile)
        assert tree.total(0) == 1000.0

    def test_structure_mirrors_cct(self, simple_profile):
        tree = top_down(simple_profile)
        main = tree.find_by_name("main")[0]
        assert {c.frame.name for c in main.children.values()} == \
            {"work", "idle"}

    def test_sibling_contexts_merge_by_default(self):
        builder = ProfileBuilder()
        cpu = builder.metric("cpu")
        builder.sample([("main", "m.c", 1), ("f", "m.c", 5)], {cpu: 10})
        builder.sample([("main", "m.c", 1), ("f", "m.c", 6)], {cpu: 20})
        tree = top_down(builder.build())
        fs = tree.find_by_name("f")
        assert len(fs) == 1
        assert fs[0].inclusive[0] == 30.0
        assert len(fs[0].sources) == 2

    def test_exclusive_values_carried(self, simple_profile):
        tree = top_down(simple_profile)
        work = tree.find_by_name("work")[0]
        assert work.exclusive[0] == 200.0


class TestBottomUp:
    def test_first_level_is_exclusive_cost(self, simple_profile):
        tree = bottom_up(simple_profile)
        # 'work' has 200 exclusive; at depth 1 of the bottom-up view its
        # inclusive value is exactly that.
        level1 = {n.frame.name: n.inclusive[0]
                  for n in tree.root.children.values()}
        assert level1 == {"main": 0.0, "work": 200.0, "inner": 700.0,
                          "idle": 100.0} or level1 == {
                              "work": 200.0, "inner": 700.0, "idle": 100.0}

    def test_callers_hang_below(self, simple_profile):
        tree = bottom_up(simple_profile)
        inner = [n for n in tree.root.children.values()
                 if n.frame.name == "inner"][0]
        caller = list(inner.children.values())[0]
        assert caller.frame.name == "work"
        grandcaller = list(caller.children.values())[0]
        assert grandcaller.frame.name == "main"

    def test_total_preserved(self, simple_profile):
        tree = bottom_up(simple_profile)
        assert tree.total(0) == 1000.0

    def test_hot_leaf_aggregates_across_paths(self, lulesh):
        tree = bottom_up(lulesh)
        brk = [n for n in tree.root.children.values()
               if n.frame.name == "brk"]
        assert len(brk) == 1
        # brk is called from both malloc and free paths.
        callers = {c.frame.name for c in brk[0].children.values()}
        assert callers == {"malloc", "free"}


class TestFlat:
    def test_hierarchy_module_file_function(self, simple_profile):
        tree = flat(simple_profile)
        modules = list(tree.root.children.values())
        assert len(modules) == 1
        files = list(modules[0].children.values())
        assert files[0].frame.name == "app.c"
        functions = {f.frame.name for f in files[0].children.values()}
        assert functions == {"main", "work", "inner", "idle"}

    def test_flat_exclusive_totals_match(self, simple_profile):
        tree = flat(simple_profile)
        assert tree.root.exclusive[0] == 1000.0

    def test_recursion_not_double_counted(self, recursive_profile):
        tree = flat(recursive_profile)
        f_nodes = tree.find_by_name("f")
        assert len(f_nodes) == 1
        # f's inclusive = everything under the outermost f (100 total
        # program minus main's own 0) — not the sum over every recursion
        # level (which would exceed the program total).
        assert f_nodes[0].inclusive[0] <= 100.0
        assert f_nodes[0].exclusive[0] == 60.0  # 10 + 20 + 30


class TestDispatch:
    def test_transform_by_name(self, simple_profile):
        assert transform(simple_profile, "top_down").shape == "top_down"
        assert transform(simple_profile, "bottom_up").shape == "bottom_up"
        assert transform(simple_profile, "flat").shape == "flat"

    def test_unknown_shape_rejected(self, simple_profile):
        with pytest.raises(ValueError, match="unknown view shape"):
            transform(simple_profile, "sideways")


class TestBottomUpSources:
    def test_caller_rows_link_to_caller_lines(self, simple_profile):
        """Clicking a caller row in a bottom-up view must land on the
        caller's source line, not on the hot leaf that contributed."""
        tree = bottom_up(simple_profile)
        inner = [n for n in tree.root.children.values()
                 if n.frame.name == "inner"][0]
        work_row = [c for c in inner.children.values()
                    if c.frame.name == "work"][0]
        assert work_row.sources
        assert all(s.frame.name == "work" for s in work_row.sources)
        assert work_row.sources[0].frame.line == 42
