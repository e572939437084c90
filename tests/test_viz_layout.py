"""Tests for the flame-graph layout engine, including the lazy fast path."""

import pytest

from repro.analysis.query import search
from repro.analysis.transform import top_down
from repro.viz.layout import layout, layout_profile

from .twins import empty_view


class TestLayout:
    def test_root_spans_canvas(self, simple_profile):
        flame = layout(top_down(simple_profile), canvas_width=1000.0)
        root_rect = [r for r in flame.rects if r.depth == 0][0]
        assert root_rect.x == 0.0
        assert root_rect.width == pytest.approx(1000.0)

    def test_children_widths_proportional(self, simple_profile):
        flame = layout(top_down(simple_profile), canvas_width=1000.0)
        by_name = {r.node.frame.name: r for r in flame.rects}
        assert by_name["work"].width == pytest.approx(900.0)
        assert by_name["idle"].width == pytest.approx(100.0)

    def test_rows_do_not_overlap(self, simple_profile):
        flame = layout(top_down(simple_profile), canvas_width=1000.0)
        for row in flame.rows():
            for left, right in zip(row, row[1:]):
                assert left.x + left.width <= right.x + 1e-6

    def test_children_ordered_by_value(self, simple_profile):
        flame = layout(top_down(simple_profile), canvas_width=1000.0)
        row = flame.rows()[2]
        assert row[0].node.frame.name == "work"   # larger child first

    def test_min_width_prunes(self, simple_profile):
        flame = layout(top_down(simple_profile), canvas_width=10.0,
                       min_width=2.0)
        names = {r.node.frame.name for r in flame.rects}
        assert "idle" not in names    # 1 px < 2 px cutoff
        assert flame.skipped_nodes >= 1

    def test_zero_min_width_keeps_everything(self, simple_profile):
        tree = top_down(simple_profile)
        flame = layout(tree, min_width=0.0)
        assert flame.laid_out_nodes == tree.node_count()

    def test_zoom_root_takes_full_width(self, simple_profile):
        tree = top_down(simple_profile)
        work = search(tree, "work").rows[0]
        flame = layout(tree, root=work, canvas_width=1000.0)
        assert flame.rects[0].width == pytest.approx(1000.0)
        names = {r.node.frame.name for r in flame.rects}
        assert names == {"work", "inner"}

    def test_max_depth_limits_rows(self, simple_profile):
        flame = layout(top_down(simple_profile), max_depth=1)
        assert flame.max_depth == 1

    def test_empty_tree(self):
        flame = layout(empty_view())
        assert flame.rects == []

    def test_find(self, simple_profile):
        flame = layout(top_down(simple_profile))
        assert len(flame.find("work")) == 1


class TestLazyLayoutEquivalence:
    def test_lazy_matches_eager_geometry(self, lulesh):
        """The CCT fast path must produce the same blocks as the eager
        ViewTree path for identical parameters."""
        eager = layout(top_down(lulesh), canvas_width=800.0, min_width=0.5)
        lazy = layout_profile(lulesh, canvas_width=800.0, min_width=0.5)
        assert lazy.total_value == pytest.approx(eager.total_value)
        assert lazy.laid_out_nodes == eager.laid_out_nodes

        def geometry(flame):
            return sorted((r.depth, round(r.x, 4), round(r.width, 4),
                           r.node.frame.name) for r in flame.rects)

        assert geometry(lazy) == geometry(eager)

    def test_lazy_skips_narrow_blocks(self, lulesh):
        wide = layout_profile(lulesh, min_width=0.0)
        narrow = layout_profile(lulesh, min_width=20.0)
        assert narrow.laid_out_nodes < wide.laid_out_nodes
        assert narrow.skipped_nodes > 0

    def test_lazy_stub_carries_sources(self, simple_profile):
        flame = layout_profile(simple_profile)
        work = [r for r in flame.rects if r.node.frame.name == "work"][0]
        assert work.node.sources
        assert work.node.sources[0].frame.name == "work"

    def test_fits_text(self, simple_profile):
        flame = layout(top_down(simple_profile), canvas_width=1000.0)
        root = [r for r in flame.rects if r.depth == 0][0]
        assert root.fits_text()
