"""Tests for SVG/terminal/HTML renderers, colors, and histograms."""

import pytest

from repro.analysis.diff import diff_profiles
from repro.analysis.transform import top_down
from repro.viz.color import ansi_index, css, diff_color, frame_color
from repro.viz.flamegraph import FlameGraph
from repro.viz.histogram import (histogram_svg, histogram_text, sparkline,
                                 trend_label)
from repro.viz.html import HtmlReport
from repro.viz.layout import layout
from repro.viz.svg import render_diff_svg, render_svg
from repro.viz.terminal import (render_flame_text, render_summary,
                                render_tree_text)

from .twins import empty_view


class TestColors:
    def test_frame_color_deterministic(self, simple_profile):
        tree = top_down(simple_profile)
        work = tree.find_by_name("work")[0]
        assert frame_color(work) == frame_color(work)

    def test_mapped_frames_more_saturated(self):
        from repro.analysis.viewtree import ViewNode
        from repro.core.frame import intern_frame
        mapped = ViewNode(intern_frame("f", "a.c", 3))
        unmapped = ViewNode(intern_frame("f"))
        r1, g1, b1 = frame_color(mapped)
        r2, g2, b2 = frame_color(unmapped)
        # Unmapped frames render washed out (lighter).
        assert (r2 + g2 + b2) > (r1 + g1 + b1)

    def test_diff_color_directions(self, simple_profile):
        from repro.analysis.viewtree import ViewNode
        from repro.core.frame import intern_frame
        grew = ViewNode(intern_frame("g"))
        grew.baseline[0] = 10.0
        grew.inclusive[0] = 30.0
        r, g, b = diff_color(grew)
        assert r > b  # red-ish
        shrank = ViewNode(intern_frame("s"))
        shrank.baseline[0] = 30.0
        shrank.inclusive[0] = 10.0
        r, g, b = diff_color(shrank)
        assert b > r  # blue-ish
        added = ViewNode(intern_frame("a"))
        added.tag = "A"
        assert diff_color(added) == (214, 39, 40)

    def test_css_and_ansi(self):
        assert css((1, 2, 3)) == "rgb(1,2,3)"
        assert 16 <= ansi_index((255, 0, 0)) <= 231


class TestSvg:
    def test_svg_structure(self, simple_profile):
        flame = layout(top_down(simple_profile))
        svg = render_svg(flame, title="test graph")
        assert svg.startswith("<svg")
        assert svg.count("<rect") >= flame.laid_out_nodes
        assert "test graph" in svg
        assert "main" in svg

    def test_svg_escapes_markup(self):
        from repro import ProfileBuilder
        builder = ProfileBuilder()
        cpu = builder.metric("cpu")
        builder.sample([("operator<<", "a.cc", 1)], {cpu: 5})
        flame = layout(top_down(builder.build()))
        svg = render_svg(flame)
        assert "operator<<" not in svg
        assert "operator&lt;&lt;" in svg

    def test_svg_tooltips_have_percentages(self, simple_profile):
        svg = render_svg(layout(top_down(simple_profile)))
        assert "100.0%" in svg

    def test_diff_svg(self, simple_profile):
        tree = diff_profiles(simple_profile, simple_profile)
        svg = render_diff_svg(layout(tree))
        assert "Differential" in svg

    def test_differential_metric_index_agrees_with_tags(self):
        # Regression: ``metric`` was resolved twice — once inside
        # diff_profiles (against the baseline schema) and once against the
        # diff tree's union schema — so a metric the treatment introduced
        # raised SchemaError.  A single union-schema resolution must leave
        # metric_index and the node tags in agreement.
        from repro import ProfileBuilder

        def prof(metrics, alloc):
            builder = ProfileBuilder()
            idx = {m: builder.metric(m) for m in metrics}
            values = {idx["cpu"]: 10.0}
            if "alloc" in idx:
                values[idx["alloc"]] = alloc
            builder.sample([("main", "s.c", 1), ("work", "s.c", 2)], values)
            return builder.build()

        base = prof(["cpu"], 0.0)
        treat = prof(["alloc", "cpu"], 64.0)
        graph = FlameGraph.differential(base, treat, metric="alloc")
        assert graph.metric_index == graph.tree.schema.index_of("alloc")
        work = graph.tree.find_by_name("work")[0]
        assert work.tag == "+"
        assert work.delta(graph.metric_index) == 64.0

    def test_flamegraph_search_highlight(self, simple_profile):
        graph = FlameGraph.top_down(simple_profile)
        graph.search("work")
        svg = graph.to_svg()
        assert "stroke=" in svg
        graph.clear_search()
        assert "stroke=" not in graph.to_svg()


class TestTerminal:
    def test_flame_text_rows(self, simple_profile):
        flame = layout(top_down(simple_profile))
        text = render_flame_text(flame, width=60)
        lines = text.splitlines()
        assert len(lines) == flame.max_depth + 1
        assert "main" in text

    def test_flame_text_color_codes(self, simple_profile):
        flame = layout(top_down(simple_profile))
        text = render_flame_text(flame, width=60, color=True)
        assert "\x1b[48;5;" in text and "\x1b[0m" in text

    def test_tree_text_percentages(self, simple_profile):
        text = render_tree_text(top_down(simple_profile))
        assert "(100.0%)" in text
        assert "work" in text and "(90.0%)" in text

    def test_tree_text_shows_diff_tags(self, spark_pair):
        rdd, sql = spark_pair
        text = render_tree_text(diff_profiles(rdd, sql))
        assert "[A]" in text and "[D]" in text

    def test_summary_ranks_exclusive(self, simple_profile):
        text = render_summary(top_down(simple_profile))
        lines = [l for l in text.splitlines()[1:] if l.strip()]
        assert "inner" in lines[0]   # hottest exclusive context first

    def test_empty_layout_text(self):
        assert "empty" in render_flame_text(layout(empty_view()))


class TestHistogram:
    def test_sparkline_levels(self):
        spark = sparkline([0.0, 50.0, 100.0])
        assert len(spark) == 3
        assert spark[0] == "▁" and spark[-1] == "█"

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_histogram_text_bars(self):
        text = histogram_text([1.0, 2.0, 4.0], width=8)
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[2].count("█") > lines[0].count("█")

    def test_histogram_rebinning(self):
        text = histogram_text(list(range(100)), bins=10)
        assert len(text.splitlines()) == 10

    def test_histogram_svg(self):
        svg = histogram_svg([1.0, 5.0, 2.0], title="live bytes")
        assert svg.count("<rect") >= 4
        assert "live bytes" in svg

    def test_trend_labels(self):
        assert "no sign of reclamation" in trend_label([100.0] * 10)
        assert trend_label([100, 80, 40, 10, 2]).startswith("reclaiming")


class TestHtmlReport:
    def test_report_sections(self, simple_profile):
        graph = FlameGraph.top_down(simple_profile)
        report = (HtmlReport("my report")
                  .add_heading("flame")
                  .add_paragraph("commentary <script>")
                  .add_flamegraph(graph)
                  .add_histogram([1.0, 2.0], title="h")
                  .add_preformatted(graph.to_outline()))
        html = report.render()
        assert html.startswith("<!DOCTYPE html>")
        assert "my report" in html
        assert "&lt;script&gt;" in html       # escaped
        assert "<svg" in html

    def test_report_table(self, simple_profile):
        from repro.viz.treetable import TreeTable
        table = TreeTable(top_down(simple_profile))
        table.expand_all()
        html = HtmlReport("t").add_table(table).render()
        assert "<table>" in html and "work" in html

    def test_save(self, tmp_path, simple_profile):
        path = str(tmp_path / "report.html")
        HtmlReport("x").save(path)
        assert open(path).read().startswith("<!DOCTYPE")


class TestDotExport:
    def test_dot_structure(self, simple_profile):
        from repro.analysis.transform import top_down
        from repro.viz.dot import to_dot
        dot = to_dot(top_down(simple_profile), title="test graph")
        assert dot.startswith("digraph easyview {")
        assert dot.rstrip().endswith("}")
        assert "test graph" in dot
        # Nodes for every function, edges along the call structure.
        for name in ("main", "work", "inner", "idle"):
            assert name in dot
        assert "->" in dot

    def test_dot_escaping(self):
        from repro import ProfileBuilder
        from repro.analysis.transform import top_down
        from repro.viz.dot import to_dot
        builder = ProfileBuilder()
        cpu = builder.metric("cpu")
        builder.sample([('say "hi"', "a.c", 1)], {cpu: 5})
        dot = to_dot(top_down(builder.build()))
        assert '\\"hi\\"' in dot

    def test_dot_max_nodes(self, lulesh):
        from repro.analysis.transform import top_down
        from repro.viz.dot import to_dot
        small = to_dot(top_down(lulesh), max_nodes=3)
        large = to_dot(top_down(lulesh), max_nodes=100)
        assert small.count("[label=") < large.count("[label=")

    def test_dot_merges_call_paths(self, lulesh):
        from repro.analysis.transform import top_down
        from repro.viz.dot import to_dot
        dot = to_dot(top_down(lulesh))
        # brk appears in many call paths but becomes one graph node.
        node_lines = [l for l in dot.splitlines()
                      if "brk" in l and "label=" in l and "->" not in l]
        assert len(node_lines) == 1


class TestWebView:
    def test_self_contained_page(self, simple_profile):
        from repro.viz.webview import render_webview
        page = render_webview(simple_profile, title="my <viewer>")
        assert page.startswith("<!DOCTYPE html>")
        assert "my &lt;viewer&gt;" in page
        # Zero external resources: no http(s) URLs outside comments.
        assert "http://" not in page and "https://" not in page
        assert "<script>" in page and "</script>" in page

    def test_embedded_data_parses(self, simple_profile):
        import json
        import re
        from repro.viz.webview import render_webview
        page = render_webview(simple_profile)
        match = re.search(r"var DATA = (\{.*?\});\n", page, re.DOTALL)
        assert match
        data = json.loads(match.group(1))
        assert set(data["shapes"]) == {"top_down", "bottom_up", "flat"}
        assert data["metrics"] == ["cpu", "alloc"]
        top = data["shapes"]["top_down"][0]
        assert top["value"] == 1000.0
        names = set()

        def walk(node):
            names.add(node["name"])
            for child in node.get("children", []):
                walk(child)

        walk(top)
        assert {"main", "work", "inner", "idle"} <= names

    def test_min_fraction_prunes_embedded_tree(self, lulesh):
        import re
        from repro.viz.webview import render_webview
        fine = render_webview(lulesh, min_fraction=0.0)
        coarse = render_webview(lulesh, min_fraction=0.05)
        assert len(coarse) < len(fine)

    def test_metric_subset(self, simple_profile):
        from repro.viz.webview import render_webview
        page = render_webview(simple_profile, metrics=["alloc"])
        assert '<option value="0">alloc</option>' in page
        assert "cpu</option>" not in page

    def test_save(self, tmp_path, simple_profile):
        from repro.viz.webview import save_webview
        path = str(tmp_path / "view.html")
        save_webview(simple_profile, path, title="t")
        assert open(path).read().startswith("<!DOCTYPE")

    def test_locations_embedded_for_code_links(self, simple_profile):
        from repro.viz.webview import render_webview
        assert "app.c:42" in render_webview(simple_profile)
