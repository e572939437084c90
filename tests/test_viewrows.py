"""Differential oracle for the view-row kernels behind the IDE requests.

Each request the viewer session answers on columnar rows — hover and
code-lens attribution, assembly annotations, search and its coverage,
the summary window, zoom, click/select and the tree table — is held
against the object oracle (:mod:`repro.bench.view_oracle`) run on a twin
of the same view without arrays (``twins.facade_only``), so the oracle
walks its ``ViewNode`` facade and the CCT nodes behind its sources.  Inputs are two corpus
profiles and hypothesis profiles with tied values (built through the
object API, then given arrays).  Results must be equal exactly,
floating-point sums and tie-breaks included.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import viewrows
from repro.analysis.aggregate import merge_trees
from repro.analysis.diff import diff_trees
from repro.analysis.query import match_fraction, search
from repro.analysis.transform import transform
from repro.bench import view_oracle
from repro.converters import pprof
from repro.core.frame import FrameKind, intern_frame
from repro.core.metric import Metric
from repro.core.profile import Profile
from repro.ide.annotations import (assembly_attribution,
                                   build_floating_window, line_attribution)
from repro.profilers.corpus import generate_bytes, tier
from repro.viz.layout import layout
from repro.viz.terminal import render_summary
from repro.viz.treetable import TreeTable

from .twins import facade_only

SHAPES = ("top_down", "bottom_up", "flat")


# -- inputs -------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    """Two small-tier pprof profiles (columnar)."""
    return [pprof.parse(generate_bytes(tier("small"), compress=False)),
            pprof.parse(generate_bytes(
                dataclasses.replace(tier("small"), seed=99),
                compress=False))]


def _views(profiles, kind):
    """(columnar tree, facade twin) for a shape, a diff or an aggregate."""
    def build():
        trees = [transform(profile, kind if kind in SHAPES else "top_down")
                 for profile in profiles]
        if kind in SHAPES:
            return trees[0]
        return diff_trees(*trees) if kind == "diff" else merge_trees(trees)

    return build(), facade_only(build())


KINDS = SHAPES + ("diff", "aggregate")

_names = st.sampled_from(["alpha", "beta", "gamma", "Handle", "delta"])
_files = st.sampled_from(["a.py", "b.py", ""])
_lines = st.integers(min_value=0, max_value=3)
# Few distinct values: ties everywhere (top-k, table sort, hot path).
_values = st.sampled_from([0.0, 1.0, 2.0, 2.0, 0.5, 1e6])


@st.composite
def _samples(draw):
    n_metrics = draw(st.integers(min_value=1, max_value=3))
    samples = []
    for _ in range(draw(st.integers(min_value=1, max_value=14))):
        path = []
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            path.append(intern_frame(draw(_names), file=draw(_files),
                                     line=draw(_lines)))
        if draw(st.booleans()):
            path.append(intern_frame(
                "insn", file=draw(_files), line=draw(_lines),
                address=draw(st.integers(min_value=0, max_value=2)),
                kind=FrameKind.INSTRUCTION))
        values = {index: draw(_values) for index in range(n_metrics)
                  if draw(st.booleans())}
        samples.append((path, values))
    return n_metrics, samples


def _build(n_metrics, samples):
    profile = Profile()
    for index in range(n_metrics):
        profile.add_metric(Metric(name="m%d" % index))
    for path, values in samples:
        profile.add_sample(path, values)
    assert profile.columnar(build=True) is not None
    return profile


# -- the comparisons ------------------------------------------------------------

def _object_table_rows(tree, expanded, column, inclusive):
    """The tree table's visible rows, computed on the facade."""
    rows = []

    def value(node, index):
        table = node.inclusive if inclusive else node.exclusive
        return table.get(index, 0.0)

    def emit(node, depth):
        rows.append((node.label(), depth, id(node) in expanded,
                     [value(node, c) for c in range(len(tree.schema))]))
        if id(node) in expanded:
            for child in sorted(node.children.values(),
                                key=lambda n: -value(n, column)):
                emit(child, depth + 1)

    for child in sorted(tree.root.children.values(),
                        key=lambda n: -value(n, column)):
        emit(child, 0)
    return rows


def _object_click(tree, node):
    best = None
    if node.sources:
        best = max(node.sources,
                   key=lambda s: sum(s.metrics.values()) if s.metrics else 0)
    first = next(iter(node.histogram.values())) if node.histogram else None
    return (best.frame if best is not None else None,
            sorted(node.inclusive.items()), first)


def _oracle_window(tree):
    """The summary floating window's body, read off the object tree."""
    lines = ["view: %s" % tree.shape, "contexts: %d" % tree.node_count()]
    for index, metric in enumerate(tree.schema):
        lines.append("total %s: %s"
                     % (metric.name, metric.format_value(tree.total(index))))
    return "\n".join(lines + ["", view_oracle.render_summary(tree)])


def check_all(col_tree, obj_tree):
    cvt = col_tree.columnar()
    assert isinstance(obj_tree, view_oracle.ObjectTree)
    assert line_attribution(col_tree) == \
        view_oracle.line_attribution(obj_tree)
    assert assembly_attribution(col_tree) == \
        view_oracle.assembly_attribution(obj_tree)

    for pattern in ("Handle", "a", "zzz"):
        col = search(col_tree, pattern)
        obj = view_oracle.search(obj_tree, pattern)
        assert [viewrows.row_label(cvt, row) for row in col.rows.tolist()] \
            == [node.label() for node in obj]
        for metric in range(len(col_tree.schema)):
            assert match_fraction(col_tree, col, metric) \
                == view_oracle.match_fraction(obj_tree, obj, metric)
    assert render_summary(col_tree) == view_oracle.render_summary(obj_tree)
    assert build_floating_window(col_tree).body == _oracle_window(obj_tree)

    # Zoom into every match of a broad pattern, plus the root.
    col = search(col_tree, "a")
    obj = view_oracle.search(obj_tree, "a")
    for row, node in list(zip(col.rows.tolist(), obj))[:12] + [(0, None)]:
        zoomed = layout(col_tree, root=row, min_width=0.0)
        oracle = view_oracle.layout(obj_tree, root=node or obj_tree.root,
                                    min_width=0.0)
        assert zoomed.laid_out_nodes == oracle.laid_out_nodes
        assert zoomed.max_depth == oracle.max_depth
        assert zoomed.skipped_nodes == oracle.skipped_nodes
        geometry = zoomed.geometry
        # x comes from differenced running sums (as for every columnar
        # layout): equal up to rounding, like the unzoomed layout oracle.
        assert geometry.x.tolist() == pytest.approx(
            [r.x for r in oracle.rects], rel=1e-9, abs=1e-9)
        assert geometry.width.tolist() == [r.width for r in oracle.rects]
        assert geometry.depth.tolist() == [r.depth for r in oracle.rects]
        assert [viewrows.row_label(cvt, r) for r in geometry.row.tolist()] \
            == [r.node.label() for r in oracle.rects]
        # The click/select payload of the same row.
        best, metrics, first = _object_click(obj_tree, node or obj_tree.root)
        assert viewrows.best_source_frame(cvt, row) == best
        assert viewrows.row_metrics(cvt, row) == metrics
        assert viewrows.row_histogram(cvt, row) == first

    # The tree table: hot path, then everything to depth 2.
    for inclusive in (True, False):
        table = TreeTable(col_tree, inclusive=inclusive)
        path = table.expand_hot_path()
        oracle_path = view_oracle.hot_path(obj_tree, table.sort_column)
        assert [viewrows.row_label(cvt, row) for row in path.rows.tolist()] \
            == [node.label() for node in oracle_path]
        expanded = {id(obj_tree.root)} | {id(node) for node in oracle_path}
        assert [(row.label(), row.depth, row.expanded, row.values)
                for row in table.rows()] == _object_table_rows(
            obj_tree, expanded, table.sort_column, inclusive)
        table.expand_all(max_depth=2)
        expanded |= {id(node) for node in obj_tree.nodes()
                     if node.depth() < 2}
        assert [(row.label(), row.depth, row.expanded, row.values)
                for row in table.rows()] == _object_table_rows(
            obj_tree, expanded, table.sort_column, inclusive)


@pytest.mark.parametrize("kind", KINDS)
def test_corpus_kernels_match_facade(corpus, kind):
    check_all(*_views(corpus, kind))


@given(_samples(), _samples())
@settings(max_examples=30, deadline=None)
def test_hypothesis_kernels_match_facade(draw_a, draw_b):
    profiles = [_build(*draw_a), _build(*draw_b)]
    for kind in KINDS:
        check_all(*_views(profiles, kind))


def test_kernels_build_no_facade(corpus):
    """The row kernels never touch ``ViewNode``s or CCT objects."""
    from repro import obs
    counters = obs.get_registry()
    before = (counters.counter("analysis.view_materializations").value,
              counters.counter("core.cct_materializations").value)
    raws = [generate_bytes(tier("small"), compress=False)]
    tree = transform(pprof.parse(raws[0]), "bottom_up")
    line_attribution(tree)
    assembly_attribution(tree)
    match_fraction(tree, search(tree, "Handle"))
    build_floating_window(tree)
    layout(tree, root=int(search(tree, "Handle").rows[0]))
    TreeTable(tree).expand_hot_path()
    cvt = tree.columnar()
    viewrows.best_source_frame(cvt, 1)
    after = (counters.counter("analysis.view_materializations").value,
             counters.counter("core.cct_materializations").value)
    assert after == before
    assert cvt.node_objects is None


def test_node_rows_behave_like_node_lists(corpus):
    col_tree, obj_tree = _views(corpus, "top_down")
    matches = search(col_tree, "Handle")
    assert len(matches) == len(view_oracle.search(obj_tree, "Handle"))
    nodes = list(matches)
    assert matches == nodes and matches[0] is nodes[0]
    assert np.array_equal(matches.rows, search(col_tree, "Handle").rows)
