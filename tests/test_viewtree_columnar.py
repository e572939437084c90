"""Differential oracle for the columnar view pipeline.

The array-backed view trees (:mod:`repro.analysis.viewtree_columnar`) and
the per-``ViewNode`` object oracle (:mod:`repro.bench.view_oracle`)
must be observably identical: same materialized trees (child insertion
order included), same digests, same aggregate and diff results, same
flame-graph rectangles.  The object path is kept alive purely as the
oracle these tests hold the vectorized path against — on corpus
fixtures, synthetic workloads, a 10k-deep call chain, and randomized
trees via hypothesis round-trips.  Also here: regression tests for
in-place mutation (column-wise mutators and derived-metric callbacks
keep the backing and stay equal to the object path).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import formula
from repro.analysis.aggregate import merge_trees
from repro.analysis.diff import add_delta_column, diff_trees, summarize
from repro.analysis.transform import bottom_up, flat, top_down, transform
from repro.analysis import viewtree_columnar
from repro.bench import view_oracle
from repro.bench.pprof_oracle import parse_object
from repro.bench.profile_oracle import ObjectProfile, fold
from repro.converters import pprof
from repro.core.digest import viewtree_digest
from repro.core.frame import FrameKind, intern_frame
from repro.core.metric import Aggregation, Metric, MetricSchema
from repro.profilers.corpus import generate_bytes, tier
from repro.profilers.workloads import (deep_path_profile, lulesh_profile,
                                       spark_profile)

from .twins import (assert_views_identical, facade_only, object_only,
                    with_arrays)

SHAPES = ("top_down", "bottom_up", "flat")


def _pair(raw):
    """(columnar-backed, object-only) profiles off the same bytes."""
    return pprof.parse(raw), parse_object(raw)


def _oracle(raw, shape):
    """The object-path view of an object-only profile off ``raw``."""
    return view_oracle.transform(parse_object(raw), shape)


@pytest.fixture(scope="module")
def corpus_raw():
    return generate_bytes(tier("small"), compress=False)


@pytest.fixture(scope="module")
def corpus_raw_alt():
    return generate_bytes(dataclasses.replace(tier("small"), seed=99),
                          compress=False)


class TestTransformOracle:
    """Each vectorized transform vs the object transform, bit for bit."""

    @staticmethod
    def check(col_profile, obj_profile, shape):
        """The oracle's view of the object-only profile against the view
        of the array-backed one, node by node, and against the view of
        the object-only one, folded, by digest."""
        assert col_profile.columnar() is not None
        assert isinstance(obj_profile, ObjectProfile)
        obj_tree = view_oracle.transform(obj_profile, shape)
        col_tree = transform(col_profile, shape)
        assert col_tree.columnar() is not None
        assert isinstance(obj_tree, view_oracle.ObjectTree)
        assert_views_identical(col_tree, obj_tree)
        expected = view_oracle.digest(obj_tree)
        assert viewtree_digest(col_tree) == expected
        folded = transform(fold(obj_profile), shape)
        assert folded.columnar() is not None
        assert viewtree_digest(folded) == expected

    @pytest.mark.parametrize("shape", SHAPES)
    def test_corpus(self, corpus_raw, shape):
        self.check(*_pair(corpus_raw), shape)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("workload", [lulesh_profile, spark_profile])
    def test_workloads(self, workload, shape):
        self.check(workload(), object_only(workload()), shape)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_deep_chain(self, shape):
        self.check(deep_path_profile(), object_only(deep_path_profile()),
                   shape)


class TestAggregateOracle:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_merge(self, corpus_raw, corpus_raw_alt, shape):
        col = [transform(pprof.parse(corpus_raw), shape),
               transform(pprof.parse(corpus_raw_alt), shape)]
        obj = [_oracle(corpus_raw, shape), _oracle(corpus_raw_alt, shape)]
        merged_col = merge_trees(col)
        merged_obj = view_oracle.merge_trees(obj)
        assert merged_col.columnar() is not None
        assert_views_identical(merged_col, merged_obj)
        assert viewtree_digest(merged_col) == view_oracle.digest(merged_obj)

    def test_merge_of_merges(self, corpus_raw, corpus_raw_alt):
        """Nested merges keep the columnar path and stay lazy."""
        col = [transform(pprof.parse(corpus_raw), "top_down"),
               transform(pprof.parse(corpus_raw_alt), "top_down")]
        obj = [_oracle(corpus_raw, "top_down"),
               _oracle(corpus_raw_alt, "top_down")]
        nested_col = merge_trees([merge_trees(col), merge_trees(col)],
                                 operators=(Aggregation.SUM,))
        nested_obj = view_oracle.merge_trees(
            [view_oracle.merge_trees(obj), view_oracle.merge_trees(obj)],
            operators=(Aggregation.SUM,))
        assert nested_col.columnar() is not None
        assert_views_identical(nested_col, nested_obj)

    def test_stat_operator_coverage(self, corpus_raw, corpus_raw_alt):
        """Every aggregation operator, columnar vs object."""
        operators = (Aggregation.SUM, Aggregation.MIN, Aggregation.MAX,
                     Aggregation.MEAN, Aggregation.LAST)
        col = [transform(pprof.parse(corpus_raw), "top_down"),
               transform(pprof.parse(corpus_raw_alt), "top_down")]
        obj = [_oracle(corpus_raw, "top_down"),
               _oracle(corpus_raw_alt, "top_down")]
        merged_col = merge_trees(col, operators=operators)
        merged_obj = view_oracle.merge_trees(obj, operators=operators)
        assert merged_col.columnar() is not None
        assert_views_identical(merged_col, merged_obj)
        assert viewtree_digest(merged_col) == view_oracle.digest(merged_obj)


    @pytest.mark.parametrize("series", [
        [1e16, 1.0, -1e16],
        [1.0, float("nan"), 2.0, float("inf")],
        [float("inf"), 1.0, float("-inf")],
        [0.1, 0.2, 0.3, -0.6, 1e-17],
    ])
    @pytest.mark.parametrize("op", [Aggregation.SUM, Aggregation.MEAN])
    def test_fold_order_matches_columnar(self, op, series):
        """The object merge folds SUM/MEAN left to right like the arrays,
        on every interpreter (``sum`` compensates from Python 3.12 on)."""
        import math
        import numpy as np
        want = float(viewtree_columnar._combine(
            op, np.array([series], dtype=np.float64))[0])
        got = op.combine(series)
        assert got == want or (math.isnan(got) and math.isnan(want))


class TestDiffOracle:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_diff(self, corpus_raw, corpus_raw_alt, shape):
        diff_col = diff_trees(transform(pprof.parse(corpus_raw), shape),
                              transform(pprof.parse(corpus_raw_alt), shape))
        diff_obj = view_oracle.diff_trees(_oracle(corpus_raw, shape),
                                          _oracle(corpus_raw_alt, shape))
        assert diff_col.columnar() is not None
        assert_views_identical(diff_col, diff_obj)
        assert viewtree_digest(diff_col) == view_oracle.digest(diff_obj)
        assert summarize(diff_col) == view_oracle.summarize(diff_obj)

    def test_diff_tolerance(self, corpus_raw, corpus_raw_alt):
        diff_col = diff_trees(
            transform(pprof.parse(corpus_raw), "top_down"),
            transform(pprof.parse(corpus_raw_alt), "top_down"),
            tolerance=50.0)
        diff_obj = view_oracle.diff_trees(
            _oracle(corpus_raw, "top_down"),
            _oracle(corpus_raw_alt, "top_down"),
            tolerance=50.0)
        assert diff_col.columnar() is not None
        assert summarize(diff_col) == view_oracle.summarize(diff_obj)
        assert_views_identical(diff_col, diff_obj)

    def test_self_diff_all_same(self, corpus_raw):
        tree = transform(pprof.parse(corpus_raw), "top_down")
        diffed = diff_trees(tree, tree)
        assert diffed.columnar() is not None
        tags = summarize(diffed)
        assert set(tags) == {"="}


class TestMutationInvalidation:
    """In-place mutators: ``derive``, ``add_delta_column`` and derived
    -metric callbacks install a new array snapshot (copy-on-write) that
    matches the object path byte for byte."""

    def test_derive_keeps_backing_and_redigests(self, corpus_raw):
        tree = transform(pprof.parse(corpus_raw), "top_down")
        oracle = facade_only(transform(pprof.parse(corpus_raw), "top_down"))
        snapshot = tree.columnar()
        before = viewtree_digest(tree)
        first = tree.schema.names()[0]
        column = formula.derive(tree, "doubled", "2 * %s" % first)
        assert view_oracle.derive(oracle, "doubled",
                                  "2 * %s" % first) == column
        assert tree.columnar() is not None
        # Copy-on-write: the old snapshot keeps its arrays unchanged.
        assert tree.columnar() is not snapshot
        assert snapshot.n_metrics == column
        assert viewtree_digest(tree) != before
        assert viewtree_digest(tree) == view_oracle.digest(oracle)
        assert_views_identical(tree, oracle)
        root = tree.root
        assert root.inclusive[column] == 2 * root.inclusive.get(0, 0.0)

    def test_derive_callback_keeps_backing(self, corpus_raw):
        from repro.analysis.callbacks import Customization
        custom = Customization().derive(Metric("one"), lambda node, env: 1.0)
        tree = transform(pprof.parse(corpus_raw), "top_down",
                         customization=custom)
        assert tree.columnar() is not None
        assert tree.root.inclusive[tree.schema.index_of("one")] == 1.0
        oracle = _oracle(corpus_raw, "top_down")
        view_oracle.finish(custom, oracle)
        assert_views_identical(tree, oracle)
        assert viewtree_digest(tree) == view_oracle.digest(oracle)

    def test_derive_matches_object_path(self, corpus_raw):
        col_tree = transform(pprof.parse(corpus_raw), "top_down")
        obj_tree = _oracle(corpus_raw, "top_down")
        first = col_tree.schema.names()[0]
        formula.derive(col_tree, "doubled", "2 * %s" % first)
        view_oracle.derive(obj_tree, "doubled", "2 * %s" % first)
        assert_views_identical(col_tree, obj_tree)
        assert viewtree_digest(col_tree) == view_oracle.digest(obj_tree)

    def test_sources_resolve_after_mutation(self, corpus_raw):
        """Lazy source parts must survive a new array snapshot."""
        tree = transform(pprof.parse(corpus_raw), "top_down")
        formula.derive(tree, "d", "1 + %s" % tree.schema.names()[0])
        child = tree.root.sorted_children()[0]
        assert len(child.sources) > 0
        assert all(source.frame is not None for source in child.sources)

    @pytest.mark.parametrize("mode", ["subtract", "ratio"])
    def test_add_delta_column_keeps_backing(self, corpus_raw, corpus_raw_alt,
                                            mode):
        diffed = diff_trees(
            transform(pprof.parse(corpus_raw), "top_down"),
            transform(pprof.parse(corpus_raw_alt), "top_down"))
        oracle = facade_only(diff_trees(
            transform(pprof.parse(corpus_raw), "top_down"),
            transform(pprof.parse(corpus_raw_alt), "top_down")))
        before = viewtree_digest(diffed)
        assert add_delta_column(diffed, 0, mode) == \
            view_oracle.add_delta_column(oracle, 0, mode)
        assert diffed.columnar() is not None
        assert viewtree_digest(diffed) != before
        assert viewtree_digest(diffed) == view_oracle.digest(oracle)
        assert_views_identical(diffed, oracle)


class TestLayoutOracle:
    """Flame rects from preorder arrays vs the object stack walk."""

    @staticmethod
    def _assert_layouts_identical(col_layout, obj_layout):
        assert col_layout.geometry is not None
        assert obj_layout.geometry is None
        assert col_layout.laid_out_nodes == obj_layout.laid_out_nodes
        assert col_layout.skipped_nodes == obj_layout.skipped_nodes
        assert col_layout.max_depth == obj_layout.max_depth
        assert col_layout.total_value == obj_layout.total_value
        assert len(col_layout.rects) == len(obj_layout.rects)
        for ours, theirs in zip(col_layout.rects, obj_layout.rects):
            assert ours.node.frame == theirs.node.frame
            assert ours.depth == theirs.depth
            assert ours.width == theirs.width
            # x accumulates sibling widths with a different float
            # association (grouped prefix sums vs a serial cursor) — equal
            # to rounding, not bitwise.
            assert ours.x == pytest.approx(theirs.x, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kwargs", [
        {}, {"min_width": 0.0}, {"min_width": 5.0}, {"max_depth": 3},
        {"max_depth": 0}, {"canvas_width": 640.0, "min_width": 2.0}])
    def test_corpus_layouts(self, corpus_raw, shape, kwargs):
        from repro.viz.layout import layout
        col_tree = transform(pprof.parse(corpus_raw), shape)
        obj_tree = _oracle(corpus_raw, shape)
        self._assert_layouts_identical(layout(col_tree, **kwargs),
                                       view_oracle.layout(obj_tree, **kwargs))

    def test_merge_and_diff_layouts(self, corpus_raw, corpus_raw_alt):
        from repro.viz.layout import layout
        col = [transform(pprof.parse(corpus_raw), "top_down"),
               transform(pprof.parse(corpus_raw_alt), "top_down")]
        obj = [_oracle(corpus_raw, "top_down"),
               _oracle(corpus_raw_alt, "top_down")]
        self._assert_layouts_identical(
            layout(merge_trees(col)),
            view_oracle.layout(view_oracle.merge_trees(obj)))
        self._assert_layouts_identical(
            layout(diff_trees(col[0], col[1]), metric_index=1),
            view_oracle.layout(view_oracle.diff_trees(obj[0], obj[1]),
                               metric_index=1))

    def test_geometry_is_lazy(self, corpus_raw):
        from repro.viz.layout import layout
        tree = transform(pprof.parse(corpus_raw), "top_down")
        laid = layout(tree)
        # Geometry comes without materializing the facade.
        assert tree.columnar().node_objects is None
        geometry = laid.geometry
        assert len(laid.rects) == geometry.row.shape[0] > 0
        colors = geometry.colors()
        assert len(colors) == len(laid.rects)
        assert tree.columnar().node_objects is None
        # Touching a rect's node forces the facade exactly once.
        first = laid.rects[0]
        assert first.node is tree.root
        assert tree.columnar().node_objects is not None

    def test_geometry_colors_match_object_colors(self, corpus_raw):
        from repro.viz.color import frame_color
        from repro.viz.layout import layout
        tree = transform(pprof.parse(corpus_raw), "top_down")
        laid = layout(tree)
        colors = laid.geometry.colors()
        for rect, color in zip(laid.rects, colors):
            assert frame_color(rect.node) == color

    def test_zoomed_layout_takes_a_row(self, corpus_raw):
        from repro.viz.layout import layout
        tree = transform(pprof.parse(corpus_raw), "top_down")
        zoom_root = tree.root.sorted_children()[0]
        row = tree.columnar().facade().index(zoom_root)
        zoomed = layout(tree, root=row)
        assert zoomed.rects[0].node is zoom_root
        self._assert_layouts_identical(
            zoomed, view_oracle.layout(facade_only(tree), root=zoom_root))


class TestRoundTrip:
    """columnar → facade → ``view_oracle.to_arrays`` → facade fixpoint."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_corpus_round_trip(self, corpus_raw, shape):
        tree = transform(pprof.parse(corpus_raw), shape)
        digest = viewtree_digest(tree)
        round_trip = with_arrays(facade_only(tree))
        assert viewtree_digest(round_trip) == digest
        assert_views_identical(round_trip, tree)


# -- hypothesis round-trips ------------------------------------------------

_names = st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"])
_files = st.sampled_from(["a.py", "b.py", ""])
_values = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    width=32)


@st.composite
def _view_trees(draw):
    schema = MetricSchema()
    n_metrics = draw(st.integers(min_value=1, max_value=3))
    for i in range(n_metrics):
        schema.add(Metric(name="m%d" % i, unit="u",
                          aggregation=Aggregation.SUM))
    tree = view_oracle.ObjectTree(schema)
    nodes = [tree.root]
    count = draw(st.integers(min_value=0, max_value=24))
    for index in range(count):
        parent = nodes[draw(st.integers(min_value=0,
                                        max_value=len(nodes) - 1))]
        frame = intern_frame(name=draw(_names), file=draw(_files),
                             line=draw(st.integers(0, 3)),
                             kind=FrameKind.FUNCTION)
        node = parent.child(frame)
        for i in range(n_metrics):
            if draw(st.booleans()):
                node.add_inclusive(i, draw(_values))
            if draw(st.booleans()):
                node.add_exclusive(i, draw(_values))
        if draw(st.booleans()):
            node.histogram[draw(st.integers(0, n_metrics - 1))] = [
                draw(_values), draw(_values)]
        nodes.append(node)
    return tree


@given(_view_trees())
@settings(max_examples=40, deadline=None)
def test_hypothesis_columnar_facade_round_trip(tree):
    facade = with_arrays(tree)
    assert facade.node_count() == tree.node_count()
    assert viewtree_digest(facade) == view_oracle.digest(tree)
    assert_views_identical(facade, tree, check_sources=False)
    # And the facade, once materialized, re-encodes to the same digest.
    second = with_arrays(facade_only(facade))
    assert viewtree_digest(second) == view_oracle.digest(tree)
