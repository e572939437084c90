"""Differential oracle for the columnar CCT core.

The struct-of-arrays representation (:mod:`repro.core.cct_columnar`) and
the per-node object tree must be observably identical: same materialized
trees (child order included), same digests, same view trees, same
aggregate and diff results.  These tests hold the two representations
against each other on converter fixtures, synthetic workloads, randomized
trees, and a deliberately deep 10k-frame chain — plus regression tests
for the two correctness fixes that landed with the columnar core (stale
inclusive caches, nondeterministic walk order).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.aggregate import aggregate_profiles
from repro.analysis.diff import diff_profiles
from repro.analysis.metrics import compute_inclusive, inclusive_value
from repro.analysis.traversal import bfs, postorder, preorder
from repro.analysis.transform import bottom_up, top_down
from repro.analysis.viewtree import SourceList
from repro.bench import view_oracle
from repro.bench.pprof_oracle import parse_object
from repro.builder import ProfileBuilder
from repro.converters import pprof as pprof_converter
from repro.core.cct import CCT
from repro.core.cct_columnar import ColumnarBuilder, from_cct
from repro.core.digest import profile_digest, viewtree_digest
from repro.core.frame import intern_frame
from repro.core import serialize
from repro.profilers.corpus import generate_bytes, tier
from repro.profilers.workloads import (deep_path_profile, lulesh_profile,
                                       spark_profile)

from .twins import assert_views_identical


def assert_trees_identical(a, b):
    """Structural equality including child insertion order."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        assert x.frame == y.frame
        assert x.metrics == y.metrics
        assert list(x.children) == list(y.children)
        stack.extend(zip(x.children.values(), y.children.values()))


class TestConverterOracle:
    """parse() (columnar) vs parse_object() on the pprof corpus."""

    @pytest.fixture(scope="class")
    def pair(self):
        raw = generate_bytes(tier("small"), compress=False)
        return pprof_converter.parse(raw), parse_object(raw)

    def test_columnar_attached_and_lazy(self, pair):
        fast, _ = pair
        assert fast.columnar() is not None
        assert fast._cct is None  # nothing materialized the facade yet

    def test_digests_identical_without_materialization(self, pair):
        fast, ref = pair
        assert profile_digest(fast) == profile_digest(ref)
        assert fast._cct is None  # digest ran off the arrays

    def test_summary_and_totals_off_arrays(self, pair):
        fast, ref = pair
        assert fast.node_count() == ref.node_count()
        for metric in fast.schema:
            assert fast.total(metric.name) == pytest.approx(
                ref.total(metric.name))
        assert fast._cct is None

    def test_materialized_trees_identical(self, pair):
        fast, ref = pair
        assert_trees_identical(fast.root, ref.root)

    def test_view_trees_identical(self, pair):
        fast, ref = pair
        assert_views_identical(top_down(fast), view_oracle.top_down(ref))
        assert_views_identical(bottom_up(fast), view_oracle.bottom_up(ref))

    def test_diff_and_aggregate_identical(self, pair):
        fast, ref = pair
        other = parse_object(
            generate_bytes(tier("small"), compress=False))
        ref_views = [view_oracle.top_down(ref), view_oracle.top_down(other)]
        assert (viewtree_digest(diff_profiles(fast, other))
                == view_oracle.digest(view_oracle.diff_trees(*ref_views)))
        assert (viewtree_digest(aggregate_profiles([fast, other]))
                == view_oracle.digest(view_oracle.merge_trees(ref_views)))


class TestRoundTrips:
    """from_cct -> to_cct -> from_cct is the identity."""

    @pytest.mark.parametrize("make", [
        lambda: lulesh_profile(scale=3),
        lambda: spark_profile(scale=3),
    ])
    def test_workload_round_trip(self, make):
        profile = make()
        col = from_cct(profile.cct, len(profile.schema))
        rebuilt = col.to_cct()
        assert_trees_identical(profile.root, rebuilt.root)
        again = from_cct(rebuilt, len(profile.schema))
        assert np.array_equal(col.parent, again.parent)
        assert np.array_equal(col.frame_id, again.frame_id)
        assert np.array_equal(col.depth, again.depth)
        assert np.array_equal(col.values, again.values)
        assert np.array_equal(col.present, again.present)

    def test_inclusive_matrix_matches_object_pass(self):
        profile = lulesh_profile(scale=3)
        compute_inclusive(profile)
        col = from_cct(profile.cct, len(profile.schema))
        inc = col.inclusive()
        # from_cct assigns ids in insertion-order pre-order; replay that
        # walk so rows line up positionally.
        nodes = []
        stack = [profile.root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(reversed(list(node.children.values())))
        for i, node in enumerate(nodes):
            for index in range(len(profile.schema)):
                assert inc[i, index] == pytest.approx(
                    node.inclusive.get(index, 0.0))

    def test_traversal_orders_match_object_walks(self):
        profile = spark_profile(scale=3)
        col = from_cct(profile.cct, len(profile.schema))
        nodes = list(profile.nodes())
        key_of = lambda n: n.frame.key()
        pre_obj = [key_of(n) for n in preorder(profile.root)]
        post_obj = [key_of(n) for n in postorder(profile.root)]
        bfs_obj = [key_of(n) for n in bfs(profile.root)]
        frames = col.frames
        pre_col = [frames[col.frame_id[i]].key()
                   for i in col.preorder_ids().tolist()]
        post_col = [frames[col.frame_id[i]].key()
                    for i in col.postorder_ids().tolist()]
        bfs_col = [frames[col.frame_id[i]].key()
                   for i in col.bfs_ids().tolist()]
        assert pre_col == pre_obj
        assert post_col == post_obj
        assert bfs_col == bfs_obj


@st.composite
def profiles(draw):
    names = st.sampled_from(["a", "b", "c", "d", "e"])
    paths = draw(st.lists(st.lists(names, min_size=1, max_size=5),
                          min_size=1, max_size=12))
    builder = ProfileBuilder(tool="hyp")
    cpu = builder.metric("cpu")
    ops = builder.metric("ops")
    for i, path in enumerate(paths):
        values = {cpu: float(i + 1)}
        if i % 3 == 0:
            values[ops] = 0.0  # explicit zero: presence must survive
        builder.sample([(name, "h.c", j + 1) for j, name in enumerate(path)],
                       values)
    return builder.build()


class TestHypothesisRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(profiles())
    def test_columnar_facade_columnar(self, profile):
        col = from_cct(profile.cct, len(profile.schema))
        rebuilt = col.to_cct()
        assert_trees_identical(profile.root, rebuilt.root)
        again = from_cct(rebuilt, len(profile.schema))
        assert np.array_equal(col.parent, again.parent)
        assert np.array_equal(col.values, again.values)
        assert np.array_equal(col.present, again.present)

    @settings(max_examples=60, deadline=None)
    @given(profiles())
    def test_digest_agrees_across_representations(self, profile):
        object_digest = profile_digest(profile)
        clone = ProfileBuilder(tool="hyp").build()
        clone.schema = profile.schema
        clone.attach_columnar(from_cct(profile.cct, len(profile.schema)))
        assert profile_digest(clone) == object_digest


class TestStaleInclusiveCacheRegression:
    """Mutation must invalidate cached inclusive values automatically."""

    def test_requery_after_new_sample(self):
        builder = ProfileBuilder(tool="t")
        cpu = builder.metric("cpu")
        profile = builder.build()
        profile.add_sample([intern_frame("main"), intern_frame("work")],
                           {cpu: 10.0})
        assert inclusive_value(profile, profile.root, "cpu") == 10.0
        # Second sample lands after the cache was filled; the version
        # stamp must force a recompute on the next query.
        profile.add_sample([intern_frame("main"), intern_frame("other")],
                           {cpu: 5.0})
        assert inclusive_value(profile, profile.root, "cpu") == 15.0

    def test_direct_node_mutation_invalidates(self):
        builder = ProfileBuilder(tool="t")
        cpu = builder.metric("cpu")
        profile = builder.build()
        leaf = profile.add_sample([intern_frame("main")], {cpu: 4.0})
        compute_inclusive(profile)
        assert profile.root.inclusive[cpu] == 4.0
        leaf.add_value(cpu, 6.0)
        compute_inclusive(profile)
        assert profile.root.inclusive[cpu] == 10.0

    def test_columnar_snapshot_invalidated_by_mutation(self):
        profile = lulesh_profile(scale=2)
        col = profile.columnar(build=True)
        assert profile.columnar() is col
        profile.root.add_value(0, 1.0)
        assert profile.columnar() is None  # stale snapshot must not serve


class TestDeterministicWalkRegression:
    """Pre-order sibling order must be frame-sorted, not reversed-insertion."""

    def golden_tree(self):
        tree = CCT()
        # Insert children deliberately out of key order.
        for name in ("zeta", "alpha", "mid"):
            tree.add_path([intern_frame("main", "t.c", 1),
                           intern_frame(name, "t.c", 2)])
        return tree

    def test_walk_golden_order(self):
        tree = self.golden_tree()
        assert [n.frame.name for n in tree.root.walk()] == [
            "<root>", "main", "alpha", "mid", "zeta"]

    def test_preorder_golden_order(self):
        tree = self.golden_tree()
        assert [n.frame.name for n in preorder(tree.root)] == [
            "<root>", "main", "alpha", "mid", "zeta"]

    def test_insertion_order_does_not_change_walk(self):
        one = CCT()
        two = CCT()
        for name in ("c", "a", "b"):
            one.add_path([intern_frame(name, "t.c", 1)])
        for name in ("b", "c", "a"):
            two.add_path([intern_frame(name, "t.c", 1)])
        assert ([n.frame.name for n in one.root.walk()]
                == [n.frame.name for n in two.root.walk()])


class TestDeepPath:
    """A 10k-frame chain must survive every consumer."""

    @pytest.fixture(scope="class")
    def deep(self):
        return deep_path_profile(depth=10000)

    def test_shape(self, deep):
        assert deep.cct.max_depth() == 10000

    def test_traversals(self, deep):
        n = deep.node_count()
        assert sum(1 for _ in preorder(deep.root)) == n
        assert sum(1 for _ in postorder(deep.root)) == n
        assert sum(1 for _ in bfs(deep.root)) == n

    def test_views_diff_aggregate_flame(self, deep):
        other = deep_path_profile(depth=10000, seed=99)
        assert top_down(deep).node_count() == deep.node_count()
        bottom_up(deep)
        diff_profiles(deep, other)
        aggregate_profiles([deep, other])
        from repro.viz.layout import layout_profile
        assert len(layout_profile(deep).rects) == deep.node_count()

    def test_columnar_kernels_and_digest(self, deep):
        col = from_cct(deep.cct, len(deep.schema))
        assert int(col.depth.max()) == 10000
        assert col.preorder_ids().shape[0] == col.n_nodes
        assert col.postorder_ids().shape[0] == col.n_nodes
        rebuilt = col.to_cct()
        assert_trees_identical(deep.root, rebuilt.root)

    def test_serialize_round_trip(self, deep):
        data = serialize.dumps(deep)
        again = serialize.loads(data)
        # loads() takes the columnar path; digests must agree with the
        # object-built original without materializing the facade.
        assert again.columnar() is not None
        assert profile_digest(again) == profile_digest(deep)


class TestSourceList:
    def test_list_protocol(self):
        nodes = [object(), object()]
        sources = SourceList(nodes)
        assert list(sources) == nodes
        assert len(sources) == 2 and sources
        sources.append(nodes[0])
        assert sources[2] is nodes[0]
        assert sources == nodes + [nodes[0]]

    def test_lazy_resolution_counts_without_forcing(self):
        calls = []

        def resolver(payload):
            calls.append(payload)
            return ["n%d" % payload] * 2

        sources = SourceList.lazy(resolver, 7, 2)
        assert len(sources) == 2 and sources and not calls
        assert list(sources) == ["n7", "n7"]
        assert calls == [7]
        assert list(sources) == ["n7", "n7"]
        assert calls == [7]  # resolved once, then cached

    def test_copy_is_independent(self):
        sources = SourceList(["a"])
        duplicate = sources.copy()
        duplicate.append("b")
        assert list(sources) == ["a"]
        assert list(duplicate) == ["a", "b"]

    def test_extend_copies_list_parts(self):
        left = SourceList(["a"])
        right = SourceList(["b"])
        left.extend(right)
        right.append("c")
        assert list(left) == ["a", "b"]


class TestBenchGate:
    """The CCT bench's oracle gate refuses a reference side with arrays:
    it would compare the fast path with itself."""

    @pytest.fixture(scope="class")
    def raw(self):
        return generate_bytes(tier("small"), compress=False)

    def test_reference_profile_with_arrays(self, raw):
        from repro.bench.cct import OracleMismatch, _check_equality
        ref = parse_object(raw)
        ref.columnar(build=True)
        with pytest.raises(OracleMismatch, match="arrays"):
            _check_equality("small", pprof_converter.parse(raw), ref,
                            pprof_converter.parse(raw), parse_object(raw))

    def test_reference_view_with_arrays(self, raw):
        from repro.bench.cct import OracleMismatch, _assert_view_digests
        fast = top_down(pprof_converter.parse(raw))
        _assert_view_digests("small", "top_down", fast,
                             view_oracle.top_down(parse_object(raw)))
        with pytest.raises(OracleMismatch, match="arrays"):
            _assert_view_digests("small", "top_down", fast,
                                 top_down(parse_object(raw)))
