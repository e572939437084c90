"""Tests for inclusive/exclusive metric computation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import ProfileBuilder
from repro.analysis.metrics import (check_inclusive_invariant,
                                    compute_inclusive, inclusive_value,
                                    totals)
from repro.bench import profile_oracle

from .twins import object_only


class TestComputeInclusive:
    def test_root_inclusive_is_program_total(self, simple_profile):
        compute_inclusive(simple_profile)
        cpu = simple_profile.schema.index_of("cpu")
        assert simple_profile.root.inclusive[cpu] == 1000.0

    def test_interior_node_includes_subtree(self, simple_profile):
        compute_inclusive(simple_profile)
        cpu = simple_profile.schema.index_of("cpu")
        work = simple_profile.find_by_name("work")[0]
        assert work.inclusive[cpu] == 900.0   # 200 self + 700 inner
        assert work.exclusive(cpu) == 200.0

    def test_leaf_inclusive_equals_exclusive(self, simple_profile):
        compute_inclusive(simple_profile)
        cpu = simple_profile.schema.index_of("cpu")
        inner = simple_profile.find_by_name("inner")[0]
        assert inner.inclusive[cpu] == inner.exclusive(cpu) == 700.0

    def test_subset_of_columns(self, simple_profile):
        compute_inclusive(simple_profile, [1])
        assert 1 in simple_profile.root.inclusive
        assert 0 not in simple_profile.root.inclusive

    def test_cached_result_skipped(self, simple_profile):
        compute_inclusive(simple_profile)
        simple_profile.root.inclusive[0] = -1.0  # poison the cache
        compute_inclusive(simple_profile)         # must not recompute
        assert simple_profile.root.inclusive[0] == -1.0

    def test_inclusive_value_lazy(self, simple_profile):
        work = simple_profile.find_by_name("work")[0]
        assert inclusive_value(simple_profile, work, "cpu") == 900.0

    def test_totals(self, simple_profile):
        assert totals(simple_profile) == {"cpu": 1000.0, "alloc": 64.0}


class TestInvariant:
    def test_invariant_holds_after_compute(self, simple_profile):
        compute_inclusive(simple_profile)
        assert check_inclusive_invariant(simple_profile) == []

    def test_invariant_detects_corruption(self, simple_profile):
        compute_inclusive(simple_profile)
        node = simple_profile.find_by_name("work")[0]
        node.inclusive[0] += 123.0
        violations = check_inclusive_invariant(simple_profile)
        assert violations and "work" in violations[0]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.lists(st.sampled_from("abcd"), min_size=1, max_size=5),
                  st.floats(min_value=0, max_value=1e6)),
        min_size=1, max_size=20))
    def test_invariant_holds_for_random_profiles(self, samples):
        builder = ProfileBuilder()
        metric = builder.metric("m")
        for path, value in samples:
            builder.sample([(c, "s.c", 1) for c in path], {metric: value})
        profile = builder.build()
        compute_inclusive(profile)
        assert check_inclusive_invariant(profile) == []
        total = sum(value for _, value in samples)
        assert profile.root.inclusive[0] == pytest.approx(total)


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.lists(st.sampled_from("abcd"), min_size=0, max_size=5),
              st.floats(min_value=-1e6, max_value=1e6)),
    min_size=1, max_size=30))
def test_facade_caches_equal_the_post_order_pass_bit_for_bit(samples):
    """The arrays' level-by-level sums add each node's exclusive value and
    then its children's in creation order, as the object pass does, so
    elide hooks read the same floats."""
    builder = ProfileBuilder()
    metric = builder.metric("m")
    for path, value in samples:
        builder.sample([(c, "s.c", 1) for c in path], {metric: value / 3})
    profile = builder.build()
    twin = object_only(profile)
    compute_inclusive(profile)
    profile_oracle.compute_inclusive(twin)
    pairs = list(zip(profile.nodes(), twin.nodes()))
    assert len(pairs) == profile.node_count()
    for fast, slow in pairs:
        assert fast.frame == slow.frame
        assert fast.inclusive == slow.inclusive
