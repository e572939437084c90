"""Tests for the Profile container and monitoring points."""

import pytest

from repro.builder import ProfileBuilder
from repro.core.frame import intern_frame
from repro.core.metric import Metric
from repro.core.monitor import MonitoringPoint, PointKind
from repro.core.profile import Profile
from repro.errors import SchemaError


def make_builder():
    builder = ProfileBuilder()
    builder.metric("cpu", unit="nanoseconds")
    builder.metric("bytes", unit="bytes")
    return builder


def make_profile():
    """A built profile with one context, ``main``."""
    builder = make_builder()
    builder.sample([intern_frame("main")], {})
    return builder.build()


class TestSamples:
    def test_add_sample_builds_tree(self):
        builder = make_builder()
        builder.sample([intern_frame("main"), intern_frame("f")], {0: 10.0})
        profile = builder.build()
        assert profile.node_count() == 3
        assert profile.total("cpu") == 10.0

    def test_out_of_range_column_rejected(self):
        builder = make_builder()
        with pytest.raises(SchemaError):
            builder.sample([intern_frame("main")], {5: 1.0})

    def test_total_of_unknown_metric_raises(self):
        profile = make_profile()
        with pytest.raises(SchemaError):
            profile.total("nope")

    def test_a_bare_profile_is_the_root_alone(self):
        profile = Profile()
        profile.add_metric(Metric("cpu"))
        assert profile.node_count() == 1
        assert profile.total("cpu") == 0.0
        assert profile.root.children == {}

    def test_a_metric_added_to_a_built_profile_is_absent_everywhere(self):
        profile = make_profile()
        main = profile.find_by_name("main")[0]
        index = profile.add_metric(Metric("extra"))
        col = profile.columnar()
        assert col.n_metrics == len(profile.schema) == 3
        assert not col.present[:, index].any()
        assert profile.find_by_name("main")[0] is main  # same facade


class TestPoints:
    def test_point_arity_enforced(self):
        profile = make_profile()
        node = profile.find_by_name("main")[0]
        with pytest.raises(SchemaError, match="expects 3 contexts"):
            profile.add_point(MonitoringPoint(
                kind=PointKind.USE_REUSE, contexts=[node], values={}))

    def test_point_column_checked(self):
        profile = make_profile()
        node = profile.find_by_name("main")[0]
        with pytest.raises(SchemaError):
            profile.add_point(MonitoringPoint(
                kind=PointKind.ALLOCATION, contexts=[node], values={9: 1.0}))

    def test_points_of_kind(self):
        profile = make_profile()
        node = profile.find_by_name("main")[0]
        profile.add_point(MonitoringPoint(kind=PointKind.ALLOCATION,
                                          contexts=[node], values={1: 8.0}))
        profile.add_point(MonitoringPoint(kind=PointKind.DATA_RACE,
                                          contexts=[node, node], values={}))
        assert len(profile.points_of_kind(PointKind.ALLOCATION)) == 1
        assert len(profile.points_of_kind(PointKind.DATA_RACE)) == 1

    def test_snapshot_sequences_sorted_unique(self):
        profile = make_profile()
        node = profile.find_by_name("main")[0]
        for seq in (3, 1, 3, 2):
            profile.add_point(MonitoringPoint(
                kind=PointKind.ALLOCATION, contexts=[node],
                values={1: 1.0}, sequence=seq))
        assert profile.snapshot_sequences() == [1, 2, 3]

    def test_point_primary_requires_contexts(self):
        point = MonitoringPoint()
        with pytest.raises(ValueError):
            point.primary()

    def test_point_value_default_zero(self):
        point = MonitoringPoint(values={0: 5.0})
        assert point.value(0) == 5.0
        assert point.value(3) == 0.0


class TestSummary:
    def test_summary_fields(self, simple_profile):
        summary = simple_profile.summary()
        assert summary["tool"] == "test"
        assert summary["contexts"] == simple_profile.node_count()
        assert "cpu" in summary["metrics"]
        assert summary["max_depth"] == 3

    def test_repr_mentions_tool(self, simple_profile):
        assert "test" in repr(simple_profile)

    def test_find_by_name(self, simple_profile):
        assert len(simple_profile.find_by_name("work")) == 1
