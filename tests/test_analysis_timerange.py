"""Tests for time-range analysis and the timeline strip."""

import pytest

from repro import ProfileBuilder
from repro.analysis.diff import summarize
from repro.analysis.timerange import (activity_series, find_phases,
                                      range_diff, range_profile)
from repro.errors import AnalysisError
from repro.viz.timeline import timeline_svg, timeline_text


def phased_profile():
    """Snapshots 1-4: startup allocs; snapshots 5-8: steady-state."""
    builder = ProfileBuilder(tool="t")
    mem = builder.metric("inuse", unit="bytes")
    for seq in range(1, 5):
        builder.snapshot(seq, [("main",), ("startup",)], {mem: 800.0})
        builder.snapshot(seq, [("main",), ("serve",)], {mem: 100.0})
    for seq in range(5, 9):
        builder.snapshot(seq, [("main",), ("serve",)], {mem: 300.0})
    return builder.build()


class TestActivityAndPhases:
    def test_activity_series(self):
        totals = activity_series(phased_profile(), "inuse")
        assert totals == [900.0] * 4 + [300.0] * 4

    def test_find_phases_detects_transition(self):
        phases = find_phases(phased_profile(), "inuse")
        assert phases == [(1, 4), (5, 8)]

    def test_flat_series_single_phase(self):
        builder = ProfileBuilder()
        mem = builder.metric("inuse", unit="bytes")
        for seq in range(1, 6):
            builder.snapshot(seq, [("main",)], {mem: 100.0})
        assert find_phases(builder.build(), "inuse") == [(1, 5)]

    def test_empty_profile(self, simple_profile):
        assert activity_series(simple_profile, "cpu") == []
        assert find_phases(simple_profile, "cpu") == []


class TestRangeProfile:
    def test_mean_combine(self):
        sub = range_profile(phased_profile(), 1, 4)
        startup = sub.find_by_name("startup")[0]
        assert startup.exclusive(0) == pytest.approx(800.0)
        serve = sub.find_by_name("serve")[0]
        assert serve.exclusive(0) == pytest.approx(100.0)

    def test_sum_combine(self):
        sub = range_profile(phased_profile(), 1, 4, combine="sum")
        assert sub.find_by_name("startup")[0].exclusive(0) == 3200.0

    def test_last_combine(self):
        sub = range_profile(phased_profile(), 3, 6, combine="last")
        serve = sub.find_by_name("serve")[0]
        assert serve.exclusive(0) == 300.0   # the value at snapshot 6
        # The window's final state: startup is gone after snapshot 4.
        assert not sub.find_by_name("startup")
        assert sub.total("inuse") == 300.0

    def test_window_excludes_other_contexts(self):
        sub = range_profile(phased_profile(), 5, 8)
        assert not sub.find_by_name("startup")
        assert sub.meta.attributes["window"] == "5..8"

    def test_bad_windows_rejected(self):
        profile = phased_profile()
        with pytest.raises(AnalysisError):
            range_profile(profile, 6, 2)
        with pytest.raises(AnalysisError):
            range_profile(profile, 100, 200)
        from repro import ProfileBuilder as PB
        empty = PB()
        empty.metric("inuse")
        with pytest.raises(AnalysisError):
            range_profile(empty.build(), 1, 2)

    def test_bad_combine_rejected(self):
        with pytest.raises(AnalysisError):
            range_profile(phased_profile(), 1, 2, combine="median")


class TestRangeDiff:
    def test_phase_diff_tags(self):
        tree = range_diff(phased_profile(), (1, 4), (5, 8))
        tags = {n.frame.name: n.tag for n in tree.nodes() if n.tag}
        assert tags["startup"] == "D"     # gone in steady state
        assert tags["serve"] == "+"       # grew 100 → 300


class TestTimelineRendering:
    def test_text_strip(self):
        text = timeline_text(phased_profile(), "inuse", width=8)
        lines = text.splitlines()
        assert len(lines[0]) == 8
        assert "#1" in lines[1] and "#8" in lines[1]
        assert "phases" in lines[2]

    def test_text_empty(self, simple_profile):
        assert "no snapshot" in timeline_text(simple_profile, "cpu")

    def test_svg_strip_with_selection(self):
        svg = timeline_svg(phased_profile(), "inuse", selection=(5, 8))
        assert svg.count("<rect") >= 10
        assert "stroke='#d62728'" in svg
        assert "#1 .. #8" in svg
