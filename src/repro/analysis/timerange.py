"""Time-range analysis over snapshot series (FlameScope-style).

FlameScope — one of the visualizers §II surveys — renders a profile's
time dimension as a strip and lets the user select a range to see the
flame graph of just that window.  EasyView's snapshot points carry the
same time dimension (sequence numbers), so the equivalent operations are:

* :func:`activity_series` — the per-snapshot whole-program totals (the
  strip's heights);
* :func:`range_profile` — a sub-profile from the captures inside a
  selected window, viewable with every existing transform;
* :func:`range_diff` — the differential view of two windows of the same
  run, the "what changed after minute 3?" question;
* :func:`find_phases` — segment the series into phases by change-point
  detection on the activity totals.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..builder import ProfileBuilder
from ..core.profile import Profile
from ..errors import AnalysisError
from .aggregate import snapshot_totals
from .viewtree import ViewTree


def activity_series(profile: Profile, metric: str) -> List[float]:
    """Whole-program value per snapshot (the timeline strip heights)."""
    return snapshot_totals(profile, metric)


def _check_window(profile: Profile, start: int, end: int) -> List[int]:
    sequences = profile.snapshot_sequences()
    if not sequences:
        raise AnalysisError("profile has no snapshot series")
    if start > end:
        raise AnalysisError("window start %d is after end %d" % (start, end))
    selected = [seq for seq in sequences if start <= seq <= end]
    if not selected:
        raise AnalysisError(
            "window [%d, %d] selects no snapshots (have %d..%d)"
            % (start, end, sequences[0], sequences[-1]))
    return selected


def range_profile(profile: Profile, start: int, end: int,
                  combine: str = "mean") -> Profile:
    """A sub-profile from the snapshots in ``[start, end]`` (inclusive).

    Each context's value inside the window combines per ``combine``:
    ``"mean"`` (live-value semantics, the default for heap series),
    ``"sum"`` (event semantics), or ``"last"`` (the window's final state:
    the values recorded at its last selected snapshot, so a context gone
    by then is absent).  The result is an ordinary profile — every view
    applies.
    """
    if combine not in ("mean", "sum", "last"):
        raise AnalysisError("combine must be mean, sum, or last")
    window = _check_window(profile, start, end)
    if combine == "last":
        window = window[-1:]  # the state recorded at the window's end
    selected = set(window)

    builder = ProfileBuilder(tool=profile.meta.tool)
    for metric in profile.schema:
        builder.metric(metric.name, metric.unit, metric.description,
                       metric.aggregation)
    for key, value in profile.meta.attributes.items():
        builder.attribute(key, value)
    builder.attribute("window", "%d..%d" % (start, end))
    # context-id → {metric: [values in window]}, keyed per sequence.
    per_context: Dict[int, Tuple[object, Dict[int, Dict[int, float]]]] = {}
    for point in profile.points:
        if point.sequence not in selected:
            continue
        node, table = per_context.setdefault(
            id(point.primary()), (point.primary(), {}))
        by_seq = table
        for index, value in point.values.items():
            by_seq.setdefault(index, {})
            by_seq[index][point.sequence] = (
                by_seq[index].get(point.sequence, 0.0) + value)

    for node, table in per_context.values():
        values = {}
        for index, by_seq in table.items():
            if combine == "mean":
                values[index] = float(sum(by_seq.values())) / len(selected)
            else:
                values[index] = float(sum(by_seq.values()))
        builder.sample(node.call_path(), values)
    return builder.build()


def range_diff(profile: Profile, first: Tuple[int, int],
               second: Tuple[int, int], shape: str = "top_down",
               combine: str = "mean") -> ViewTree:
    """Differential view of two windows of the same run."""
    from .diff import diff_profiles
    baseline = range_profile(profile, *first, combine=combine)
    treatment = range_profile(profile, *second, combine=combine)
    return diff_profiles(baseline, treatment, shape=shape)


def find_phases(profile: Profile, metric: str,
                sensitivity: float = 0.25,
                min_length: int = 2) -> List[Tuple[int, int]]:
    """Segment the snapshot series into phases.

    A new phase starts where the activity total jumps by more than
    ``sensitivity`` × the series' overall range.  Returns (start, end)
    sequence windows covering the whole series.
    """
    totals = activity_series(profile, metric)
    sequences = profile.snapshot_sequences()
    if not totals:
        return []
    values = np.asarray(totals)
    span = float(values.max() - values.min())
    if span == 0.0:
        return [(sequences[0], sequences[-1])]
    threshold = span * sensitivity
    boundaries = [0]
    for i in range(1, len(values)):
        if (abs(values[i] - values[i - 1]) > threshold
                and i - boundaries[-1] >= min_length):
            boundaries.append(i)
    boundaries.append(len(values))
    phases = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        phases.append((sequences[lo], sequences[hi - 1]))
    return phases
