"""Scheduled regression watch over a stored capture stream.

Every tick compares two adjacent time windows of one service's stream:

* the **current** window — ``(now - window, now]``;
* the **baseline** window — ``(now - window - baseline, now - window]``.

Each window is merged with the store's windowed aggregate
(:meth:`~repro.store.ProfileStore.query_window`), which keys the
engine's cache on the window's *membership digest* — repeated ticks
over an unchanged window never reload or re-merge profiles, which is
what makes a tight watch cadence affordable.  The two aggregates are
then compared with the existing differential engine
(:func:`repro.analysis.diff.diff_trees`) on the per-capture *mean*
column, so windows with different capture counts compare fairly.

Ranking attributes regressions to the frames that caused them: a
node's **self delta** is its inclusive delta minus its children's, so
a slowdown injected into one function ranks that function first — not
every ancestor on its call path (whose inclusive deltas are just as
large but explain nothing).  Ordering is completely deterministic
(self delta descending, then path, then the facade walk's order) so
reports golden-test cleanly.  The ranking runs on the diff tree's rows
(:func:`rank_regressions`); it builds no ``ViewNode``, and path strings
only for the rows that can reach a report section.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..analysis import viewrows
from ..analysis.diff import TAG_ADDED, TAG_DELETED, diff_trees, summarize
from ..analysis.viewtree import ViewTree
from ..core.gcguard import no_gc
from ..errors import EasyViewError
from ..obs import get_registry, get_tracer
from ..store.query import Query, parse_age, parse_query

_tracer = get_tracer()


@dataclass
class Regression:
    """One ranked entry of a watch report."""

    path: str
    tag: str
    baseline: float
    current: float
    delta: float          # inclusive current - baseline
    self_delta: float     # delta not explained by callees
    ratio: float          # current / baseline (0 when baseline is 0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "tag": self.tag,
            "baseline": round(self.baseline, 6),
            "current": round(self.current, 6),
            "delta": round(self.delta, 6),
            "selfDelta": round(self.self_delta, 6),
            "ratio": round(self.ratio, 6),
        }


@dataclass
class WatchReport:
    """One tick's findings, JSON-ready and deterministically ordered."""

    query: str
    metric: str
    window_nanos: int
    baseline_nanos: int
    now_nanos: int
    current_captures: int
    baseline_captures: int
    regressions: List[Regression] = field(default_factory=list)
    improvements: List[Regression] = field(default_factory=list)
    tags: Dict[str, int] = field(default_factory=dict)

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query": self.query,
            "metric": self.metric,
            "windowNanos": self.window_nanos,
            "baselineNanos": self.baseline_nanos,
            "nowNanos": self.now_nanos,
            "currentCaptures": self.current_captures,
            "baselineCaptures": self.baseline_captures,
            "regressions": [r.to_dict() for r in self.regressions],
            "improvements": [r.to_dict() for r in self.improvements],
            "tags": dict(sorted(self.tags.items())),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """The terminal rendering of this report."""
        lines = [
            "watch %s  metric=%s" % (self.query or "<all>", self.metric),
            "  current window: %d capture(s); baseline: %d capture(s)"
            % (self.current_captures, self.baseline_captures),
        ]
        if not self.current_captures or not self.baseline_captures:
            lines.append("  (not enough data in one of the windows)")
            return "\n".join(lines)
        if not self.regressions and not self.improvements:
            lines.append("  no change")
            return "\n".join(lines)
        if self.regressions:
            lines.append("  regressions (self delta, current/baseline):")
            for entry in self.regressions:
                lines.append("    [%s] %-44s %+.4g  x%.3f"
                             % (entry.tag, entry.path, entry.self_delta,
                                entry.ratio))
        if self.improvements:
            lines.append("  improvements:")
            for entry in self.improvements:
                lines.append("    [%s] %-44s %+.4g"
                             % (entry.tag, entry.path, entry.self_delta))
        return "\n".join(lines)


def _pick_metric(tree: ViewTree, metric: Optional[str]) -> str:
    """Resolve the column to diff on.

    Aggregate schemas carry derived ``<metric>:<op>`` columns; the mean
    is the fair cross-window comparison (windows rarely hold the same
    number of captures).  An explicit ``metric`` naming an exact column
    wins; a bare input-metric name resolves to its ``:mean``.
    """
    names = tree.schema.names()
    if metric:
        if metric in names:
            return metric
        if "%s:mean" % metric in names:
            return "%s:mean" % metric
        raise EasyViewError("no metric %r in window aggregate (have: %s)"
                            % (metric, ", ".join(names)))
    for name in names:
        if name.endswith(":mean"):
            return name
    return names[0]


def rank_regressions(diff: ViewTree, metric_index: int,
                     min_self_delta: float = 0.0, min_ratio: float = 1.0,
                     top: int = 20
                     ) -> Tuple[List[Regression], List[Regression]]:
    """A watch report's two sections, ranked over a diff tree's rows.

    Regressions: every non-root row not deleted whose self delta exceeds
    its noise floor and, unless added, whose current/baseline reaches
    ``min_ratio``; improvements: every non-root row whose self delta is
    below minus its floor, plus every deleted row.  Each section is
    ordered by self delta (descending for regressions), then path, then
    walk position, and cut to ``top`` entries.
    """
    cvt = diff.columnar()
    before, after, delta, self_delta = viewrows.diff_deltas(cvt,
                                                            metric_index)
    # Aggregation sums floats in pool-arrival order, so "equal" windows
    # can differ by a few ulps; a scale-relative epsilon keeps that noise
    # out of reports without a unit-dependent absolute threshold.
    noise = 1e-9 * (np.abs(before) + np.abs(after))
    floor = np.where(noise > min_self_delta, noise, min_self_delta)
    deleted = viewrows.tag_rows(cvt, TAG_DELETED)
    with np.errstate(all="ignore"):
        ratio = np.divide(after, before, out=np.zeros_like(after),
                          where=before != 0)
    slight = (before != 0) & (ratio < min_ratio) \
        & ~viewrows.tag_rows(cvt, TAG_ADDED)
    body = np.arange(cvt.n_rows) > 0
    regressed = body & ~deleted & ~(self_delta <= floor) & ~slight
    improved = body & ((self_delta < -floor) | deleted)

    def section(mask, key) -> List[Regression]:
        entries = []
        for row, path in viewrows.rank_rows(cvt, np.flatnonzero(mask),
                                            key, top):
            base, current = float(before[row]), float(after[row])
            entries.append(Regression(
                path=path, tag=viewrows.row_tag(cvt, row) or "=",
                baseline=base, current=current, delta=float(delta[row]),
                self_delta=float(self_delta[row]),
                ratio=current / base if base else 0.0))
        return entries

    return section(regressed, -self_delta), section(improved, self_delta)


class RegressionWatch:
    """Windowed diff of a capture stream, scheduled or one-shot."""

    def __init__(self, store: Any, query: str = "",
                 window: str = "60s", baseline: Optional[str] = None,
                 metric: Optional[str] = None,
                 shape: str = "top_down",
                 min_self_delta: float = 0.0,
                 min_ratio: float = 1.0,
                 top: int = 20,
                 clock: Optional[Callable[[], int]] = None) -> None:
        self.store = store
        self.base_query = query
        self.window_nanos = parse_age(window)
        self.baseline_nanos = parse_age(baseline) if baseline \
            else self.window_nanos
        if self.window_nanos <= 0 or self.baseline_nanos <= 0:
            raise EasyViewError("watch windows must be positive")
        self.metric = metric
        self.shape = shape
        #: Absolute floor on a reported self delta — anything at or below
        #: is noise (0.0 keeps exact no-change windows empty without
        #: suppressing real movement in low-cost frames).
        self.min_self_delta = min_self_delta
        #: Relative floor: current/baseline must reach this to count as a
        #: regression (1.0 = any growth).
        self.min_ratio = min_ratio
        if top < 0:
            raise EasyViewError("watch top must be 0 or more, not %d" % top)
        #: Entries per report section.
        self.top = top
        self.clock = clock or getattr(store, "clock", None) \
            or (lambda: time.time_ns())

        registry = get_registry()
        self._ticks = registry.counter(
            "continuous.watch.ticks", "watch comparisons run")
        self._found = registry.counter(
            "continuous.watch.regressions", "ranked regressions reported")
        self._tick_seconds = registry.histogram(
            "continuous.watch.tick_seconds",
            description="latency of one watch comparison")

    # -- window selection --------------------------------------------------

    def _window_query(self, since: int, until: int) -> Query:
        query = parse_query(self.base_query, now_nanos=until)
        query.since_nanos = since + 1   # windows are (since, until]
        query.until_nanos = until
        return query

    def tick(self, now_nanos: Optional[int] = None) -> WatchReport:
        """Compare the two windows ending at ``now`` and rank the drift."""
        start = time.monotonic()
        now = int(now_nanos if now_nanos is not None else self.clock())
        # The windows' trees and their diff are garbage once the report
        # is built.  Collections during the tick would promote them into
        # the oldest generation, where only a later full collection of
        # the heap frees them; with collection off they are freed by the
        # first young collection after it.
        with no_gc():
            report = self._tick(now)
        self._ticks.inc()
        self._found.inc(len(report.regressions))
        self._tick_seconds.observe(max(0.0, time.monotonic() - start))
        return report

    def _tick(self, now: int) -> WatchReport:
        split = now - self.window_nanos
        with _tracer.span("continuous.watch.tick"):
            current = self.store.query_window(
                self._window_query(split, now), shape=self.shape)
            baseline = self.store.query_window(
                self._window_query(split - self.baseline_nanos, split),
                shape=self.shape)
        return self._compare(baseline, current, now)

    # -- comparison --------------------------------------------------------

    def _compare(self, baseline: Any, current: Any,
                 now: int) -> WatchReport:
        report = WatchReport(
            query=self.base_query, metric=self.metric or "",
            window_nanos=self.window_nanos,
            baseline_nanos=self.baseline_nanos, now_nanos=now,
            current_captures=len(current.entries),
            baseline_captures=len(baseline.entries))
        if baseline.tree is None or current.tree is None:
            # One empty window: nothing to diff.  (A service's first
            # window after deploy, or a stream gap — not a regression.)
            return report

        metric_name = _pick_metric(current.tree, self.metric)
        report.metric = metric_name
        schema = baseline.tree.schema.union(current.tree.schema)
        diff = diff_trees(baseline.tree, current.tree,
                          metric_index=schema.index_of(metric_name))
        index = diff.schema.index_of(metric_name)
        report.tags = summarize(diff)
        report.regressions, report.improvements = rank_regressions(
            diff, index, self.min_self_delta, self.min_ratio, self.top)
        return report

    # -- scheduling --------------------------------------------------------

    def run(self, ticks: int, interval_seconds: float = 0.0,
            sleep: Callable[[float], None] = time.sleep,
            on_report: Optional[Callable[[WatchReport], None]] = None
            ) -> List[WatchReport]:
        """Run ``ticks`` comparisons on a fixed schedule."""
        reports: List[WatchReport] = []
        for i in range(ticks):
            if i and interval_seconds > 0:
                sleep(interval_seconds)
            report = self.tick()
            reports.append(report)
            if on_report is not None:
                on_report(report)
        return reports
