"""Metric descriptors and the per-profile metric schema.

Profilers attach one or more metrics (time, cycles, bytes, misses, lock
waits, ...) to every monitoring point.  A :class:`MetricSchema` is the
ordered list of descriptors for one profile; metric *values* are stored on
CCT nodes and monitoring points as dense mappings from descriptor index to
float.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional

from ..errors import SchemaError


class Aggregation(enum.IntEnum):
    """How a metric combines when profiles or nodes merge."""

    SUM = 0
    MIN = 1
    MAX = 2
    MEAN = 3
    LAST = 4

    def combine(self, values: List[float]) -> float:
        """Fold a list of values with this rule (empty list → 0).

        SUM and MEAN add left to right from 0.0, as the columnar merge
        does (``viewtree_columnar._combine``): ``sum`` compensates its
        rounding since Python 3.12, so it would disagree with the arrays
        in the last bits on one interpreter and not on another.
        """
        if not values:
            return 0.0
        if self is Aggregation.SUM or self is Aggregation.MEAN:
            total = 0.0
            for value in values:
                total += value
            return total if self is Aggregation.SUM else total / len(values)
        if self is Aggregation.MIN:
            return float(min(values))
        if self is Aggregation.MAX:
            return float(max(values))
        return float(values[-1])


@dataclass(frozen=True)
class Metric:
    """Descriptor for one metric column."""

    name: str
    unit: str = ""
    description: str = ""
    aggregation: Aggregation = Aggregation.SUM

    def format_value(self, value: float) -> str:
        """Render a value with its unit, using human-scale suffixes."""
        if self.unit == "bytes":
            return _format_bytes(value)
        if self.unit in ("nanoseconds", "ns"):
            return _format_time(value)
        if value == int(value):
            text = "{:,}".format(int(value))
        else:
            text = "%.2f" % value
        return "%s %s" % (text, self.unit) if self.unit else text


class MetricSchema:
    """An ordered, name-indexed collection of metric descriptors."""

    def __init__(self, metrics: Optional[List[Metric]] = None) -> None:
        self._metrics: List[Metric] = []
        self._by_name: Dict[str, int] = {}
        for metric in metrics or []:
            self.add(metric)

    def add(self, metric: Metric) -> int:
        """Register a metric and return its column index.

        Re-adding a metric with the same name returns the existing index;
        conflicting descriptors under one name are a schema error.
        """
        existing = self._by_name.get(metric.name)
        if existing is not None:
            if self._metrics[existing] != metric:
                raise SchemaError(
                    "metric %r already registered with a different "
                    "descriptor" % metric.name)
            return existing
        index = len(self._metrics)
        self._metrics.append(metric)
        self._by_name[metric.name] = index
        return index

    def derive(self, name: str, unit: str = "", description: str = "",
               aggregation: Aggregation = Aggregation.SUM) -> int:
        """Add a derived-metric column (used by the formula engine)."""
        return self.add(Metric(name=name, unit=unit, description=description,
                               aggregation=aggregation))

    def index_of(self, name: str) -> int:
        """Column index for a metric name; raises SchemaError if missing."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError("unknown metric %r (have: %s)" % (
                name, ", ".join(sorted(self._by_name)))) from None

    def get(self, name: str) -> Optional[int]:
        """Column index for a metric name, or None."""
        return self._by_name.get(name)

    def __getitem__(self, index: int) -> Metric:
        return self._metrics[index]

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> List[str]:
        """Metric names in column order."""
        return [m.name for m in self._metrics]

    def copy(self) -> "MetricSchema":
        """An independent copy of this schema."""
        return MetricSchema(list(self._metrics))

    def union(self, other: "MetricSchema") -> "MetricSchema":
        """Schema containing this schema's columns then ``other``'s new ones.

        Descriptors that share a name must agree; the merged column keeps the
        left-hand descriptor.  Used by multi-profile aggregation.
        """
        merged = self.copy()
        for metric in other:
            existing = merged.get(metric.name)
            if existing is None:
                merged.add(metric)
            elif merged[existing].unit != metric.unit:
                raise SchemaError(
                    "metric %r has conflicting units %r vs %r"
                    % (metric.name, merged[existing].unit, metric.unit))
        return merged


def _format_bytes(value: float) -> str:
    magnitude = abs(value)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if magnitude < 1024 or suffix == "TiB":
            if suffix == "B":
                return "%d B" % int(value)
            return "%.2f %s" % (value, suffix)
        value /= 1024.0
        magnitude /= 1024.0
    return "%.2f TiB" % value


def _format_time(nanos: float) -> str:
    magnitude = abs(nanos)
    if magnitude < 1e3:
        return "%d ns" % int(nanos)
    if magnitude < 1e6:
        return "%.2f us" % (nanos / 1e3)
    if magnitude < 1e9:
        return "%.2f ms" % (nanos / 1e6)
    return "%.2f s" % (nanos / 1e9)
