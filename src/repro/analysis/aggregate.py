"""Multi-profile aggregation (§V-A(c), first operation).

Aggregation merges N profiles by constructing a unified tree and attaching,
to every node, the per-profile value series plus derived statistics (sum,
min, max, mean).  It powers:

* thread/process/run comparison — "how does this context behave across my
  32 worker threads?";
* the aggregate view of Fig. 4 — per-context histograms across a series of
  periodic memory snapshots, feeding the leak detector of §VII-C1.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cct import CCTNode
from ..core.metric import Aggregation, Metric, MetricSchema
from ..core.monitor import PointKind
from ..core.profile import Profile
from ..errors import AnalysisError
from . import viewtree_columnar
from .transform import top_down, transform
from .viewtree import ViewTree

#: The statistics attached per input metric when aggregating.
DEFAULT_OPERATORS: Tuple[Aggregation, ...] = (
    Aggregation.SUM, Aggregation.MIN, Aggregation.MAX, Aggregation.MEAN)


def merge_trees(trees: Sequence[ViewTree],
                operators: Sequence[Aggregation] = DEFAULT_OPERATORS
                ) -> ViewTree:
    """Merge view trees of the same shape into one aggregate tree.

    The result's schema holds, for every input metric ``m``, one derived
    column per operator named ``m:sum``, ``m:min``, ... .  Every node's
    ``histogram`` maps the *input* metric index to its per-tree value list
    (0.0 where a tree lacked the node), which is what the histogram view
    renders.
    """
    base_schema, schema = merged_schema(trees, operators)
    remaps = [[base_schema.index_of(name) for name in tree.schema.names()]
              for tree in trees]
    return viewtree_columnar.merge_columnar(
        [tree.columnar() for tree in trees], remaps, tuple(operators),
        schema, "aggregate:%s" % trees[0].shape, len(base_schema))


def merged_schema(trees: Sequence[ViewTree],
                  operators: Sequence[Aggregation]
                  ) -> Tuple[MetricSchema, MetricSchema]:
    """The union of the trees' schemas, and the aggregate's schema: one
    ``m:<operator>`` column per input metric and operator, operators
    inner.  Raises for zero trees or mixed shapes."""
    if not trees:
        raise AnalysisError("cannot aggregate zero trees")
    shapes = {tree.shape for tree in trees}
    if len(shapes) != 1:
        raise AnalysisError("cannot aggregate mixed shapes: %s"
                            % ", ".join(sorted(shapes)))
    base_schema = trees[0].schema
    for tree in trees[1:]:
        base_schema = base_schema.union(tree.schema)
    schema = MetricSchema()
    for metric in base_schema:
        for op in operators:
            schema.add(Metric(
                name="%s:%s" % (metric.name, op.name.lower()),
                unit=metric.unit,
                description="%s of %s across %d profiles"
                            % (op.name.lower(), metric.name, len(trees)),
                aggregation=op))
    return base_schema, schema


def aggregate_profiles(profiles: Sequence[Profile], shape: str = "top_down",
                       operators: Sequence[Aggregation] = DEFAULT_OPERATORS
                       ) -> ViewTree:
    """Transform each profile into ``shape`` and merge the results."""
    trees = [transform(profile, shape) for profile in profiles]
    return merge_trees(trees, operators)


def snapshot_series(profile: Profile, metric_name: str,
                    kind: Optional[PointKind] = None
                    ) -> Dict[CCTNode, List[float]]:
    """Per-context value series across a profile's snapshot points.

    Returns context → list of values indexed by snapshot sequence (missing
    captures filled with 0.0, e.g. a context allocated late in the run).
    This is the data behind Fig. 4's per-frame histograms.
    """
    index = profile.schema.index_of(metric_name)
    sequences = profile.snapshot_sequences()
    if not sequences:
        return {}
    slot = {seq: i for i, seq in enumerate(sequences)}
    series: Dict[CCTNode, List[float]] = {}
    for point in profile.points:
        if point.sequence <= 0:
            continue
        if kind is not None and point.kind is not kind:
            continue
        node = point.primary()
        values = series.setdefault(node, [0.0] * len(sequences))
        values[slot[point.sequence]] += point.value(index)
    return series


def snapshot_totals(profile: Profile, metric_name: str) -> List[float]:
    """Whole-program value per snapshot (e.g. total live bytes over time)."""
    per_context = snapshot_series(profile, metric_name)
    if not per_context:
        return []
    length = len(next(iter(per_context.values())))
    totals = [0.0] * length
    for values in per_context.values():
        for i, value in enumerate(values):
            totals[i] += value
    return totals
