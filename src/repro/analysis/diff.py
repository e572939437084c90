"""Differential profiles (§V-A(c), second operation; Fig. 3).

The differential operation quantifies the difference between two profiles
P1 (baseline) and P2 (treatment).  Following the paper, two nodes are
differentiable iff all their ancestors are differentiable — which tree
merging gives for free — and every node carries one of four tags:

* ``[A]`` — context newly *added* in P2 (absent from P1);
* ``[D]`` — context *deleted* in P2 (present only in P1);
* ``[+]`` — present in both, metric larger in P2;
* ``[-]`` — present in both, metric smaller in P2.

Unlike prior approaches that only diff top-down flame graphs and color
qualitatively, the diff here applies to *any* view shape (top-down,
bottom-up, flat) and stores exact per-metric deltas; the renderer can then
quantify rather than merely hint.  Users who prefer ratios over differences
(e.g. memory-scaling factors, §V-B) can request division.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.metric import Aggregation, Metric, MetricSchema
from ..core.profile import Profile
from ..errors import AnalysisError
from . import formula, viewtree_columnar
from .transform import KeyFn, transform
from .viewtree import ViewNode, ViewTree, default_merge_key

TAG_ADDED = "A"
TAG_DELETED = "D"
TAG_GREW = "+"
TAG_SHRANK = "-"
TAG_SAME = "="


def diff_trees(baseline: ViewTree, treatment: ViewTree,
               metric_index: int = 0,
               tolerance: float = 0.0,
               key_fn: KeyFn = default_merge_key) -> ViewTree:
    """Diff two view trees of the same shape.

    The result's ``inclusive``/``exclusive`` hold the *treatment* values,
    ``baseline`` holds the baseline's inclusive values, and ``tag`` holds
    the difference class judged on ``metric_index`` with the given absolute
    ``tolerance``.  Shapes must match; schemas are unified.
    """
    if baseline.shape != treatment.shape:
        raise AnalysisError("cannot diff %s against %s"
                            % (baseline.shape, treatment.shape))
    schema = baseline.schema.union(treatment.schema)
    result = ViewTree(schema, shape="diff:%s" % baseline.shape)

    base_remap = [schema.index_of(n) for n in baseline.schema.names()]
    treat_remap = [schema.index_of(n) for n in treatment.schema.names()]

    base_columnar = baseline.columnar()
    treat_columnar = treatment.columnar()
    if (key_fn is default_merge_key
            and base_columnar is not None and base_columnar.default_keys
            and treat_columnar is not None and treat_columnar.default_keys):
        return viewtree_columnar.diff_columnar(
            base_columnar, treat_columnar, base_remap, treat_remap,
            schema, result.shape, metric_index, tolerance)

    # Overlay the baseline first, then the treatment, then classify.
    base_seen = set()
    stack = [(baseline.root, result.root)]
    while stack:
        src, dst = stack.pop()
        base_seen.add(id(dst))
        for local, value in src.inclusive.items():
            dst.baseline[base_remap[local]] = (
                dst.baseline.get(base_remap[local], 0.0) + value)
        dst.sources.extend(src.sources)
        for child in src.children.values():
            stack.append((child, dst.child(child.frame, key_fn)))

    seen = set()
    stack = [(treatment.root, result.root)]
    while stack:
        src, dst = stack.pop()
        seen.add(id(dst))
        for local, value in src.inclusive.items():
            dst.add_inclusive(treat_remap[local], value)
        for local, value in src.exclusive.items():
            dst.add_exclusive(treat_remap[local], value)
        dst.sources.extend(src.sources)
        for child in src.children.values():
            stack.append((child, dst.child(child.frame, key_fn)))

    for node in result.nodes():
        if node is result.root:
            continue
        in_treatment = id(node) in seen
        in_baseline = id(node) in base_seen
        before = node.baseline.get(metric_index, 0.0)
        after = node.inclusive.get(metric_index, 0.0)
        if in_treatment and not in_baseline:
            node.tag = TAG_ADDED
        elif in_baseline and not in_treatment:
            node.tag = TAG_DELETED
        elif after > before + tolerance:
            node.tag = TAG_GREW
        elif after < before - tolerance:
            node.tag = TAG_SHRANK
        else:
            node.tag = TAG_SAME
    return result


def diff_profiles(baseline: Profile, treatment: Profile,
                  shape: str = "top_down", metric: Optional[str] = None,
                  tolerance: float = 0.0) -> ViewTree:
    """Transform both profiles into ``shape`` and diff the views.

    ``metric`` is resolved against the *union* schema — the column order of
    the diff tree itself.  Resolving against the baseline alone would
    classify tags on the wrong column whenever the two profiles declare
    their metrics in different orders.
    """
    t1 = transform(baseline, shape)
    t2 = transform(treatment, shape)
    schema = t1.schema.union(t2.schema)
    metric_index = schema.index_of(metric) if metric else 0
    return diff_trees(t1, t2, metric_index=metric_index, tolerance=tolerance)


def add_delta_column(tree: ViewTree, metric_index: int,
                     mode: str = "subtract") -> int:
    """Attach an explicit difference column to a diff tree.

    ``mode="subtract"`` stores ``after - before``; ``mode="ratio"`` stores
    ``after / before`` (0 where the baseline is 0) — the division variant
    §V-B recommends for scaling studies.  Returns the new column index.
    """
    if not tree.shape.startswith("diff:"):
        raise AnalysisError("delta columns only apply to diff trees")
    if mode not in ("subtract", "ratio"):
        raise AnalysisError("mode must be 'subtract' or 'ratio'")
    # Lazy import: the engine depends on this package.
    from ..engine import forget_everywhere
    metric = tree.schema[metric_index]
    suffix = "delta" if mode == "subtract" else "ratio"
    column = tree.schema.add(Metric(
        name="%s:%s" % (metric.name, suffix),
        unit=metric.unit if mode == "subtract" else "",
        description="%s of %s (treatment vs baseline)" % (suffix, metric.name),
        aggregation=Aggregation.SUM))
    cvt = tree.columnar()
    if cvt is not None:
        # The formula engine's "-" and "/" are exactly the loop below.
        env = {"after": viewtree_columnar.value_column(cvt, metric_index),
               "before": viewtree_columnar.value_column(cvt, metric_index,
                                                        "baseline")}
        values = formula.evaluate_columns(
            formula.parse("after - before" if mode == "subtract"
                          else "after / before"), env, cvt.n_rows)
        viewtree_columnar.add_column(tree, column, values)
    else:
        for node in tree.nodes():
            before = node.baseline.get(metric_index, 0.0)
            after = node.inclusive.get(metric_index, 0.0)
            if mode == "subtract":
                node.inclusive[column] = after - before
            else:
                node.inclusive[column] = after / before if before else 0.0
    # In-place mutation: drop the tree from any engine cache.
    forget_everywhere(tree)
    return column


def summarize(tree: ViewTree) -> Dict[str, int]:
    """Count nodes per differential tag (used in reports and tests).

    Tags are keyed in the order the node walk first meets them; a
    columnar-backed tree is counted off its tag codes without building
    the facade.
    """
    cvt = tree.columnar()
    if cvt is not None:
        return viewtree_columnar.tag_counts(cvt)
    counts: Dict[str, int] = {}
    for node in tree.nodes():
        if node.tag:
            counts[node.tag] = counts.get(node.tag, 0) + 1
    return counts
