"""Inclusive/exclusive metric computation over CCTs (§V-A(a)).

A node's *exclusive* value is what was measured at exactly that context; its
*inclusive* value adds everything measured in the subtree below it.  The
arrays compute it for every node at once
(:meth:`~repro.core.cct_columnar.ColumnarCCT.inclusive`), and
:func:`compute_inclusive` copies it into the object facade's per-node
caches for the consumers that read nodes (callbacks, elide hooks).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..core.cct import CCTNode
from ..core.profile import Profile
from .traversal import postorder


def compute_inclusive(profile: Profile,
                      metric_indices: Optional[Iterable[int]] = None) -> None:
    """Fill every facade node's inclusive cache for the given metric
    columns (all schema columns when omitted).

    The values are the arrays' inclusive matrix: each node's exclusive
    value plus its children's inclusive values in creation order, the
    sums a post-order pass over the nodes makes.
    """
    if metric_indices is None:
        indices: List[int] = list(range(len(profile.schema)))
    else:
        indices = list(metric_indices)
    # The facade never changes, so a root cache that covers every
    # requested column means a previous pass computed them.
    root_cache = profile.root.inclusive
    if root_cache and all(index in root_cache for index in indices):
        return
    rows = profile.columnar().inclusive()[:, indices].tolist()
    for node, row in zip(profile.row_nodes(), rows):
        node.inclusive.update(zip(indices, row))


def inclusive_value(profile: Profile, node: CCTNode, metric_name: str) -> float:
    """Inclusive value of one metric at one node, computing caches lazily."""
    index = profile.schema.index_of(metric_name)
    if index not in node.inclusive:
        compute_inclusive(profile, [index])
    return node.inclusive.get(index, 0.0)


def totals(profile: Profile) -> Dict[str, float]:
    """Program-wide total per metric (root-inclusive values)."""
    compute_inclusive(profile)
    return {metric.name: profile.root.inclusive.get(index, 0.0)
            for index, metric in enumerate(profile.schema)}


def check_inclusive_invariant(profile: Profile,
                              tolerance: float = 1e-9) -> List[str]:
    """Verify inclusive(node) == exclusive(node) + sum(inclusive(children)).

    Returns a list of violation descriptions (empty when the invariant
    holds) over the facade's cached values, for the tests.
    """
    violations: List[str] = []
    for node in postorder(profile.root):
        for index in range(len(profile.schema)):
            if index not in node.inclusive:
                continue
            expected = node.metrics.get(index, 0.0) + sum(
                child.inclusive.get(index, 0.0)
                for child in node.children.values())
            actual = node.inclusive[index]
            scale = max(abs(expected), abs(actual), 1.0)
            if abs(expected - actual) > tolerance * scale:
                violations.append(
                    "%s metric %d: inclusive %g != expected %g"
                    % (node.frame.label(), index, actual, expected))
    return violations
