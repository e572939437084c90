"""Search and filtering over views (§VI-A: "all flame graphs are
searchable").

Searches return match sets the renderer highlights; filters carve a new view
containing only matching subtrees (plus their ancestors, so the tree stays
connected and code links keep working).  Both run on the view rows.
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

from ..core.frame import Frame
from . import viewrows
from .viewtree import ViewNode, ViewTree
from .viewtree_columnar import take_rows

Predicate = Callable[[ViewNode], bool]


def _frame_matcher(pattern: str, regex: bool,
                   case_sensitive: bool) -> Callable[[Frame], bool]:
    """:func:`search`'s test of one frame's name and file."""
    if regex:
        compiled = re.compile(pattern, 0 if case_sensitive
                              else re.IGNORECASE)
        return lambda frame: bool(compiled.search(frame.name)
                                  or compiled.search(frame.file))
    needle = pattern if case_sensitive else pattern.lower()

    def matches(frame: Frame) -> bool:
        name = frame.name
        file = frame.file
        if not case_sensitive:
            name = name.lower()
            file = file.lower()
        return needle in name or needle in file

    return matches


def search(tree: ViewTree, pattern: str,
           regex: bool = False, case_sensitive: bool = False
           ) -> viewrows.NodeRows:
    """Find nodes whose frame name (or file) matches ``pattern``.

    Plain substring match by default; set ``regex`` for full regular
    expressions.  Matches are the matching rows in pre-order, as
    :class:`~repro.analysis.viewrows.NodeRows`: their facade nodes build
    only if the caller iterates them.
    """
    cvt = tree.columnar()
    return viewrows.NodeRows(cvt, viewrows.match_rows(
        cvt, _frame_matcher(pattern, regex, case_sensitive)))


def match_fraction(tree: ViewTree, matches: viewrows.NodeRows,
                   metric_index: int = 0) -> float:
    """Fraction of the profile total covered by ``matches`` (from
    :func:`search`, or an empty sequence).

    Counts each matched node's inclusive value unless one of its ancestors
    also matched (flame-graph convention: highlighting is by subtree).
    """
    total = tree.total(metric_index)
    if not total or not len(matches):
        return 0.0
    return viewrows.covered(matches.cvt, matches.rows, metric_index) / total


def filter_tree(tree: ViewTree, predicate: Predicate) -> ViewTree:
    """A new view containing matching nodes, their ancestors, and subtrees.

    Semantics follow flame-graph filtering: when a node matches, its whole
    subtree is kept; ancestors of matches are kept as connective tissue and
    keep their original values (so percentages stay meaningful).  The
    predicate runs once per facade node but the root, in walk order.
    """
    cvt = tree.columnar()
    nodes = cvt.facade()
    walk = cvt.walk_order()[1:]
    matched = np.zeros(cvt.n_rows, dtype=bool)
    matched[walk] = np.fromiter(
        (bool(predicate(nodes[row])) for row in walk.tolist()), dtype=bool,
        count=walk.shape[0])
    return _keep_matches(tree, matched)


def filter_by_name(tree: ViewTree, pattern: str, regex: bool = False
                   ) -> ViewTree:
    """Filter to subtrees whose frame name matches ``pattern``: tested once
    per frame-table entry, with no facade built."""
    compiled = re.compile(pattern) if regex else None

    def test(frame: Frame) -> bool:
        if compiled is not None:
            return bool(compiled.search(frame.name))
        return pattern in frame.name

    cvt = tree.columnar()
    matched = np.zeros(cvt.n_rows, dtype=bool)
    matched[viewrows.match_rows(cvt, test)] = True
    return _keep_matches(tree, matched)


def _keep_matches(tree: ViewTree, matched) -> ViewTree:
    """The rows under a matched row or above one, and the root."""
    cvt = tree.columnar()
    parent = cvt.parent
    below = matched.copy()
    above = matched.copy()
    ids, start = cvt.depth_groups()
    levels = [ids[start[level]:start[level + 1]]
              for level in range(1, len(start) - 1)]
    for rows in levels:
        below[rows] |= below[parent[rows]]
    for rows in reversed(levels):
        above[parent[rows[above[rows]]]] = True
    keep = below | above
    keep[0] = True
    return ViewTree(tree.schema.copy(), tree.shape,
                    take_rows(cvt, np.flatnonzero(keep)))
