"""Search and filtering over views (§VI-A: "all flame graphs are
searchable").

Searches return match sets the renderer highlights; filters carve a new view
containing only matching subtrees (plus their ancestors, so the tree stays
connected and code links keep working).
"""

from __future__ import annotations

import re
from typing import Callable, Optional, Sequence, Set

from ..core.frame import Frame, FrameKind
from . import viewrows
from .viewtree import ViewNode, ViewTree

Predicate = Callable[[ViewNode], bool]


def search(tree: ViewTree, pattern: str,
           regex: bool = False, case_sensitive: bool = False
           ) -> Sequence[ViewNode]:
    """Find nodes whose frame name (or file) matches ``pattern``.

    Plain substring match by default; set ``regex`` for full regular
    expressions.  Matches are returned in pre-order.  On a columnar tree
    they are :class:`~repro.analysis.viewrows.NodeRows`: the matching rows,
    whose facade nodes build only if the caller iterates them.
    """
    if regex:
        flags = 0 if case_sensitive else re.IGNORECASE
        compiled = re.compile(pattern, flags)

        def matches(frame: Frame) -> bool:
            return bool(compiled.search(frame.name)
                        or compiled.search(frame.file))
    else:
        needle = pattern if case_sensitive else pattern.lower()

        def matches(frame: Frame) -> bool:
            name = frame.name
            file = frame.file
            if not case_sensitive:
                name = name.lower()
                file = file.lower()
            return needle in name or needle in file

    cvt = tree.columnar()
    if cvt is not None:
        return viewrows.NodeRows(tree, cvt, viewrows.match_rows(cvt, matches))
    return [node for node in tree.nodes()
            if node.frame.kind is not FrameKind.ROOT and matches(node.frame)]


def match_fraction(tree: ViewTree, matches: Sequence[ViewNode],
                   metric_index: int = 0) -> float:
    """Fraction of the profile total covered by the matched nodes.

    Counts each matched node's inclusive value unless one of its ancestors
    also matched (flame-graph convention: highlighting is by subtree).
    """
    total = tree.total(metric_index)
    if not total:
        return 0.0
    if isinstance(matches, viewrows.NodeRows):
        return viewrows.covered(matches.cvt, matches.rows,
                                metric_index) / total
    matched_ids: Set[int] = {id(node) for node in matches}
    covered = 0.0
    for node in matches:
        ancestor = node.parent
        shadowed = False
        while ancestor is not None:
            if id(ancestor) in matched_ids:
                shadowed = True
                break
            ancestor = ancestor.parent
        if not shadowed:
            covered += node.inclusive.get(metric_index, 0.0)
    return covered / total


def filter_tree(tree: ViewTree, predicate: Predicate) -> ViewTree:
    """A new view containing matching nodes, their ancestors, and subtrees.

    Semantics follow flame-graph filtering: when a node matches, its whole
    subtree is kept; ancestors of matches are kept as connective tissue and
    keep their original values (so percentages stay meaningful).
    """
    keep: Set[int] = set()
    for node in tree.nodes():
        if node is tree.root:
            continue
        if predicate(node):
            for sub in node.walk():
                keep.add(id(sub))
            ancestor: Optional[ViewNode] = node.parent
            while ancestor is not None:
                keep.add(id(ancestor))
                ancestor = ancestor.parent

    result = ViewTree(tree.schema.copy(), shape=tree.shape)
    stack = [(tree.root, result.root)]
    while stack:
        src, dst = stack.pop()
        dst.inclusive = dict(src.inclusive)
        dst.exclusive = dict(src.exclusive)
        dst.sources = src.sources.copy()
        dst.tag = src.tag
        dst.baseline = dict(src.baseline)
        dst.histogram = {k: list(v) for k, v in src.histogram.items()}
        for child in src.children.values():
            if id(child) in keep:
                stack.append((child, dst.child(child.frame)))
    return result


def filter_by_name(tree: ViewTree, pattern: str, regex: bool = False
                   ) -> ViewTree:
    """Filter to subtrees whose frame name matches ``pattern``."""
    if regex:
        compiled = re.compile(pattern)
        return filter_tree(tree, lambda n: bool(compiled.search(n.frame.name)))
    return filter_tree(tree, lambda n: pattern in n.frame.name)
