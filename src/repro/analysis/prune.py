"""Tree hygiene: recursion collapsing, pruning, and hot-path extraction.

These are the "associated analyses" §V-A(a) couples with tree traversal:
collapsing deep and recursive call paths and pruning insignificant nodes,
which keep large profiles readable and the renderer fast.
All operations work on view trees and return new trees or node rows; the
underlying profile is never mutated.  They run on the view rows: a result
tree carries arrays like its input, with every value plane of the rows it
keeps (diff baselines and aggregate histograms included).
"""

from __future__ import annotations

import numpy as np

from ..core.frame import FrameKind, intern_frame
from . import viewrows
from .viewtree import ViewTree
from .viewtree_columnar import (_PRESENCE, ColumnarViewTree, _UnionSources,
                                _cell_ranks, _grouped_csr, _if_unordered,
                                _regroup, _renumber, _root_chunk, take_rows,
                                value_column)


def _insertion_order(presence, *keys):
    """Each present cell's position among its row's present cells when
    they insert by ``keys`` (matrices shaped like ``presence``, the most
    significant first)."""
    rows, cols = np.nonzero(presence)
    by_key = np.lexsort(tuple(key[rows, cols] for key in reversed(keys))
                        + (rows,))
    rows = rows[by_key]
    order = np.zeros(presence.shape, dtype=np.int64)
    order[rows, cols[by_key]] = (np.arange(rows.shape[0], dtype=np.int64)
                                 - np.searchsorted(rows, rows))
    return order


def _group_sums(values, presence, ranks, groups, n_groups):
    """Add contributor rows into ``n_groups`` output rows the way the
    object loops fill dicts: each value in turn onto 0.0, and each
    output row's keys in the order its contributions first bring them.

    ``values``, ``presence`` and ``ranks`` (a contributor's own key
    order) hold one contributor per row, in contribution order;
    ``groups`` is each one's output row.  Returns ``(sums, seen,
    order)``, where ``order`` is each seen cell's insertion position
    within its row.
    """
    spread = presence if values.ndim == 2 else presence[:, :, None]
    sums = np.zeros((n_groups,) + values.shape[1:], dtype=np.float64)
    np.add.at(sums, groups, np.where(spread, values, 0.0))
    seen = np.zeros((n_groups, presence.shape[1]), dtype=bool)
    np.logical_or.at(seen, groups, presence)
    # Per output cell: the first contribution that has it, and the
    # cell's rank in that contributor's dict.
    at, cols = np.nonzero(presence)
    first = np.full(seen.shape, presence.shape[0], dtype=np.int64)
    np.minimum.at(first, (groups[at], cols), at)
    first[~seen] = 0
    columns = np.arange(seen.shape[1], dtype=np.int64)
    return sums, seen, _insertion_order(seen, first, ranks[first, columns])


def collapse_recursion(tree: ViewTree) -> ViewTree:
    """Merge self-recursive chains: a child with its parent's identity folds
    into the parent (values and grandchildren move up).

    ``f → f → f → g`` becomes ``f → g``.  A row's exclusive value sums
    every row folded into it; its inclusive, baseline and histogram
    values sum only the rows whose parent went to another row, so the
    folded ``f`` keeps its outermost inclusive value, and a ``g`` met
    under ``f`` at two recursion depths adds both.
    """
    cvt = tree.columnar()
    n = cvt.n_rows
    parent = cvt.parent
    first_token: dict = {}
    canonical = np.asarray([first_token.setdefault(key, token)
                            for token, key in enumerate(cvt.merge_keys)],
                           dtype=np.int64)
    key = canonical[cvt.token]
    folded = np.zeros(n, dtype=bool)
    folded[1:] = key[1:] == key[parent[1:]]
    # Per row: the nearest ancestor-or-self that did not fold (the row
    # whose output row it joins), and that output row's depth.
    head = np.arange(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    ids, start = cvt.depth_groups()
    for level in range(1, len(start) - 1):
        rows = ids[start[level]:start[level + 1]]
        fold = folded[rows]
        head[rows] = np.where(fold, head[parent[rows]], rows)
        depth[rows] = depth[parent[rows]] + ~fold

    # Heads meeting one output parent under one key merge, an output
    # level at a time; each output row is created the first time the
    # object walk scans one of its heads from the head's parent.
    heads = np.flatnonzero(~folded)
    order, bounds = _grouped_csr(depth[heads], int(depth.max()) + 1)
    visit = cvt.creation_visit_positions()
    out = np.zeros(n, dtype=np.int64)
    chunks = [_root_chunk(key[0], cvt.frame_id[0])]
    n_out = 1
    for level in range(1, len(bounds) - 1):
        rows = heads[order[bounds[level]:bounds[level + 1]]]
        out[rows], chunk = _regroup(
            out[head[parent[rows]]], key[rows], visit[parent[rows]] * n + rows,
            cvt.frame_id[rows], max(len(cvt.merge_keys), 1), level, n_out)
        chunks.append(chunk)
        n_out += chunk[0].shape[0]
    remap, row_parent, row_depth, row_token, row_frame = _renumber(
        *(np.concatenate(part) for part in zip(*chunks)))
    out = remap[out[head]]

    # Values land in the object walk's order (the facade walk).
    walk = cvt.walk_order()
    own = walk[~folded[walk]]
    planes = {}
    cell_order = {}
    for plane, rows in (("exclusive", walk), ("inclusive", own),
                        ("baseline", own)):
        if getattr(cvt, plane) is None:
            continue
        presence = _PRESENCE[plane]
        planes[plane], planes[presence], rank = _group_sums(
            getattr(cvt, plane)[rows], getattr(cvt, presence)[rows],
            _cell_ranks(cvt, plane)[rows], out[rows], n_out)
        if _if_unordered(rank, planes[presence]) is not None:
            cell_order[plane] = rank
    if cvt.hist is not None:
        planes["hist"], planes["hist_present"], planes["hist_first"] = \
            _group_sums(cvt.hist[own], cvt.hist_present[own],
                        cvt.hist_first[own], out[own], n_out)
    if cvt.tag_codes is not None:
        # The first tag the walk meets on any of the row's contributors.
        tagged = walk[cvt.tag_codes[walk] != 0]
        rows, first = np.unique(out[tagged], return_index=True)
        planes["tag_codes"] = np.zeros(n_out, dtype=np.int8)
        planes["tag_codes"][rows] = cvt.tag_codes[tagged[first]]
    target = out[walk]
    grouped = np.argsort(target, kind="stable")
    source_start = np.zeros(n_out + 1, dtype=np.int64)
    np.cumsum(np.bincount(target, minlength=n_out), out=source_start[1:])
    collapsed = ColumnarViewTree(
        parent=row_parent, depth=row_depth, token=row_token,
        frame_id=row_frame, frames=cvt.frames, merge_keys=cvt.merge_keys,
        shape=cvt.shape, n_series=cvt.n_series,
        row_sources=_UnionSources([cvt], np.zeros(n, dtype=np.int64),
                                  walk[grouped], source_start),
        cell_order=cell_order, **planes)
    return ViewTree(tree.schema.copy(), tree.shape, collapsed)


def prune(tree: ViewTree, metric_index: int = 0,
          min_fraction: float = 0.005,
          other_label: str = "<pruned>") -> ViewTree:
    """Drop subtrees whose inclusive value falls below a fraction of total.

    Each parent that loses children gets one ``<pruned>`` child holding
    their summed inclusive (also its exclusive), baseline and histogram
    values, so totals remain exact (the flame graph still adds up).  A
    parent whose kept children already include a ``<pruned>`` one (a
    pruned tree, pruned again) adds the dropped values into it.
    """
    cvt = tree.columnar()
    parent = cvt.parent
    threshold = abs(tree.total(metric_index)) * min_fraction
    keep = np.abs(value_column(cvt, metric_index)) >= threshold  # NaN fails
    keep[0] = True
    ids, start = cvt.depth_groups()
    for level in range(1, len(start) - 1):
        rows = ids[start[level]:start[level + 1]]
        keep[rows] &= keep[parent[rows]]
    kept = np.flatnonzero(keep)
    dropped = np.flatnonzero(~keep)
    dropped = dropped[keep[parent[dropped]]]  # in child order per parent
    owners, slot = np.unique(parent[dropped], return_inverse=True)

    frame = intern_frame(other_label, kind=FrameKind.BASIC_BLOCK)
    placeholder = frame.merge_key()
    is_placeholder = np.fromiter((key == placeholder
                                  for key in cvt.merge_keys), dtype=bool,
                                 count=len(cvt.merge_keys))
    # A kept <pruned> child of an owner takes its dropped values.
    existing = kept[1:][is_placeholder[cvt.token[kept[1:]]]]
    position = np.searchsorted(owners, parent[existing])
    hit = position < owners.shape[0]
    hit[hit] = owners[position[hit]] == parent[existing[hit]]
    target = np.full(owners.shape[0], -1, dtype=np.int64)
    target[position[hit]] = np.searchsorted(kept, existing[hit])
    fresh = np.flatnonzero(target < 0)
    target[fresh] = kept.shape[0] + np.arange(fresh.shape[0], dtype=np.int64)

    out = take_rows(cvt, kept, extra=fresh.shape[0])
    appended = slice(kept.shape[0], None)
    out.parent[appended] = np.searchsorted(kept, owners[fresh])
    out.depth[appended] = out.depth[out.parent[appended]] + 1
    if is_placeholder.any():
        out.token[appended] = int(np.argmax(is_placeholder))
    else:
        out.merge_keys = list(cvt.merge_keys) + [placeholder]
        out.token[appended] = len(cvt.merge_keys)
    out.frames = list(cvt.frames) + [frame]
    out.frame_id[appended] = len(cvt.frames)

    def add_dropped(plane, sums, seen, order):
        """Add per-owner sums (see :func:`_group_sums`) into the owners'
        targets; keys new to a target insert after its own, in
        ``order``."""
        is_hist = plane == "hist"
        matrix = getattr(out, plane)
        mask = getattr(out, "hist_present" if is_hist else _PRESENCE[plane])
        had = mask[target]
        now, before = (seen[:, :, None], had[:, :, None]) if is_hist \
            else (seen, had)
        current = matrix[target]
        matrix[target] = np.where(now, np.where(before, current, 0.0) + sums,
                                  current)
        mask[target] |= seen
        recorded = out.hist_first if is_hist else out.cell_order.get(plane)
        ranks = (recorded if recorded is not None
                 else _cell_ranks(out, plane))[target]
        ranks = np.where(seen & ~had, int(ranks.max(initial=0)) + 1 + order,
                         ranks)  # new keys after every key the row had
        ranks = _insertion_order(mask[target], ranks)
        if recorded is None:
            if _if_unordered(ranks, mask[target]) is None:
                return  # ascending by column, as the facade fills it
            recorded = out.cell_order[plane] = np.array(
                _cell_ranks(out, plane))
        recorded[target] = ranks

    n_owners = owners.shape[0]
    inclusive = _group_sums(cvt.inclusive[dropped], cvt.incl_present[dropped],
                            _cell_ranks(cvt, "inclusive")[dropped], slot,
                            n_owners)
    add_dropped("inclusive", *inclusive)
    add_dropped("exclusive", *inclusive)
    if cvt.baseline is not None:
        add_dropped("baseline", *_group_sums(
            cvt.baseline[dropped], cvt.base_present[dropped],
            _cell_ranks(cvt, "baseline")[dropped], slot, n_owners))
    if cvt.hist is not None:
        add_dropped("hist", *_group_sums(
            cvt.hist[dropped], cvt.hist_present[dropped],
            cvt.hist_first[dropped], slot, n_owners))
    return ViewTree(tree.schema.copy(), tree.shape, out)


def hot_path(tree: ViewTree, metric_index: int = 0,
             min_fraction: float = 0.5) -> viewrows.NodeRows:
    """Follow the dominant child while it keeps ``min_fraction`` of its
    parent's inclusive value; returns the path (root excluded) as rows.

    This is the classic "hot path" drill-down a viewer offers as a single
    action instead of repeated clicking.
    """
    cvt = tree.columnar()
    return viewrows.NodeRows(cvt, viewrows.hot_path_rows(
        cvt, metric_index, min_fraction))


def truncate_depth(tree: ViewTree, max_depth: int) -> ViewTree:
    """Cut the tree below ``max_depth``; each cut row takes its inclusive
    values as its exclusive ones, so totals are preserved."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    cvt = tree.columnar()
    out = take_rows(cvt, np.flatnonzero(cvt.depth <= max_depth))
    cut = (out.depth == max_depth)[:, None]
    if out.cell_order:
        out.cell_order["exclusive"] = np.where(
            cut, _cell_ranks(out, "inclusive"), _cell_ranks(out, "exclusive"))
    out.exclusive = np.where(cut, out.inclusive, out.exclusive)
    out.excl_present = np.where(cut, out.incl_present, out.excl_present)
    return ViewTree(tree.schema.copy(), tree.shape, out)
