"""Flame-graph layout: from a view tree to positioned rectangles.

The layout is resolution-aware and lazy, which is one of EasyView's
response-time levers (§V-C): nodes whose rendered width would fall below
``min_width`` pixels are not laid out at all (their parent draws as a solid
block), so opening a million-node profile only materializes the few thousand
rectangles a screen can show.  Zooming re-runs the layout rooted at the
zoomed node, exactly like the VSCode extension re-renders on click.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from ..analysis.viewtree import ViewNode, ViewTree


@dataclass
class FlameRect:
    """One positioned flame-graph block.

    ``x`` and ``width`` are in pixels within ``[0, canvas_width)``; ``depth``
    is the row index (0 = the root row at the base of the flame).
    """

    node: ViewNode
    x: float
    width: float
    depth: int

    @property
    def label(self) -> str:
        return self.node.label()

    def fits_text(self, char_width: float = 7.0) -> bool:
        """Whether any useful label text fits inside this block."""
        return self.width >= 3 * char_width


class LazyRects:
    """Rect list over columnar rows; ``FlameRect`` objects build on demand.

    Geometry (count, per-rect x/width/depth) is available without ever
    materializing a ``ViewNode``; iterating or indexing materializes the
    view facade once and wraps each laid-out row in a ``FlameRect``.
    """

    __slots__ = ("_tree", "_columnar", "_rows", "_x", "_width", "_depth",
                 "_items")

    def __init__(self, tree, columnar, rows, x, width, depth) -> None:
        self._tree = tree
        self._columnar = columnar
        self._rows = rows
        self._x = x
        self._width = width
        self._depth = depth
        self._items: Optional[List[FlameRect]] = None

    def _force(self) -> List[FlameRect]:
        if self._items is None:
            columnar = self._columnar
            if columnar.node_objects is None:
                self._tree.root  # materializes the facade into the tree
            if columnar.node_objects is None:  # root was since replaced
                columnar.materialize()
            nodes = columnar.node_objects
            self._items = [
                FlameRect(node=nodes[row], x=x, width=width, depth=depth)
                for row, x, width, depth in zip(
                    self._rows.tolist(), self._x.tolist(),
                    self._width.tolist(), self._depth.tolist())]
        return self._items

    def __iter__(self) -> Iterator[FlameRect]:
        return iter(self._force())

    def __len__(self) -> int:
        return int(self._rows.shape[0])

    def __bool__(self) -> bool:
        return bool(self._rows.shape[0])

    def __getitem__(self, index):
        return self._force()[index]

    def __eq__(self, other):
        if isinstance(other, LazyRects):
            return self._force() == other._force()
        if isinstance(other, list):
            return self._force() == other
        return NotImplemented

    def __repr__(self) -> str:
        return "LazyRects(%d rects)" % len(self)


@dataclass
class RectGeometry:
    """Layout geometry as parallel arrays, one entry per rect.

    This is what a renderer actually ships to a canvas: positions, sizes,
    and a per-rect color bucket (the frame-table index — frames sharing
    an entry share a color), with no per-rect Python objects.
    """

    row: "object"        # int64[k] columnar view row per rect
    x: "object"          # float64[k]
    width: "object"      # float64[k]
    depth: "object"      # int64[k]
    frame_id: "object"   # int64[k] index into ``frames``
    frames: List         # the frame table the buckets refer to

    def colors(self) -> List[Tuple[int, int, int]]:
        """Per-rect RGB fill colors, computed once per distinct frame."""
        from .color import frame_rgb
        cache = {}
        out = []
        for index in self.frame_id.tolist():
            rgb = cache.get(index)
            if rgb is None:
                rgb = cache[index] = frame_rgb(self.frames[index])
            out.append(rgb)
        return out


@dataclass
class FlameLayout:
    """A computed layout plus the parameters that produced it."""

    rects: Sequence[FlameRect]
    canvas_width: float
    max_depth: int
    total_value: float
    metric_index: int
    laid_out_nodes: int
    skipped_nodes: int
    #: Array-form geometry when the layout came off columnar view rows.
    geometry: Optional[RectGeometry] = None

    def rows(self) -> List[List[FlameRect]]:
        """Rectangles grouped by depth (row 0 first)."""
        table: List[List[FlameRect]] = [[] for _ in range(self.max_depth + 1)]
        for rect in self.rects:
            table[rect.depth].append(rect)
        for row in table:
            row.sort(key=lambda r: r.x)
        return table

    def find(self, name: str) -> List[FlameRect]:
        """Rectangles whose frame name contains ``name``."""
        return [r for r in self.rects if name in r.node.frame.name]


def layout(tree: ViewTree, metric_index: int = 0,
           canvas_width: float = 1200.0, min_width: float = 0.5,
           root: Optional[ViewNode] = None,
           max_depth: Optional[int] = None) -> FlameLayout:
    """Lay out a view tree as flame-graph rectangles.

    ``root`` zooms the layout to a subtree (it takes the full canvas width).
    ``min_width`` is the lazy-layout cutoff in pixels; pass 0 to force a
    full layout (the ablation benchmark does).
    """
    if root is None:
        columnar = tree.columnar()
        if columnar is not None:
            return _layout_columnar(tree, columnar, metric_index,
                                    canvas_width, min_width, max_depth)
    origin = root if root is not None else tree.root
    total = origin.inclusive.get(metric_index, 0.0)
    rects: List[FlameRect] = []
    skipped = 0
    deepest = 0
    if total > 0:
        scale = canvas_width / total
        # (node, x, depth); children are laid out left-to-right by
        # descending value, the conventional flame-graph ordering.
        stack = [(origin, 0.0, 0)]
        while stack:
            node, x, depth = stack.pop()
            value = node.inclusive.get(metric_index, 0.0)
            width = value * scale
            if width < min_width:
                skipped += 1 + _subtree_size(node)
                continue
            rects.append(FlameRect(node=node, x=x, width=width, depth=depth))
            if depth > deepest:
                deepest = depth
            if max_depth is not None and depth >= max_depth:
                continue
            child_x = x
            for child in node.sorted_children():
                child_value = child.inclusive.get(metric_index, 0.0)
                if child_value <= 0:
                    continue
                stack.append((child, child_x, depth + 1))
                child_x += child_value * scale
    return FlameLayout(rects=rects, canvas_width=canvas_width,
                       max_depth=deepest, total_value=total,
                       metric_index=metric_index,
                       laid_out_nodes=len(rects), skipped_nodes=skipped)


def _layout_columnar(tree: ViewTree, cvt, metric_index: int,
                     canvas_width: float, min_width: float,
                     max_depth: Optional[int]) -> FlameLayout:
    """Flame rects straight from columnar preorder — no ViewNode in sight.

    Replays :func:`layout` exactly on the view-row arrays: per depth level,
    candidate rows (positive value, parent laid out) get x positions from a
    grouped exclusive running sum of sibling widths in the object path's
    sort order (descending metric-0 value, then frame name/file, insertion
    order on ties), the ``min_width`` cutoff prunes whole subtrees via the
    precomputed subtree sizes, and the final rect order is the preorder
    under the *reversed* sort key — the pop order of the object DFS.  The
    returned layout carries a :class:`RectGeometry` and a :class:`LazyRects`
    sequence, so rendering geometry never materializes the facade.
    """
    import numpy as np

    n = cvt.n_rows
    m = cvt.n_metrics
    if 0 <= metric_index < m:
        total = float(cvt.inclusive[0, metric_index])
    else:
        total = 0.0
    empty = np.zeros(0, dtype=np.int64)
    if not total > 0:
        return FlameLayout(
            rects=LazyRects(tree, cvt, empty, empty.astype(np.float64),
                            empty.astype(np.float64), empty),
            canvas_width=canvas_width, max_depth=0, total_value=total,
            metric_index=metric_index, laid_out_nodes=0, skipped_nodes=0,
            geometry=RectGeometry(row=empty, x=empty.astype(np.float64),
                                  width=empty.astype(np.float64),
                                  depth=empty, frame_id=empty,
                                  frames=cvt.frames))

    scale = canvas_width / total
    value = cvt.inclusive[:, metric_index]
    width = value * scale
    parent = cvt.parent
    sizes = cvt.subtree_sizes()

    # Sibling sort order: descending metric-0 value (sorted_children always
    # ranks on column 0, whatever metric is being laid out), then frame
    # (name, file); stable sorts keep insertion order on full ties.  The
    # ranks are per frame-table entry; candidates gather them per row.
    value0 = cvt.inclusive[:, 0] if m > 0 else np.zeros(n, dtype=np.float64)
    frames = cvt.frames
    name_rank = {text: i for i, text in
                 enumerate(sorted({f.name for f in frames}))}
    file_rank = {text: i for i, text in
                 enumerate(sorted({f.file for f in frames}))}
    name_key = np.array([name_rank[f.name] for f in frames], dtype=np.int64)
    file_key = np.array([file_rank[f.file] for f in frames], dtype=np.int64)
    fid = cvt.frame_id

    emitted = np.zeros(n, dtype=bool)
    x = np.zeros(n, dtype=np.float64)
    skipped = 0
    deepest = 0
    # Emitted children per laid-out row, in sibling sort order — feeds the
    # emission-order replay below.
    kept_children: dict = {}
    # The object walk skips a rect when ``width < min_width`` and a child
    # when ``value <= 0``; the negations keep its NaN behaviour.
    if not width[0] < min_width:
        emitted[0] = True
    else:
        skipped = int(sizes[0])

    # Level sweep over candidates only (positive value, laid-out parent):
    # pruning keeps the candidate set near the rendered-rect count, so the
    # sorts here are tiny even on million-row trees — the only full-array
    # work is the per-level candidate mask.
    ids, level_start = cvt.depth_groups()
    for level in range(1, len(level_start) - 1):
        if max_depth is not None and level > max_depth:
            break
        rows = ids[level_start[level]:level_start[level + 1]]
        cand = rows[~(value[rows] <= 0) & emitted[parent[rows]]]
        if cand.size == 0:
            break
        # Sort candidates by (parent, -value0, name, file); lexsort is
        # stable, so full ties keep ascending row order = insertion order.
        cand.sort()
        cfid = fid[cand]
        ranked = cand[np.lexsort((file_key[cfid], name_key[cfid],
                                  -value0[cand], parent[cand]))]
        # x positions: exclusive running sum of sibling widths in sort
        # order, offset from the parent's x.  Every positive-value sibling
        # advances the cursor, laid out or not — exactly the push loop.
        w = width[ranked]
        running = np.cumsum(w) - w
        p = parent[ranked]
        starts = np.empty(ranked.size, dtype=bool)
        starts[0] = True
        starts[1:] = p[1:] != p[:-1]
        anchor = np.maximum.accumulate(
            np.where(starts, np.arange(ranked.size, dtype=np.int64), 0))
        offset = running - running[anchor]
        if not np.isfinite(offset).all():
            # An infinite or NaN width (an overflowing scale, a NaN
            # metric) poisons the differenced sums of every later
            # sibling group; replay the push loop's cursor instead.
            cursor = 0.0
            for i, (step, first) in enumerate(zip(w.tolist(),
                                                  starts.tolist())):
                if first:
                    cursor = 0.0
                offset[i] = cursor
                cursor += step
        x[ranked] = x[p] + offset
        keep = ~(w < min_width)
        emitted[ranked] = keep
        if keep.any():
            deepest = level
            for row, parent_row in zip(ranked[keep].tolist(),
                                       p[keep].tolist()):
                kept_children.setdefault(parent_row, []).append(row)
        if not keep.all():
            skipped += int(sizes[ranked[~keep]].sum())

    # Rect emission order = the object DFS pop order: push children in
    # sort order, pop from the tail.  Replayed over laid-out rows only.
    emission: List[int] = []
    if emitted[0]:
        stack = [0]
        while stack:
            row = stack.pop()
            emission.append(row)
            children = kept_children.get(row)
            if children:
                stack.extend(children)
    laid = np.array(emission, dtype=np.int64)
    rect_x = x[laid]
    rect_w = width[laid]
    rect_d = cvt.depth[laid]
    geometry = RectGeometry(row=laid, x=rect_x, width=rect_w, depth=rect_d,
                            frame_id=cvt.frame_id[laid], frames=cvt.frames)
    return FlameLayout(
        rects=LazyRects(tree, cvt, laid, rect_x, rect_w, rect_d),
        canvas_width=canvas_width, max_depth=deepest, total_value=total,
        metric_index=metric_index, laid_out_nodes=int(laid.shape[0]),
        skipped_nodes=skipped, geometry=geometry)


def layout_profile(profile, metric_index: int = 0,
                   canvas_width: float = 1200.0, min_width: float = 0.5,
                   max_depth: Optional[int] = None) -> FlameLayout:
    """Lay out a profile's top-down flame graph *directly from its CCT*.

    This is the open-pipeline fast path (§V-C): instead of materializing a
    full view tree first, sibling contexts are merged on the fly per
    rendered row, and merging stops wherever the merged block falls under
    ``min_width`` pixels.  Work is proportional to the number of *rendered*
    blocks, not to profile size — on the Fig. 5 corpus this is what keeps
    the large-profile open time flat while eager viewers scale with node
    count.

    Rendered blocks get lightweight :class:`ViewNode` stubs (frame, merged
    inclusive value, contributing CCT nodes as ``sources``) so every
    renderer and the code-link action work unchanged.
    """
    from ..analysis.metrics import compute_inclusive
    compute_inclusive(profile, [metric_index])
    root = profile.root
    total = root.inclusive.get(metric_index, 0.0)
    rects: List[FlameRect] = []
    skipped = 0
    deepest = 0
    if total > 0:
        scale = canvas_width / total
        root_stub = ViewNode(root.frame)
        root_stub.inclusive[metric_index] = total
        root_stub.sources.append(root)
        # Stack entries: (cct node group, view stub, x, depth).  A group is
        # the list of CCT contexts merged into one block.
        stack = [([root], root_stub, 0.0, 0)]
        while stack:
            group, stub, x, depth = stack.pop()
            rects.append(FlameRect(node=stub, x=x, width=stub.inclusive[
                metric_index] * scale, depth=depth))
            if depth > deepest:
                deepest = depth
            if max_depth is not None and depth >= max_depth:
                continue
            # Merge the group's children by frame identity.
            merged: dict = {}
            for cct_node in group:
                for child in cct_node.children.values():
                    value = child.inclusive.get(metric_index, 0.0)
                    if value <= 0:
                        continue
                    key = child.frame.merge_key()
                    entry = merged.get(key)
                    if entry is None:
                        merged[key] = [child.frame, value, [child]]
                    else:
                        entry[1] += value
                        entry[2].append(child)
            # Lay wide children out left-to-right by descending value.
            entries = sorted(merged.values(), key=lambda e: -e[1])
            child_x = x
            for frame, value, members in entries:
                width = value * scale
                if width < min_width:
                    skipped += len(members)
                    child_x += width
                    continue
                child_stub = ViewNode(frame, parent=stub)
                child_stub.inclusive[metric_index] = value
                child_stub.sources.extend(members)
                stack.append((members, child_stub, child_x, depth + 1))
                child_x += width
    return FlameLayout(rects=rects, canvas_width=canvas_width,
                       max_depth=deepest, total_value=total,
                       metric_index=metric_index,
                       laid_out_nodes=len(rects), skipped_nodes=skipped)


def _subtree_size(node: ViewNode) -> int:
    """Count of descendants (for lazy-layout accounting)."""
    count = 0
    stack = list(node.children.values())
    while stack:
        current = stack.pop()
        count += 1
        stack.extend(current.children.values())
    return count
