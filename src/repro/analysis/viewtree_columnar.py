"""Struct-of-arrays view trees: the columnar core behind ViewTree.

`repro.core.cct_columnar` made the *calling context tree* a set of
parallel arrays with the object tree as a lazy facade.  This module
carries the same form one layer up, through the §V-A view shapes: a
:class:`ColumnarViewTree` keeps a view tree as

* ``parent``/``depth``/``token`` int64 arrays (``parent[i] < i``, rows
  numbered in creation order — the order the object transforms would
  have allocated ``ViewNode`` objects),
* a per-tree merge-key table (``merge_keys[token]`` is the tuple a
  ``ViewNode.children`` dict would use),
* ``float64[R, M]`` inclusive / exclusive value matrices with boolean
  presence masks standing in for the per-node sparse dicts, and
* optional baseline / tag / histogram planes for diff and aggregate
  results.

The transforms themselves (:func:`build_top_down`,
:func:`build_bottom_up`, :func:`build_flat`, :func:`merge_columnar`,
:func:`diff_columnar`) never allocate a ``ViewNode``: tree shape is
found with ``np.unique`` over (parent-view-row, merge-token) integer
pairs one depth level at a time, and every per-metric quantity moves as
one ``np.add.at`` scatter per input.  A creation-order replay pass then
renumbers rows so the arrays are *bit-identical* — shape, values, child
insertion order, source order — to what the object transforms produce;
those stay behind as the differential oracle
(:mod:`repro.bench.view_oracle`).

``ViewNode`` materialization is deferred exactly like ``CCTNode``:
:meth:`ColumnarViewTree.materialize` builds the facade on first access
to ``ViewTree.root``, and :class:`~repro.analysis.viewtree.SourceList`
lazy parts keep code links resolvable without touching CCT objects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.frame import Frame, FrameKind, intern_frame
from ..core.metric import Aggregation
from ..obs import get_registry
from .metrics import compute_inclusive
from .viewtree import MergeKey, SourceList, ViewNode, ViewTree

#: Facade builds: the IDE request path makes none (see ``viewrows``).
_materialize_count = get_registry().counter(
    "analysis.view_materializations",
    "ViewNode facades built from columnar view trees")

#: Differential tag codes: index into this tuple == value in ``tag_codes``.
_TAGS: Tuple[Optional[str], ...] = (None, "A", "D", "+", "-", "=")
_TAG_CODE: Dict[Optional[str], int] = {tag: i for i, tag in enumerate(_TAGS)}


# ---------------------------------------------------------------------------
# shared array kernels
# ---------------------------------------------------------------------------

def _visit_positions(parent, depth_groups, sizes, sibling_keys):
    """Pre-order visit position per node for a given sibling order.

    ``sibling_keys`` is a tuple of arrays lexsorted (last key primary is
    ``parent``; the given keys break ties within a parent group).  The
    grouped-exclusive-cumsum trick from ``ColumnarCCT.preorder_positions``
    generalizes to any sibling order, so one helper serves the digest
    walk (merge-key order), creation replay (reversed creation order),
    and the flame layout (value order).
    """
    n = int(parent.shape[0])
    pre = np.zeros(n, dtype=np.int64)
    if n <= 1:
        return pre
    order = np.lexsort(sibling_keys + (parent,))[1:]
    sized = sizes[order]
    cum = np.cumsum(sized)
    parents = parent[order]
    counts = np.bincount(parent[1:], minlength=n)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=start[1:])
    group_base = np.zeros_like(cum)
    group_start = start[parents]
    nonzero = group_start > 0
    group_base[nonzero] = cum[group_start[nonzero] - 1]
    offset = cum - sized - group_base
    child_offset = np.empty(n, dtype=np.int64)
    child_offset[order] = offset
    ids, lstart = depth_groups
    for level in range(1, len(lstart) - 1):
        rows = ids[lstart[level]:lstart[level + 1]]
        pre[rows] = pre[parent[rows]] + 1 + child_offset[rows]
    return pre


def _group_by_depth(depth):
    ids = np.argsort(depth, kind="stable")
    levels = int(depth.max()) + 1 if depth.shape[0] else 1
    counts = np.bincount(depth, minlength=levels)
    start = np.zeros(levels + 1, dtype=np.int64)
    np.cumsum(counts, out=start[1:])
    return ids, start


def _sizes_of(parent, depth_groups):
    sizes = np.ones(parent.shape[0], dtype=np.int64)
    ids, start = depth_groups
    for level in range(len(start) - 2, 0, -1):
        rows = ids[start[level]:start[level + 1]]
        np.add.at(sizes, parent[rows], sizes[rows])
    return sizes


def _merge_tokens(frames: Sequence[Frame]):
    """Merge token per frame-table entry plus the merge-key table."""
    token_of: Dict[MergeKey, int] = {}
    merge_keys: List[MergeKey] = []
    out = np.empty(len(frames), dtype=np.int64)
    for i, frame in enumerate(frames):
        key = frame.merge_key()
        token = token_of.get(key)
        if token is None:
            token = len(merge_keys)
            token_of[key] = token
            merge_keys.append(key)
        out[i] = token
    return out, merge_keys


def _renumber(parent, depth, token, frame_id, creation):
    """Renumber rows ascending by creation rank (root pinned at 0).

    The creation ranks are topological — a row's creator path passes
    through its parent's creator first — so ``parent[i] < i`` holds in
    the renumbered arrays and level sweeps stay valid.
    """
    n_rows = parent.shape[0]
    remap = np.empty(n_rows, dtype=np.int64)
    body = np.argsort(creation[1:], kind="stable") + 1
    remap[0] = 0
    remap[body] = np.arange(1, n_rows, dtype=np.int64)
    new_parent = np.empty(n_rows, dtype=np.int64)
    new_parent[remap] = np.where(parent < 0, np.int64(-1),
                                 remap[np.maximum(parent, 0)])
    new_depth = np.empty(n_rows, dtype=np.int64)
    new_depth[remap] = depth
    new_token = np.empty(n_rows, dtype=np.int64)
    new_token[remap] = token
    new_frame = np.empty(n_rows, dtype=np.int64)
    new_frame[remap] = frame_id
    return remap, new_parent, new_depth, new_token, new_frame


def _root_chunk(token, frame_id):
    """The root row as a :func:`_renumber` chunk (see :func:`_regroup`)."""
    return (np.full(1, -1, dtype=np.int64), np.zeros(1, dtype=np.int64),
            np.full(1, token, dtype=np.int64),
            np.full(1, frame_id, dtype=np.int64),
            np.zeros(1, dtype=np.int64))


def _regroup(out_parent, token, rank, frame_id, n_tokens, level, n_rows):
    """One output level of a regrouping: input rows meeting one output
    parent under one merge token become one output row, created by the
    one of lowest creation ``rank`` (and taking its frame).

    Returns each input row's output row, numbered from ``n_rows`` on,
    and the new rows as a :func:`_renumber` chunk: (parent, depth,
    token, frame, creation rank).
    """
    uniq, inverse = np.unique(out_parent * n_tokens + token,
                              return_inverse=True)
    by_rank = np.argsort(rank, kind="stable")
    _, first = np.unique(inverse[by_rank], return_index=True)
    creators = by_rank[first]
    chunk = (uniq // n_tokens, np.full(uniq.shape[0], level, dtype=np.int64),
             uniq % n_tokens, frame_id[creators], rank[creators])
    return n_rows + inverse, chunk


def _grouped_csr(index, minlength):
    """Stable-sort ``index`` into per-group ranges: ``(order, start)``."""
    order = np.argsort(index, kind="stable")
    start = np.zeros(minlength + 1, dtype=np.int64)
    np.cumsum(np.bincount(index, minlength=minlength), out=start[1:])
    return order, start


# ---------------------------------------------------------------------------
# source providers
# ---------------------------------------------------------------------------

class _CCTSources:
    """Lazy per-row source lists backed by a grouped columnar-CCT index.

    ``ids[start[row]:start[row + 1]]`` are the contributing CCT node ids
    for a view row, in the same order the object transform would have
    appended them.  Resolution materializes the CCT facade on demand —
    and, when the owning profile has since swapped its CCT out (so
    ``profile.cct`` no longer fills this snapshot's ``node_objects``),
    falls back to materializing from the snapshot itself.
    """

    __slots__ = ("profile", "col", "ids", "start")

    def __init__(self, profile, col, ids, start) -> None:
        self.profile = profile
        self.col = col
        self.ids = ids
        self.start = start

    def __call__(self, row: int) -> SourceList:
        start = self.start
        count = int(start[row + 1] - start[row])
        return SourceList.lazy(self._resolve, row, count)

    def _resolve(self, row: int):
        nodes = _cct_nodes(self.profile, self.col)
        start = self.start
        ids = self.ids[start[row]:start[row + 1]].tolist()
        return [nodes[i] for i in ids]


def _cct_nodes(profile, col) -> List:
    """The ``CCTNode`` per columnar id of ``col``: the profile's own object
    tree while ``col`` is its snapshot, else one materialized from ``col``."""
    if col.node_objects is None and profile is not None \
            and profile.columnar() is col:
        profile.cct  # materialize the facade; fills node_objects
    if col.node_objects is None:
        col.to_cct()
    return col.node_objects


class _UnionSources:
    """Per-row sources of a merge/diff result: concatenated input rows.

    ``refs`` are (input-tree index, input-row) pairs grouped by result
    row in contribution order; each resolves through the input tree's
    own provider, so laziness survives arbitrarily deep merge stacks.
    """

    __slots__ = ("trees", "tree_of", "row_of", "start")

    def __init__(self, trees, tree_of, row_of, start) -> None:
        self.trees = trees
        self.tree_of = tree_of
        self.row_of = row_of
        self.start = start

    def __call__(self, row: int) -> SourceList:
        out = SourceList()
        tree_of = self.tree_of
        row_of = self.row_of
        trees = self.trees
        for at in range(int(self.start[row]), int(self.start[row + 1])):
            src = trees[tree_of[at]].sources_for(int(row_of[at]))
            out.extend(src)
        return out


# ---------------------------------------------------------------------------
# the columnar view tree
# ---------------------------------------------------------------------------

class ColumnarViewTree:
    """A view tree as parallel arrays (see module docstring)."""

    __slots__ = ("parent", "depth", "token", "frame_id", "frames",
                 "merge_keys", "shape",
                 "inclusive", "incl_present", "exclusive", "excl_present",
                 "baseline", "base_present", "tag_codes",
                 "hist", "hist_present", "hist_first", "n_series",
                 "cell_order", "row_sources", "node_objects",
                 "_depth_groups_cache", "_size", "_vp", "_walk", "_csr")

    def __init__(self, parent, depth, token, frame_id, frames, merge_keys,
                 shape, inclusive, incl_present, exclusive, excl_present,
                 baseline=None, base_present=None, tag_codes=None,
                 hist=None, hist_present=None, hist_first=None,
                 n_series=0, row_sources=None, cell_order=None) -> None:
        self.parent = parent
        self.depth = depth
        #: Merge token per row; ``merge_keys[token[i]]`` is the dict key
        #: under which row ``i`` hangs off its parent.
        self.token = token
        #: Representative frame per row (the first contributor's frame).
        self.frame_id = frame_id
        self.frames = frames
        self.merge_keys = merge_keys
        self.shape = shape
        self.inclusive = inclusive
        self.incl_present = incl_present
        self.exclusive = exclusive
        self.excl_present = excl_present
        self.baseline = baseline
        self.base_present = base_present
        #: int8 per-row diff tag (index into ``_TAGS``), or None.
        self.tag_codes = tag_codes
        #: float64[R, M_in, T] per-input value series (aggregate trees).
        self.hist = hist
        self.hist_present = hist_present
        #: Encounter rank per histogram cell — replays dict insertion
        #: order for the facade (sessions read ``next(iter(...))``).
        self.hist_first = hist_first
        self.n_series = n_series
        #: Value plane name → int64 ``[R, M]`` insertion rank per cell, for
        #: planes whose facade dicts are not filled ascending by column
        #: (a merge that met a higher column first, a re-derived column
        #: some rows lacked); planes not listed fill ascending.
        self.cell_order: Dict[str, object] = cell_order or {}
        #: ``row_sources(row) -> SourceList`` or None for source-free rows.
        self.row_sources = row_sources
        #: After :meth:`materialize`: the ``ViewNode`` per row.
        self.node_objects: Optional[List[ViewNode]] = None
        self._depth_groups_cache = None
        self._size = None
        self._vp = None
        self._walk = None
        self._csr = None

    # -- shape -------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return int(self.parent.shape[0])

    @property
    def n_metrics(self) -> int:
        return int(self.inclusive.shape[1])

    def depth_groups(self):
        if self._depth_groups_cache is None:
            self._depth_groups_cache = _group_by_depth(self.depth)
        return self._depth_groups_cache

    def subtree_sizes(self):
        if self._size is None:
            self._size = _sizes_of(self.parent, self.depth_groups())
        return self._size

    def visit_positions(self, sibling_keys):
        """Pre-order position per row under a custom sibling order."""
        return _visit_positions(self.parent, self.depth_groups(),
                                self.subtree_sizes(), sibling_keys)

    def creation_visit_positions(self):
        """Visit positions of the object merge loops' pop-last DFS.

        The object DFS pushes children in creation order and pops from
        the stack tail, so siblings are *visited* in reversed creation
        order — the sibling key is the negated row id.
        """
        if self._vp is None:
            ids = np.arange(self.n_rows, dtype=np.int64)
            self._vp = self.visit_positions((-ids,))
        return self._vp

    def walk_order(self):
        """Rows in facade walk order (``ViewTree.nodes()``: pre-order,
        last-created sibling first)."""
        if self._walk is None:
            walk = np.empty(self.n_rows, dtype=np.int64)
            walk[self.creation_visit_positions()] = np.arange(
                self.n_rows, dtype=np.int64)
            self._walk = walk
        return self._walk

    def children_csr(self):
        """Child ranges: ``order[start[p]:start[p + 1]]`` are row ``p``'s
        children in insertion order (ascending row id)."""
        if self._csr is None:
            n = self.n_rows
            order = np.argsort(self.parent, kind="stable")[1:]
            start = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.parent[1:], minlength=n),
                      out=start[1:])
            self._csr = (order, start)
        return self._csr

    def sources_for(self, row: int) -> SourceList:
        provider = self.row_sources
        if provider is None:
            return SourceList()
        return provider(row)

    def facade(self) -> List[ViewNode]:
        """The ``ViewNode`` per row, materialized on first use."""
        if self.node_objects is None:
            self.materialize()
        return self.node_objects

    def with_planes(self, **planes) -> "ColumnarViewTree":
        """A copy carrying the given value planes (``inclusive=...``,
        ``incl_present=...``, ...) and sharing everything else but the
        facade: structure arrays, row sources and the structural caches.
        The facade belongs to the tree that built it; a copy starts
        without one unless ``node_objects`` is passed."""
        clone = ColumnarViewTree.__new__(ColumnarViewTree)
        for slot in ColumnarViewTree.__slots__:
            setattr(clone, slot, planes[slot] if slot in planes
                    else getattr(self, slot))
        if "node_objects" not in planes:
            clone.node_objects = None
        return clone

    # -- facade ------------------------------------------------------------

    def materialize(self) -> ViewNode:
        """Build the ``ViewNode`` facade; returns the root.

        Rows are already in creation order, so a single ascending pass
        reproduces the object transforms' child insertion order, and
        per-dict cells are inserted ascending by column — matching how
        the object loops fill them — except aggregate histograms and the
        planes listed in ``cell_order``, which replay their recorded
        insertion order.
        """
        _materialize_count.inc()
        n_rows = self.n_rows
        frames = self.frames
        frame_l = self.frame_id.tolist()
        parent_l = self.parent.tolist()
        token_l = self.token.tolist()
        merge_keys = self.merge_keys
        provider = self.row_sources
        new = ViewNode.__new__
        nodes: List[ViewNode] = []
        for row in range(n_rows):
            node = new(ViewNode)
            node.frame = frames[frame_l[row]]
            node.children = {}
            node.inclusive = {}
            node.exclusive = {}
            node.sources = provider(row) if provider else SourceList()
            node.tag = None
            node.baseline = {}
            node.histogram = {}
            if row:
                parent = nodes[parent_l[row]]
                node.parent = parent
                parent.children[merge_keys[token_l[row]]] = node
            else:
                node.parent = None
            nodes.append(node)

        def fill(matrix, presence, attr):
            rows, cols = np.nonzero(presence)
            rank = self.cell_order.get(attr)
            if rank is not None:
                order = np.lexsort((rank[rows, cols], rows))
                rows = rows[order]
                cols = cols[order]
            cells = matrix[rows, cols]
            for row, col, value in zip(rows.tolist(), cols.tolist(),
                                       cells.tolist()):
                getattr(nodes[row], attr)[col] = value

        if self.incl_present.all() and "inclusive" not in self.cell_order:
            for row, values in enumerate(self.inclusive.tolist()):
                nodes[row].inclusive = dict(enumerate(values))
        else:
            fill(self.inclusive, self.incl_present, "inclusive")
        fill(self.exclusive, self.excl_present, "exclusive")
        if self.baseline is not None:
            fill(self.baseline, self.base_present, "baseline")
        if self.tag_codes is not None:
            for row, code in enumerate(self.tag_codes.tolist()):
                if code:
                    nodes[row].tag = _TAGS[code]
        if self.hist is not None:
            rows, cols = np.nonzero(self.hist_present)
            order = np.lexsort((self.hist_first[rows, cols], rows))
            rows = rows[order]
            cols = cols[order]
            series = self.hist[rows, cols]
            for row, col, values in zip(rows.tolist(), cols.tolist(),
                                        series.tolist()):
                nodes[row].histogram[col] = values
        self.node_objects = nodes
        return nodes[0]


# ---------------------------------------------------------------------------
# column access and copy-on-write column writes
# ---------------------------------------------------------------------------

#: Value plane name → its presence mask's attribute.
_PRESENCE = {"inclusive": "incl_present", "exclusive": "excl_present",
             "baseline": "base_present"}


def _cell_ranks(cvt: ColumnarViewTree, plane: str):
    """Insertion rank per cell of one plane (ascending column order when
    the plane has no recorded order)."""
    rank = cvt.cell_order.get(plane)
    if rank is not None:
        return rank
    matrix = getattr(cvt, plane)
    return np.broadcast_to(np.arange(matrix.shape[1], dtype=np.int64),
                           matrix.shape)


def _if_unordered(rank, presence):
    """``rank`` when some row's present cells are not ranked ascending by
    column (the facade order needs it), else None."""
    rows, cols = np.nonzero(presence)
    ranks = rank[rows, cols]
    same_row = rows[1:] == rows[:-1]
    if (same_row & (ranks[1:] < ranks[:-1])).any():
        return rank
    return None


def value_column(cvt: ColumnarViewTree, index: int, plane: str = "inclusive"):
    """Metric column ``index`` of one value plane as float64[R], with
    absent cells (and columns the plane lacks) read as 0.0 — what
    ``node.<plane>.get(index, 0.0)`` gives on the facade."""
    matrix = getattr(cvt, plane)
    if matrix is None or index >= matrix.shape[1]:
        return np.zeros(cvt.n_rows, dtype=np.float64)
    presence = getattr(cvt, _PRESENCE[plane])
    return np.where(presence[:, index], matrix[:, index], 0.0)


def add_column(tree: ViewTree, index: int, values,
               inclusive: bool = True) -> None:
    """Set metric column ``index`` of every row of a columnar-backed tree
    to ``values`` (float64[R]) in the inclusive or exclusive plane,
    keeping the array backing.

    Copy-on-write: a new :class:`ColumnarViewTree` with fresh value planes
    (both widened to the new column count) replaces the old one in a
    single assignment, so a reader still holding the old snapshot never
    sees a half-written array.  The tree's materialized facade gets the
    values too, so its nodes stay current; a fork shares no facade, so
    none of its writes reach another tree's nodes.

    A row that lacked the column gets the key last, as a dict
    assignment would; where that is not ascending order, the plane's
    ``cell_order`` records it.
    """
    cvt = tree.columnar()
    plane = "inclusive" if inclusive else "exclusive"
    n_rows = cvt.n_rows
    width = max(cvt.inclusive.shape[1], cvt.exclusive.shape[1], index + 1)
    order = dict(cvt.cell_order)
    rank = order.get(plane)
    presence = getattr(cvt, _PRESENCE[plane])
    if index < presence.shape[1]:
        added = ~presence[:, index]
        if rank is None and presence[added, index + 1:].any():
            rank = _cell_ranks(cvt, plane)
    else:
        added = np.ones(n_rows, dtype=bool)
    planes = {}
    for name in ("inclusive", "exclusive"):
        matrix = getattr(cvt, name)
        mask = getattr(cvt, _PRESENCE[name])
        name_rank = rank if name == plane else order.get(name)
        if name != plane and matrix.shape[1] == width:
            continue  # untouched and wide enough: shared as is
        fresh = np.zeros((n_rows, width), dtype=np.float64)
        fresh_mask = np.zeros((n_rows, width), dtype=bool)
        fresh[:, :matrix.shape[1]] = matrix
        fresh_mask[:, :mask.shape[1]] = mask
        if name_rank is not None:
            fresh_rank = np.zeros((n_rows, width), dtype=np.int64)
            fresh_rank[:, :name_rank.shape[1]] = name_rank
            if name == plane:
                fresh_rank[added, index] = int(name_rank.max()) + 1
            order[name] = fresh_rank
        if name == plane:
            fresh[:, index] = values
            fresh_mask[:, index] = True
        planes[name] = fresh
        planes[_PRESENCE[name]] = fresh_mask
    nodes = cvt.node_objects
    if nodes is not None:
        for node, value in zip(nodes, values.tolist()):
            getattr(node, plane)[index] = value
    tree._columnar = cvt.with_planes(cell_order=order, node_objects=nodes,
                                     **planes)


def tag_counts(cvt: ColumnarViewTree) -> Dict[str, int]:
    """Rows per differential tag, keyed in the order the facade walk
    (``ViewTree.nodes()``) first meets each tag."""
    codes = cvt.tag_codes
    if codes is None:
        return {}
    counts = np.bincount(codes, minlength=len(_TAGS)).tolist()
    tagged = np.flatnonzero(codes)
    first = np.full(len(_TAGS), cvt.n_rows, dtype=np.int64)
    np.minimum.at(first, codes[tagged].astype(np.int64),
                  cvt.creation_visit_positions()[tagged])
    first = first.tolist()
    present = [code for code in range(1, len(_TAGS)) if counts[code]]
    present.sort(key=lambda code: first[code])
    return {_TAGS[code]: counts[code] for code in present}


# ---------------------------------------------------------------------------
# row selection (the hygiene kernels of ``prune`` and ``query``)
# ---------------------------------------------------------------------------

#: The planes indexed by row on their first axis (absent ones are None).
_ROW_PLANES = ("depth", "token", "frame_id", "inclusive", "incl_present",
               "exclusive", "excl_present", "baseline", "base_present",
               "tag_codes", "hist", "hist_present", "hist_first")


def take_rows(cvt: ColumnarViewTree, rows, extra: int = 0
              ) -> ColumnarViewTree:
    """The tree of ``rows`` (ascending and closed under ancestors, so the
    root comes first): every plane of each row, parents renumbered, and
    each row's sources read through its input row.

    ``extra`` empty rows follow — no values, no tag, no sources, parent
    and frame left for the caller to fill in, like their values.  Any
    topological numbering that keeps siblings in order builds the same
    facade, so appended rows become their parents' last children.
    """
    kept = rows.shape[0]
    n_rows = kept + extra

    def cut(plane):
        if plane is None:
            return None
        out = np.zeros((n_rows,) + plane.shape[1:], dtype=plane.dtype)
        out[:kept] = plane[rows]
        return out

    new_id = np.zeros(cvt.n_rows, dtype=np.int64)
    new_id[rows] = np.arange(kept, dtype=np.int64)
    parent = np.full(n_rows, -1, dtype=np.int64)
    parent[1:kept] = new_id[cvt.parent[rows[1:]]]
    start = np.full(n_rows + 1, kept, dtype=np.int64)
    start[:kept + 1] = np.arange(kept + 1, dtype=np.int64)
    return ColumnarViewTree(
        parent=parent, frames=cvt.frames, merge_keys=cvt.merge_keys,
        shape=cvt.shape, n_series=cvt.n_series,
        row_sources=_UnionSources([cvt], np.zeros(kept, dtype=np.int64),
                                  rows, start),
        cell_order={plane: cut(rank)
                    for plane, rank in cvt.cell_order.items()},
        **{name: cut(getattr(cvt, name)) for name in _ROW_PLANES})


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def _cct_creation_positions(col):
    """Visit positions of the object top-down DFS over a columnar CCT."""
    n = col.n_nodes
    ids = np.arange(n, dtype=np.int64)
    return _visit_positions(col.parent, col._by_depth(),
                            col.subtree_sizes(), (-ids,))


def _customized(profile, col, custom):
    """A customization's node-visit hooks over a columnar CCT (§V-B).

    Returns the frame table with every entry but the root's remapped
    (one ``remap`` call per entry; rows index it like ``col.frames``)
    and the CCT to build the view from.  With elide callbacks that is
    ``col``'s kept rows (``filter_mask`` of a mask closed under subtree:
    an elided context drops its whole subtree, and the callbacks never
    see a context below an elided one), carrying their full inclusive
    values and the profile's own ``CCTNode`` objects as sources.  The
    callbacks take those objects, with their inclusive caches filled, so
    only they build the CCT facade.
    """
    if custom.is_passthrough():
        return col.frames, col
    root = int(col.frame_id[0])
    frames = [frame if index == root else custom.remap(frame)
              for index, frame in enumerate(col.frames)]
    if not custom.has_elide_hooks():
        return frames, col
    nodes = _cct_nodes(profile, col)
    compute_inclusive(profile)  # a callback may read a node's cost
    keep = np.ones(col.n_nodes, dtype=bool)
    ids, start = col._by_depth()
    for level in range(1, len(start) - 1):
        rows = ids[start[level]:start[level + 1]]
        under_kept = keep[col.parent[rows]]
        keep[rows[~under_kept]] = False
        keep[[row for row in rows[under_kept].tolist()
              if custom.elides(nodes[row])]] = False
    kept = col.filter_mask(keep)
    rows = np.flatnonzero(keep)
    kept._inclusive = col.inclusive()[rows]
    kept.node_objects = [nodes[row] for row in rows.tolist()]
    return frames, kept


def build_top_down(profile, col, custom) -> ViewTree:
    """Vectorized top-down view build from a columnar CCT.

    Shape discovery is one ``np.unique`` over (parent-view-row,
    merge-token) int pairs per depth level; a creation-order replay then
    renumbers rows to the object loop's allocation order, and all value
    planes land with one ``np.add.at`` scatter each.  ``custom``'s
    node-visit hooks apply first (:func:`_customized`).
    """
    frames, col = _customized(profile, col, custom)
    n = col.n_nodes
    n_metrics = col.n_metrics
    frame_token, merge_keys = _merge_tokens(frames)
    n_tokens = max(len(merge_keys), 1)
    node_token = frame_token[col.frame_id]
    parent = col.parent
    ids, lstart = col._by_depth()

    view_of = np.zeros(n, dtype=np.int64)
    chunk_parent = [np.full(1, -1, dtype=np.int64)]
    chunk_token = [node_token[:1].copy()]
    chunk_depth = [np.zeros(1, dtype=np.int64)]
    n_rows = 1
    for level in range(1, len(lstart) - 1):
        rows = ids[lstart[level]:lstart[level + 1]]
        keys = view_of[parent[rows]] * n_tokens + node_token[rows]
        uniq, inverse = np.unique(keys, return_inverse=True)
        view_of[rows] = n_rows + inverse
        chunk_parent.append(uniq // n_tokens)
        chunk_token.append(uniq % n_tokens)
        chunk_depth.append(np.full(uniq.shape[0], level, dtype=np.int64))
        n_rows += uniq.shape[0]

    row_parent = np.concatenate(chunk_parent)
    row_token = np.concatenate(chunk_token)
    row_depth = np.concatenate(chunk_depth)
    row_frame = np.empty(n_rows, dtype=np.int64)
    row_frame[0] = col.frame_id[0]
    creation = np.zeros(n_rows, dtype=np.int64)
    if n > 1:
        # Creation replay: the object DFS creates a view row the first
        # time any contributor is scanned from its (visited) parent, so
        # the rank is (parent's visit position, contributor id).
        visit = _cct_creation_positions(col)
        body = np.arange(1, n, dtype=np.int64)
        rank = visit[parent[1:]] * n + body
        by_rank = np.argsort(rank, kind="stable")
        rows_by_rank = view_of[1:][by_rank]
        uniq_rows, first = np.unique(rows_by_rank, return_index=True)
        creators = body[by_rank[first]]
        row_frame[uniq_rows] = col.frame_id[creators]
        creation[uniq_rows] = rank[by_rank[first]]

    remap, row_parent, row_depth, row_token, row_frame = _renumber(
        row_parent, row_depth, row_token, row_frame, creation)
    view_of = remap[view_of]

    exclusive = np.zeros((n_rows, n_metrics), dtype=np.float64)
    np.add.at(exclusive, view_of, col.values)
    inclusive = np.zeros((n_rows, n_metrics), dtype=np.float64)
    np.add.at(inclusive, view_of, col.inclusive())
    written = np.zeros((n_rows, n_metrics), dtype=np.int64)
    np.add.at(written, view_of, col.present.astype(np.int64))

    source_ids, source_start = _grouped_csr(view_of, n_rows)
    cvt = ColumnarViewTree(
        parent=row_parent, depth=row_depth, token=row_token,
        frame_id=row_frame, frames=frames, merge_keys=merge_keys,
        shape="top_down",
        inclusive=inclusive,
        incl_present=np.ones((n_rows, n_metrics), dtype=bool),
        exclusive=exclusive, excl_present=written > 0,
        row_sources=_CCTSources(profile, col, source_ids, source_start))
    return ViewTree(profile.schema.copy(), "top_down", cvt)


def build_bottom_up(profile, col, custom) -> ViewTree:
    """Vectorized bottom-up view build: array gather along parent chains.

    Every CCT context with metrics becomes a *lane*; each iteration all
    lanes take one step up their parent chain at once, and ``np.unique``
    over (previous-view-row, merge-token) pairs merges the reversed
    paths level by level.  ``custom``'s node-visit hooks apply first
    (:func:`_customized`).
    """
    frames, col = _customized(profile, col, custom)
    n_metrics = col.n_metrics
    frame_token, merge_keys = _merge_tokens(frames)
    n_tokens = max(len(merge_keys), 1)
    node_token = frame_token[col.frame_id]
    pre = col.preorder_positions()
    depth = col.depth
    parent = col.parent

    contributors = np.flatnonzero(col.present.any(axis=1))
    contributors = contributors[np.argsort(pre[contributors], kind="stable")]
    max_level = int(depth[contributors].max()) + 2 if contributors.size else 2

    chunk_parent = [np.full(1, -1, dtype=np.int64)]
    chunk_token = [node_token[:1].copy()]
    chunk_depth = [np.zeros(1, dtype=np.int64)]
    chunk_frame = [col.frame_id[:1].copy()]
    chunk_creation = [np.zeros(1, dtype=np.int64)]
    incl_targets = []          # (view rows, contributing cct ids) per level
    excl_targets = None
    src_rows = []
    src_ids = []
    n_rows = 1

    deep = depth[contributors] >= 1
    cursor = contributors[deep]          # the caller named at this level
    lane_contrib = cursor.copy()         # the contributing hot context
    lane_prev = np.zeros(cursor.shape[0], dtype=np.int64)
    level = 0
    while cursor.size:
        level += 1
        keys = lane_prev * n_tokens + node_token[cursor]
        uniq, first, inverse = np.unique(keys, return_index=True,
                                         return_inverse=True)
        rows = n_rows + inverse
        chunk_parent.append(uniq // n_tokens)
        chunk_token.append(uniq % n_tokens)
        chunk_depth.append(np.full(uniq.shape[0], level, dtype=np.int64))
        chunk_frame.append(col.frame_id[cursor[first]])
        # Lanes stay sorted by contributor pre-order, so the first lane
        # holding a key is the row's creator; its rank interleaves whole
        # reversed paths per contributor, like the object loop.
        chunk_creation.append(pre[lane_contrib[first]] * max_level + level)
        incl_targets.append((rows, lane_contrib))
        if level == 1:
            excl_targets = (rows, lane_contrib)
        src_rows.append(rows)
        src_ids.append(cursor)
        n_rows += uniq.shape[0]
        step = parent[cursor]
        keep = depth[step] >= 1
        cursor = step[keep]
        lane_contrib = lane_contrib[keep]
        lane_prev = rows[keep]

    remap, row_parent, row_depth, row_token, row_frame = _renumber(
        np.concatenate(chunk_parent), np.concatenate(chunk_depth),
        np.concatenate(chunk_token), np.concatenate(chunk_frame),
        np.concatenate(chunk_creation))

    inclusive = np.zeros((n_rows, n_metrics), dtype=np.float64)
    written = np.zeros((n_rows, n_metrics), dtype=np.int64)
    exclusive = np.zeros((n_rows, n_metrics), dtype=np.float64)
    excl_written = np.zeros((n_rows, n_metrics), dtype=np.int64)
    present_int = col.present.astype(np.int64)
    if contributors.size:
        root_rows = np.zeros(contributors.shape[0], dtype=np.int64)
        np.add.at(inclusive, root_rows, col.values[contributors])
        np.add.at(written, root_rows, present_int[contributors])
    for rows, contribs in incl_targets:
        target = remap[rows]
        np.add.at(inclusive, target, col.values[contribs])
        np.add.at(written, target, present_int[contribs])
    if excl_targets is not None:
        rows, contribs = excl_targets
        target = remap[rows]
        np.add.at(exclusive, target, col.values[contribs])
        np.add.at(excl_written, target, present_int[contribs])

    if src_rows:
        all_rows = remap[np.concatenate(src_rows)]
        all_ids = np.concatenate(src_ids)
        order, start = _grouped_csr(all_rows, n_rows)
        provider = _CCTSources(profile, col, all_ids[order], start)
    else:
        provider = None
    cvt = ColumnarViewTree(
        parent=row_parent, depth=row_depth, token=row_token,
        frame_id=row_frame, frames=frames, merge_keys=merge_keys,
        shape="bottom_up",
        inclusive=inclusive, incl_present=written > 0,
        exclusive=exclusive, excl_present=excl_written > 0,
        row_sources=provider)
    return ViewTree(profile.schema.copy(), "bottom_up", cvt)


def build_flat(profile, col, custom) -> ViewTree:
    """Vectorized flat view build: one grouped scatter-add per level.

    The three grouping levels (module / file / function) are token maps
    over the frame table; rows fall out of ``np.unique`` over tokens, and
    the recursion-aware "outermost occurrence" test is a segmented
    running-max of subtree reach over pre-order, per function group.
    ``custom``'s node-visit hooks apply first (:func:`_customized`).
    """
    frames, col = _customized(profile, col, custom)
    frames = list(frames)
    n = col.n_nodes
    n_metrics = col.n_metrics
    merge_keys: List[MergeKey] = []
    token_of: Dict[Tuple[int, MergeKey], int] = {}
    token_frame: List[int] = []   # representative frame; -1 = first node

    def token_for(level_tag: int, key: MergeKey, frame_index: int) -> int:
        token = token_of.get((level_tag, key))
        if token is None:
            token = len(merge_keys)
            token_of[(level_tag, key)] = token
            merge_keys.append(key)
            token_frame.append(frame_index)
        return token

    n_entries = len(frames)
    module_token = np.empty(n_entries, dtype=np.int64)
    file_token = np.empty(n_entries, dtype=np.int64)
    func_token = np.empty(n_entries, dtype=np.int64)
    for index in range(n_entries):
        frame = frames[index]
        module_frame = intern_frame(frame.module or "<unknown module>",
                                    module=frame.module,
                                    kind=FrameKind.BASIC_BLOCK)
        mkey = module_frame.merge_key()
        token = token_of.get((1, mkey))
        if token is None:
            frames.append(module_frame)
            token = token_for(1, mkey, len(frames) - 1)
        module_token[index] = token
        file_frame = intern_frame(frame.file or "<unknown file>",
                                  file=frame.file, module=frame.module,
                                  kind=FrameKind.BASIC_BLOCK)
        fkey = file_frame.merge_key()
        token = token_of.get((2, fkey))
        if token is None:
            frames.append(file_frame)
            token = token_for(2, fkey, len(frames) - 1)
        file_token[index] = token
        func_token[index] = token_for(3, frame.merge_key(), -1)

    # Root token: the object tree keys nothing off the root, but the
    # columnar facade still needs a slot for it.
    root_token = token_for(0, frames[col.frame_id[0]].merge_key()
                           if n else (), int(col.frame_id[0]) if n else -1)

    nodes_pre = col.preorder_ids()[1:] if n > 1 else \
        np.empty(0, dtype=np.int64)
    node_frames = col.frame_id[nodes_pre]
    node_module = module_token[node_frames]
    node_file = file_token[node_frames]
    node_func = func_token[node_frames]

    mod_uniq, mod_first, mod_inv = np.unique(node_module, return_index=True,
                                             return_inverse=True)
    file_uniq, file_first, file_inv = np.unique(node_file, return_index=True,
                                                return_inverse=True)
    func_uniq, func_first, func_inv = np.unique(node_func, return_index=True,
                                                return_inverse=True)
    n_mod = mod_uniq.shape[0]
    n_file = file_uniq.shape[0]
    n_func = func_uniq.shape[0]
    n_rows = 1 + n_mod + n_file + n_func
    mod_row = 1 + mod_inv
    file_row = 1 + n_mod + file_inv
    func_row = 1 + n_mod + n_file + func_inv

    row_parent = np.empty(n_rows, dtype=np.int64)
    row_token = np.empty(n_rows, dtype=np.int64)
    row_depth = np.empty(n_rows, dtype=np.int64)
    row_frame = np.empty(n_rows, dtype=np.int64)
    creation = np.zeros(n_rows, dtype=np.int64)
    row_parent[0] = -1
    row_token[0] = root_token
    row_depth[0] = 0
    row_frame[0] = col.frame_id[0] if n else 0
    token_frame_arr = np.asarray(token_frame, dtype=np.int64)
    mod_slice = slice(1, 1 + n_mod)
    row_parent[mod_slice] = 0
    row_token[mod_slice] = mod_uniq
    row_depth[mod_slice] = 1
    row_frame[mod_slice] = token_frame_arr[mod_uniq]
    creation[mod_slice] = mod_first * 3
    file_slice = slice(1 + n_mod, 1 + n_mod + n_file)
    row_parent[file_slice] = 1 + mod_inv[file_first]
    row_token[file_slice] = file_uniq
    row_depth[file_slice] = 2
    row_frame[file_slice] = token_frame_arr[file_uniq]
    creation[file_slice] = file_first * 3 + 1
    func_slice = slice(1 + n_mod + n_file, n_rows)
    row_parent[func_slice] = 1 + n_mod + file_inv[func_first]
    row_token[func_slice] = func_uniq
    row_depth[func_slice] = 3
    row_frame[func_slice] = node_frames[func_first]
    creation[func_slice] = func_first * 3 + 2

    remap, row_parent, row_depth, row_token, row_frame = _renumber(
        row_parent, row_depth, row_token, row_frame, creation)
    mod_row = remap[mod_row]
    file_row = remap[file_row]
    func_row = remap[func_row]

    values = col.values[nodes_pre]
    present_int = col.present[nodes_pre].astype(np.int64)
    exclusive = np.zeros((n_rows, n_metrics), dtype=np.float64)
    excl_written = np.zeros((n_rows, n_metrics), dtype=np.int64)
    inclusive = np.zeros((n_rows, n_metrics), dtype=np.float64)
    incl_written = np.zeros((n_rows, n_metrics), dtype=np.int64)
    incl_full = np.zeros(n_rows, dtype=bool)
    if nodes_pre.size:
        root_rows = np.zeros(nodes_pre.shape[0], dtype=np.int64)
        for target in (root_rows, mod_row, file_row, func_row):
            np.add.at(exclusive, target, values)
            np.add.at(excl_written, target, present_int)
        for target in (root_rows, mod_row, file_row):
            np.add.at(inclusive, target, values)
            np.add.at(incl_written, target, present_int)
        # Outermost test: within each function group (pre-order sorted),
        # a node is outermost iff no earlier group member's subtree
        # reaches it — a segmented exclusive running-max of (pre + size).
        pre_pos = np.arange(1, n, dtype=np.int64)
        reach = pre_pos + col.subtree_sizes()[nodes_pre] - 1
        grouped = np.lexsort((pre_pos, node_func))
        group = node_func[grouped]
        running = np.maximum.accumulate(reach[grouped]
                                        + group * np.int64(n + 1))
        shifted = np.empty_like(running)
        shifted[0] = -1
        shifted[1:] = running[:-1]
        starts = np.empty(group.shape[0], dtype=bool)
        starts[0] = True
        starts[1:] = group[1:] != group[:-1]
        shifted[starts] = -1
        outer_sorted = (shifted - group * np.int64(n + 1)) < pre_pos[grouped]
        outer = np.empty(group.shape[0], dtype=bool)
        outer[grouped] = outer_sorted
        np.add.at(inclusive, func_row[outer],
                  col.inclusive()[nodes_pre[outer]])
        incl_full[func_row[outer]] = True

    incl_present = incl_written > 0
    incl_present[incl_full] = True
    if nodes_pre.size:
        order, start = _grouped_csr(func_row, n_rows)
        provider = _CCTSources(profile, col, nodes_pre[order], start)
    else:
        provider = None
    cvt = ColumnarViewTree(
        parent=row_parent, depth=row_depth, token=row_token,
        frame_id=row_frame, frames=frames, merge_keys=merge_keys,
        shape="flat",
        inclusive=inclusive, incl_present=incl_present,
        exclusive=exclusive, excl_present=excl_written > 0,
        row_sources=provider)
    return ViewTree(profile.schema.copy(), "flat", cvt)


# ---------------------------------------------------------------------------
# merge / diff over aligned columnar view rows
# ---------------------------------------------------------------------------

class _UnionRows:
    """Aligned union of several columnar view trees' rows."""

    __slots__ = ("parent", "depth", "token", "frame_id", "frames",
                 "merge_keys", "row_of", "visit", "max_rank")

    def __init__(self, parent, depth, token, frame_id, frames, merge_keys,
                 row_of, visit, max_rank) -> None:
        self.parent = parent
        self.depth = depth
        self.token = token
        self.frame_id = frame_id
        self.frames = frames
        self.merge_keys = merge_keys
        #: Per input tree: result row per input row.
        self.row_of = row_of
        #: Per input tree: creation-DFS visit position per input row.
        self.visit = visit
        self.max_rank = max_rank

    @property
    def n_rows(self) -> int:
        return int(self.parent.shape[0])


def _union_rows(trees: Sequence[ColumnarViewTree]) -> _UnionRows:
    """Align rows of several view trees on merge-key paths.

    The result row set is the union of the input trees' merge-key paths,
    numbered in the order the object merge loop would create the nodes:
    all of tree 0's DFS first, then tree 1's unseen paths, and so on.
    """
    token_union: Dict[MergeKey, int] = {}
    merge_keys: List[MergeKey] = []
    union_tok = []
    for tree in trees:
        local = np.empty(len(tree.merge_keys), dtype=np.int64)
        for i, key in enumerate(tree.merge_keys):
            token = token_union.get(key)
            if token is None:
                token = len(merge_keys)
                token_union[key] = token
                merge_keys.append(key)
            local[i] = token
        union_tok.append(local)
    n_tokens = max(len(merge_keys), 1)

    frames: List[Frame] = []
    frame_off = []
    for tree in trees:
        frame_off.append(len(frames))
        frames.extend(tree.frames)

    visit = [tree.creation_visit_positions() for tree in trees]
    max_rank = max(tree.n_rows for tree in trees) + 1
    row_of = [np.zeros(tree.n_rows, dtype=np.int64) for tree in trees]
    levels = [tree.depth_groups() for tree in trees]
    max_depth = max(len(start) - 2 for _, start in levels)

    chunks = [_root_chunk(union_tok[0][trees[0].token[0]],
                          frame_off[0] + trees[0].frame_id[0])]
    n_rows = 1
    for level in range(1, max_depth + 1):
        parts = []
        slices = []
        for index, tree in enumerate(trees):
            ids, start = levels[index]
            if level >= len(start) - 1:
                continue
            rows = ids[start[level]:start[level + 1]]
            if not rows.shape[0]:
                continue
            parents = tree.parent[rows]
            parts.append((row_of[index][parents],
                          union_tok[index][tree.token[rows]],
                          (index * max_rank + visit[index][parents])
                          * max_rank + rows,
                          frame_off[index] + tree.frame_id[rows]))
            slices.append((index, rows))
        if not parts:
            continue
        result_rows, chunk = _regroup(
            *(np.concatenate(part) for part in zip(*parts)),
            n_tokens, level, n_rows)
        cursor = 0
        for index, rows in slices:
            row_of[index][rows] = result_rows[cursor:cursor + rows.shape[0]]
            cursor += rows.shape[0]
        chunks.append(chunk)
        n_rows += chunk[0].shape[0]

    remap, parent, depth, token, frame_id = _renumber(
        *(np.concatenate(part) for part in zip(*chunks)))
    row_of = [remap[mapping] for mapping in row_of]
    return _UnionRows(parent, depth, token, frame_id, frames, merge_keys,
                      row_of, visit, max_rank)


def _union_sources(trees, union: _UnionRows):
    """Per-result-row (input-tree, input-row) refs in contribution order."""
    parts_res = []
    parts_tree = []
    parts_row = []
    parts_rank = []
    for index, tree in enumerate(trees):
        count = tree.n_rows
        parts_res.append(union.row_of[index])
        parts_tree.append(np.full(count, index, dtype=np.int64))
        parts_row.append(np.arange(count, dtype=np.int64))
        parts_rank.append(index * union.max_rank + union.visit[index])
    res = np.concatenate(parts_res)
    rank = np.concatenate(parts_rank)
    order = np.lexsort((rank, res))
    start = np.zeros(union.n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(res, minlength=union.n_rows), out=start[1:])
    return _UnionSources(list(trees),
                         np.concatenate(parts_tree)[order],
                         np.concatenate(parts_row)[order], start)


def _combine(op: Aggregation, series):
    """``op.combine`` along the last axis of ``series`` (``[..., T]``).

    MIN/MAX select like Python's ``min``/``max`` — a NaN in front stays,
    a later one is skipped, ties keep the earlier value — and SUM/MEAN
    add in list order from 0.0 like ``sum`` (numpy's ``min`` propagates
    NaN, and its ``sum`` adds pairwise).
    """
    if op is Aggregation.LAST:
        return series[..., -1]
    if op in (Aggregation.MIN, Aggregation.MAX):
        result = series[..., 0]
        for t in range(1, series.shape[-1]):
            value = series[..., t]
            better = value < result if op is Aggregation.MIN \
                else value > result
            result = np.where(better, value, result)
        return result
    result = np.zeros(series.shape[:-1], dtype=np.float64)
    with np.errstate(all="ignore"):
        for t in range(series.shape[-1]):
            result = result + series[..., t]
        return result / series.shape[-1] if op is Aggregation.MEAN \
            else result


def merge_columnar(trees: Sequence[ColumnarViewTree],
                   remaps: Sequence[Sequence[int]],
                   operators: Sequence[Aggregation],
                   schema, shape: str,
                   base_metrics: int) -> ViewTree:
    """Vectorized ``aggregate.merge_trees`` over aligned columnar rows.

    One histogram tensor gather-scatter per input tree replaces the
    per-node dict merging; the statistic columns then fall out of folds
    along the series axis (:func:`_combine`).  Cell insertion
    ranks replay the object loop's dict orders: inclusive cells follow
    the histogram's encounter order, exclusive cells their own.
    """
    union = _union_rows(trees)
    n_rows = union.n_rows
    n_trees = len(trees)
    n_ops = len(operators)
    ops = list(operators)
    sum_position = ops.index(Aggregation.SUM) if Aggregation.SUM in ops else 0
    n_stats = base_metrics * n_ops

    hist = np.zeros((n_rows, base_metrics, n_trees), dtype=np.float64)
    hist_count = np.zeros((n_rows, base_metrics), dtype=np.int64)
    never = np.iinfo(np.int64).max
    hist_first = np.full((n_rows, base_metrics), never, dtype=np.int64)
    exclusive = np.zeros((n_rows, n_stats), dtype=np.float64)
    excl_count = np.zeros((n_rows, n_stats), dtype=np.int64)
    excl_first = np.full((n_rows, n_stats), never, dtype=np.int64)
    # Encounter rank of an input cell: (tree, creation-DFS visit of its
    # row, its rank within the row's dict), packed into one int64.
    bound = 1 + max(max(tree.inclusive.shape[1], tree.exclusive.shape[1],
                        *(int(rank.max()) + 1
                          for rank in tree.cell_order.values()))
                    for tree in trees)
    for index, tree in enumerate(trees):
        remap = np.asarray(remaps[index], dtype=np.int64)
        row_rank = (index * union.max_rank + union.visit[index]) * bound
        rows, cols = np.nonzero(tree.incl_present)
        res = union.row_of[index][rows]
        unified = remap[cols]
        # The object loop adds into a zero-filled series: 0.0 + value.
        hist[res, unified, index] = 0.0 + tree.inclusive[rows, cols]
        hist_count[res, unified] += 1
        np.minimum.at(hist_first, (res, unified),
                      row_rank[rows] + _cell_ranks(tree, "inclusive")[rows,
                                                                     cols])
        rows, cols = np.nonzero(tree.excl_present)
        res = union.row_of[index][rows]
        stat = remap[cols] * n_ops + sum_position
        exclusive[res, stat] += tree.exclusive[rows, cols]
        excl_count[res, stat] += 1
        np.minimum.at(excl_first, (res, stat),
                      row_rank[rows] + _cell_ranks(tree, "exclusive")[rows,
                                                                     cols])
    hist_present = hist_count > 0
    excl_present = excl_count > 0

    inclusive = np.zeros((n_rows, n_stats), dtype=np.float64)
    incl_present = np.zeros((n_rows, n_stats), dtype=bool)
    for position, op in enumerate(ops):
        inclusive[:, position::n_ops] = _combine(op, hist)
        incl_present[:, position::n_ops] = hist_present
    # A node's stat columns are set per histogram entry, operators inner.
    incl_rank = (np.repeat(np.where(hist_present, hist_first, 0), n_ops,
                           axis=1) * n_ops
                 + np.tile(np.arange(n_ops, dtype=np.int64), base_metrics))
    order = {"inclusive": _if_unordered(incl_rank, incl_present),
             "exclusive": _if_unordered(np.where(excl_present, excl_first, 0),
                                        excl_present)}

    cvt = ColumnarViewTree(
        parent=union.parent, depth=union.depth, token=union.token,
        frame_id=union.frame_id, frames=union.frames,
        merge_keys=union.merge_keys, shape=shape,
        inclusive=inclusive, incl_present=incl_present,
        exclusive=exclusive, excl_present=excl_present,
        hist=hist, hist_present=hist_present, hist_first=hist_first,
        n_series=n_trees, row_sources=_union_sources(trees, union),
        cell_order={plane: rank for plane, rank in order.items()
                    if rank is not None})
    return ViewTree(schema, shape, cvt)


def diff_columnar(base: ColumnarViewTree, treatment: ColumnarViewTree,
                  base_remap: Sequence[int], treat_remap: Sequence[int],
                  schema, shape: str, metric_index: int,
                  tolerance: float) -> ViewTree:
    """Vectorized ``diff.diff_trees`` over two aligned columnar trees."""
    union = _union_rows([base, treatment])
    n_rows = union.n_rows
    n_metrics = len(schema)

    order = {}

    def scatter(tree, mapping, remap_cols, attr, target):
        """One input plane into a fresh result plane (at most one input
        cell per result cell); returns (values, presence)."""
        rows, cols = np.nonzero(getattr(tree, _PRESENCE[attr]))
        res = mapping[rows]
        unified = remap_cols[cols]
        matrix = np.zeros((n_rows, n_metrics), dtype=np.float64)
        presence = np.zeros((n_rows, n_metrics), dtype=bool)
        matrix[res, unified] = 0.0 + getattr(tree, attr)[rows, cols]
        presence[res, unified] = True
        # The object loop copies the input dict's order through the remap.
        if attr in tree.cell_order or (np.diff(remap_cols) < 0).any():
            rank = np.zeros((n_rows, n_metrics), dtype=np.int64)
            rank[res, unified] = _cell_ranks(tree, attr)[rows, cols]
            rank = _if_unordered(rank, presence)
            if rank is not None:
                order[target] = rank
        return matrix, presence

    base_cols = np.asarray(base_remap, dtype=np.int64)
    treat_cols = np.asarray(treat_remap, dtype=np.int64)
    baseline, base_present = scatter(base, union.row_of[0], base_cols,
                                     "inclusive", "baseline")
    inclusive, incl_present = scatter(treatment, union.row_of[1], treat_cols,
                                      "inclusive", "inclusive")
    exclusive, excl_present = scatter(treatment, union.row_of[1], treat_cols,
                                      "exclusive", "exclusive")

    in_base = np.zeros(n_rows, dtype=bool)
    in_base[union.row_of[0]] = True
    in_treat = np.zeros(n_rows, dtype=bool)
    in_treat[union.row_of[1]] = True
    before = baseline[:, metric_index]
    after = inclusive[:, metric_index]
    codes = np.full(n_rows, _TAG_CODE["="], dtype=np.int8)
    codes[after > before + tolerance] = _TAG_CODE["+"]
    codes[after < before - tolerance] = _TAG_CODE["-"]
    codes[in_base & ~in_treat] = _TAG_CODE["D"]
    codes[in_treat & ~in_base] = _TAG_CODE["A"]
    codes[0] = 0

    cvt = ColumnarViewTree(
        parent=union.parent, depth=union.depth, token=union.token,
        frame_id=union.frame_id, frames=union.frames,
        merge_keys=union.merge_keys, shape=shape,
        inclusive=inclusive, incl_present=incl_present,
        exclusive=exclusive, excl_present=excl_present,
        baseline=baseline, base_present=base_present, tag_codes=codes,
        row_sources=_union_sources([base, treatment], union),
        cell_order=order)
    return ViewTree(schema, shape, cvt)
