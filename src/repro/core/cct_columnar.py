"""Columnar (struct-of-arrays) calling context tree core.

Opening a large profile used to mean materializing one Python
:class:`~repro.core.cct.CCTNode` per calling context — hundreds of
thousands of objects whose construction dominates the cold-open latency
the paper's §V-C optimizations target.  This module keeps the same tree in
five parallel numpy arrays instead:

``parent``
    int64[n]; ``parent[0] == -1`` for the root, and ``parent[i] < i`` for
    every other node (ids are assigned at creation, so the array is
    topologically ordered — parents always precede children).
``frame_id``
    int64[n] indices into ``frames``, the per-tree frame table (interned
    :class:`~repro.core.frame.Frame` objects; entry 0 is the root frame).
``depth``
    int64[n]; the root has depth 0.
``values``
    float64[n, m] exclusive metric matrix (m = schema columns).
``present``
    bool[n, m]; which (node, column) cells were explicitly written.  The
    object representation distinguishes "no value" from "explicit 0.0"
    (both occur in real pprof inputs), so the columnar form must too or
    digests and materialized trees would drift.

Everything else — child ranges in CSR form, per-node depth grouping,
inclusive values, traversal orders, subtree sizes — is derived lazily and
vectorized.  The arrays are a built profile's only state.
:meth:`ColumnarCCT.to_cct` materializes the read-only ``CCTNode`` facade
on demand (the facade consumers like lint rules and the viewer see
exactly what they always saw), and :func:`from_cct` folds an object tree
into arrays, for the object-path oracles and the tests.
:func:`replay` walks the arrays the way the analyses that copy a profile
walked object trees.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import SchemaError
from ..obs import get_registry
from .cct import CCT, CCTNode
from .frame import Frame, ROOT_FRAME

#: Object-tree builds: the IDE request path makes none.
_to_cct_count = get_registry().counter(
    "core.cct_materializations",
    "object CCTs built from columnar CCTs (ColumnarCCT.to_cct)")
#: Object-tree folds: opening a profile in any format makes none.
_from_cct_count = get_registry().counter(
    "core.cct_folds", "object CCTs folded into columnar CCTs (from_cct)")


class ColumnarCCT:
    """A calling context tree as parallel arrays (see module docstring)."""

    __slots__ = ("parent", "frame_id", "depth", "values", "present",
                 "frames", "node_objects",
                 "_inclusive", "_csr", "_csr_sorted", "_depth_groups",
                 "_pre", "_size")

    def __init__(self, parent, frame_id, depth, values, present,
                 frames: List[Frame]) -> None:
        self.parent = parent
        self.frame_id = frame_id
        self.depth = depth
        self.values = values
        self.present = present
        self.frames = frames
        #: The object node per columnar id, once :meth:`to_cct` built
        #: them (or :func:`from_cct` folded them).
        self.node_objects: Optional[List[CCTNode]] = None
        self._inclusive = None
        self._csr = None
        self._csr_sorted = None
        self._depth_groups = None
        self._pre = None
        self._size = None

    # -- basic shape -----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return int(self.parent.shape[0])

    @property
    def n_metrics(self) -> int:
        return int(self.values.shape[1])

    def node_count(self) -> int:
        """Total number of nodes including the root."""
        return self.n_nodes

    def max_depth(self) -> int:
        """Depth of the deepest context."""
        return int(self.depth.max()) if self.n_nodes else 0

    def total(self, metric_index: int) -> float:
        """Program-wide total of one metric (sum of exclusive values)."""
        return float(self.values[:, metric_index].sum())

    def totals(self):
        """Per-column program-wide totals as a float64 vector."""
        return self.values.sum(axis=0)

    # -- derived structure -----------------------------------------------

    def children_csr(self, sort_by_frame: bool = False):
        """Child ranges in CSR form: ``(order, start)``.

        ``order[start[p]:start[p + 1]]`` lists node ``p``'s children — in
        creation (insertion) order by default, or sorted by frame identity
        (the digest/walk order) with ``sort_by_frame``.
        """
        cached = self._csr_sorted if sort_by_frame else self._csr
        if cached is not None:
            return cached
        n = self.n_nodes
        if sort_by_frame:
            rank = self._frame_ranks()
            order = np.lexsort((rank[self.frame_id], self.parent))
        else:
            order = np.argsort(self.parent, kind="stable")
        # The root's parent is -1 and sorts first; drop it from the ranges.
        order = order[1:]
        counts = np.bincount(self.parent[1:] if n > 1
                             else np.empty(0, dtype=np.int64),
                             minlength=n)
        start = np.empty(n + 1, dtype=np.int64)
        start[0] = 0
        np.cumsum(counts, out=start[1:])
        result = (order, start)
        if sort_by_frame:
            self._csr_sorted = result
        else:
            self._csr = result
        return result

    def _frame_ranks(self):
        """Rank of each frame-table entry under ``Frame.key()`` ordering."""
        keys = [frame.key() for frame in self.frames]
        ranking = sorted(range(len(keys)), key=keys.__getitem__)
        ranks = np.empty(len(keys), dtype=np.int64)
        ranks[ranking] = np.arange(len(keys), dtype=np.int64)
        return ranks

    def _by_depth(self):
        """Node ids grouped by depth: ``(ids, level_start)`` with
        ``ids[level_start[d]:level_start[d + 1]]`` the nodes at depth d."""
        if self._depth_groups is None:
            ids = np.argsort(self.depth, kind="stable")
            levels = self.max_depth() + 1
            counts = np.bincount(self.depth, minlength=levels)
            start = np.empty(levels + 1, dtype=np.int64)
            start[0] = 0
            np.cumsum(counts, out=start[1:])
            self._depth_groups = (ids, start)
        return self._depth_groups

    # -- vectorized kernels ------------------------------------------------

    def inclusive(self):
        """The float64[n, m] inclusive matrix, computed lazily.

        One bottom-up pass per depth level: every level's rows are
        scatter-added into their parents' rows with ``np.add.at``, which
        handles sibling collisions.  O(n · m) work, no Python per node.
        """
        if self._inclusive is None:
            inc = self.values.copy()
            ids, start = self._by_depth()
            for level in range(len(start) - 2, 0, -1):
                rows = ids[start[level]:start[level + 1]]
                np.add.at(inc, self.parent[rows], inc[rows])
            self._inclusive = inc
        return self._inclusive

    def subtree_sizes(self):
        """int64[n] subtree node counts (every node counts itself)."""
        if self._size is None:
            sizes = np.ones(self.n_nodes, dtype=np.int64)
            ids, start = self._by_depth()
            for level in range(len(start) - 2, 0, -1):
                rows = ids[start[level]:start[level + 1]]
                np.add.at(sizes, self.parent[rows], sizes[rows])
            self._size = sizes
        return self._size

    def preorder_positions(self):
        """int64[n] pre-order position per node (frame-sorted siblings).

        Computed without visiting nodes one at a time: each child's offset
        among its siblings is a grouped exclusive cumulative sum of
        subtree sizes, and positions then propagate level by level
        (``pre[child] = pre[parent] + 1 + offset``).
        """
        if self._pre is not None:
            return self._pre
        n = self.n_nodes
        pre = np.zeros(n, dtype=np.int64)
        if n > 1:
            sizes = self.subtree_sizes()
            order, start = self.children_csr(sort_by_frame=True)
            # Exclusive cumsum of sibling subtree sizes within each parent
            # group: global cumsum minus each group's starting prefix.
            sized = sizes[order]
            cum = np.cumsum(sized)
            parents = self.parent[order]
            group_base = np.empty_like(cum)
            group_start = start[parents]
            nonzero = group_start > 0
            group_base[:] = 0
            group_base[nonzero] = cum[group_start[nonzero] - 1]
            offset = cum - sized - group_base
            ids, lstart = self._by_depth()
            child_offset = np.empty(n, dtype=np.int64)
            child_offset[order] = offset
            for level in range(1, len(lstart) - 1):
                rows = ids[lstart[level]:lstart[level + 1]]
                pre[rows] = pre[self.parent[rows]] + 1 + child_offset[rows]
        self._pre = pre
        return pre

    def preorder_ids(self):
        """Node ids in deterministic (frame-sorted) pre-order."""
        seq = np.empty(self.n_nodes, dtype=np.int64)
        seq[self.preorder_positions()] = np.arange(self.n_nodes,
                                                   dtype=np.int64)
        return seq

    def postorder_ids(self):
        """Node ids in deterministic post-order.

        A node's post-order position is ``pre + size - 1 - depth`` (its
        subtree's last pre-order slot minus the still-open ancestors), so
        the order falls out of the pre-order pass for free.
        """
        post = (self.preorder_positions() + self.subtree_sizes() - 1
                - self.depth)
        seq = np.empty(self.n_nodes, dtype=np.int64)
        seq[post] = np.arange(self.n_nodes, dtype=np.int64)
        return seq

    def subtree(self, row: int):
        """bool[n]: ``row`` and every row below it (a pre-order range)."""
        pre = self.preorder_positions()
        first = pre[row]
        return (pre >= first) & (pre < first + self.subtree_sizes()[row])

    def bfs_ids(self):
        """Node ids level by level, siblings in pre-order within a level."""
        return np.lexsort((self.preorder_positions(), self.depth))

    def walk_events(self):
        """The digest walk as arrays: ``(preorder_ids, exits_after)``.

        ``exits_after[k]`` is how many subtrees end right after the node
        at pre-order position ``k`` — i.e. how many EXIT markers the
        enter/exit digest stream emits there.  Total exits equal n.
        """
        pre = self.preorder_positions()
        last = pre + self.subtree_sizes() - 1
        exits = np.bincount(last, minlength=self.n_nodes)
        return self.preorder_ids(), exits

    def filter_mask(self, keep_mask):
        """Close a node mask under ancestry and return the new tree.

        The vectorized analogue of pruning: any kept node keeps its whole
        ancestor chain (propagated level by level, top down so chains
        resolve in one pass per level), ids are compacted preserving
        creation order, and metric rows are copied through.
        """
        keep = keep_mask.copy()
        keep[0] = True
        ids, start = self._by_depth()
        # Propagate upward: a parent survives if any child does.  Deepest
        # levels first so long chains resolve in one sweep.
        for level in range(len(start) - 2, 0, -1):
            rows = ids[start[level]:start[level + 1]]
            kept = rows[keep[rows]]
            keep[self.parent[kept]] = True
        new_ids = np.flatnonzero(keep)
        remap = np.empty(self.n_nodes, dtype=np.int64)
        remap[new_ids] = np.arange(new_ids.size, dtype=np.int64)
        parent = self.parent[new_ids].copy()
        parent[1:] = remap[parent[1:]]
        return ColumnarCCT(parent=parent,
                           frame_id=self.frame_id[new_ids].copy(),
                           depth=self.depth[new_ids].copy(),
                           values=self.values[new_ids].copy(),
                           present=self.present[new_ids].copy(),
                           frames=self.frames)

    # -- conversion ---------------------------------------------------------

    def widened(self, n_metrics: int) -> "ColumnarCCT":
        """The same tree with absent columns appended up to ``n_metrics``;
        its rows, and so the facade built for them, stay the same."""
        extra = n_metrics - self.n_metrics
        col = ColumnarCCT(
            self.parent, self.frame_id, self.depth,
            np.pad(self.values, ((0, 0), (0, extra))),
            np.pad(self.present, ((0, 0), (0, extra))), self.frames)
        col.node_objects = self.node_objects
        return col

    def to_cct(self) -> CCT:
        """Materialize the full object tree (the lazy facade).

        Children are inserted in creation order, so the materialized tree
        is indistinguishable — dict orders included — from one built by
        replaying the original samples through the object mutators of
        :mod:`repro.bench.profile_oracle`.
        """
        _to_cct_count.inc()
        cct = CCT()
        n = self.n_nodes
        nodes: List[Optional[CCTNode]] = [None] * n
        nodes[0] = root = cct.root
        root.frame = self.frames[int(self.frame_id[0])]
        parent_l = self.parent.tolist()
        frame_l = self.frame_id.tolist()
        frames = self.frames
        new = CCTNode.__new__
        for i in range(1, n):
            node = new(CCTNode)
            frame = frames[frame_l[i]]
            parent = nodes[parent_l[i]]
            node.frame = frame
            node.parent = parent
            node.children = {}
            node.metrics = {}
            node.inclusive = {}
            parent.children[frame] = node
            nodes[i] = node
        rows, cols = np.nonzero(self.present)
        vals = self.values[rows, cols]
        for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            nodes[r].metrics[c] = v
        self.node_objects = nodes
        return cct


def from_cct(cct: CCT, n_metrics: int) -> ColumnarCCT:
    """Fold an object CCT into columnar arrays.

    Ids are assigned in insertion-order pre-order (the object walk a
    sample replay would produce), so ``to_cct`` of the result rebuilds an
    identical tree.  The snapshot's ``node_objects`` are the folded
    tree's own nodes, so columnar ids resolve to them without a rebuild.
    """
    _from_cct_count.inc()
    parents: List[int] = []
    frame_ids: List[int] = []
    depths: List[int] = []
    frame_table: List[Frame] = [ROOT_FRAME]
    frame_index: Dict[Frame, int] = {ROOT_FRAME: 0}
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    records: List[CCTNode] = []
    # (node, columnar parent id, depth); reversed children keep insertion
    # order under stack popping.
    stack: List[Tuple[CCTNode, int, int]] = [(cct.root, -1, 0)]
    while stack:
        node, parent_id, depth = stack.pop()
        node_id = len(parents)
        frame = node.frame
        fid = frame_index.get(frame)
        if fid is None:
            fid = len(frame_table)
            frame_index[frame] = fid
            frame_table.append(frame)
        parents.append(parent_id)
        frame_ids.append(fid)
        depths.append(depth)
        records.append(node)
        for column, value in node.metrics.items():
            rows.append(node_id)
            cols.append(column)
            vals.append(value)
        children = list(node.children.values())
        for child in reversed(children):
            stack.append((child, node_id, depth + 1))
    n = len(parents)
    values = np.zeros((n, n_metrics), dtype=np.float64)
    present = np.zeros((n, n_metrics), dtype=bool)
    if rows:
        row_a = np.asarray(rows, dtype=np.int64)
        col_a = np.asarray(cols, dtype=np.int64)
        if col_a.min() < 0 or col_a.max() >= n_metrics:
            raise SchemaError("metric column %d outside the schema (%d "
                              "columns)" % (col_a.max(), n_metrics))
        values[row_a, col_a] = np.asarray(vals, dtype=np.float64)
        present[row_a, col_a] = True
    col = ColumnarCCT(parent=np.asarray(parents, dtype=np.int64),
                      frame_id=np.asarray(frame_ids, dtype=np.int64),
                      depth=np.asarray(depths, dtype=np.int64),
                      values=values, present=present, frames=frame_table)
    col.node_objects = records
    return col


def replay(col: ColumnarCCT, descend: Callable[[int, int], int]):
    """Walk ``col`` the way the analyses that copied a profile walked its
    object tree, giving every row an output row.

    A popped row's children get, in creation order, the output row
    ``descend(output row of the parent, child row)`` and are pushed, so
    they pop last-first.  Returns ``(out_of, cells)``: each row's output
    row (the root's is 0), and the ``(output row, column, value)``
    records of the written cells in pop order, columns ascending within
    a row — the order in which the copies summed the values of contexts
    that merged.
    """
    order, start = col.children_csr()
    order, start = order.tolist(), start.tolist()
    popped: List[int] = []
    out_of = [0] * col.n_nodes
    stack = [(0, 0)]
    while stack:
        row, target = stack.pop()
        popped.append(row)
        out_of[row] = target
        for child in order[start[row]:start[row + 1]]:
            stack.append((child, descend(target, child)))
    rows = np.asarray(popped, dtype=np.int64)
    cell_rows, cols = np.nonzero(col.present[rows])
    rows = rows[cell_rows]
    out_of = np.asarray(out_of, dtype=np.int64)
    return out_of, (out_of[rows], cols, col.values[rows, cols])


class ColumnarBuilder:
    """Incremental trie builder for columnar CCTs.

    The prefix merge of every profile producer (two paths that share a
    prefix share its chain of nodes), on integer ids: the child map is
    one flat dict keyed
    ``(parent_id << shift) | frame_table_id``, so descending a path costs
    an int shift and a dict probe instead of a dataclass hash.  Values are
    accumulated separately (vectorized by the callers), keeping this class
    pure tree construction.
    """

    __slots__ = ("parents", "frame_ids", "depths", "frames", "_frame_index",
                 "_trie", "_shift")

    def __init__(self) -> None:
        self.parents: List[int] = [-1]
        self.frame_ids: List[int] = [0]
        self.depths: List[int] = [0]
        self.frames: List[Frame] = [ROOT_FRAME]
        self._frame_index: Dict[Frame, int] = {ROOT_FRAME: 0}
        self._trie: Dict[int, int] = {}
        # 2**21 distinct frames is far beyond any observed profile; the
        # shift grows on demand if an input proves otherwise.
        self._shift = 21

    def frame_token(self, frame: Frame) -> int:
        """Intern a frame into the table; returns its id."""
        fid = self._frame_index.get(frame)
        if fid is None:
            fid = len(self.frames)
            self._frame_index[frame] = fid
            self.frames.append(frame)
            if fid >> self._shift:
                self._rekey(self._shift + 8)
        return fid

    def _rekey(self, shift: int) -> None:
        mask = (1 << self._shift) - 1
        self._trie = {((key >> self._shift) << shift) | (key & mask): node
                      for key, node in self._trie.items()}
        self._shift = shift

    def descend(self, node_id: int, fid: int) -> int:
        """One prefix-merge step: the child of ``node_id`` for frame id
        ``fid``, created if absent."""
        key = (node_id << self._shift) | fid
        child = self._trie.get(key)
        if child is None:
            child = len(self.parents)
            self._trie[key] = child
            self.parents.append(node_id)
            self.frame_ids.append(fid)
            self.depths.append(self.depths[node_id] + 1)
        return child

    @property
    def n_nodes(self) -> int:
        return len(self.parents)

    def finish(self, values, present) -> ColumnarCCT:
        """Freeze the trie into a :class:`ColumnarCCT`."""
        return ColumnarCCT(
            parent=np.asarray(self.parents, dtype=np.int64),
            frame_id=np.asarray(self.frame_ids, dtype=np.int64),
            depth=np.asarray(self.depths, dtype=np.int64),
            values=values, present=present, frames=self.frames)


def value_cells(n: int, n_metrics: int, rows, cols, vals):
    """``(values, present)`` for ``n`` nodes from (row, column, value)
    records: each written cell is ``0.0 + v1 + v2 ...`` in record order
    (``np.add.at`` is unbuffered and runs in index order)."""
    values = np.zeros((n, n_metrics), dtype=np.float64)
    present = np.zeros((n, n_metrics), dtype=bool)
    if len(rows):
        index = (np.asarray(rows, dtype=np.int64),
                 np.asarray(cols, dtype=np.int64))
        np.add.at(values, index, np.asarray(vals, dtype=np.float64))
        present[index] = True
    return values, present
