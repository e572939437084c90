"""View-row kernels: the IDE's requests answered on columnar view rows.

A hover, code lens, search, summary, zoom, click or tree-table request,
like a regression watch's ranking of a diff tree, reads a handful of
values per row; it never needs the whole ``ViewNode``
facade, nor the object CCT behind the rows' sources.  The kernels here
read a :class:`~repro.analysis.viewtree_columnar.ColumnarViewTree`
directly:

* rows are visited in the facade walk's order (``ViewTree.nodes()``:
  pre-order, last-created sibling first), so every order-dependent
  result — match lists, top-k ties, floating-point sums — equals the
  object path's bit for bit;
* a row's source contexts are (columnar CCT, node id) pairs reached
  through its ``row_sources`` provider, and through the input trees for
  merge and diff results, so attribution is a group-by over CCT rows.

The public functions (``query.search``, ``annotations.line_attribution``,
``ViewTree.top``, ...) are these kernels: every view tree carries
arrays.  Their object walks are the oracle the tests compare them with
(:mod:`repro.bench.view_oracle`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.frame import Frame, FrameKind
from .viewtree_columnar import (_TAG_CODE, _TAGS, ColumnarViewTree,
                                _CCTSources, value_column)

LineKey = Tuple[str, int]

_EMPTY = np.zeros(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# rows standing in for nodes
# ---------------------------------------------------------------------------

class NodeRows:
    """View rows standing in for a list of ``ViewNode`` objects.

    Request handlers read :attr:`rows`; a caller that iterates, indexes
    or compares gets the facade nodes, built on first use.
    """

    __slots__ = ("cvt", "rows", "_items")

    def __init__(self, cvt: ColumnarViewTree, rows) -> None:
        self.cvt = cvt
        self.rows = rows
        self._items: Optional[List] = None

    def _force(self) -> List:
        if self._items is None:
            nodes = self.cvt.facade()
            self._items = [nodes[row] for row in self.rows.tolist()]
        return self._items

    def __iter__(self):
        return iter(self._force())

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def __bool__(self) -> bool:
        return bool(self.rows.shape[0])

    def __getitem__(self, index):
        return self._force()[index]

    def __add__(self, other):
        if isinstance(other, NodeRows) and other.cvt is self.cvt:
            return NodeRows(self.cvt, np.concatenate([self.rows, other.rows]))
        return self._force() + list(other)

    def __eq__(self, other):
        if isinstance(other, (NodeRows, list)):
            return self._force() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return "NodeRows(%d rows)" % len(self)


def row_frame(cvt: ColumnarViewTree, row: int) -> Frame:
    return cvt.frames[int(cvt.frame_id[row])]


def row_tag(cvt: ColumnarViewTree, row: int) -> Optional[str]:
    """``ViewNode.tag`` of one row: its differential tag, or None."""
    return _TAGS[int(cvt.tag_codes[row])] if cvt.tag_codes is not None \
        else None


def row_label(cvt: ColumnarViewTree, row: int) -> str:
    """``ViewNode.label()`` of one row: the frame label plus its diff tag."""
    label = row_frame(cvt, row).label()
    tag = row_tag(cvt, row)
    return "[%s] %s" % (tag, label) if tag else label


def _frame_mask(cvt: ColumnarViewTree,
                test: Callable[[Frame], bool]) -> np.ndarray:
    frames = cvt.frames
    return np.fromiter((test(frame) for frame in frames), dtype=bool,
                       count=len(frames))


def _walk_non_root(cvt: ColumnarViewTree) -> np.ndarray:
    """Walk-order rows whose frame is not a ROOT frame (what the object
    loops skip)."""
    walk = cvt.walk_order()
    root = _frame_mask(cvt, lambda frame: frame.kind is FrameKind.ROOT)
    return walk[~root[cvt.frame_id[walk]]]


# ---------------------------------------------------------------------------
# search, coverage, top-k, hot path
# ---------------------------------------------------------------------------

def match_rows(cvt: ColumnarViewTree,
               matches: Callable[[Frame], bool]) -> np.ndarray:
    """Non-root rows whose frame satisfies ``matches``, in walk order.

    The predicate runs once per frame-table entry, not once per row.
    """
    hit = _frame_mask(cvt, lambda frame: frame.kind is not FrameKind.ROOT
                      and matches(frame))
    walk = cvt.walk_order()
    return walk[hit[cvt.frame_id[walk]]]


def covered(cvt: ColumnarViewTree, rows, metric_index: int) -> float:
    """Inclusive value of ``rows`` that have no matched ancestor, summed
    in the order given (the flame-graph highlight convention)."""
    if not rows.shape[0]:
        return 0.0
    matched = np.zeros(cvt.n_rows, dtype=bool)
    matched[rows] = True
    shadowed = np.zeros(cvt.n_rows, dtype=bool)
    ids, start = cvt.depth_groups()
    parent = cvt.parent
    for level in range(1, len(start) - 1):
        level_rows = ids[start[level]:start[level + 1]]
        above = parent[level_rows]
        shadowed[level_rows] = matched[above] | shadowed[above]
    total = 0.0
    for value in value_column(cvt, metric_index)[
            rows[~shadowed[rows]]].tolist():
        total += value
    return total


def top_rows(cvt: ColumnarViewTree, metric_index: int, count: int,
             inclusive: bool) -> np.ndarray:
    """The ``count`` hottest non-root rows: a stable sort by descending
    value over rows in walk order."""
    rows = _walk_non_root(cvt)
    values = value_column(cvt, metric_index,
                          "inclusive" if inclusive else "exclusive")[rows]
    return rows[np.argsort(-values, kind="stable")][:count]


def diff_deltas(cvt: ColumnarViewTree, metric_index: int):
    """Per row of a diff tree: ``(before, after, delta, self_delta)`` as
    float64[R].  A row's self delta is its delta minus its children's,
    added left to right in insertion order from 0.0."""
    before = value_column(cvt, metric_index, "baseline")
    after = value_column(cvt, metric_index)
    delta = after - before
    # bincount adds each parent's weights in input order — ascending row
    # ids, the children's insertion order.
    below = np.bincount(cvt.parent[1:], weights=delta[1:],
                        minlength=cvt.n_rows)
    return before, after, delta, delta - below


def tag_rows(cvt: ColumnarViewTree, tag: str) -> np.ndarray:
    """Mask of the rows carrying the differential ``tag``."""
    if cvt.tag_codes is None:
        return np.zeros(cvt.n_rows, dtype=bool)
    return cvt.tag_codes == _TAG_CODE[tag]


def row_path(cvt: ColumnarViewTree, row: int) -> str:
    """``" > ".join(n.frame.name for n in node.path())`` of one row: frame
    names from below the nearest ROOT-kind ancestor down to the row."""
    names: List[str] = []
    while row >= 0:
        frame = row_frame(cvt, row)
        if frame.kind is FrameKind.ROOT:
            break
        names.append(frame.name)
        row = int(cvt.parent[row])
    names.reverse()
    return " > ".join(names)


def rank_rows(cvt: ColumnarViewTree, rows, key,
              count: int) -> List[Tuple[int, str]]:
    """The first ``count`` of ``rows`` with their paths, ordered by ``key``
    (float64[R], ascending), then by :func:`row_path`, then by walk
    position: a stable sort by (key, path) of the rows in walk order.

    Only the rows that can reach the cut get a path: every row keyed
    below the ``count``-th key, and every row tied with it.
    """
    if count <= 0 or not rows.shape[0]:
        return []
    keys = key[rows]
    order = np.lexsort((cvt.creation_visit_positions()[rows], keys))
    rows = rows[order]
    keys = keys[order]
    if count < rows.shape[0]:
        reach = int(np.searchsorted(keys, keys[count - 1], side="right"))
        rows = rows[:reach]
        keys = keys[:reach]
    ranked = [(value, row_path(cvt, row), row)
              for value, row in zip(keys.tolist(), rows.tolist())]
    ranked.sort(key=lambda entry: entry[:2])
    return [(row, path) for _, path, row in ranked[:count]]


def hot_path_rows(cvt: ColumnarViewTree, metric_index: int,
                  min_fraction: float) -> np.ndarray:
    """Follow the dominant child (first of the largest ``|value|``, in
    insertion order) while it keeps ``min_fraction`` of its parent."""
    order, start = cvt.children_csr()
    magnitude = np.abs(value_column(cvt, metric_index))
    candidate = np.where(np.isnan(magnitude), 0.0, magnitude)  # NaN never wins
    path: List[int] = []
    row = 0
    while start[row + 1] > start[row]:
        children = order[start[row]:start[row + 1]]
        best = int(np.argmax(candidate[children]))
        best_value = float(candidate[children[best]])
        parent_value = float(magnitude[row])
        if not best_value > 0 or parent_value <= 0:
            break
        if best_value < min_fraction * parent_value:
            break
        row = int(children[best])
        path.append(row)
    return np.asarray(path, dtype=np.int64)


def row_metrics(cvt: ColumnarViewTree, row: int) -> List[Tuple[int, float]]:
    """The row's present inclusive cells, ascending by column."""
    columns = np.flatnonzero(cvt.incl_present[row])
    return list(zip(columns.tolist(), cvt.inclusive[row, columns].tolist()))


def row_histogram(cvt: ColumnarViewTree, row: int) -> Optional[List[float]]:
    """The row's first-inserted histogram series (aggregate trees), or
    None when it has none."""
    if cvt.hist is None:
        return None
    columns = np.flatnonzero(cvt.hist_present[row])
    if not columns.shape[0]:
        return None
    first = columns[int(np.argmin(cvt.hist_first[row, columns]))]
    return cvt.hist[row, first].tolist()


# ---------------------------------------------------------------------------
# source contexts
# ---------------------------------------------------------------------------

def _ranges(start, rows) -> Tuple[np.ndarray, np.ndarray]:
    """The concatenated index ranges ``start[r]:start[r + 1]`` of
    ``rows``, plus each index's position in ``rows``."""
    low = start[rows]
    counts = start[rows + 1] - low
    owner = np.repeat(np.arange(rows.shape[0], dtype=np.int64), counts)
    first = np.cumsum(counts) - counts
    index = (low[owner] + np.arange(owner.shape[0], dtype=np.int64)
             - first[owner])
    return index, owner


def source_contexts(cvt: ColumnarViewTree, rows):
    """Every source context of ``rows``: ``(cols, which, ids, owner)``.

    Context ``k`` is node ``ids[k]`` of columnar CCT ``cols[which[k]]``
    and belongs to ``rows[owner[k]]``; contexts are grouped by row, in
    the order of ``rows``, and in source order within a row.
    """
    provider = cvt.row_sources
    if provider is None:
        return [], _EMPTY, _EMPTY, _EMPTY
    index, owner = _ranges(provider.start, rows)
    if isinstance(provider, _CCTSources):
        return ([provider.col], np.zeros(index.shape[0], dtype=np.int64),
                provider.ids[index], owner)
    # A merge or diff row: its sources are those of its input rows, in
    # contribution order.
    ref_tree = provider.tree_of[index]
    ref_row = provider.row_of[index]
    cols: List = []
    slot: Dict[int, int] = {}
    refs, which_parts, id_parts = [], [], []
    for tree_index in np.unique(ref_tree).tolist():
        picked = np.flatnonzero(ref_tree == tree_index)
        sub_cols, which, ids, sub_owner = source_contexts(
            provider.trees[tree_index], ref_row[picked])
        local = []
        for col in sub_cols:
            position = slot.get(id(col))
            if position is None:
                position = slot[id(col)] = len(cols)
                cols.append(col)
            local.append(position)
        which_parts.append(np.asarray(local, dtype=np.int64)[which]
                           if local else which)
        id_parts.append(ids)
        refs.append(picked[sub_owner])
    if not refs:
        return [], _EMPTY, _EMPTY, _EMPTY
    ref = np.concatenate(refs)
    order = np.argsort(ref, kind="stable")
    return (cols, np.concatenate(which_parts)[order],
            np.concatenate(id_parts)[order], owner[ref[order]])


def _weight(col, node_id: int):
    """``sum(node.metrics.values())`` of one CCT context, columns in
    ascending order."""
    return sum(col.values[node_id][col.present[node_id]].tolist())


def best_source_frame(cvt: ColumnarViewTree, row: int) -> Optional[Frame]:
    """The frame of the row's source context with the largest metric sum
    (the first one on ties), or None for a source-free row."""
    cols, which, ids, _ = source_contexts(
        cvt, np.asarray([row], dtype=np.int64))
    if not ids.shape[0]:
        return None
    weights = [_weight(cols[slot], node_id)
               for slot, node_id in zip(which.tolist(), ids.tolist())]
    best = max(range(len(weights)), key=weights.__getitem__)
    col = cols[int(which[best])]
    return col.frames[int(col.frame_id[ids[best]])]


# ---------------------------------------------------------------------------
# attribution
# ---------------------------------------------------------------------------

def line_attribution(cvt: ColumnarViewTree
                     ) -> Dict[LineKey, Dict[int, float]]:
    """Per (file, line): the summed present values of every source
    context of every non-root row, added in walk order (bit-identical to
    the facade walk); keys appear in first-encounter order."""
    cols, which, ids, _ = source_contexts(cvt, _walk_non_root(cvt))
    if not ids.shape[0]:
        return {}
    keys: List[LineKey] = []
    code_of: Dict[LineKey, int] = {}
    width = max(col.n_metrics for col in cols)
    codes = np.empty(ids.shape[0], dtype=np.int64)
    values = np.zeros((ids.shape[0], width), dtype=np.float64)
    present = np.zeros((ids.shape[0], width), dtype=bool)
    for slot, col in enumerate(cols):
        frame_code = np.empty(len(col.frames), dtype=np.int64)
        for index, frame in enumerate(col.frames):
            if not frame.file or frame.line <= 0:
                frame_code[index] = -1
                continue
            key = (frame.file, frame.line)
            code = code_of.setdefault(key, len(keys))
            if code == len(keys):
                keys.append(key)
            frame_code[index] = code
        picked = slice(None) if len(cols) == 1 else which == slot
        node_ids = ids[picked]
        codes[picked] = frame_code[col.frame_id[node_ids]]
        values[picked, :col.n_metrics] = col.values[node_ids]
        present[picked, :col.n_metrics] = col.present[node_ids]
    keep = codes >= 0
    codes = codes[keep]
    if not codes.shape[0]:
        return {}
    weights = np.where(present[keep], values[keep], 0.0)
    seen_cells = present[keep].astype(np.float64)
    n_codes = len(keys)
    # bincount adds each bucket's weights in input order, from 0.0.
    sums = np.stack([np.bincount(codes, weights=weights[:, column],
                                 minlength=n_codes)
                     for column in range(width)], axis=1).tolist()
    seen = np.stack([np.bincount(codes, weights=seen_cells[:, column],
                                 minlength=n_codes) > 0
                     for column in range(width)], axis=1).tolist()
    first = np.full(n_codes, codes.shape[0], dtype=np.int64)
    np.minimum.at(first, codes, np.arange(codes.shape[0], dtype=np.int64))
    reached = np.flatnonzero(first < codes.shape[0])
    table: Dict[LineKey, Dict[int, float]] = {}
    for code in reached[np.argsort(first[reached], kind="stable")].tolist():
        table[keys[code]] = {column: sums[code][column]
                             for column in range(width)
                             if seen[code][column]}
    return table


def assembly_attribution(cvt: ColumnarViewTree) -> Dict[LineKey, List[str]]:
    """Per (file, line): the INSTRUCTION-kind CCT children of every source
    context of every row, hottest first (ties in walk order)."""
    cols, which, ids, _ = source_contexts(cvt, cvt.walk_order())
    hits = []   # (context position, child position, col slot, child id)
    for slot, col in enumerate(cols):
        instruction = _frame_mask(
            col, lambda frame: frame.kind is FrameKind.INSTRUCTION
            and bool(frame.file) and frame.line > 0)
        if not instruction.any():
            continue
        mine = np.flatnonzero(which == slot)
        order, start = col.children_csr()
        index, owner = _ranges(start, ids[mine])
        children = order[index]
        keep = instruction[col.frame_id[children]]
        hits.extend(zip(mine[owner[keep]].tolist(), index[keep].tolist(),
                        [slot] * int(keep.sum()),
                        children[keep].tolist()))
    hits.sort()
    table: Dict[LineKey, List] = {}
    for _, _, slot, child in hits:
        col = cols[slot]
        frame = col.frames[int(col.frame_id[child])]
        text = ("0x%x  %s" % (frame.address, frame.name) if frame.address
                else frame.name)
        table.setdefault((frame.file, frame.line), []).append(
            (_weight(col, child), text))
    return {key: [text for _, text in sorted(entries, key=lambda e: -e[0])]
            for key, entries in table.items()}
