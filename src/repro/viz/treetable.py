"""The tree table view (§VI-A(c)): the fold/unfold table that VTune,
HPCToolkit, and TAU users know.

Less immediate than a flame graph — users must unfold paths manually, which
the user study quantifies (Fig. 8; Task II's GoLand penalty) — but the best
way to read a profile with *many metrics*, since every column is visible at
once.  The table supports all three shapes, per-row fold state, sorting by
any column, and text/TSV/HTML rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Union

import numpy as np

from ..analysis import viewrows
from ..analysis.viewtree import ViewNode, ViewTree
from ..analysis.viewtree_columnar import value_column


@dataclass
class TableRow:
    """One visible row of the rendered table."""

    row: int            # the view row it shows
    depth: int
    expanded: bool
    values: List[float]
    text: str           # the row's label
    has_children: bool

    def label(self) -> str:
        return self.text


class TreeTable:
    """An interactive (fold/unfold) table over a view tree.

    The table reads the tree's columnar rows: fold state is a set of
    rows.
    """

    def __init__(self, tree: ViewTree,
                 metrics: Optional[Sequence[str]] = None,
                 inclusive: bool = True) -> None:
        self.tree = tree
        #: Explicitly chosen columns; None follows the live schema, so
        #: metrics derived after the table was built show up.
        self._columns: Optional[List[int]] = (
            None if metrics is None
            else [tree.schema.index_of(name) for name in metrics])
        self.inclusive = inclusive
        self.sort_column = self.columns[0] if self.columns else 0
        self._expanded: Set[int] = {0}   # the root row

    @property
    def columns(self) -> List[int]:
        """Column indices shown, in display order."""
        if self._columns is None:
            return list(range(len(self.tree.schema)))
        return self._columns

    def _row_of(self, item: Union[ViewNode, int]) -> Optional[int]:
        if not isinstance(item, ViewNode):
            return int(item)
        for row, node in enumerate(self.tree.columnar().facade()):
            if node is item:
                return row
        return None

    # -- fold state ----------------------------------------------------------

    def expand(self, item: Union[ViewNode, int]) -> None:
        """Unfold one row (a click on the triangle); takes a row or its
        facade node."""
        self._expanded.add(self._row_of(item))

    def collapse(self, item: Union[ViewNode, int]) -> None:
        """Fold one row."""
        self._expanded.discard(self._row_of(item))

    def expand_all(self, max_depth: Optional[int] = None) -> int:
        """Unfold everything (optionally to a depth); returns rows exposed.

        This is the expensive operation eager baseline viewers perform up
        front and EasyView performs on demand.
        """
        cvt = self.tree.columnar()
        rows = (np.arange(cvt.n_rows) if max_depth is None
                else np.flatnonzero(cvt.depth < max_depth))
        self._expanded.update(rows.tolist())
        return int(rows.shape[0])

    def expand_hot_path(self, metric_index: Optional[int] = None,
                        min_fraction: float = 0.5) -> Sequence[ViewNode]:
        """Unfold along the dominant-child path (the drill-down shortcut)."""
        cvt = self.tree.columnar()
        path = viewrows.hot_path_rows(
            cvt, metric_index if metric_index is not None
            else self.sort_column, min_fraction)
        self._expanded.update(path.tolist())
        return viewrows.NodeRows(cvt, path)

    # -- rows ----------------------------------------------------------------

    def rows(self) -> List[TableRow]:
        """The currently visible rows, respecting fold state and sorting:
        siblings by descending sort-column value, insertion order on
        ties."""
        cvt = self.tree.columnar()
        order, start = cvt.children_csr()
        plane = "inclusive" if self.inclusive else "exclusive"
        key = -value_column(cvt, self.sort_column, plane)

        def children(row: int) -> List[int]:
            kids = order[start[row]:start[row + 1]]
            return kids[np.argsort(key[kids], kind="stable")].tolist()

        visible = []
        stack = [(child, 0) for child in reversed(children(0))]
        while stack:
            row, depth = stack.pop()
            visible.append((row, depth))
            if row in self._expanded:
                stack.extend((child, depth + 1)
                             for child in reversed(children(row)))
        picked = np.asarray([row for row, _ in visible], dtype=np.int64)
        columns = [value_column(cvt, column, plane)[picked].tolist()
                   for column in self.columns]
        return [TableRow(row=row, depth=depth,
                         expanded=row in self._expanded,
                         values=[column[i] for column in columns],
                         text=viewrows.row_label(cvt, row),
                         has_children=bool(start[row + 1] > start[row]))
                for i, (row, depth) in enumerate(visible)]

    def sort_by(self, metric: str) -> None:
        """Re-sort rows by a metric column."""
        self.sort_column = self.tree.schema.index_of(metric)

    # -- rendering ------------------------------------------------------------

    def render_text(self, max_rows: int = 200, indent: str = "  ") -> str:
        """Render the visible rows as aligned text."""
        names = [self.tree.schema[c].name for c in self.columns]
        header = "%-60s %s" % ("context",
                               " ".join("%14s" % n for n in names))
        lines = [header, "-" * len(header)]
        for row in self.rows()[:max_rows]:
            caret = "▾" if row.expanded else ("▸" if row.has_children
                                              else " ")
            label = "%s%s %s" % (indent * row.depth, caret, row.label())
            cells = " ".join("%14.6g" % v for v in row.values)
            lines.append("%-60s %s" % (label[:60], cells))
        return "\n".join(lines)

    def render_tsv(self) -> str:
        """Tab-separated dump of visible rows (for scripting)."""
        names = [self.tree.schema[c].name for c in self.columns]
        lines = ["\t".join(["depth", "context"] + names)]
        for row in self.rows():
            lines.append("\t".join(
                [str(row.depth), row.label()]
                + ["%g" % v for v in row.values]))
        return "\n".join(lines)
