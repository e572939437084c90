"""The tree table view (§VI-A(c)): the fold/unfold table that VTune,
HPCToolkit, and TAU users know.

Less immediate than a flame graph — users must unfold paths manually, which
the user study quantifies (Fig. 8; Task II's GoLand penalty) — but the best
way to read a profile with *many metrics*, since every column is visible at
once.  The table supports all three shapes, per-row fold state, sorting by
any column, and text/TSV/HTML rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..analysis.viewtree import ViewNode, ViewTree


@dataclass
class TableRow:
    """One visible row of the rendered table."""

    node: ViewNode
    depth: int
    expanded: bool
    values: List[float]

    def label(self) -> str:
        return self.node.label()


class TreeTable:
    """An interactive (fold/unfold) table over a view tree."""

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
        self._expanded: Set[int] = {id(tree.root)}

    @property
    def columns(self) -> List[int]:
        """Column indices shown, in display order."""
        if self._columns is None:
            return list(range(len(self.tree.schema)))
        return self._columns

    # -- fold state ----------------------------------------------------------

    def expand(self, node: ViewNode) -> None:
        """Unfold one node (a click on the triangle)."""
        self._expanded.add(id(node))

    def collapse(self, node: ViewNode) -> None:
        """Fold one node."""
        self._expanded.discard(id(node))

    def expand_all(self, max_depth: Optional[int] = None) -> int:
        """Unfold everything (optionally to a depth); returns rows exposed.

        This is the expensive operation eager baseline viewers perform up
        front and EasyView performs on demand.
        """
        count = 0
        for node in self.tree.nodes():
            if max_depth is None or node.depth() < max_depth:
                self._expanded.add(id(node))
                count += 1
        return count

    def expand_hot_path(self, metric_index: Optional[int] = None,
                        min_fraction: float = 0.5) -> List[ViewNode]:
        """Unfold along the dominant-child path (the drill-down shortcut)."""
        from ..analysis.prune import hot_path
        path = hot_path(self.tree,
                        metric_index=(metric_index if metric_index is not None
                                      else self.sort_column),
                        min_fraction=min_fraction)
        for node in path:
            self._expanded.add(id(node))
        return path

    # -- rows ----------------------------------------------------------------

    def rows(self) -> List[TableRow]:
        """The currently visible rows, respecting fold state and sorting."""
        result: List[TableRow] = []
        columns = self.columns

        def visible_children(node: ViewNode) -> List[ViewNode]:
            children = list(node.children.values())
            children.sort(key=lambda n: -self._value(n, self.sort_column))
            return children

        def emit(node: ViewNode, depth: int) -> None:
            result.append(TableRow(
                node=node, depth=depth,
                expanded=id(node) in self._expanded,
                values=[self._value(node, c) for c in columns]))
            if id(node) in self._expanded:
                for child in visible_children(node):
                    emit(child, depth + 1)

        for child in sorted(self.tree.root.children.values(),
                            key=lambda n: -self._value(n, self.sort_column)):
            emit(child, 0)
        return result

    def _value(self, node: ViewNode, column: int) -> float:
        table = node.inclusive if self.inclusive else node.exclusive
        return table.get(column, 0.0)

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
            caret = "▾" if row.expanded else ("▸" if row.node.children else " ")
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
