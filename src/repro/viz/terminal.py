"""ANSI terminal rendering: flame graphs as colored block rows and view
trees as indented outlines.

The terminal renderer is the zero-dependency fallback (and what the CLI
uses); every view the GUI offers has a textual twin here so tests can assert
on rendered output.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.viewtree import ViewNode, ViewTree
from ..analysis.viewtree_columnar import value_column
from ..core.metric import Metric
from .color import ansi_index, diff_color, frame_color
from .layout import FlameLayout


def render_flame_text(layout: FlameLayout, width: int = 100,
                      color: bool = False, inverted: bool = True,
                      metric: Optional[Metric] = None) -> str:
    """Render a layout as rows of labeled blocks.

    Each row is one depth level; each block occupies a share of ``width``
    columns proportional to its inclusive value.  With ``color`` the blocks
    get 256-color ANSI backgrounds (differential trees use red/blue).
    """
    if not layout.rects:
        return "(empty flame graph)"
    scale = width / layout.canvas_width
    rows = layout.rows()
    if not inverted:
        rows = list(reversed(rows))
    lines: List[str] = []
    for row in rows:
        cells = [" "] * width
        owners: List[Optional[object]] = [None] * width
        for rect in row:
            start = int(rect.x * scale)
            span = max(int(rect.width * scale), 1)
            end = min(start + span, width)
            if start >= width:
                continue
            label = rect.label
            for i in range(start, end):
                offset = i - start
                cells[i] = label[offset] if offset < len(label) else "─"
                owners[i] = rect.node
            if end - 1 >= start:
                cells[end - 1] = "|" if end - start > 1 else cells[end - 1]
        if color:
            line = _colorize(cells, owners, layout.metric_index,
                             layout if _is_diff(layout) else None)
        else:
            line = "".join(cells)
        lines.append(line.rstrip())
    return "\n".join(lines)


def _is_diff(layout: FlameLayout) -> bool:
    return any(rect.node.tag for rect in layout.rects[:8])


def _colorize(cells: List[str], owners: List[Optional[object]],
              metric_index: int, diff_layout: Optional[FlameLayout]) -> str:
    parts: List[str] = []
    current = None
    for ch, owner in zip(cells, owners):
        if owner is not current:
            if current is not None:
                parts.append("\x1b[0m")
            if owner is not None:
                node = owner  # type: ignore[assignment]
                rgb = (diff_color(node, metric_index) if diff_layout
                       else frame_color(node))
                parts.append("\x1b[48;5;%dm" % ansi_index(rgb))
            current = owner
        parts.append(ch)
    if current is not None:
        parts.append("\x1b[0m")
    return "".join(parts)


def render_tree_text(tree: ViewTree, metric_index: int = 0,
                     max_depth: int = 30, min_fraction: float = 0.002,
                     max_children: int = 8) -> str:
    """Render a view tree as an indented outline with values and percents.

    The workhorse textual view: deterministic, value-sorted, pruned to what
    matters.  Differential trees show their ``[A]/[D]/[+]/[-]`` tags.
    """
    total = tree.total(metric_index) or 1.0
    metric = tree.schema[metric_index] if len(tree.schema) else None
    lines: List[str] = []

    def emit(node: ViewNode, depth: int) -> None:
        value = node.inclusive.get(metric_index, 0.0)
        if metric is not None:
            value_text = metric.format_value(value)
        else:
            value_text = "%g" % value
        lines.append("%s%s  %s (%.1f%%)"
                     % ("  " * depth, node.label(), value_text,
                        100.0 * value / total))
        if depth >= max_depth:
            return
        children = [c for c in node.sorted_children()
                    if abs(c.inclusive.get(metric_index, 0.0))
                    >= abs(total) * min_fraction or c.tag in ("A", "D")]
        hidden = len(node.children) - len(children)
        for child in children[:max_children]:
            emit(child, depth + 1)
        overflow = max(len(children) - max_children, 0) + hidden
        if overflow > 0:
            lines.append("%s… %d more" % ("  " * (depth + 1), overflow))

    emit(tree.root, 0)
    return "\n".join(lines)


def render_summary(tree: ViewTree, metric_index: int = 0,
                   count: int = 10) -> str:
    """A floating-window style textual summary: the hottest contexts."""
    cvt = tree.columnar()
    rows = tree.top(metric_index, count=count, inclusive=False).rows
    return format_summary(
        tree, metric_index,
        zip(value_column(cvt, metric_index, "exclusive")[rows].tolist(),
            [cvt.frames[index] for index in cvt.frame_id[rows].tolist()]))


def format_summary(tree, metric_index: int, entries) -> str:
    """The summary text of ``(exclusive value, frame)`` entries, hottest
    first; zero entries are left out."""
    total = tree.total(metric_index) or 1.0
    metric = tree.schema[metric_index] if len(tree.schema) else None
    lines = ["Hottest contexts by %s:"
             % (metric.name if metric else "metric %d" % metric_index)]
    for value, frame in entries:
        if value == 0.0:
            continue
        value_text = (metric.format_value(value) if metric
                      else "%g" % value)
        lines.append("  %6.1f%%  %-40s %s"
                     % (100.0 * value / total, frame.label()[:40],
                        value_text))
    return "\n".join(lines)


def render_diagnostics(diagnostics, color: bool = False) -> str:
    """Textual twin of the IDE's squiggle list: one ProfLint finding per
    line, colored by severity, with a trailing summary count."""
    from ..lint.render import render_text
    return render_text(diagnostics, color=color)
