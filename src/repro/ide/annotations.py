"""Build IDE annotations (code lenses, hovers, decorations) from profiles.

This is the glue between the analysis engine and the optional IDE actions:
given a view tree, compute per-source-line attributions and turn them into
the payloads of :mod:`repro.ide.actions`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis import viewrows
from ..analysis.viewtree import ViewTree
from .actions import CodeLens, Decoration, FloatingWindow, Hover

LineKey = Tuple[str, int]


def line_attribution(tree: ViewTree) -> Dict[LineKey, Dict[int, float]]:
    """Aggregate exclusive metric values per (file, line).

    View nodes merge on (name, file, module); their *sources* retain the
    original CCT contexts with exact lines, so attribution uses the sources:
    a group-by over the sources' CCT rows
    (:func:`~repro.analysis.viewrows.line_attribution`).
    """
    return viewrows.line_attribution(tree.columnar())


def assembly_attribution(tree: ViewTree) -> Dict[LineKey, List[str]]:
    """Per-line assembly annotations from INSTRUCTION-kind contexts.

    Profilers built for compiler work (§VI-B) attribute instructions to
    statements; converters surface those as ``INSTRUCTION``-kind frames
    (HPCToolkit ``S`` scopes, perf addresses).  Each instruction context
    under a line becomes one annotation string, hottest first.
    """
    return viewrows.assembly_attribution(tree.columnar())


def build_code_lenses(tree: ViewTree, file: Optional[str] = None,
                      min_fraction: float = 0.001,
                      with_assembly: bool = True,
                      attribution: Optional[Dict[LineKey,
                                                 Dict[int, float]]] = None,
                      assembly: Optional[Dict[LineKey,
                                              List[str]]] = None
                      ) -> List[CodeLens]:
    """One code lens per attributed line, showing its metric values.

    ``file`` restricts lenses to one document (what the IDE requests when a
    document becomes visible); lines holding less than ``min_fraction`` of
    any metric's total are skipped to avoid annotation noise.  When the
    profile carries instruction-level contexts, each lens also lists the
    statement's assembly annotations (§VI-B).

    ``attribution``/``assembly`` accept precomputed tables (the analysis
    engine memoizes them per tree content), so batched per-file requests
    do not re-walk the tree for every document.
    """
    totals = {index: tree.total(index) or 1.0
              for index in range(len(tree.schema))}
    if assembly is None:
        assembly = assembly_attribution(tree) if with_assembly else {}
    elif not with_assembly:
        assembly = {}
    if attribution is None:
        attribution = line_attribution(tree)
    lenses: List[CodeLens] = []
    for (path, line), values in sorted(attribution.items()):
        if file is not None and path != file:
            continue
        significant = {index: value for index, value in values.items()
                       if abs(value) >= abs(totals[index]) * min_fraction}
        if not significant:
            continue
        parts = []
        for index, value in sorted(significant.items()):
            metric = tree.schema[index]
            share = 100.0 * value / totals[index]
            parts.append("%s: %s (%.1f%%)"
                         % (metric.name, metric.format_value(value), share))
        lenses.append(CodeLens(file=path, line=line,
                               text=" | ".join(parts),
                               assembly=assembly.get((path, line), [])))
    return lenses


def build_hover(tree: ViewTree, file: str, line: int,
                tips: Optional[List[str]] = None,
                attribution: Optional[Dict[LineKey,
                                           Dict[int, float]]] = None
                ) -> Optional[Hover]:
    """The hover for one source line: every metric plus optimization tips.

    Returns None when the line has no attribution (the IDE shows nothing).
    """
    if attribution is None:
        attribution = line_attribution(tree)
    values = attribution.get((file, line))
    if not values:
        return None
    lines = ["%s:%d" % (file, line)]
    for index, value in sorted(values.items()):
        metric = tree.schema[index]
        total = tree.total(index) or 1.0
        lines.append("  %s = %s (%.1f%% of program)"
                     % (metric.name, metric.format_value(value),
                        100.0 * value / total))
    for tip in tips or []:
        lines.append("  tip: %s" % tip)
    return Hover(file=file, line=line, lines=lines)


def build_decorations(tree: ViewTree, metric_index: int = 0,
                      file: Optional[str] = None,
                      color: Tuple[int, int, int] = (255, 96, 64),
                      attribution: Optional[Dict[LineKey,
                                                 Dict[int, float]]] = None
                      ) -> List[Decoration]:
    """Line decorations whose intensity encodes the line's metric share."""
    total = tree.total(metric_index) or 1.0
    peak = 0.0
    if attribution is None:
        attribution = line_attribution(tree)
    for values in attribution.values():
        peak = max(peak, abs(values.get(metric_index, 0.0)))
    if peak == 0.0:
        return []
    decorations: List[Decoration] = []
    for (path, line), values in sorted(attribution.items()):
        if file is not None and path != file:
            continue
        value = values.get(metric_index, 0.0)
        if value == 0.0:
            continue
        decorations.append(Decoration(
            file=path, line=line, color=color,
            intensity=abs(value) / peak))
    return decorations


def build_floating_window(tree: ViewTree, title: str = "Profile summary"
                          ) -> FloatingWindow:
    """The global-summary floating window for a view (§VI-B)."""
    from ..viz.terminal import render_summary
    lines = ["view: %s" % tree.shape,
             "contexts: %d" % tree.node_count()]
    for index, metric in enumerate(tree.schema):
        lines.append("total %s: %s"
                     % (metric.name, metric.format_value(tree.total(index))))
    lines.append("")
    lines.append(render_summary(tree))
    return FloatingWindow(title=title, body="\n".join(lines))
