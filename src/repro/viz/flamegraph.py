"""High-level flame-graph API (§VI-A).

:class:`FlameGraph` wraps a view tree with layout, search, zoom, and
rendering.  Constructors cover the paper's generic views (top-down,
bottom-up, flat — each with inclusive and exclusive variants) and the three
advanced views: differential (Fig. 3), aggregate (Fig. 4), and correlated
(Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

# Import the submodules directly: the package __init__ re-exports functions
# named like their modules (``transform``, ``diff``), which would shadow the
# module objects under ``from ..analysis import transform``.
from ..analysis import query
from ..analysis import reuse as reuse_mod
from ..analysis.viewtree import ViewNode, ViewTree
from ..core.cct import CCTNode
from ..core.profile import Profile
from ..errors import AnalysisError
from .color import diff_color, frame_color
from .layout import FlameLayout, layout
from .svg import render_diff_svg, render_svg
from .terminal import render_flame_text, render_tree_text


class FlameGraph:
    """One flame graph: a view tree + metric + rendering state."""

    def __init__(self, tree: ViewTree, metric: str = "",
                 canvas_width: float = 1200.0, min_width: float = 0.5) -> None:
        self.tree = tree
        if metric:
            self.metric_index = tree.schema.index_of(metric)
        else:
            self.metric_index = 0
        self.canvas_width = canvas_width
        self.min_width = min_width
        self._zoom_root: Optional[int] = None
        self._highlighted: Set[int] = set()
        self._layout: Optional[FlameLayout] = None

    # -- constructors for the generic views --------------------------------
    #
    # All constructors route through the shared analysis engine
    # (:mod:`repro.engine`), so repeated construction over equal profiles
    # hits the memo instead of re-running the transform.  The import is
    # lazy: the engine itself imports this package's layout module.

    @staticmethod
    def _engine(engine=None):
        if engine is not None:
            return engine
        from ..engine import get_engine
        return get_engine()

    @classmethod
    def top_down(cls, profile: Profile, metric: str = "", engine=None,
                 **kwargs) -> "FlameGraph":
        """The default view: callees under callers (Fig. 4's main pane)."""
        return cls(cls._engine(engine).transform(profile, "top_down"),
                   metric=metric, **kwargs)

    @classmethod
    def bottom_up(cls, profile: Profile, metric: str = "", engine=None,
                  **kwargs) -> "FlameGraph":
        """Hot functions first, callers below (Fig. 6)."""
        return cls(cls._engine(engine).transform(profile, "bottom_up"),
                   metric=metric, **kwargs)

    @classmethod
    def flat(cls, profile: Profile, metric: str = "", engine=None,
             **kwargs) -> "FlameGraph":
        """Program → module → file → function grouping."""
        return cls(cls._engine(engine).transform(profile, "flat"),
                   metric=metric, **kwargs)

    # -- constructors for the advanced views --------------------------------

    @classmethod
    def differential(cls, baseline: Profile, treatment: Profile,
                     shape: str = "top_down", metric: str = "", engine=None,
                     **kwargs) -> "FlameGraph":
        """Differential flame graph with [A]/[D]/[+]/[-] tags (Fig. 3).

        ``metric`` is resolved exactly once, against the diff tree's union
        schema (the resolution ``diff_profiles`` itself uses), so the
        graph's ``metric_index`` and the node tags always agree.
        """
        tree = cls._engine(engine).diff_profiles(baseline, treatment,
                                                 shape=shape,
                                                 metric=metric or None)
        return cls(tree, metric=metric, **kwargs)

    @classmethod
    def aggregate(cls, profiles: Sequence[Profile], shape: str = "top_down",
                  metric: str = "", engine=None, **kwargs) -> "FlameGraph":
        """Aggregate flame graph across threads/processes/runs (Fig. 4)."""
        tree = cls._engine(engine).aggregate_profiles(profiles, shape=shape)
        graph = cls(tree, **kwargs)
        if metric:
            graph.metric_index = tree.schema.index_of("%s:sum" % metric)
        return graph

    # -- interaction ---------------------------------------------------------

    def zoom(self, row: Optional[int]) -> None:
        """Zoom to the subtree of a view row (None resets); the next
        layout reflects it."""
        self._zoom_root = row
        self._layout = None

    def search(self, pattern: str, regex: bool = False) -> List[ViewNode]:
        """Highlight matching frames; returns the matches (§VI-A)."""
        matches = query.search(self.tree, pattern, regex=regex)
        self._highlighted = {id(node) for node in matches}
        return matches

    def clear_search(self) -> None:
        """Drop all highlights."""
        self._highlighted.clear()

    def compute_layout(self, force: bool = False) -> FlameLayout:
        """The current layout (cached until zoom/search invalidates it)."""
        if self._layout is None or force:
            self._layout = layout(self.tree, metric_index=self.metric_index,
                                  canvas_width=self.canvas_width,
                                  min_width=self.min_width,
                                  root=self._zoom_root)
        return self._layout

    # -- rendering -------------------------------------------------------------

    @property
    def is_differential(self) -> bool:
        return self.tree.shape.startswith("diff:")

    def to_svg(self, title: str = "") -> str:
        """Render to a self-contained SVG document."""
        metric = (self.tree.schema[self.metric_index]
                  if len(self.tree.schema) else None)
        flame_layout = self.compute_layout()
        if self.is_differential:
            return render_diff_svg(flame_layout, metric=metric,
                                   title=title or "Differential flame graph")
        return render_svg(flame_layout, metric=metric, title=title,
                          inverted=True, highlighted=self._highlighted)

    def to_text(self, width: int = 100, color: bool = False) -> str:
        """Render to terminal text."""
        return render_flame_text(self.compute_layout(), width=width,
                                 color=color)

    def to_outline(self, max_depth: int = 30) -> str:
        """Render the underlying tree as an indented outline."""
        return render_tree_text(self.tree, metric_index=self.metric_index,
                                max_depth=max_depth)


@dataclass
class CorrelatedView:
    """Fig. 7's correlated flame graphs: allocations → uses → reuses.

    Three panes, each a ranked list of contexts.  Selecting an allocation
    populates the uses pane; selecting a use populates the reuses pane —
    exactly the ①/② interaction the paper demonstrates on LULESH.
    """

    profile: Profile
    allocation: Optional[CCTNode] = None
    use: Optional[CCTNode] = None

    def allocations(self) -> List[Tuple[CCTNode, float]]:
        """Left pane: allocation contexts ranked by reuse volume."""
        return reuse_mod.allocations_with_reuse(self.profile)

    def select_allocation(self, node: CCTNode) -> List[Tuple[CCTNode, float]]:
        """Click ①: select an allocation, revealing its uses."""
        self.allocation = node
        self.use = None
        return self.uses()

    def uses(self) -> List[Tuple[CCTNode, float]]:
        """Middle pane: uses of the selected allocation."""
        if self.allocation is None:
            return []
        return reuse_mod.uses_of(self.profile, self.allocation)

    def select_use(self, node: CCTNode) -> List[Tuple[CCTNode, float]]:
        """Click ②: select a use, revealing the reuses that follow it."""
        if self.allocation is None:
            raise AnalysisError("select an allocation before a use")
        self.use = node
        return self.reuses()

    def reuses(self) -> List[Tuple[CCTNode, float]]:
        """Right pane: reuses following the selected use."""
        if self.allocation is None or self.use is None:
            return []
        return reuse_mod.reuses_of(self.profile, self.allocation, self.use)

    def guidance(self, top: int = 5) -> List[str]:
        """Loop-fusion / hoisting guidance lines for the hottest pairs."""
        lines = []
        for pair in reuse_mod.fusion_candidates(self.profile, top=top):
            lines.append(
                "reuse of %s: use in %s, reuse in %s — hoist both to %s "
                "and fuse (volume %g)"
                % (pair.allocation.frame.name, pair.use.frame.label(),
                   pair.reuse.frame.label(), pair.hoist_target(), pair.count))
        return lines

    def render_text(self, top: int = 5) -> str:
        """All three panes as text (used by the CLI and tests)."""
        lines = ["=== allocations (by reuse volume) ==="]
        for node, volume in self.allocations()[:top]:
            marker = "▶" if node is self.allocation else " "
            lines.append(" %s %-40s %g" % (marker, node.frame.label()[:40],
                                           volume))
        lines.append("=== uses of selected allocation ===")
        for node, volume in self.uses()[:top]:
            marker = "▶" if node is self.use else " "
            lines.append(" %s %-40s %g" % (marker, node.frame.label()[:40],
                                           volume))
        lines.append("=== reuses of selected use ===")
        for node, volume in self.reuses()[:top]:
            lines.append("   %-40s %g" % (node.frame.label()[:40], volume))
        return "\n".join(lines)
