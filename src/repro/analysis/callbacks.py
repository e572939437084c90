"""User customization hooks (§V-B).

In the paper, a programming pane lets users write Python that runs inside
the viewer (via Python→WASM) and is triggered as callbacks during tree
operations.  Here the pane *is* Python, so a :class:`Customization` simply
bundles the two callback families:

* **node-visit callbacks** — ``elide(node) -> bool`` removes contexts from a
  view; ``remap(frame) -> frame`` rewrites attribution before merging (e.g.
  merge all template instantiations of one function, or strip paths);
* **metric-computation callbacks** — derived-metric definitions applied to
  the finished view (formulas run through :mod:`repro.analysis.formula`, or
  arbitrary Python functions over a node's values).

The same object plugs into every transform and multi-profile operation, so
one customization applies consistently across top-down, bottom-up, flat,
aggregate, and differential views.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.cct import CCTNode
from ..core.frame import Frame
from ..core.metric import Aggregation, Metric
from .viewtree import ViewNode, ViewTree

ElideFn = Callable[[CCTNode], bool]
RemapFn = Callable[[Frame], Frame]
#: A metric callback gets (view node, name→value mapping of existing
#: metrics) and returns the derived value.
MetricFn = Callable[[ViewNode, Dict[str, float]], float]


class Customization:
    """A bundle of user callbacks applied during view construction."""

    def __init__(self) -> None:
        self._elide_fns: List[ElideFn] = []
        self._remap_fns: List[RemapFn] = []
        self._derived: List[Tuple[Metric, MetricFn, bool]] = []

    @classmethod
    def empty(cls) -> "Customization":
        """A customization that does nothing (the default path)."""
        return _EMPTY

    def is_passthrough(self) -> bool:
        """True when no node-visit callbacks are registered, letting the
        transforms skip per-node callback dispatch entirely."""
        return not self._elide_fns and not self._remap_fns

    # -- registration ------------------------------------------------------

    def elide_if(self, fn: ElideFn) -> "Customization":
        """Drop any context (and its subtree) for which ``fn`` is true."""
        self._elide_fns.append(fn)
        return self

    def elide_names(self, *names: str) -> "Customization":
        """Drop contexts whose frame name is in ``names``."""
        banned = frozenset(names)
        return self.elide_if(lambda node: node.frame.name in banned)

    def remap(self, frame: Frame) -> Frame:
        """Apply all frame-rewrite callbacks to a frame."""
        for fn in self._remap_fns:
            frame = fn(frame)
        return frame

    def remap_with(self, fn: RemapFn) -> "Customization":
        """Rewrite frames before merging (rename, regroup, anonymize)."""
        self._remap_fns.append(fn)
        return self

    def derive(self, metric: Metric, fn: MetricFn,
               inclusive: bool = True) -> "Customization":
        """Add a derived metric computed per node on the finished view.

        ``fn`` receives the node and a name→value mapping of the node's
        existing metrics (inclusive or exclusive per the flag) and returns
        the new value.
        """
        self._derived.append((metric, fn, inclusive))
        return self

    # -- hooks used by the transforms ---------------------------------------

    def elides(self, node: CCTNode) -> bool:
        """Whether any elide callback rejects this context."""
        return any(fn(node) for fn in self._elide_fns)

    def finish(self, tree: ViewTree) -> None:
        """Apply derived-metric callbacks to a completed view tree."""
        if not self._derived:
            return
        # The loop below edits node dicts in place; a columnar-backed
        # tree must drop its (now stale) arrays first (lazy import — the
        # engine depends on this package).
        from ..engine import invalidate_everywhere
        invalidate_everywhere(tree)
        names = tree.schema.names()
        plans = []
        for metric, fn, inclusive in self._derived:
            index = tree.schema.add(metric)
            plans.append((index, fn, inclusive))
        for node in tree.nodes():
            inc_env = {name: node.inclusive.get(i, 0.0)
                       for i, name in enumerate(names)}
            exc_env = {name: node.exclusive.get(i, 0.0)
                       for i, name in enumerate(names)}
            for index, fn, inclusive in plans:
                env = inc_env if inclusive else exc_env
                value = float(fn(node, env))
                if inclusive:
                    node.inclusive[index] = value
                else:
                    node.exclusive[index] = value


_EMPTY = Customization()
