"""User customization hooks (§V-B).

In the paper, a programming pane lets users write Python that runs inside
the viewer (via Python→WASM) and is triggered as callbacks during tree
operations.  Here the pane *is* Python, so a :class:`Customization` simply
bundles the two callback families:

* **node-visit callbacks** — ``elide(node) -> bool`` removes a context and
  its whole subtree from a view; ``remap(frame) -> frame`` rewrites
  attribution before merging (e.g. merge all template instantiations of
  one function, or strip paths);
* **metric-computation callbacks** — derived-metric definitions applied to
  the finished view (formulas run through :mod:`repro.analysis.formula`, or
  arbitrary Python functions over a node's values).

The same object plugs into every transform, so one customization applies
consistently across top-down, bottom-up and flat views.  The transforms
run the hooks on the columnar arrays: ``remap`` once per frame-table entry,
every elide callback into one subtree-closed mask over the CCT rows (the
kept contexts keep their full inclusive values), and each derived metric
into a new value column (:meth:`Customization.finish`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from ..core.cct import CCTNode
from ..core.frame import Frame
from ..core.metric import Metric
from . import viewtree_columnar
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
        transforms skip the frame remap and the elide mask entirely."""
        return not self._elide_fns and not self._remap_fns

    def has_hooks(self) -> bool:
        """True when any callback is registered, derived metrics included:
        a view built with hooks differs from the plain one."""
        return bool(self._elide_fns or self._remap_fns or self._derived)

    def has_elide_hooks(self) -> bool:
        """True when an elide callback is registered: only then do the
        transforms build the CCT facade the callbacks read."""
        return bool(self._elide_fns)

    # -- registration ------------------------------------------------------

    def elide_if(self, fn: ElideFn) -> "Customization":
        """Drop any context (and its subtree) for which ``fn`` is true,
        in every shape; ``fn`` never sees a context below a dropped one,
        sees each context with its inclusive cache filled, and the kept
        contexts keep their full inclusive values."""
        self._elide_fns.append(fn)
        return self

    def elide_names(self, *names: str) -> "Customization":
        """Drop contexts whose frame name is in ``names``, with their
        subtrees."""
        banned = frozenset(names)
        return self.elide_if(lambda node: node.frame.name in banned)

    def remap(self, frame: Frame) -> Frame:
        """Apply all frame-rewrite callbacks to a frame."""
        for fn in self._remap_fns:
            frame = fn(frame)
        return frame

    def remap_with(self, fn: RemapFn) -> "Customization":
        """Rewrite frames before merging (rename, regroup, anonymize).

        Every frame but the root's is rewritten before any merge key is
        compared, so a remap that merges two frames also makes their
        nesting recursion in the flat view."""
        self._remap_fns.append(fn)
        return self

    def derive(self, metric: Metric, fn: MetricFn,
               inclusive: bool = True) -> "Customization":
        """Add a derived metric computed per node on the finished view.

        ``fn`` receives the node and a name→value mapping of the node's
        existing metrics (inclusive or exclusive per the flag, read
        before any derived value is written) and returns the new value.
        """
        self._derived.append((metric, fn, inclusive))
        return self

    # -- hooks used by the transforms ---------------------------------------

    def elides(self, node: CCTNode) -> bool:
        """Whether any elide callback rejects this context."""
        return any(fn(node) for fn in self._elide_fns)

    def finish(self, tree: ViewTree) -> None:
        """Apply derived-metric callbacks to a completed columnar view.

        Each callback runs once per ``ViewNode`` of the tree's facade, in
        walk order, with the node's values from before any derived write;
        each derived metric then lands as one column
        (:func:`~repro.analysis.viewtree_columnar.add_column`), so the
        tree keeps its arrays.  Callbacks are no derivation a cache key
        can name: the tree falls back to its content digest.
        """
        if not self._derived:
            return
        # Lazy import: the engine depends on this package.
        from ..engine import forget_everywhere
        cvt = tree.columnar()
        nodes = cvt.facade()
        names = tree.schema.names()
        plans = [(tree.schema.add(metric), fn, inclusive)
                 for metric, fn, inclusive in self._derived]
        columns = np.zeros((len(plans), cvt.n_rows), dtype=np.float64)
        for row in cvt.walk_order().tolist():
            node = nodes[row]
            inc_env = {name: node.inclusive.get(i, 0.0)
                       for i, name in enumerate(names)}
            exc_env = {name: node.exclusive.get(i, 0.0)
                       for i, name in enumerate(names)}
            for column, (_, fn, inclusive) in zip(columns, plans):
                column[row] = float(fn(node, inc_env if inclusive
                                       else exc_env))
        for column, (index, _, inclusive) in zip(columns, plans):
            viewtree_columnar.add_column(tree, index, column, inclusive)
        forget_everywhere(tree)


_EMPTY = Customization()
