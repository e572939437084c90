"""The memoizing analysis engine (the interactive hot path).

Every hover, code lens, shape switch, and flame-graph request re-enters the
analysis pipeline; on a large profile recomputing a transform or a diff per
keystroke busts the paper's sub-second interaction budget (§VI).  The
:class:`AnalysisEngine` sits between the consumers (the PVP viewer session,
:class:`~repro.viz.flamegraph.FlameGraph`, the CLI) and the analysis
functions, memoizing results in an LRU cache keyed by *how each input was
derived* (:mod:`repro.core.keys`) plus canonicalized options:

* a profile parsed from bytes carries a source key — one hash of the
  bytes at parse — for as long as its mutation stamp holds
  (:meth:`~repro.core.profile.Profile.cache_key`); the same bytes opened
  twice share one cached transform;
* every view tree the engine returns carries the derivation key of the
  entry it was stored under, so a layout, diff, merge or annotation of it
  never hashes the tree;
* anything else — profiles built in process or mutated past their
  stamp, trees built outside the engine or changed through node
  callbacks — falls back to its content digest (:mod:`repro.core.digest`),
  memoized on the object.

Profiles with equal content but different bytes (a pprof file and its
``.ezvw`` round trip) therefore no longer share entries.  The in-place
tree mutators re-key what they change and drop it from every engine
(:func:`forget_everywhere`), so no cached result is served under a key
its content has moved past.

Options that cannot be canonicalized — a user callback customization, an
arbitrary zoom root — bypass the cache rather than risking a wrong hit;
bypasses are counted separately in the stats.

N-profile work (aggregation's per-profile transforms, per-file annotation
batches) fans out through a :class:`~repro.engine.parallel.WorkerPool`.
"""

from __future__ import annotations

import threading
import weakref
from typing import (Any, Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple)

from ..analysis import aggregate as aggregate_mod
from ..analysis import diff as diff_mod
from ..analysis.callbacks import Customization
from ..analysis.transform import transform as transform_fn
from ..analysis.viewtree import ViewTree
from ..core.keys import derived_key
from ..core.metric import Aggregation
from ..core.profile import Profile
from ..obs import get_tracer
from ..viz.layout import FlameLayout, layout as layout_fn
from .cache import LRUCache
from .parallel import WorkerPool

#: The process-wide tracer: every memoized operation runs under a span
#: carrying its cache disposition (hit / miss / bypass), so a dogfooded
#: flame graph shows exactly where the interaction budget goes.
_tracer = get_tracer()

class _Uncacheable(Exception):
    """Raised internally when an option cannot enter a cache key."""


def _canonical(value: Any) -> Hashable:
    """A stable hashable form of an option value, or :class:`_Uncacheable`."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, Aggregation):
        return int(value)
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(item) for item in value)
    raise _Uncacheable(repr(value))


class AnalysisEngine:
    """Memoizing, invalidating front end to the analysis pipeline."""

    def __init__(self, capacity: int = 256,
                 max_workers: Optional[int] = None) -> None:
        self.cache = LRUCache(capacity)
        self.pool = WorkerPool(max_workers)
        _live_engines.add(self)

    # -- cache plumbing ----------------------------------------------------

    def _memoize(self, operation: str, key_parts: Tuple,
                 compute: Callable[[], Any]) -> Any:
        key = (operation,) + key_parts
        with _tracer.span("engine." + operation) as span:
            found, value = self.cache.lookup(operation, key)
            if span is not None:
                span.set("hit", found)
            if found:
                return value
            value = compute()
            # A tree computed through another memoized operation (a
            # window's aggregate) keeps the key it was first stored under.
            if isinstance(value, ViewTree) and value._derivation_key is None:
                value._derivation_key = derived_key(key)
            self.cache.store(key, value)
            return value

    def _bypass(self, operation: str, compute: Callable[[], Any]) -> Any:
        self.cache.stats.record_bypass()
        with _tracer.span("engine." + operation, bypass=True):
            return compute()

    # -- memoized operations -----------------------------------------------

    def transform(self, profile: Profile, shape: str,
                  customization: Optional[Customization] = None
                  ) -> ViewTree:
        """Memoized :func:`repro.analysis.transform.transform`."""
        compute = lambda: transform_fn(profile, shape, customization)
        if customization is not None and customization.has_hooks():
            # User callbacks may close over arbitrary state; never cache.
            return self._bypass("transform", compute)
        return self._memoize("transform", (profile.cache_key(), shape),
                             compute)

    def layout(self, tree: ViewTree, metric_index: int = 0,
               canvas_width: float = 1200.0, min_width: float = 0.5,
               root: Optional[int] = None,
               max_depth: Optional[int] = None) -> FlameLayout:
        """Memoized flame-graph layout (zoomed layouts bypass the cache:
        a zoom is one-off, and a dragged slider would flood the LRU)."""
        compute = lambda: layout_fn(tree, metric_index=metric_index,
                                    canvas_width=canvas_width,
                                    min_width=min_width, root=root,
                                    max_depth=max_depth)
        if root is not None:
            return self._bypass("layout", compute)
        return self._memoize(
            "layout",
            (tree.cache_key(), metric_index, canvas_width, min_width,
             max_depth),
            compute)

    def diff_trees(self, baseline: ViewTree, treatment: ViewTree,
                   metric_index: int = 0, tolerance: float = 0.0
                   ) -> ViewTree:
        """Memoized :func:`repro.analysis.diff.diff_trees`."""
        compute = lambda: diff_mod.diff_trees(
            baseline, treatment, metric_index=metric_index,
            tolerance=tolerance)
        try:
            options = _canonical((metric_index, tolerance))
        except _Uncacheable:
            return self._bypass("diff", compute)
        return self._memoize(
            "diff",
            (baseline.cache_key(), treatment.cache_key(), options),
            compute)

    def diff_profiles(self, baseline: Profile, treatment: Profile,
                      shape: str = "top_down",
                      metric: Optional[str] = None,
                      tolerance: float = 0.0) -> ViewTree:
        """Memoized :func:`repro.analysis.diff.diff_profiles`."""
        return self._memoize(
            "diff",
            (baseline.cache_key(), treatment.cache_key(), shape, metric,
             tolerance),
            lambda: diff_mod.diff_profiles(baseline, treatment, shape=shape,
                                           metric=metric,
                                           tolerance=tolerance))

    def merge_trees(self, trees: Sequence[ViewTree],
                    operators=aggregate_mod.DEFAULT_OPERATORS) -> ViewTree:
        """Memoized :func:`repro.analysis.aggregate.merge_trees`."""
        compute = lambda: aggregate_mod.merge_trees(trees, operators)
        try:
            options = _canonical(tuple(operators))
        except _Uncacheable:
            return self._bypass("aggregate", compute)
        return self._memoize(
            "aggregate",
            (tuple(tree.cache_key() for tree in trees), options),
            compute)

    def aggregate_profiles(self, profiles: Sequence[Profile],
                           shape: str = "top_down",
                           operators=aggregate_mod.DEFAULT_OPERATORS
                           ) -> ViewTree:
        """Memoized N-profile aggregation with parallel per-profile
        transforms.

        The per-profile transforms are independent, so they fan out through
        the worker pool (each one individually memoized); the final merge
        is sequential and memoized on the transformed trees.
        """
        try:
            options = _canonical((shape, tuple(operators)))
        except _Uncacheable:
            return self._bypass(
                "aggregate",
                lambda: aggregate_mod.aggregate_profiles(profiles, shape,
                                                         operators))

        def compute() -> ViewTree:
            trees = self.pool.map(lambda p: self.transform(p, shape),
                                  profiles)
            return aggregate_mod.merge_trees(trees, operators)

        return self._memoize(
            "aggregate",
            (tuple(p.cache_key() for p in profiles), options),
            compute)

    def aggregate_window(self, window_key: str, loader: Callable[[], Any],
                         shape: str = "top_down",
                         operators=aggregate_mod.DEFAULT_OPERATORS
                         ) -> ViewTree:
        """Windowed aggregation memoized on a *precomputed* window digest.

        The regression-watch loop re-aggregates the same time window every
        tick.  Content-digest keying (:meth:`aggregate_profiles`) would be
        a cache hit too — but only after loading every member profile to
        digest it.  ``window_key`` is a digest the store derives from the
        window's record identities alone (seqs are append-only and a seq's
        content never changes), so a repeat query over an unchanged window
        returns the cached merged tree *without touching a single profile
        blob*: ``loader`` runs only on a miss, and the miss path still
        flows through :meth:`aggregate_profiles`, so windows sharing
        content share the inner cache entries as well.
        """
        try:
            options = _canonical((str(window_key), shape, tuple(operators)))
        except _Uncacheable:
            return self._bypass(
                "window",
                lambda: self.aggregate_profiles(loader(), shape=shape,
                                                operators=operators))
        return self._memoize(
            "window", (options,),
            lambda: self.aggregate_profiles(loader(), shape=shape,
                                            operators=operators))

    # -- memoized annotation support ---------------------------------------

    def line_attribution(self, tree: ViewTree) -> Dict:
        """Memoized per-(file, line) exclusive-value attribution."""
        from ..ide.annotations import line_attribution
        return self._memoize("annotation", (tree.cache_key(), "lines"),
                             lambda: line_attribution(tree))

    def assembly_attribution(self, tree: ViewTree) -> Dict:
        """Memoized per-line assembly annotations."""
        from ..ide.annotations import assembly_attribution
        return self._memoize("annotation",
                             (tree.cache_key(), "assembly"),
                             lambda: assembly_attribution(tree))

    def code_lenses(self, tree: ViewTree, file: Optional[str] = None,
                    **kwargs: Any) -> List:
        """Code lenses for one document (or all), off cached attribution."""
        from ..ide.annotations import build_code_lenses
        return build_code_lenses(tree, file=file,
                                 attribution=self.line_attribution(tree),
                                 assembly=self.assembly_attribution(tree),
                                 **kwargs)

    def code_lenses_batch(self, tree: ViewTree, files: Sequence[str],
                          **kwargs: Any) -> Dict[str, List]:
        """Per-file code-lens lists for a batch of documents.

        The attribution tables are computed (or fetched) once, then the
        per-file lens construction fans out through the worker pool — the
        path an IDE hits when a workspace of documents becomes visible.
        """
        from ..ide.annotations import build_code_lenses
        attribution = self.line_attribution(tree)
        assembly = self.assembly_attribution(tree)
        lens_lists = self.pool.map(
            lambda path: build_code_lenses(tree, file=path,
                                           attribution=attribution,
                                           assembly=assembly, **kwargs),
            list(files))
        return dict(zip(files, lens_lists))

    def annotated_files(self, tree: ViewTree) -> List[str]:
        """Sorted distinct files carrying any line attribution."""
        return sorted({path for path, _ in self.line_attribution(tree)})

    # -- maintenance -------------------------------------------------------

    def clear(self) -> None:
        """Drop every cached result (counters survive)."""
        self.cache.clear()

    def reset_stats(self) -> None:
        self.cache.reset_stats()

    def stats(self) -> Dict[str, Any]:
        """Counters for the ``view/engineStats`` request and the CLI."""
        payload = self.cache.stats.to_dict()
        payload["size"] = len(self.cache)
        payload["capacity"] = self.cache.capacity
        payload["pool"] = self.pool.to_dict()
        return payload


#: Every engine alive in the process, for cross-engine invalidation when a
#: cached object is mutated in place (see :func:`forget_everywhere`).
_live_engines: "weakref.WeakSet[AnalysisEngine]" = weakref.WeakSet()

_default_engine: Optional[AnalysisEngine] = None
_default_lock = threading.Lock()


def forget_everywhere(value: Any, *derivation: Hashable) -> int:
    """Forget ``value`` in every live engine and move its cache key.

    Every in-place tree mutator calls this so a mutated tree is never
    served, or keyed, under its pre-mutation key, whichever engine cached
    it.  A mutator that can name what it did passes ``derivation`` — the
    operation and its canonical arguments — and the tree is re-keyed
    from its old key (:meth:`~repro.analysis.viewtree.ViewTree.rekey`);
    otherwise (``Customization.finish``: callbacks are no derivation a
    key can name) the tree falls back to its content digest.  The
    mutators install a new array snapshot rather than edit the facade,
    so a columnar-backed tree keeps its arrays.  Returns the total
    number of entries dropped.
    """
    dropped = sum(engine.cache.forget_value(value)
                  for engine in list(_live_engines))
    if isinstance(value, ViewTree):
        value.rekey(*derivation)
    return dropped


def get_engine() -> AnalysisEngine:
    """The process-wide engine shared by the CLI, FlameGraph, and sessions."""
    global _default_engine
    if _default_engine is None:
        with _default_lock:
            if _default_engine is None:
                _default_engine = AnalysisEngine()
    return _default_engine
