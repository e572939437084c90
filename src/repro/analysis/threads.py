"""Per-thread profile operations.

Profilers either emit one profile per thread (handled by
:mod:`repro.analysis.aggregate`) or one profile whose top-level contexts
are threads (speedscope multi-profile files, Austin's ``T`` prefixes,
Chrome trace tracks).  This module handles the second form: split a
threaded profile into per-thread profiles, measure imbalance, and build
the cross-thread aggregate view in one step — the "investigate the
behavior across different threads" workflow of §VI-A(b).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

import numpy as np

from ..core.cct import CCTNode
from ..core.cct_columnar import ColumnarCCT
from ..core.frame import FrameKind
from ..core.monitor import MonitoringPoint
from ..core.profile import Profile, ProfileMeta
from ..errors import AnalysisError
from .viewtree import ViewTree


def _thread_rows(profile: Profile) -> List[Tuple[str, int]]:
    """``(key, row)`` of every thread context, in creation order.

    A thread sits directly under the root or under a process context.
    A ``THREAD`` context with ``THREAD`` children is itself a process
    (Austin marks both), and its children are the threads.  The key is
    the thread's name, or its path label (``process 100 > thread 1``)
    when another thread has the same name.
    """
    col = profile.columnar()
    order, start = col.children_csr()

    def children(row):
        return order[start[row]:start[row + 1]].tolist()

    def frame(row):
        return col.frames[col.frame_id[row]]

    def is_thread(row):
        return frame(row).kind is FrameKind.THREAD

    paths: List[List[int]] = []
    for top in children(0):
        inner = [row for row in children(top) if is_thread(row)]
        if is_thread(top) and not inner:
            paths.append([top])
        else:
            paths.extend([top, row] for row in inner)
    names = [frame(path[-1]).name for path in paths]
    repeated = {name for name, count in Counter(names).items() if count > 1}
    return [(" > ".join(frame(row).label() for row in path)
             if name in repeated else name, path[-1])
            for name, path in zip(names, paths)]


def thread_roots(profile: Profile) -> List[CCTNode]:
    """The profile's thread contexts (see :func:`_thread_rows`)."""
    nodes = profile.row_nodes()
    return [nodes[row] for _, row in _thread_rows(profile)]


def is_threaded(profile: Profile) -> bool:
    """Whether the profile carries thread contexts to split on."""
    return bool(_thread_rows(profile))


def _reroot(col: ColumnarCCT, inside) -> ColumnarCCT:
    """The rows in ``inside``, one subtree, as a tree of their own: its
    top row becomes the root, with the root's frame and no values."""
    keep = np.flatnonzero(inside)
    parent = (np.cumsum(inside) - 1)[col.parent[keep]]
    parent[0] = -1
    frame_id = col.frame_id[keep]
    frame_id[0] = col.frame_id[0]
    values, present = col.values[keep], col.present[keep]
    values[0] = 0.0
    present[0] = False
    return ColumnarCCT(parent, frame_id, col.depth[keep] - col.depth[keep[0]],
                       values, present, col.frames)


def split_by_thread(profile: Profile) -> Dict[str, Profile]:
    """One profile per thread context, sharing the original's schema.

    Each extracted profile contains the thread's subtree re-rooted at the
    top (the thread frame itself is dropped — within one thread's profile
    it carries no information).  Monitoring points whose contexts live in
    the subtree move along.  Parts are keyed by thread name, or by path
    label where names repeat (see :func:`_thread_rows`).
    """
    threads = _thread_rows(profile)
    if not threads:
        raise AnalysisError("profile has no thread contexts to split on")

    col = profile.columnar()
    point_rows = profile.point_rows()
    result: Dict[str, Profile] = {}
    for key, row in threads:
        inside = col.subtree(row)
        sub = Profile(schema=profile.schema.copy(),
                      meta=ProfileMeta(
                          tool=profile.meta.tool,
                          time_nanos=profile.meta.time_nanos,
                          duration_nanos=profile.meta.duration_nanos,
                          attributes=dict(profile.meta.attributes,
                                          thread=key)))
        sub.attach_columnar(_reroot(col, inside))
        remap = np.cumsum(inside) - 1
        sub.points = [MonitoringPoint(point.kind,
                                      [int(remap[r]) for r in rows],
                                      dict(point.values), point.sequence)
                      for point, rows in zip(profile.points, point_rows)
                      if inside[rows].all()]
        sub.bind_point_rows()
        result[key] = sub
    return result


def thread_totals(profile: Profile, metric: str) -> Dict[str, float]:
    """Per-thread total of one metric (inclusive over each subtree)."""
    index = profile.schema.index_of(metric)
    inclusive = profile.columnar().inclusive()[:, index].tolist()
    return {key: inclusive[row] for key, row in _thread_rows(profile)}


def imbalance(profile: Profile, metric: str) -> float:
    """Load imbalance: max / mean of per-thread totals (1.0 = balanced).

    The standard HPC imbalance figure; > ~1.2 means some thread is the
    straggler and the others wait.
    """
    totals = list(thread_totals(profile, metric).values())
    if not totals:
        raise AnalysisError("profile has no thread contexts")
    mean = sum(totals) / len(totals)
    if mean == 0.0:
        return 1.0
    return max(totals) / mean


def aggregate_threads(profile: Profile, shape: str = "top_down"
                      ) -> ViewTree:
    """Split by thread and aggregate: per-context cross-thread statistics.

    The resulting view carries, for every context, the per-thread value
    series in ``histogram`` plus sum/min/max/mean columns — exactly the
    aggregate view of §VI-A(b), with threads as the population.
    """
    from .aggregate import aggregate_profiles
    parts = split_by_thread(profile)
    return aggregate_profiles(list(parts.values()), shape=shape)
