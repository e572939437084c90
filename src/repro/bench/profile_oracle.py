"""The object-tree oracle of profiles.

Every profile in production is its columnar arrays
(:class:`~repro.core.cct_columnar.ColumnarCCT`), built once; the object
CCT is a read-only facade materialized from them.  This module keeps
profiles the way they were before, with nothing but objects
(:class:`ObjectProfile`), and the code that edited them:

* :func:`child`, :func:`add_value`, :func:`set_value`, :func:`add_path`
  and :func:`add_sample` are the tree mutators;
* :func:`digest` is the object walk of
  :func:`~repro.core.digest.profile_digest`, and
  :func:`compute_inclusive` the post-order inclusive kernel;
* :func:`split_by_thread`, :func:`thread_totals`, :func:`anonymize`,
  :func:`combine` and :func:`range_profile` are the analyses that copy a
  profile node by node;
* :func:`from_profile` copies a production profile into an object-only
  one, and :func:`fold` folds one back into arrays
  (:func:`~repro.core.cct_columnar.from_cct`).

The production functions of the same names must give the same profiles —
digests, ``.ezvw`` bytes and JSON text: the differential tests and the
CCT bench gate (:mod:`repro.bench.cct`) hold them to that.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..analysis.anonymize import _scrubber
from ..analysis.combine import _header
from ..analysis.traversal import postorder
from ..core import digest as digest_mod
from ..core.cct import CCT, CCTNode
from ..core.cct_columnar import from_cct
from ..core.frame import Frame, FrameKind
from ..core.metric import Metric, MetricSchema
from ..core.monitor import MonitoringPoint
from ..core.profile import Profile, ProfileMeta
from ..errors import AnalysisError


class ObjectProfile:
    """A profile whose only tree is an object CCT (no arrays)."""

    def __init__(self, schema: Optional[MetricSchema] = None,
                 meta: Optional[ProfileMeta] = None) -> None:
        self.schema = schema if schema is not None else MetricSchema()
        self.meta = meta if meta is not None else ProfileMeta()
        self.points: List[MonitoringPoint] = []
        self.cct = CCT()

    @property
    def root(self) -> CCTNode:
        return self.cct.root

    def nodes(self) -> Iterator[CCTNode]:
        return self.cct.nodes()

    def node_count(self) -> int:
        return self.cct.node_count()

    def find_by_name(self, name: str) -> List[CCTNode]:
        return self.cct.find_by_name(name)

    def add_metric(self, metric: Metric) -> int:
        return self.schema.add(metric)

    def total(self, metric_name: str) -> float:
        index = self.schema.index_of(metric_name)
        return sum(node.metrics.get(index, 0.0) for node in self.nodes())


# ---------------------------------------------------------------------------
# the mutators
# ---------------------------------------------------------------------------

def child(node: CCTNode, frame: Frame) -> CCTNode:
    """``node``'s child for ``frame``, created if absent (the prefix
    merge)."""
    found = node.children.get(frame)
    if found is None:
        found = node.children[frame] = CCTNode(frame, parent=node)
    return found


def add_value(node: CCTNode, index: int, value: float) -> None:
    """Accumulate an exclusive value on ``node``."""
    node.metrics[index] = node.metrics.get(index, 0.0) + value


def set_value(node: CCTNode, index: int, value: float) -> None:
    """Overwrite an exclusive value on ``node``."""
    node.metrics[index] = value


def add_path(profile: ObjectProfile, frames: Iterable[Frame]) -> CCTNode:
    """Merge a root-first call path into the tree; returns its leaf."""
    node = profile.root
    for frame in frames:
        node = child(node, frame)
    return node


def add_sample(profile: ObjectProfile, frames: Iterable[Frame],
               values: Dict[int, float]) -> CCTNode:
    """Merge a call path and accumulate ``values`` on its leaf."""
    node = add_path(profile, frames)
    for index, value in values.items():
        add_value(node, index, value)
    return node


# ---------------------------------------------------------------------------
# copies between the representations
# ---------------------------------------------------------------------------

def _copy_points(source: Iterable[MonitoringPoint],
                 node_map: Dict[int, object]) -> List[MonitoringPoint]:
    """The points re-anchored through ``node_map`` (``id`` of a context
    to its counterpart)."""
    return [MonitoringPoint(point.kind,
                            [node_map[id(ctx)] for ctx in point.contexts],
                            dict(point.values), point.sequence)
            for point in source]


def from_profile(profile: Profile) -> ObjectProfile:
    """An object-only copy of a production profile: fresh nodes, in the
    facade's child order, and its points re-anchored on them."""
    copy = ObjectProfile(profile.schema.copy(), profile.meta)
    node_map = {id(profile.root): copy.root}
    stack = [profile.root]
    while stack:
        node = stack.pop()
        target = node_map[id(node)]
        target.metrics = dict(node.metrics)
        for source in node.children.values():
            node_map[id(source)] = child(target, source.frame)
            stack.append(source)
    copy.points = _copy_points(profile.points, node_map)
    return copy


def fold(profile: ObjectProfile) -> Profile:
    """The production profile of an object-only one: its tree folded into
    arrays, its points bound to the arrays' facade."""
    col = from_cct(profile.cct, len(profile.schema))
    row_of = {id(node): row for row, node in enumerate(col.node_objects)}
    col.node_objects = None
    result = Profile(schema=profile.schema.copy(), meta=profile.meta)
    result.attach_columnar(col)
    result.points = _copy_points(profile.points, row_of)
    result.bind_point_rows()
    return result


# ---------------------------------------------------------------------------
# digest and inclusive values
# ---------------------------------------------------------------------------

def digest(profile: ObjectProfile) -> str:
    """:func:`~repro.core.digest.profile_digest` by an enter/exit walk of
    the objects, children sorted by frame identity."""
    h = digest_mod._new_hash()
    digest_mod._update_schema(h, profile.schema)
    stack = [(profile.root, False)]
    while stack:
        node, exiting = stack.pop()
        if exiting:
            h.update(digest_mod._EXIT)
            continue
        h.update(digest_mod._ENTER)
        digest_mod._update_frame(h, node.frame)
        digest_mod._update_values(h, node.metrics)
        stack.append((node, True))
        children = sorted(node.children.values(),
                          key=lambda n: n.frame.key())
        stack.extend((below, False) for below in reversed(children))
    digest_mod._update_points(h, profile)
    return h.hexdigest()


def compute_inclusive(profile: ObjectProfile,
                      metric_indices: Optional[Iterable[int]] = None) -> None:
    """Fill every node's inclusive cache for the given columns (all of the
    schema's when omitted) in one post-order pass.

    A root cache that covers every requested column means an earlier
    pass computed them; nothing invalidates the caches, so compute after
    the last edit.
    """
    indices = (list(range(len(profile.schema))) if metric_indices is None
               else list(metric_indices))
    cached = profile.root.inclusive
    if cached and all(index in cached for index in indices):
        return
    for node in postorder(profile.root):
        inclusive = node.inclusive
        for index in indices:
            total = node.metrics.get(index, 0.0)
            for below in node.children.values():
                total += below.inclusive.get(index, 0.0)
            inclusive[index] = total


# ---------------------------------------------------------------------------
# the analyses that copy a profile
# ---------------------------------------------------------------------------

def thread_roots(profile: ObjectProfile) -> List[Tuple[str, CCTNode]]:
    """``(key, node)`` of every thread context (see
    :func:`repro.analysis.threads.split_by_thread`)."""
    paths: List[List[CCTNode]] = []
    for top in profile.root.children.values():
        inner = [node for node in top.children.values()
                 if node.frame.kind is FrameKind.THREAD]
        if top.frame.kind is FrameKind.THREAD and not inner:
            paths.append([top])
        else:
            paths.extend([top, node] for node in inner)
    names = [path[-1].frame.name for path in paths]
    repeated = {name for name, count in Counter(names).items() if count > 1}
    return [(" > ".join(node.frame.label() for node in path)
             if name in repeated else name, path[-1])
            for name, path in zip(names, paths)]


def split_by_thread(profile: ObjectProfile) -> Dict[str, ObjectProfile]:
    """One profile per thread, each thread's subtree copied node by node
    under a fresh root."""
    roots = thread_roots(profile)
    if not roots:
        raise AnalysisError("profile has no thread contexts to split on")
    result: Dict[str, ObjectProfile] = {}
    for key, thread_node in roots:
        sub = ObjectProfile(schema=profile.schema.copy(),
                            meta=ProfileMeta(
                                tool=profile.meta.tool,
                                time_nanos=profile.meta.time_nanos,
                                duration_nanos=profile.meta.duration_nanos,
                                attributes=dict(profile.meta.attributes,
                                                thread=key)))
        node_map: Dict[int, CCTNode] = {id(thread_node): sub.root}
        stack = [thread_node]
        while stack:
            node = stack.pop()
            target = node_map[id(node)]
            for source in node.children.values():
                copy = child(target, source.frame)
                for index, value in source.metrics.items():
                    add_value(copy, index, value)
                node_map[id(source)] = copy
                stack.append(source)
        sub.points = _copy_points(
            [point for point in profile.points
             if all(id(ctx) in node_map for ctx in point.contexts)],
            node_map)
        result[key] = sub
    return result


def thread_totals(profile: ObjectProfile, metric: str) -> Dict[str, float]:
    """Per-thread inclusive total of one metric."""
    compute_inclusive(profile)
    index = profile.schema.index_of(metric)
    return {key: node.inclusive.get(index, 0.0)
            for key, node in thread_roots(profile)}


def anonymize(profile: ObjectProfile, key: str, keep_lines: bool = False,
              keep_modules: Iterable[str] = ()) -> ObjectProfile:
    """:func:`repro.analysis.anonymize.anonymize`, node by node: every
    node's frame is scrubbed and merged into the copy's tree."""
    scrub_frame = _scrubber(key, keep_lines, keep_modules)
    result = ObjectProfile(schema=profile.schema.copy(),
                           meta=ProfileMeta(tool=profile.meta.tool,
                                            time_nanos=0, duration_nanos=
                                            profile.meta.duration_nanos))
    node_map: Dict[int, CCTNode] = {id(profile.root): result.root}
    stack = [(profile.root, result.root)]
    while stack:
        src, dst = stack.pop()
        for index, value in src.metrics.items():
            add_value(dst, index, value)
        for source in src.children.values():
            copy = child(dst, scrub_frame(source.frame))
            node_map[id(source)] = copy
            stack.append((source, copy))
    result.points = _copy_points(profile.points, node_map)
    return result


def combine(profiles: Sequence[ObjectProfile],
            tool_names: Optional[Sequence[str]] = None) -> ObjectProfile:
    """:func:`repro.analysis.combine.combine`, node by node: each input's
    nodes merge on (copy parent, merge key), the first-seen frame wins."""
    meta, schema, remaps = _header(profiles, tool_names)
    merged = ObjectProfile(schema, meta)
    merge_index: Dict[Tuple[int, Tuple], CCTNode] = {}
    for profile, remap in zip(profiles, remaps):
        node_map: Dict[int, CCTNode] = {id(profile.root): merged.root}
        stack = [(profile.root, merged.root)]
        while stack:
            src, dst = stack.pop()
            for index, value in src.metrics.items():
                add_value(dst, remap[index], value)
            for source in src.children.values():
                key = (id(dst), source.frame.merge_key())
                target = merge_index.get(key)
                if target is None:
                    target = merge_index[key] = child(dst, source.frame)
                node_map[id(source)] = target
                stack.append((source, target))
        for point in profile.points:
            merged.points.append(MonitoringPoint(
                kind=point.kind,
                contexts=[node_map[id(ctx)] for ctx in point.contexts],
                values={remap[index]: value
                        for index, value in point.values.items()},
                sequence=point.sequence))
    return merged


def range_profile(profile: ObjectProfile, start: int, end: int,
                  combine: str = "mean") -> ObjectProfile:
    """:func:`repro.analysis.timerange.range_profile`, node by node: each
    selected context's path is merged into a fresh tree."""
    window = sorted({point.sequence for point in profile.points
                     if point.sequence > 0 and start <= point.sequence <= end})
    if combine == "last":
        window = window[-1:]
    selected = set(window)
    sub = ObjectProfile(schema=profile.schema.copy(),
                        meta=ProfileMeta(tool=profile.meta.tool,
                                         attributes=dict(
                                             profile.meta.attributes,
                                             window="%d..%d" % (start, end))))
    per_context: Dict[int, Tuple[CCTNode, Dict[int, Dict[int, float]]]] = {}
    for point in profile.points:
        if point.sequence not in selected:
            continue
        node, table = per_context.setdefault(
            id(point.primary()), (point.primary(), {}))
        for index, value in point.values.items():
            by_seq = table.setdefault(index, {})
            by_seq[point.sequence] = by_seq.get(point.sequence, 0.0) + value
    for node, table in per_context.values():
        target = add_path(sub, node.call_path())
        for index, by_seq in table.items():
            total = float(sum(by_seq.values()))
            add_value(target, index,
                      total / len(selected) if combine == "mean" else total)
    return sub
