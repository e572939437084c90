"""(De)serialization between :class:`~repro.core.profile.Profile` and the
EasyView Protocol Buffer schema (:mod:`repro.proto.easyview_pb`).

On the wire, every CCT node becomes a ``ContextNode`` (parent links encode
the tree), node-resident exclusive metrics become sequence-0 ``PLAIN``
monitoring points, and advanced points (snapshots, multi-context pairs)
serialize with their full context lists.

Both directions run on arrays.  :func:`to_columns` lowers a profile's
:class:`~repro.core.cct_columnar.ColumnarCCT` into a
:class:`~repro.proto.easyview_pb.ProfileColumns` message, and
:func:`from_columns` raises one straight into a columnar CCT; no object
node is built for the tree or its per-node values.  Nodes go on the wire
in pre-order with siblings in descending frame order, and strings are
interned in first-use order (the tool, each metric's name, unit and
description, then each node's name, file and module), so the bytes equal
those of the per-node codec kept as an oracle in
:mod:`repro.bench.ezvw_oracle`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import FormatError
from ..proto import easyview_pb as pb
from .frame import ROOT_FRAME, Frame, FrameKind, intern_frame
from .metric import Aggregation, Metric, MetricSchema
from .monitor import MonitoringPoint, PointKind
from .profile import Profile, ProfileMeta

_FRAME_KIND_TO_PB = {
    FrameKind.ROOT: pb.CONTEXT_ROOT,
    FrameKind.FUNCTION: pb.CONTEXT_FUNCTION,
    FrameKind.LOOP: pb.CONTEXT_LOOP,
    FrameKind.BASIC_BLOCK: pb.CONTEXT_BASIC_BLOCK,
    FrameKind.INSTRUCTION: pb.CONTEXT_INSTRUCTION,
    FrameKind.DATA_OBJECT: pb.CONTEXT_DATA_OBJECT,
    FrameKind.THREAD: pb.CONTEXT_THREAD,
}
_PB_TO_FRAME_KIND = {v: k for k, v in _FRAME_KIND_TO_PB.items()}

_UINT64_MASK = (1 << 64) - 1


# -- encode --------------------------------------------------------------------

def to_columns(profile: Profile) -> pb.ProfileColumns:
    """Lower a profile into its columnar message form."""
    col = profile.columnar()
    # Reversed post-order is pre-order with siblings in descending order.
    walk = col.postorder_ids()[::-1]
    n = walk.size
    position = np.empty(n, dtype=np.int64)
    position[walk] = np.arange(n, dtype=np.int64)

    texts: List[str] = [""]
    text_ids: Dict[str, int] = {"": 0}

    def text_id(text: str) -> int:
        index = text_ids.get(text)
        if index is None:
            index = text_ids[text] = len(texts)
            texts.append(text)
        return index

    head = [text_id(profile.meta.tool)]
    for metric in profile.schema:
        head += [text_id(metric.name), text_id(metric.unit),
                 text_id(metric.description)]
    per_frame = np.array(
        [(text_id(f.name), text_id(f.file), text_id(f.module),
          _FRAME_KIND_TO_PB[f.kind], int(f.line) & _UINT64_MASK,
          int(f.address) & _UINT64_MASK) for f in col.frames],
        dtype=np.uint64).reshape(-1, 6)
    node_frames = per_frame[col.frame_id[walk]]
    # Final string ids follow first use along the walk.
    uses = np.concatenate((np.zeros(1, dtype=np.uint64),
                           np.array(head, dtype=np.uint64),
                           node_frames[:, :3].ravel()))
    used, first = np.unique(uses, return_index=True)
    order = used[np.argsort(first)]
    final = np.zeros(len(texts), dtype=np.uint64)
    final[order] = np.arange(order.size, dtype=np.uint64)

    nodes = np.empty((n, 8), dtype=np.uint64)
    nodes[:, pb.NODE_ID] = np.arange(n, dtype=np.uint64)
    parents = col.parent[walk]
    parents[0] = walk[0]  # the root is its own parent on the wire: id 0
    nodes[:, pb.NODE_PARENT] = position[parents]
    nodes[:, pb.NODE_KIND] = node_frames[:, 3]
    nodes[:, pb.NODE_NAME] = final[node_frames[:, 0]]
    nodes[:, pb.NODE_FILE] = final[node_frames[:, 1]]
    nodes[:, pb.NODE_MODULE] = final[node_frames[:, 2]]
    nodes[:, pb.NODE_LINE] = node_frames[:, 4]
    nodes[:, pb.NODE_ADDRESS] = node_frames[:, 5]

    rows, metric_ids = np.nonzero(col.present[walk])
    counts = np.bincount(rows, minlength=n)
    context = np.flatnonzero(counts)
    offsets = np.zeros(context.size + 1, dtype=np.int64)
    np.cumsum(counts[context], out=offsets[1:])

    final_ids = final.tolist()
    head_ids = [final_ids[i] for i in head]
    metrics = [pb.MetricDescriptor(name=head_ids[1 + 3 * k],
                                   unit=head_ids[2 + 3 * k],
                                   description=head_ids[3 + 3 * k],
                                   aggregation=int(metric.aggregation))
               for k, metric in enumerate(profile.schema)]
    return pb.ProfileColumns(
        tool=head_ids[0],
        string_table=[texts[i] for i in order.tolist()],
        metrics=metrics, nodes=nodes,
        plain_index=np.arange(context.size), plain_context=context,
        value_offsets=offsets, value_metric=metric_ids,
        value=col.values[walk[rows], metric_ids],
        others=_point_messages(profile, position.tolist(), context.size),
        time_nanos=profile.meta.time_nanos,
        duration_nanos=profile.meta.duration_nanos)


def _point_messages(profile: Profile, position: List[int],
                    first_index: int
                    ) -> List[Tuple[int, pb.MonitoringPoint]]:
    """The advanced points as messages, after the plain ones."""
    return [(first_index + k, pb.MonitoringPoint(
        context_id=[position[row] for row in rows],
        values=[pb.MetricValue(metric_id=i, value=v)
                for i, v in sorted(point.values.items())],
        kind=int(point.kind),
        sequence=point.sequence))
        for k, (point, rows) in enumerate(zip(profile.points,
                                              profile.point_rows()))]


# -- decode --------------------------------------------------------------------

def _enum(kind, value: int):
    """``kind(value)``, or :class:`FormatError` for a value it lacks."""
    try:
        return kind(value)
    except ValueError:
        raise FormatError("unknown %s %d" % (kind.__name__, value)) from None


def from_columns(columns: pb.ProfileColumns) -> Profile:
    """Raise a columnar message into a :class:`Profile`.

    The tree and the per-node values land in a columnar CCT.  A node
    table or a point list in the encoder's shape is raised in bulk;
    anything else (duplicate sibling frames, forward parent references,
    duplicate metric ids in one point, ...) replays node by node and
    point by point, with the same semantics and error order.  Other
    points bind to the object facade, built once for them.
    """
    from .cct_columnar import ColumnarBuilder, ColumnarCCT, value_cells
    strings = columns.string_table or [""]

    def lookup(index: int) -> str:
        return strings[index] if 0 <= index < len(strings) else ""

    schema = MetricSchema()
    for descriptor in columns.metrics:
        schema.add(Metric(
            name=lookup(descriptor.name),
            unit=lookup(descriptor.unit),
            description=lookup(descriptor.description),
            aggregation=_enum(Aggregation, descriptor.aggregation)))
    meta = ProfileMeta(tool=lookup(columns.tool),
                       time_nanos=columns.time_nanos,
                       duration_nanos=columns.duration_nanos)
    profile = Profile(schema=schema, meta=meta)
    n_metrics = len(schema)
    # A value outside the schema has no column to live in.
    metric_ids = [mv.metric_id for _, point in columns.others
                  for mv in point.values]
    if columns.value_metric.size:
        metric_ids.append(int(columns.value_metric.max()))
    if metric_ids and max(metric_ids) >= n_metrics:
        raise FormatError("metric %d outside the schema (%d columns)"
                          % (max(metric_ids), n_metrics))

    tree = _bulk_tree(columns.nodes, lookup)
    if tree is not None:
        n = tree[0].size
        context = columns.plain_context
        if not columns.others and (not context.size or (
                context.min() >= 0 and context.max() < n)):
            # Every point a PLAIN one decoded in bulk, on an existing node.
            cells = (np.repeat(context, np.diff(columns.value_offsets)),
                     columns.value_metric, columns.value)
        else:
            cells = _replay_points(
                columns, lambda wire_id: wire_id if 0 <= wire_id < n
                else None, profile.points)
        profile.attach_columnar(ColumnarCCT(
            *tree[:3], *value_cells(n, n_metrics, *cells), frames=tree[3]))
    else:
        builder = ColumnarBuilder()
        row_of = _replay_nodes(columns.nodes, lookup, builder)
        cells = _replay_points(columns, row_of.get, profile.points)
        profile.attach_columnar(builder.finish(
            *value_cells(builder.n_nodes, n_metrics, *cells)))
    profile.bind_point_rows()
    return profile


def _bulk_tree(nodes, lookup: Callable[[int], str]):
    """``(parent, frame_id, depth, frames)`` of a node table in the
    encoder's shape, or ``None``.

    That shape: every id is the node's wire position, node 0 is the only
    ROOT, every parent precedes its child, and no two siblings share a
    frame — so the wire ids are the columnar ids.  Frames are interned
    once per distinct attribution, numbered in first-use order as
    :class:`ColumnarBuilder` numbers them.
    """
    n = nodes.shape[0]
    if not n:
        return None
    wire = np.arange(n, dtype=np.uint64)
    kinds = nodes[:, pb.NODE_KIND]
    if (kinds[0] != pb.CONTEXT_ROOT
            or (nodes[:, pb.NODE_ID] != wire).any()
            or (kinds[1:] == pb.CONTEXT_ROOT).any()
            or (nodes[1:, pb.NODE_PARENT] >= wire[1:]).any()):
        return None
    rest = nodes[1:]
    keys = np.stack((rest[:, pb.NODE_NAME], rest[:, pb.NODE_FILE],
                     rest[:, pb.NODE_LINE], rest[:, pb.NODE_MODULE],
                     rest[:, pb.NODE_ADDRESS],
                     np.where(kinds[1:] <= pb.CONTEXT_THREAD, kinds[1:],
                              pb.CONTEXT_FUNCTION)), axis=1)
    distinct, first, inverse = _distinct_rows(keys)
    frames: List[Frame] = [ROOT_FRAME]
    frame_index: Dict[Frame, int] = {ROOT_FRAME: 0}
    table_id = np.empty(len(distinct), dtype=np.int64)
    rows = distinct.tolist()
    for u in np.argsort(first).tolist():
        name, file, line, module, address, kind = rows[u]
        frame = intern_frame(name=lookup(name), file=lookup(file),
                             line=line, module=lookup(module),
                             address=address, kind=FrameKind(kind))
        fid = frame_index.get(frame)
        if fid is None:
            fid = frame_index[frame] = len(frames)
            frames.append(frame)
        table_id[u] = fid
    frame_id = np.zeros(n, dtype=np.int64)
    frame_id[1:] = table_id[inverse]
    parent = nodes[:, pb.NODE_PARENT].astype(np.int64)
    parent[0] = -1
    siblings = np.sort(parent[1:] * len(frames) + frame_id[1:])
    if (siblings[1:] == siblings[:-1]).any():
        return None  # duplicate sibling frames merge node by node
    return parent, frame_id, _depths(parent), frames


#: Odd multipliers that fold a row of six uint64 keys into one.
_ROW_MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                     0x165667B19E3779F9, 0xD6E8FEB86659FD93,
                     0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53],
                    dtype=np.uint64)


def _distinct_rows(keys):
    """``np.unique(keys, axis=0, return_index=True, return_inverse=True)``
    computed on one folded uint64 per row.

    A sort of n integers instead of n row records; every row is then
    compared with its group's first row, so a fold collision falls back
    to the row-wise unique instead of merging distinct frames.
    """
    folded = (keys * _ROW_MIX).sum(axis=1, dtype=np.uint64)
    _, first, inverse = np.unique(folded, return_index=True,
                                  return_inverse=True)
    inverse = inverse.reshape(-1)
    if (keys == keys[first[inverse]]).all():
        return keys[first], first, inverse
    distinct, first, inverse = np.unique(keys, axis=0, return_index=True,
                                         return_inverse=True)
    return distinct, first, inverse.reshape(-1)


def _depths(parent):
    """Every node's depth in a parent-before-child tree, by pointer
    doubling: O(n log depth) vectorized work."""
    depth = np.ones(parent.size, dtype=np.int64)
    depth[0] = 0
    up = parent.copy()
    up[0] = 0
    while up.any():
        depth += depth[up]
        up = up[up]
    return depth


def _replay_nodes(nodes, lookup: Callable[[int], str],
                  builder) -> Dict[int, int]:
    """Replay the node table in wire order into a ``ColumnarBuilder``;
    returns wire id -> row.  ROOT nodes alias the root, a parent must be
    defined first (the last definition of an id wins), and sibling
    frames merge."""
    row_of: Dict[int, int] = {}
    for (wire_id, parent_id, kind, name, file, line, module,
         address) in nodes.tolist():
        frame_kind = _PB_TO_FRAME_KIND.get(kind, FrameKind.FUNCTION)
        if frame_kind is FrameKind.ROOT:
            row_of[wire_id] = 0
            continue
        parent = row_of.get(parent_id)
        if parent is None:
            raise FormatError("context %d references undefined parent %d"
                              % (wire_id, parent_id))
        frame = intern_frame(name=lookup(name), file=lookup(file),
                             line=line, module=lookup(module),
                             address=address, kind=frame_kind)
        row_of[wire_id] = builder.descend(parent,
                                          builder.frame_token(frame))
    return row_of


def _replay_points(columns: pb.ProfileColumns,
                   resolve: Callable[[int], Optional[int]],
                   points: List[MonitoringPoint]):
    """Replay every point in wire order: the (row, column, value) records
    of the plain points, with duplicate metric ids in one point collapsed
    last-wins, and errors at the first offending point.  Every other
    point goes to ``points`` with its contexts as rows."""
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    for kind, sequence, context_ids, pairs in columns.iter_points():
        contexts = [resolve(context_id) for context_id in context_ids]
        if None in contexts:
            raise FormatError(
                "monitoring point references undefined context %d"
                % context_ids[contexts.index(None)])
        values = dict(pairs)
        if kind != pb.POINT_PLAIN or sequence != 0:
            points.append(MonitoringPoint(
                kind=_enum(PointKind, kind), contexts=contexts,
                values=values, sequence=sequence))
            continue
        if len(contexts) != 1:
            raise FormatError("plain point must reference one context")
        for metric_index, value in values.items():
            rows.append(contexts[0])
            cols.append(metric_index)
            vals.append(value)
    return rows, cols, vals


# -- files -----------------------------------------------------------------------

def dumps(profile: Profile) -> bytes:
    """Serialize a profile to EasyView's binary file format."""
    return pb.dumps(to_columns(profile))


def loads(data: bytes) -> Profile:
    """Parse a profile from EasyView's binary file format.

    Wire-level corruption, including a string that is not UTF-8, surfaces
    as :class:`FormatError`, like every other malformed-profile condition.
    """
    from ..proto.fastwire import WireError
    try:
        return from_columns(pb.loads(data))
    except (WireError, UnicodeDecodeError) as exc:
        raise FormatError("corrupt EasyView profile: %s" % exc) from exc


def dump(profile: Profile, path: str) -> None:
    """Write a profile to ``path`` atomically (tempfile + rename), so a
    crash mid-write never leaves a torn profile behind."""
    from .atomicio import atomic_write_bytes
    atomic_write_bytes(path, dumps(profile))


def load(path: str) -> Profile:
    """Read a profile from ``path``."""
    with open(path, "rb") as handle:
        return loads(handle.read())
