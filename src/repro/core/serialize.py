"""(De)serialization between :class:`~repro.core.profile.Profile` and the
EasyView Protocol Buffer schema (:mod:`repro.proto.easyview_pb`).

On the wire, every CCT node becomes a ``ContextNode`` (parent links encode
the tree), node-resident exclusive metrics become sequence-0 ``PLAIN``
monitoring points, and advanced points (snapshots, multi-context pairs)
serialize with their full context lists.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..errors import FormatError
from ..proto import easyview_pb as pb
from .cct import CCTNode
from .frame import Frame, FrameKind, intern_frame
from .metric import Aggregation, Metric, MetricSchema
from .monitor import MonitoringPoint, PointKind
from .profile import Profile, ProfileMeta
from .strings import StringTable

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


def to_message(profile: Profile) -> pb.ProfileMessage:
    """Lower a profile into its Protocol Buffer message form."""
    strings = StringTable()
    message = pb.ProfileMessage(string_table=[])
    message.tool = strings.intern(profile.meta.tool)
    message.time_nanos = profile.meta.time_nanos
    message.duration_nanos = profile.meta.duration_nanos

    for metric in profile.schema:
        message.metrics.append(pb.MetricDescriptor(
            name=strings.intern(metric.name),
            unit=strings.intern(metric.unit),
            description=strings.intern(metric.description),
            aggregation=int(metric.aggregation)))

    node_ids: Dict[int, int] = {}  # id(CCTNode) -> wire id
    next_id = 0
    # Pre-order walk so every parent is assigned before its children.
    stack: List[CCTNode] = [profile.root]
    while stack:
        node = stack.pop()
        node_ids[id(node)] = next_id
        parent_id = node_ids[id(node.parent)] if node.parent is not None else 0
        frame = node.frame
        message.nodes.append(pb.ContextNode(
            id=next_id,
            parent_id=parent_id,
            kind=_FRAME_KIND_TO_PB[frame.kind],
            name=strings.intern(frame.name),
            file=strings.intern(frame.file),
            line=frame.line,
            module=strings.intern(frame.module),
            address=frame.address))
        if node.metrics:
            message.points.append(pb.MonitoringPoint(
                context_id=[next_id],
                values=[pb.MetricValue(metric_id=i, value=v)
                        for i, v in sorted(node.metrics.items())],
                kind=pb.POINT_PLAIN,
                sequence=0))
        next_id += 1
        stack.extend(node.sorted_children())

    for point in profile.points:
        context_ids = []
        for ctx in point.contexts:
            wire_id = node_ids.get(id(ctx))
            if wire_id is None:
                raise FormatError(
                    "monitoring point references a context outside the CCT")
            context_ids.append(wire_id)
        message.points.append(pb.MonitoringPoint(
            context_id=context_ids,
            values=[pb.MetricValue(metric_id=i, value=v)
                    for i, v in sorted(point.values.items())],
            kind=int(point.kind),
            sequence=point.sequence))

    message.string_table = strings.as_list()
    return message


def _enum(kind, value: int):
    """``kind(value)``, or :class:`FormatError` for a value it lacks."""
    try:
        return kind(value)
    except ValueError:
        raise FormatError("unknown %s %d" % (kind.__name__, value)) from None


def from_message(message: pb.ProfileMessage) -> Profile:
    """Raise a Protocol Buffer message back into a :class:`Profile`."""
    strings = message.string_table or [""]

    def lookup(index: int) -> str:
        return strings[index] if 0 <= index < len(strings) else ""

    schema = MetricSchema()
    for descriptor in message.metrics:
        schema.add(Metric(
            name=lookup(descriptor.name),
            unit=lookup(descriptor.unit),
            description=lookup(descriptor.description),
            aggregation=_enum(Aggregation, descriptor.aggregation)))

    meta = ProfileMeta(tool=lookup(message.tool),
                       time_nanos=message.time_nanos,
                       duration_nanos=message.duration_nanos)
    profile = Profile(schema=schema, meta=meta)

    columnar = _columnar_from_message(message, lookup, len(schema))
    if columnar is not None:
        profile.attach_columnar(columnar)
        return profile

    nodes_by_id: Dict[int, CCTNode] = {}
    for wire_node in message.nodes:
        kind = _PB_TO_FRAME_KIND.get(wire_node.kind, FrameKind.FUNCTION)
        if kind is FrameKind.ROOT:
            nodes_by_id[wire_node.id] = profile.root
            continue
        parent = nodes_by_id.get(wire_node.parent_id)
        if parent is None:
            raise FormatError(
                "context %d references undefined parent %d"
                % (wire_node.id, wire_node.parent_id))
        frame = intern_frame(name=lookup(wire_node.name),
                             file=lookup(wire_node.file),
                             line=wire_node.line,
                             module=lookup(wire_node.module),
                             address=wire_node.address,
                             kind=kind)
        nodes_by_id[wire_node.id] = parent.child(frame)

    for wire_point in message.points:
        contexts = []
        for context_id in wire_point.context_id:
            node = nodes_by_id.get(context_id)
            if node is None:
                raise FormatError(
                    "monitoring point references undefined context %d"
                    % context_id)
            contexts.append(node)
        values = {mv.metric_id: mv.value for mv in wire_point.values}
        if wire_point.kind == pb.POINT_PLAIN and wire_point.sequence == 0:
            if len(contexts) != 1:
                raise FormatError("plain point must reference one context")
            for metric_index, value in values.items():
                contexts[0].add_value(metric_index, value)
        else:
            profile.points.append(MonitoringPoint(
                kind=_enum(PointKind, wire_point.kind),
                contexts=contexts,
                values=values,
                sequence=wire_point.sequence))
    return profile


def _columnar_from_message(message: pb.ProfileMessage, lookup,
                           n_metrics: int):
    """Raise a wire message straight into a columnar CCT, or ``None``.

    Handles the common shape — every point a sequence-0 PLAIN point with
    in-range metric ids — without constructing a single
    :class:`CCTNode`.  Advanced points (snapshots, multi-context pairs)
    and out-of-schema metric ids return ``None`` so the object path keeps
    its exact semantics, including error ordering.
    """
    from .cct_columnar import ColumnarBuilder

    for wire_point in message.points:
        if wire_point.kind != pb.POINT_PLAIN or wire_point.sequence != 0:
            return None
        for metric_value in wire_point.values:
            if not 0 <= metric_value.metric_id < n_metrics:
                return None

    builder = ColumnarBuilder()
    descend = builder.descend
    frame_token = builder.frame_token
    col_of: Dict[int, int] = {}
    for wire_node in message.nodes:
        kind = _PB_TO_FRAME_KIND.get(wire_node.kind, FrameKind.FUNCTION)
        if kind is FrameKind.ROOT:
            col_of[wire_node.id] = 0
            continue
        parent = col_of.get(wire_node.parent_id)
        if parent is None:
            raise FormatError(
                "context %d references undefined parent %d"
                % (wire_node.id, wire_node.parent_id))
        frame = intern_frame(name=lookup(wire_node.name),
                             file=lookup(wire_node.file),
                             line=wire_node.line,
                             module=lookup(wire_node.module),
                             address=wire_node.address,
                             kind=kind)
        col_of[wire_node.id] = descend(parent, frame_token(frame))

    values = np.zeros((builder.n_nodes, n_metrics), dtype=np.float64)
    present = np.zeros((builder.n_nodes, n_metrics), dtype=bool)
    for wire_point in message.points:
        contexts = []
        for context_id in wire_point.context_id:
            node = col_of.get(context_id)
            if node is None:
                raise FormatError(
                    "monitoring point references undefined context %d"
                    % context_id)
            contexts.append(node)
        if len(contexts) != 1:
            raise FormatError("plain point must reference one context")
        node = contexts[0]
        # Duplicate metric ids within one point collapse last-wins before
        # accumulating, matching the object path's value-dict semantics.
        merged = {mv.metric_id: mv.value for mv in wire_point.values}
        for metric_index, value in merged.items():
            values[node, metric_index] += value
            present[node, metric_index] = True
    return builder.finish(values, present)


def dumps(profile: Profile) -> bytes:
    """Serialize a profile to EasyView's binary file format."""
    return pb.dumps(to_message(profile))


def loads(data: bytes) -> Profile:
    """Parse a profile from EasyView's binary file format.

    Wire-level corruption, including a string that is not UTF-8, surfaces
    as :class:`FormatError`, like every other malformed-profile condition.
    """
    from ..proto.fastwire import WireError
    try:
        return from_message(pb.loads(data))
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
