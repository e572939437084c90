"""The ``.ezvw`` codec's per-node oracle.

:func:`to_message` lowers a profile into one ``ContextNode`` message per
CCT node and one ``MonitoringPoint`` message per valued node, walking the
object tree; :func:`from_message` raises such a message back through the
object API.  That is how the codec worked before it ran on arrays
(:mod:`repro.core.serialize`), and :func:`build_segment` is how segments
were composed: decode every WAL record into messages, remap their string
indices one by one, serialize again.

The production codec must give the same bytes, the same profiles (digest,
schema, meta and points) and the same segment addresses.  The codec
bench gate (:mod:`repro.bench.codec`) and the differential tests hold it
to that; :func:`message_of` turns a columnar message into this module's
form so the two can be compared field by field.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..core.cct import CCTNode
from ..core.cct_columnar import ColumnarBuilder
from ..core.frame import FrameKind, intern_frame
from ..core.metric import Aggregation, Metric, MetricSchema
from ..core.monitor import MonitoringPoint, PointKind
from ..core.profile import Profile, ProfileMeta
from ..core.serialize import _FRAME_KIND_TO_PB, _PB_TO_FRAME_KIND, _enum
from ..core.strings import StringTable
from ..errors import FormatError, StoreError
from ..proto import easyview_pb as pb
from ..proto.fastwire import WireError
from ..store.segment import (SEGMENT_END, SEGMENT_MAGIC, RecordMeta,
                             Segment, _FOOTER_LEN, _footer_bytes,
                             segment_address)
from ..store.wal import WalRecord


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
    # A value outside the schema has no column to live in.
    for wire_point in message.points:
        for metric_value in wire_point.values:
            if metric_value.metric_id >= len(schema):
                raise FormatError("metric %d outside the schema (%d columns)"
                                  % (metric_value.metric_id, len(schema)))

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

    Handles the common shape — every point a sequence-0 PLAIN point —
    node message by node message.  Advanced points return ``None`` for
    the object path.
    """
    for wire_point in message.points:
        if wire_point.kind != pb.POINT_PLAIN or wire_point.sequence != 0:
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


def parse_file(data: bytes) -> pb.ProfileMessage:
    """An ``.ezvw`` file's body as a per-node message."""
    return pb.ProfileMessage.parse(pb.unframe(data))


def dumps(profile: Profile) -> bytes:
    """Serialize a profile through the per-node message."""
    return pb.dumps(to_message(profile))


def loads(data: bytes) -> Profile:
    """Parse an ``.ezvw`` file through the per-node message."""
    try:
        return from_message(parse_file(data))
    except (WireError, UnicodeDecodeError) as exc:
        raise FormatError("corrupt EasyView profile: %s" % exc) from exc


def message_of(columns: pb.ProfileColumns) -> pb.ProfileMessage:
    """The per-node message a columnar message stands for."""
    message = pb.ProfileMessage(
        tool=columns.tool, string_table=list(columns.string_table),
        metrics=list(columns.metrics),
        nodes=[pb.ContextNode(*row) for row in columns.nodes.tolist()],
        time_nanos=columns.time_nanos,
        duration_nanos=columns.duration_nanos)
    for kind, sequence, context_ids, pairs in columns.iter_points():
        message.points.append(pb.MonitoringPoint(
            context_id=context_ids,
            values=[pb.MetricValue(metric_id=m, value=v) for m, v in pairs],
            kind=kind, sequence=sequence))
    return message


def _remap_strings(message: pb.ProfileMessage, shared: StringTable) -> None:
    """Re-point every string index into the segment-wide table."""
    table = message.string_table or [""]

    def remap(index: int) -> int:
        text = table[index] if 0 <= index < len(table) else ""
        return shared.intern(text)

    message.tool = remap(message.tool)
    for descriptor in message.metrics:
        descriptor.name = remap(descriptor.name)
        descriptor.unit = remap(descriptor.unit)
        descriptor.description = remap(descriptor.description)
    for node in message.nodes:
        node.name = remap(node.name)
        node.file = remap(node.file)
        node.module = remap(node.module)
    message.string_table = []


def build_segment(wal_records: List[WalRecord],
                  created_nanos: int = 0) -> "tuple[bytes, Segment]":
    """Compose segment file bytes through per-node messages."""
    if not wal_records:
        raise StoreError("cannot build a segment from zero records")
    shared = StringTable()
    body_parts: List[bytes] = []
    metas: List[RecordMeta] = []
    offset = 0
    for record in wal_records:
        try:
            message = parse_file(record.blob)
        except WireError as exc:
            raise StoreError("WAL record #%d does not parse: %s"
                             % (record.seq, exc)) from exc
        _remap_strings(message, shared)
        blob = message.serialize()
        body_parts.append(blob)
        metas.append(RecordMeta(service=record.service, ptype=record.ptype,
                                labels=dict(record.labels),
                                time_nanos=record.time_nanos,
                                duration_nanos=record.duration_nanos,
                                offset=offset, length=len(blob),
                                seq=record.seq))
        offset += len(blob)
    body = b"".join(body_parts)
    footer = _footer_bytes(shared.as_list(), metas, created_nanos)
    address = segment_address(body, footer)
    data = (SEGMENT_MAGIC + body + footer +
            _FOOTER_LEN.pack(len(footer)) + SEGMENT_END)
    segment = Segment(address=address, path="", strings=shared.as_list(),
                      records=metas, created_nanos=created_nanos,
                      size_bytes=len(data))
    return data, segment
