"""EasyView's generic profile representation as Protocol Buffer messages.

This is the schema sketched in Figure 2 of the paper: all monitoring points
are organized into a compact calling context tree (CCT) formed by merging
common call-path prefixes.  Each monitoring point carries (a) one or more
*context* references into the CCT — more than one for multi-context
inefficiencies such as use/reuse pairs, redundant/killing pairs, data races,
and false sharing — and (b) a list of metric values.

Contexts cover both traditional code regions (program, function, loop, basic
block, instruction) and data objects (heap objects named by their allocation
call path, static objects named from the symbol table), which is what lets
EasyView host data-centric memory profilers.

All strings are interned in a single string table (index 0 is the empty
string, like pprof), keeping serialized profiles compact.

Two in-memory forms encode the same bytes.  :class:`ProfileMessage` holds
one dataclass per node and per point, the schema's literal shape; the
reference codec and the tests use it.  :class:`ProfileColumns` holds the
node table and the per-node metric values as arrays, which the profile
codec (:mod:`repro.core.serialize`) and the store encode and decode in
bulk.  Decode and encode run on the :mod:`repro.proto.fastwire` kernels
(zero-copy ``memoryview`` streaming, one-pass nested serialization, bulk
varint passes); output is byte-identical to the original codec preserved
in :mod:`repro.proto.reference`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..core.gcguard import no_gc
from ..obs import get_registry, get_tracer
from .fastwire import (WIRETYPE_FIXED32, WIRETYPE_FIXED64,
                       WIRETYPE_LENGTH_DELIMITED, WIRETYPE_VARINT, Buffer,
                       Reader, WireError, Writer,
                       _assemble_packed, as_view, decode_packed_int64s,
                       delimited, encode_varint, intern_string, put_varints,
                       scalar, scan_fields, varint_sizes)

FORMAT_MAGIC = b"EZVW"
FORMAT_VERSION = 1

_tracer = get_tracer()
_registry = get_registry()
_parse_calls = _registry.counter(
    "codec.easyview.parse_calls", "EasyView profiles parsed via fastwire")
_parse_bytes = _registry.counter(
    "codec.easyview.parse_bytes", "raw EasyView bytes decoded via fastwire")
_serialize_calls = _registry.counter(
    "codec.easyview.serialize_calls",
    "EasyView profiles serialized via fastwire")
_serialize_bytes = _registry.counter(
    "codec.easyview.serialize_bytes", "EasyView bytes encoded via fastwire")

# ContextNode.kind values.
CONTEXT_ROOT = 0
CONTEXT_FUNCTION = 1
CONTEXT_LOOP = 2
CONTEXT_BASIC_BLOCK = 3
CONTEXT_INSTRUCTION = 4
CONTEXT_DATA_OBJECT = 5
CONTEXT_THREAD = 6

CONTEXT_KIND_NAMES = {
    CONTEXT_ROOT: "root",
    CONTEXT_FUNCTION: "function",
    CONTEXT_LOOP: "loop",
    CONTEXT_BASIC_BLOCK: "basic_block",
    CONTEXT_INSTRUCTION: "instruction",
    CONTEXT_DATA_OBJECT: "data_object",
    CONTEXT_THREAD: "thread",
}

# MonitoringPoint.kind values.
POINT_PLAIN = 0
POINT_ALLOCATION = 1
POINT_USE_REUSE = 2
POINT_REDUNDANCY = 3
POINT_DATA_RACE = 4
POINT_FALSE_SHARING = 5

# MetricDescriptor.aggregation values.
AGG_SUM = 0
AGG_MIN = 1
AGG_MAX = 2
AGG_MEAN = 3
AGG_LAST = 4


@dataclass
class MetricDescriptor:
    """Schema for one metric column (name/unit/description as string ids)."""

    name: int = 0
    unit: int = 0
    description: int = 0
    aggregation: int = AGG_SUM

    def _fields(self, writer: Writer) -> None:
        (writer.varint(1, self.name)
         .varint(2, self.unit)
         .varint(3, self.description)
         .varint(4, self.aggregation))

    def serialize(self) -> bytes:
        writer = Writer()
        self._fields(writer)
        return writer.getvalue()

    @classmethod
    def parse(cls, data: Buffer) -> "MetricDescriptor":
        msg = cls()
        for num, wtype, value in scan_fields(data):
            if num == 1:
                msg.name = scalar(wtype, value)
            elif num == 2:
                msg.unit = scalar(wtype, value)
            elif num == 3:
                msg.description = scalar(wtype, value)
            elif num == 4:
                msg.aggregation = scalar(wtype, value)
        return msg


@dataclass
class ContextNode:
    """One CCT node with its source-code attribution.

    ``parent_id`` forms the tree (0 for the root, whose own id is 0).  All
    textual attribution (function name, file path, load module, data-object
    name) is interned in the profile string table.
    """

    id: int = 0
    parent_id: int = 0
    kind: int = CONTEXT_FUNCTION
    name: int = 0          # function name / loop label / object name
    file: int = 0          # source file path
    line: int = 0          # 1-based source line; 0 = unknown
    module: int = 0        # load module (binary / shared library)
    address: int = 0       # instruction pointer, when available

    def _fields(self, writer: Writer) -> None:
        (writer.varint(1, self.id)
         .varint(2, self.parent_id)
         .varint(3, self.kind)
         .varint(4, self.name)
         .varint(5, self.file)
         .varint(6, self.line)
         .varint(7, self.module)
         .varint(8, self.address))

    def serialize(self) -> bytes:
        writer = Writer()
        self._fields(writer)
        return writer.getvalue()

    @classmethod
    def parse(cls, data: Buffer) -> "ContextNode":
        # proto3 drops zero values, so the decode default for ``kind`` must
        # be the zero enum member (CONTEXT_ROOT), not the dataclass default.
        msg = cls(kind=CONTEXT_ROOT)
        for num, wtype, value in scan_fields(data):
            if num == 1:
                msg.id = scalar(wtype, value)
            elif num == 2:
                msg.parent_id = scalar(wtype, value)
            elif num == 3:
                msg.kind = scalar(wtype, value)
            elif num == 4:
                msg.name = scalar(wtype, value)
            elif num == 5:
                msg.file = scalar(wtype, value)
            elif num == 6:
                msg.line = scalar(wtype, value)
            elif num == 7:
                msg.module = scalar(wtype, value)
            elif num == 8:
                msg.address = scalar(wtype, value)
        return msg


@dataclass
class MetricValue:
    """One metric sample: a descriptor index plus a numeric value.

    Values are stored as IEEE doubles; integer metrics (bytes, counts) are
    exact up to 2**53 which covers every profiler we studied.
    """

    metric_id: int = 0
    value: float = 0.0

    def _fields(self, writer: Writer) -> None:
        writer.varint(1, self.metric_id).double(2, self.value)

    def serialize(self) -> bytes:
        writer = Writer()
        self._fields(writer)
        return writer.getvalue()

    @classmethod
    def parse(cls, data: Buffer) -> "MetricValue":
        msg = cls()
        for num, wtype, value in scan_fields(data):
            if num == 1:
                msg.metric_id = scalar(wtype, value)
            elif num == 2:
                if wtype != WIRETYPE_FIXED64:
                    raise WireError("MetricValue.value must be a double")
                msg.value = _bits_to_double(value)
        return msg


@dataclass
class MonitoringPoint:
    """A measurement: N context references + M metric values.

    ``context_id`` usually holds one id; multi-context inefficiencies (use /
    reuse, redundant / killing, racing accesses) reference several contexts
    in a kind-specific order.  ``sequence`` orders points within a series of
    snapshots (e.g. periodic memory captures) and is 0 otherwise.
    """

    context_id: List[int] = field(default_factory=list)
    values: List[MetricValue] = field(default_factory=list)
    kind: int = POINT_PLAIN
    sequence: int = 0

    def _fields(self, writer: Writer) -> None:
        writer.packed(1, self.context_id)
        for mv in self.values:
            mark = writer.begin_message(2)
            mv._fields(writer)
            writer.end_message(mark)
        writer.varint(3, self.kind)
        writer.varint(4, self.sequence)

    def serialize(self) -> bytes:
        writer = Writer()
        self._fields(writer)
        return writer.getvalue()

    @classmethod
    def parse(cls, data: Buffer) -> "MonitoringPoint":
        msg = cls()
        for num, wtype, value in scan_fields(data):
            if num == 1:
                if wtype == WIRETYPE_LENGTH_DELIMITED:
                    msg.context_id.extend(decode_packed_int64s(value))
                else:
                    msg.context_id.append(value)
            elif num == 2:
                msg.values.append(
                    MetricValue.parse(delimited(wtype, value)))
            elif num == 3:
                msg.kind = scalar(wtype, value)
            elif num == 4:
                msg.sequence = scalar(wtype, value)
        return msg


@dataclass
class ProfileMessage:
    """Top-level EasyView profile message."""

    tool: int = 0                      # producing profiler's name (string id)
    string_table: List[str] = field(default_factory=lambda: [""])
    metrics: List[MetricDescriptor] = field(default_factory=list)
    nodes: List[ContextNode] = field(default_factory=list)
    points: List[MonitoringPoint] = field(default_factory=list)
    time_nanos: int = 0
    duration_nanos: int = 0

    def serialize(self) -> bytes:
        writer = Writer()
        begin = writer.begin_message
        end = writer.end_message
        writer.varint(1, self.tool)
        for s in self.string_table:
            writer.message(2, s.encode("utf-8"))
        for md in self.metrics:
            mark = begin(3)
            md._fields(writer)
            end(mark)
        for node in self.nodes:
            mark = begin(4)
            node._fields(writer)
            end(mark)
        for point in self.points:
            mark = begin(5)
            point._fields(writer)
            end(mark)
        writer.varint(6, self.time_nanos)
        writer.varint(7, self.duration_nanos)
        data = writer.getvalue()
        _serialize_calls.inc()
        _serialize_bytes.inc(len(data))
        return data

    @classmethod
    def parse(cls, data: Buffer) -> "ProfileMessage":
        _parse_calls.inc()
        _parse_bytes.inc(len(data))
        # Same allocation-burst reasoning as ``pprof_pb.Profile.parse``:
        # pausing the cyclic collector while hundreds of thousands of
        # acyclic containers are born beats letting gen-0 sweeps rescan
        # the growing graph every ~700 allocations.
        with no_gc():
            return cls._parse_impl(data)

    @classmethod
    def _parse_impl(cls, data: Buffer) -> "ProfileMessage":
        msg = cls(string_table=[])
        points = msg.points
        strings = msg.string_table
        for num, wtype, value in scan_fields(data):
            if num == 5:  # monitoring points dominate; check them first
                points.append(MonitoringPoint.parse(delimited(wtype, value)))
            elif num == 4:
                msg.nodes.append(ContextNode.parse(delimited(wtype, value)))
            elif num == 2:
                strings.append(intern_string(delimited(wtype, value)))
            elif num == 3:
                msg.metrics.append(
                    MetricDescriptor.parse(delimited(wtype, value)))
            elif num == 1:
                msg.tool = scalar(wtype, value)
            elif num == 6:
                msg.time_nanos = scalar(wtype, value)
            elif num == 7:
                msg.duration_nanos = scalar(wtype, value)
        if not msg.string_table:
            msg.string_table = [""]
        return msg


# --------------------------------------------------------------------------
# The columnar message
# --------------------------------------------------------------------------

#: Column of :attr:`ProfileColumns.nodes` per ``ContextNode`` field; the
#: field number is the column plus one.
(NODE_ID, NODE_PARENT, NODE_KIND, NODE_NAME, NODE_FILE, NODE_LINE,
 NODE_MODULE, NODE_ADDRESS) = range(8)
#: The node columns that index the string table.
NODE_STRING_COLUMNS = (NODE_NAME, NODE_FILE, NODE_MODULE)

_STRING_TAG = 0x12  # field 2, length-delimited
_NODE_TAG = 0x22    # field 4, length-delimited
_POINT_TAG = 0x2A   # field 5, length-delimited

#: (kind, sequence, context ids, [(metric id, value), ...]) — one point as
#: :meth:`ProfileColumns.iter_points` yields it.
PointTuple = Tuple[int, int, List[int], List[Tuple[int, float]]]


class ProfileColumns:
    """A :class:`ProfileMessage` whose two big repeats are arrays.

    The bytes are the same: :meth:`serialize` is byte-identical to
    ``ProfileMessage.serialize`` of the message this stands for, and
    :meth:`parse` accepts and rejects what ``ProfileMessage.parse`` does.
    Only the in-memory form differs:

    ``nodes``
        uint64[n, 8]: one row per ``ContextNode`` in wire order, fields
        in field-number order (columns ``NODE_ID`` .. ``NODE_ADDRESS``).
    ``plain_index``, ``plain_context``, ``value_offsets``,
    ``value_metric``, ``value``
        the single-context PLAIN sequence-0 points (the per-node metric
        values) as arrays: each point's position among all points, its
        context id, and CSR offsets into its (metric id, value) pairs.
    ``others``
        every other point — snapshots, multi-context pairs, and any body
        the bulk decoder does not recognize — as ``(position,
        MonitoringPoint)`` pairs in wire order.
    """

    __slots__ = ("tool", "string_table", "metrics", "nodes", "plain_index",
                 "plain_context", "value_offsets", "value_metric", "value",
                 "others", "time_nanos", "duration_nanos")

    def __init__(self, tool: int = 0,
                 string_table: Optional[List[str]] = None,
                 metrics: Optional[List[MetricDescriptor]] = None,
                 nodes=None, plain_index=None, plain_context=None,
                 value_offsets=None, value_metric=None, value=None,
                 others: Optional[List[Tuple[int, MonitoringPoint]]] = None,
                 time_nanos: int = 0, duration_nanos: int = 0) -> None:
        self.tool = tool
        self.string_table = [""] if string_table is None else string_table
        self.metrics = [] if metrics is None else metrics
        self.nodes = (np.zeros((0, 8), dtype=np.uint64) if nodes is None
                      else np.asarray(nodes, dtype=np.uint64).reshape(-1, 8))
        self.plain_index = _int64s(plain_index)
        self.plain_context = _int64s(plain_context)
        self.value_offsets = (np.zeros(1, dtype=np.int64)
                              if value_offsets is None
                              else _int64s(value_offsets))
        self.value_metric = np.ascontiguousarray(
            [] if value_metric is None else value_metric, dtype=np.uint64)
        self.value = np.ascontiguousarray([] if value is None else value,
                                          dtype=np.float64)
        self.others = [] if others is None else others
        self.time_nanos = time_nanos
        self.duration_nanos = duration_nanos

    # -- points ------------------------------------------------------------

    def iter_points(self) -> Iterator[PointTuple]:
        """Every point in wire order, plain or not, as a :data:`PointTuple`."""
        offsets = self.value_offsets.tolist()
        metrics = self.value_metric.tolist()
        values = self.value.tolist()
        others = iter(self.others)
        pending = next(others, None)
        for k, (index, context) in enumerate(zip(self.plain_index.tolist(),
                                                 self.plain_context.tolist())):
            while pending is not None and pending[0] < index:
                yield _point_tuple(pending[1])
                pending = next(others, None)
            lo, hi = offsets[k], offsets[k + 1]
            yield (POINT_PLAIN, 0, [context],
                   list(zip(metrics[lo:hi], values[lo:hi])))
        while pending is not None:
            yield _point_tuple(pending[1])
            pending = next(others, None)

    # -- encode ------------------------------------------------------------

    def serialize(self) -> bytes:
        writer = Writer()
        writer.varint(1, self.tool)
        for text in self.string_table:
            writer.message(2, text.encode("utf-8"))
        for descriptor in self.metrics:
            mark = writer.begin_message(3)
            descriptor._fields(writer)
            writer.end_message(mark)
        head = writer.getvalue()
        tail = (Writer().varint(6, self.time_nanos)
                .varint(7, self.duration_nanos).getvalue())
        data = b"".join((head, _encode_nodes(self.nodes),
                         self._encode_points(), tail))
        _serialize_calls.inc()
        _serialize_bytes.inc(len(data))
        return data

    def _encode_points(self) -> bytes:
        plain, ends = _encode_plain_points(
            self.plain_context, self.value_offsets, self.value_metric,
            self.value)
        if not self.others:
            return plain
        # Splice each other point in at its wire position.
        view = memoryview(plain)
        pieces = []
        written = offset = 0
        for index, point in self.others:
            before = int(np.searchsorted(self.plain_index, index))
            if before > written:
                stop = int(ends[before - 1])
                pieces.append(view[offset:stop])
                offset, written = stop, before
            writer = Writer()
            mark = writer.begin_message(5)
            point._fields(writer)
            writer.end_message(mark)
            pieces.append(writer.getvalue())
        pieces.append(view[offset:])
        return b"".join(pieces)

    # -- decode ------------------------------------------------------------

    @classmethod
    def parse(cls, data: Buffer) -> "ProfileColumns":
        """Decode a raw (unframed) profile message into columns.

        Three phases, as in ``pprof_pb.Profile.parse_columnar``: one
        inlined scan of the top-level fields records where every node and
        point body lies; node bodies decode one field per round, every
        node at once; plain points decode one metric slot per round.
        Bodies the bulk kernels do not recognize go through the
        per-field decode, which raises the reference codec's errors.
        """
        _parse_calls.inc()
        _parse_bytes.inc(len(data))
        with no_gc():
            return cls._parse_impl(data)

    @classmethod
    def _parse_impl(cls, data: Buffer) -> "ProfileColumns":
        msg = cls(string_table=[])
        strings = msg.string_table
        node_spans: List[int] = []
        point_spans: List[int] = []
        buf = as_view(data)
        reader = Reader(buf)
        pos = 0
        end = len(buf)
        while pos < end:
            byte = buf[pos]
            if (byte == _NODE_TAG or byte == _POINT_TAG
                    or byte == _STRING_TAG) and pos + 1 < end:
                # The one-byte-length fast path: almost every node, point
                # and string on the wire.
                length = buf[pos + 1]
                stop = pos + 2 + length
                if length < 0x80 and stop <= end:
                    if byte == _NODE_TAG:
                        node_spans.append(pos + 2)
                        node_spans.append(stop)
                    elif byte == _POINT_TAG:
                        point_spans.append(pos + 2)
                        point_spans.append(stop)
                    else:
                        strings.append(intern_string(buf[pos + 2:stop]))
                    pos = stop
                    continue
            reader.pos = pos
            num, wtype = reader.tag()
            if wtype == WIRETYPE_VARINT:
                value = reader.varint()
            elif wtype == WIRETYPE_LENGTH_DELIMITED:
                value = reader.delimited()
            elif wtype == WIRETYPE_FIXED64:
                value = reader.fixed64()
            elif wtype == WIRETYPE_FIXED32:
                value = reader.fixed32()
            else:
                raise WireError("unsupported wire type %d for field %d"
                                % (wtype, num))
            pos = reader.pos
            if num == 4 or num == 5:
                body = delimited(wtype, value)
                spans = node_spans if num == 4 else point_spans
                spans.append(pos - len(body))
                spans.append(pos)
            elif num == 2:
                strings.append(intern_string(delimited(wtype, value)))
            elif num == 3:
                msg.metrics.append(
                    MetricDescriptor.parse(delimited(wtype, value)))
            elif num == 1:
                msg.tool = scalar(wtype, value)
            elif num == 6:
                msg.time_nanos = scalar(wtype, value)
            elif num == 7:
                msg.duration_nanos = scalar(wtype, value)
        if not strings:
            msg.string_table = [""]
        raw = np.frombuffer(buf, dtype=np.uint8)
        if node_spans:
            spans_a = np.array(node_spans, dtype=np.int64)
            nodes = _decode_nodes(raw, spans_a[0::2], spans_a[1::2])
            if nodes is None:
                nodes = _decode_nodes_exact(buf, node_spans)
            msg.nodes = nodes
        if point_spans:
            msg._decode_points(buf, raw, point_spans)
        return msg

    def _decode_points(self, buf: memoryview, raw, point_spans: List[int]
                       ) -> None:
        spans_a = np.array(point_spans, dtype=np.int64)
        starts = spans_a[0::2]
        stops = spans_a[1::2]
        ok, context, owner, metric, bits = _decode_plain_points(raw, starts,
                                                                stops)
        plain = np.flatnonzero(ok)
        self.plain_index = plain
        self.plain_context = context[plain].view(np.int64)
        counts = np.bincount(owner, minlength=starts.size)[plain]
        offsets = np.zeros(plain.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self.value_offsets = offsets
        self.value_metric = metric
        self.value = bits.view(np.float64)
        self.others = [
            (index, MonitoringPoint.parse(buf[point_spans[2 * index]:
                                              point_spans[2 * index + 1]]))
            for index in np.flatnonzero(~ok).tolist()]


def _int64s(values) -> "np.ndarray":
    return np.ascontiguousarray([] if values is None else values,
                                dtype=np.int64)


def _point_tuple(point: MonitoringPoint) -> PointTuple:
    return (point.kind, point.sequence, list(point.context_id),
            [(mv.metric_id, mv.value) for mv in point.values])


def _encode_nodes(nodes) -> bytes:
    """Every node row as a field-4 ``ContextNode`` record, laid end to end.

    A field is written only when nonzero (proto3 defaults), so each record
    is at most 8 * 11 = 88 bytes and its length prefix is one byte.  A
    written field's tag lands after every earlier written field and after
    the two header bytes of its own and every earlier record.
    """
    if not nodes.shape[0]:
        return b""
    flat = nodes.ravel()
    written = np.flatnonzero(flat)
    values = flat[written]
    value_size = varint_sizes(values)
    owner = written >> 3
    field_end = np.cumsum(value_size + 1)
    tag_at = field_end - (value_size + 1) + 2 * (owner + 1)
    body = np.bincount(owner, weights=value_size + 1,
                       minlength=nodes.shape[0]).astype(np.int64)
    ends = np.cumsum(body + 2)
    starts = ends - (body + 2)
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    out[starts] = _NODE_TAG
    out[starts + 1] = body
    out[tag_at] = ((written & 7) + 1) << 3
    put_varints(out, tag_at + 1, values, value_size)
    return out.tobytes()


def _encode_plain_points(context, offsets, metric, value):
    """The plain points as field-5 ``MonitoringPoint`` records laid end to
    end, plus each record's end offset.

    Each record is what ``MonitoringPoint._fields`` writes for one
    context, its values in order, kind PLAIN and sequence 0: a packed
    context id, then one ``MetricValue`` per value with the id omitted
    when 0 and the double omitted when its bits are those of +0.0.
    """
    if not context.size:
        return b"", np.zeros(0, dtype=np.int64)
    ctx = context.view(np.uint64)  # int64 ids sign-extend, as packed does
    ctx_size = varint_sizes(ctx)
    bits = value.view(np.uint64)
    has_id = metric != 0
    has_value = bits != 0
    id_size = varint_sizes(metric)
    inner = np.where(has_id, id_size + 1, 0) + np.where(has_value, 9, 0)
    field_size = inner + 2  # tag, one-byte length (inner <= 20), body
    before = np.zeros(metric.size + 1, dtype=np.int64)
    np.cumsum(field_size, out=before[1:])
    body = 2 + ctx_size + before[offsets[1:]] - before[offsets[:-1]]
    body_size = varint_sizes(body.astype(np.uint64))
    ends = np.cumsum(1 + body_size + body)
    starts = ends - (1 + body_size + body)
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    out[starts] = _POINT_TAG
    put_varints(out, starts + 1, body.astype(np.uint64), body_size)
    ctx_at = starts + 1 + body_size
    out[ctx_at] = 0x0A
    out[ctx_at + 1] = ctx_size
    put_varints(out, ctx_at + 2, ctx, ctx_size)
    owner = np.repeat(np.arange(context.size), np.diff(offsets))
    field_at = ((ctx_at + 2 + ctx_size - before[offsets[:-1]])[owner]
                + before[:-1])
    out[field_at] = 0x12
    out[field_at + 1] = inner
    id_at = field_at[has_id] + 2
    out[id_at] = 0x08
    put_varints(out, id_at + 1, metric[has_id], id_size[has_id])
    value_at = (field_at + 2 + np.where(has_id, id_size + 1, 0))[has_value]
    out[value_at] = 0x11
    out[value_at[:, None] + np.arange(1, 9)] = (
        bits[has_value].astype("<u8").view(np.uint8).reshape(-1, 8))
    return out.tobytes(), ends


def _varints_at(raw, at, limit):
    """Decode one varint at each offset ``at``: ``(values, sizes)``, or
    ``None`` when any would run past its ``limit`` or past ten bytes.

    One vectorized round per byte position, each over only the varints
    still continuing, like :func:`~repro.proto.fastwire.put_varints`.
    """
    if (at >= limit).any():
        return None
    byte = raw[at]
    values = (byte & 0x7F).astype(np.uint64)
    sizes = np.ones(at.size, dtype=np.int64)
    idx = np.flatnonzero(byte >= 0x80)
    shift = 7
    while idx.size:
        if shift == 70:
            return None
        pos = at[idx] + sizes[idx]
        if (pos >= limit[idx]).any():
            return None
        byte = raw[pos]
        values[idx] |= (byte & 0x7F).astype(np.uint64) << np.uint64(shift)
        sizes[idx] += 1
        idx = idx[byte >= 0x80]
        shift += 7
    return values, sizes


def _decode_nodes(raw, starts, stops):
    """Bulk-decode node bodies into a uint64[n, 8] matrix, or ``None``.

    Accepts the shape the encoder writes: varint fields 1-8 only, each at
    most once, in ascending order.  Each round decodes the next field of
    every node at once, so there are at most eight rounds.  Anything else
    (other wire types, unknown or repeated fields, a varint torn at the
    body end or longer than ten bytes) returns ``None`` for the per-field
    decode to handle with its exact semantics.
    """
    nodes = np.zeros((starts.size, 8), dtype=np.uint64)
    position = starts.copy()
    previous = np.zeros(starts.size, dtype=np.int64)
    active = np.flatnonzero(position < stops)
    while active.size:
        at = position[active]
        tag = raw[at]
        field = (tag >> 3).astype(np.int64)
        if not (((tag & 7) == 0) & (field >= 1) & (field <= 8)
                & (field > previous[active])).all():
            return None
        decoded = _varints_at(raw, at + 1, stops[active])
        if decoded is None:
            return None
        values, sizes = decoded
        nodes[active, field - 1] = values
        previous[active] = field
        position[active] = at + 1 + sizes
        active = active[position[active] < stops[active]]
    return nodes


def _decode_nodes_exact(buf: memoryview, node_spans: List[int]):
    """Per-field node decode with ``ContextNode.parse``'s semantics
    (last value wins, unknown fields skipped, wire types checked)."""
    rows = []
    for i in range(0, len(node_spans), 2):
        row = [0] * 8
        for num, wtype, value in scan_fields(buf[node_spans[i]:
                                                 node_spans[i + 1]]):
            if 1 <= num <= 8:
                row[num - 1] = scalar(wtype, value)
        rows.append(row)
    return np.array(rows, dtype=np.uint64).reshape(-1, 8)


def _decode_plain_points(raw, starts, stops):
    """Bulk-decode the point bodies that have the encoder's PLAIN shape.

    That shape is one packed context id, then ``MetricValue`` messages
    under 128 bytes, each a one-byte metric id (omitted when 0) and a
    double (omitted when +0.0), ids strictly ascending, and no kind or
    sequence.  Values decode one slot per round for every point at once,
    so the rounds are bounded by the 128 one-byte ids.  Returns ``(ok,
    context, owner, metric, bits)``: which points matched, their context
    ids, and their (point, metric id, value bits) triples grouped by
    point.  Every read is index-clamped: a malformed body only fails the
    mask, and the per-field decode then raises its error.
    """
    last = raw.size - 1
    ok = stops - starts >= 3
    ok &= raw[np.minimum(starts, last)] == 0x0A
    ctx_len = raw[np.minimum(starts + 1, last)].astype(np.int64)
    ok &= (ctx_len >= 1) & (ctx_len <= 10)
    values_at = starts + 2 + ctx_len
    ok &= values_at <= stops
    # The packed run holds exactly one varint: it ends on the run's end.
    context = np.zeros(starts.size, dtype=np.uint64)
    idx = np.flatnonzero(ok)
    decoded = _varints_at(raw, starts[idx] + 2, values_at[idx])
    if decoded is None:
        ok[idx] = False  # some run is torn: leave them all to the exact path
    else:
        context[idx], sizes = decoded
        ok[idx] = sizes == ctx_len[idx]

    position = values_at.copy()
    previous = np.full(starts.size, -1, dtype=np.int64)
    active = np.flatnonzero(ok & (position < stops))
    rounds = []
    while active.size:
        at = position[active]
        length = raw[np.minimum(at + 1, last)].astype(np.int64)
        b0 = raw[np.minimum(at + 2, last)]
        b1 = raw[np.minimum(at + 3, last)]
        with_id = (b0 == 0x08) & (b1 < 0x80)
        id_only = with_id & (length == 2)
        id_value = with_id & (length == 11) & (raw[np.minimum(at + 4, last)]
                                              == 0x11)
        value_only = (length == 9) & (b0 == 0x11)
        metric = np.where(id_only | id_value, b1, 0).astype(np.int64)
        good = ((raw[np.minimum(at, last)] == 0x12)
                & (at + 2 + length <= stops[active])
                & (id_only | id_value | value_only | (length == 0))
                & (metric > previous[active]))
        ok[active[~good]] = False
        active, at, length, metric = (active[good], at[good], length[good],
                                      metric[good])
        id_value, value_only = id_value[good], value_only[good]
        bits = np.zeros(active.size, dtype=np.uint64)
        has_value = id_value | value_only
        if has_value.any():
            value_at = at[has_value] + np.where(id_value[has_value], 5, 3)
            bits[has_value] = raw[value_at[:, None]
                                  + np.arange(8)].view("<u8").ravel()
        rounds.append((active, metric, bits))
        previous[active] = metric
        position[active] = at + 2 + length
        active = active[position[active] < stops[active]]

    if not rounds:
        empty = np.zeros(0, dtype=np.int64)
        return ok, context, empty, empty.view(np.uint64), \
            np.zeros(0, dtype=np.uint64)
    owner = np.concatenate([r[0] for r in rounds])
    metric = np.concatenate([r[1] for r in rounds])
    bits = np.concatenate([r[2] for r in rounds])
    keep = ok[owner]
    order = np.argsort(owner[keep], kind="stable")
    return (ok, context, owner[keep][order],
            metric[keep][order].astype(np.uint64), bits[keep][order])


def dumps(message: "ProfileColumns | ProfileMessage") -> bytes:
    """Serialize with the EasyView file framing (magic + version).

    Either message form encodes the same bytes; the profile codec
    (:mod:`repro.core.serialize`) hands over :class:`ProfileColumns`.
    """
    with _tracer.span("codec.easyview.serialize"):
        body = message.serialize()
        header = FORMAT_MAGIC + bytes([FORMAT_VERSION])
        return header + encode_varint(len(body)) + body


def loads(data: Buffer) -> ProfileColumns:
    """Parse an EasyView file, validating magic, version, and length.

    The body is parsed as a zero-copy subview of ``data`` straight into
    :class:`ProfileColumns`; ``ProfileMessage.parse`` of the body gives
    the per-node message form instead.
    """
    with _tracer.span("codec.easyview.parse", bytes=len(data)):
        return ProfileColumns.parse(unframe(data))


def unframe(data: Buffer) -> memoryview:
    """The message body of an EasyView file, as a zero-copy subview,
    after checking the magic, the version and the length prefix."""
    view = as_view(data)
    if bytes(view[:4]) != FORMAT_MAGIC:
        raise WireError(
            "not an EasyView profile: bad magic %r" % bytes(view[:4]))
    if len(view) < 5 or view[4] != FORMAT_VERSION:
        raise WireError("unsupported EasyView format version")
    reader = Reader(view, pos=5)
    length = reader.varint()
    body = view[reader.pos:reader.pos + length]
    if len(body) != length:
        raise WireError("truncated EasyView profile body")
    return body


def _bits_to_double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & ((1 << 64) - 1)))[0]
