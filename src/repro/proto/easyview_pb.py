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

Decode and encode run on the :mod:`repro.proto.fastwire` kernels
(zero-copy ``memoryview`` streaming, one-pass nested serialization);
output is byte-identical to the original codec preserved in
:mod:`repro.proto.reference`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List

from ..core.gcguard import no_gc
from ..obs import get_registry, get_tracer
from .fastwire import (WIRETYPE_FIXED64, WIRETYPE_LENGTH_DELIMITED, Buffer,
                       PackedInt64Batch, Reader, WireError, Writer, as_view,
                       decode_packed_int64s, delimited, encode_varint,
                       intern_string, scalar, scan_fields)

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

    @classmethod
    def _parse_deferred(cls, data: Buffer,
                        batch: PackedInt64Batch) -> "MonitoringPoint":
        """Like :meth:`parse`, but ``context_id`` decodes via the batch."""
        msg = cls()
        context_id = msg.context_id
        for num, wtype, value in scan_fields(data):
            if num == 1:
                if wtype == WIRETYPE_LENGTH_DELIMITED:
                    batch.add(value, context_id)
                else:
                    batch.drain(context_id)  # keep wire order
                    context_id.append(value)
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
        batch = PackedInt64Batch()
        point_parse = MonitoringPoint._parse_deferred
        points = msg.points
        strings = msg.string_table
        for num, wtype, value in scan_fields(data):
            if num == 5:  # monitoring points dominate; check them first
                points.append(point_parse(delimited(wtype, value), batch))
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
        batch.flush()
        if not msg.string_table:
            msg.string_table = [""]
        return msg


def dumps(message: ProfileMessage) -> bytes:
    """Serialize with the EasyView file framing (magic + version)."""
    with _tracer.span("codec.easyview.serialize"):
        body = message.serialize()
        header = FORMAT_MAGIC + bytes([FORMAT_VERSION])
        return header + encode_varint(len(body)) + body


def loads(data: Buffer) -> ProfileMessage:
    """Parse an EasyView file, validating magic, version, and length.

    The body is parsed as a zero-copy subview of ``data``; nothing is
    copied between the framing check and the decoded dataclasses.
    """
    with _tracer.span("codec.easyview.parse", bytes=len(data)):
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
        return ProfileMessage.parse(body)


def _bits_to_double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & ((1 << 64) - 1)))[0]
