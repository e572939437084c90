"""The pre-fastwire codec, preserved as an executable specification.

When :mod:`repro.proto.fastwire` replaced the original chunk-list writer
and per-call varint decoders on every hot path, the original
implementations moved here instead of being deleted.  They serve three
jobs:

1. **Correctness oracle** — ``tests/test_proto_fastwire.py`` asserts that
   the fast path produces byte-identical encodes and equal decoded
   objects against this module on every fixture and on
   hypothesis-generated messages.
2. **Benchmark baseline** — ``benchmarks/test_codec_fastpath.py`` and
   ``easyview bench codec`` measure the fast path's speedup against this
   codec (the documented target: ≥3x decode on the large pprof tier).
3. **CI gate** — the ``codec-bench`` workflow job fails if the fast path
   ever diverges from this module on the fixture corpus.

Nothing in the production tree imports this module; changing it should
only ever mean documenting a semantic the fast path must also adopt (the
wire-type rule is one: a scalar field that arrives length-delimited, or
a string or message field that arrives as a number, raises
:class:`WireError`).

It holds the single-value wire primitives (``encode_varint`` and
friends, which follow https://protobuf.dev/programming-guides/encoding/
and double as the spec ``tests/test_proto_wire.py`` checks), the
chunk-list :class:`Writer`, the per-field :func:`iter_fields` /
:func:`decode_packed_varints` decoders, and the original message codecs
for both schemas plus the store's WAL payload and segment footer
encodings.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Iterator, List, Tuple

from . import easyview_pb, pprof_pb
from .fastwire import (WIRETYPE_FIXED32, WIRETYPE_FIXED64,
                       WIRETYPE_LENGTH_DELIMITED, WIRETYPE_VARINT, WireError)

_MAX_VARINT_BYTES = 10  # ceil(64 / 7)
_UINT64_MASK = (1 << 64) - 1


# --------------------------------------------------------------------------
# Single-value wire primitives
# --------------------------------------------------------------------------

def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer (< 2**64) as a base-128 varint."""
    if value < 0:
        raise WireError("varint cannot encode negative value %d; "
                        "use encode_signed_varint" % value)
    if value > _UINT64_MASK:
        raise WireError("varint value %d exceeds 64 bits" % value)
    out = bytearray()
    while True:
        bits = value & 0x7F
        value >>= 7
        if value:
            out.append(bits | 0x80)
        else:
            out.append(bits)
            return bytes(out)


def decode_varint(data: bytes, pos: int = 0) -> Tuple[int, int]:
    """Decode a varint starting at ``pos``.

    Returns ``(value, next_pos)``.  Raises :class:`WireError` on truncated or
    over-long input.
    """
    result = 0
    shift = 0
    start = pos
    end = len(data)
    while pos < end:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if pos - start > _MAX_VARINT_BYTES:
                raise WireError("varint longer than 10 bytes at offset %d" % start)
            return result & _UINT64_MASK, pos
        shift += 7
        if shift >= 70:
            raise WireError("varint longer than 10 bytes at offset %d" % start)
    raise WireError("truncated varint at offset %d" % start)


def zigzag_encode(value: int) -> int:
    """Map a signed 64-bit integer onto an unsigned one (ZigZag)."""
    if not -(1 << 63) <= value < (1 << 63):
        raise WireError("sint64 value %d out of range" % value)
    return ((value << 1) ^ (value >> 63)) & _UINT64_MASK


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) ^ -(value & 1)


def encode_signed_varint(value: int) -> bytes:
    """Encode a signed integer using the two's-complement ``int64`` rule.

    proto3 ``int64`` fields sign-extend negative numbers to ten bytes rather
    than ZigZag-encoding them; pprof uses ``int64`` throughout.
    """
    return encode_varint(value & _UINT64_MASK)


def decode_signed_varint(data: bytes, pos: int = 0) -> Tuple[int, int]:
    """Decode an ``int64`` varint (sign-extended two's complement)."""
    value, pos = decode_varint(data, pos)
    if value >= 1 << 63:
        value -= 1 << 64
    return value, pos


def encode_tag(field_number: int, wire_type: int) -> bytes:
    """Encode a field tag (field number + wire type)."""
    if field_number < 1:
        raise WireError("field numbers must be positive, got %d" % field_number)
    if wire_type not in (WIRETYPE_VARINT, WIRETYPE_FIXED64,
                         WIRETYPE_LENGTH_DELIMITED, WIRETYPE_FIXED32):
        raise WireError("unsupported wire type %d" % wire_type)
    return encode_varint((field_number << 3) | wire_type)


def decode_tag(data: bytes, pos: int) -> Tuple[int, int, int]:
    """Decode a field tag; returns ``(field_number, wire_type, next_pos)``."""
    key, pos = decode_varint(data, pos)
    field_number = key >> 3
    wire_type = key & 0x7
    if field_number == 0:
        raise WireError("field number 0 is reserved")
    return field_number, wire_type, pos


def encode_fixed64(value: int) -> bytes:
    """Encode an unsigned integer as 8 little-endian bytes."""
    return struct.pack("<Q", value & _UINT64_MASK)


def decode_fixed64(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode an 8-byte little-endian unsigned integer."""
    if pos + 8 > len(data):
        raise WireError("truncated fixed64 at offset %d" % pos)
    return struct.unpack_from("<Q", data, pos)[0], pos + 8


def encode_fixed32(value: int) -> bytes:
    """Encode an unsigned integer as 4 little-endian bytes."""
    return struct.pack("<I", value & 0xFFFFFFFF)


def decode_fixed32(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode a 4-byte little-endian unsigned integer."""
    if pos + 4 > len(data):
        raise WireError("truncated fixed32 at offset %d" % pos)
    return struct.unpack_from("<I", data, pos)[0], pos + 4


def encode_double(value: float) -> bytes:
    """Encode a ``double`` field payload."""
    return struct.pack("<d", value)


#: The bit pattern of the proto3 double default (+0.0); only this exact
#: pattern is absent from the wire — ``-0.0`` has the sign bit set.
_DOUBLE_ZERO = encode_double(0.0)


def decode_double(data: bytes, pos: int) -> Tuple[float, int]:
    """Decode a ``double`` field payload."""
    if pos + 8 > len(data):
        raise WireError("truncated double at offset %d" % pos)
    return struct.unpack_from("<d", data, pos)[0], pos + 8


def encode_bytes(value: bytes) -> bytes:
    """Encode a length-delimited payload (length prefix + raw bytes)."""
    return encode_varint(len(value)) + value


def decode_bytes(data: bytes, pos: int) -> Tuple[bytes, int]:
    """Decode a length-delimited payload; returns ``(payload, next_pos)``."""
    length, pos = decode_varint(data, pos)
    end = pos + length
    if end > len(data):
        raise WireError("length-delimited field overruns buffer at offset %d" % pos)
    return data[pos:end], end


def encode_string(value: str) -> bytes:
    """Encode a UTF-8 string field payload."""
    return encode_bytes(value.encode("utf-8"))


# --------------------------------------------------------------------------
# The original composite codec
# --------------------------------------------------------------------------

def iter_fields(data: bytes) -> Iterator[Tuple[int, int, object]]:
    """The original field iterator: one decoder call per varint."""
    pos = 0
    end = len(data)
    while pos < end:
        field_number, wire_type, pos = decode_tag(data, pos)
        if wire_type == WIRETYPE_VARINT:
            value, pos = decode_varint(data, pos)
        elif wire_type == WIRETYPE_FIXED64:
            value, pos = decode_fixed64(data, pos)
        elif wire_type == WIRETYPE_LENGTH_DELIMITED:
            value, pos = decode_bytes(data, pos)
        elif wire_type == WIRETYPE_FIXED32:
            value, pos = decode_fixed32(data, pos)
        else:
            raise WireError("unsupported wire type %d for field %d"
                            % (wire_type, field_number))
        yield field_number, wire_type, value


def decode_packed_varints(payload: bytes) -> List[int]:
    """The original packed decoder: one function call per value."""
    values: List[int] = []
    pos = 0
    end = len(payload)
    while pos < end:
        value, pos = decode_signed_varint(payload, pos)
        values.append(value)
    return values


def encode_packed_varints(values: List[int]) -> bytes:
    """The original packed encoder (length-prefixed body)."""
    body = b"".join(encode_varint(v & _UINT64_MASK) for v in values)
    return encode_bytes(body)


class Writer:
    """The original chunk-list message writer.

    Accumulates each encoded field as a separate ``bytes`` object and
    joins them at the end — the child-bytes-then-copy pattern the
    fastwire writer replaced.  ``__len__`` tracks a running total as
    chunks are appended instead of recomputing a sum per call (the one
    fix applied here, since byte output is unaffected).
    """

    def __init__(self, emit_defaults: bool = False) -> None:
        self._chunks: List[bytes] = []
        self._length = 0
        self._emit_defaults = emit_defaults

    def _append(self, chunk: bytes) -> None:
        self._chunks.append(chunk)
        self._length += len(chunk)

    def varint(self, field_number: int, value: int) -> "Writer":
        if value or self._emit_defaults:
            self._append(encode_tag(field_number, WIRETYPE_VARINT))
            self._append(encode_varint(int(value) & _UINT64_MASK))
        return self

    def sint(self, field_number: int, value: int) -> "Writer":
        if value or self._emit_defaults:
            self._append(encode_tag(field_number, WIRETYPE_VARINT))
            self._append(encode_varint(zigzag_encode(value)))
        return self

    def double(self, field_number: int, value: float) -> "Writer":
        if self._emit_defaults or encode_double(value) != _DOUBLE_ZERO:
            self._append(encode_tag(field_number, WIRETYPE_FIXED64))
            self._append(encode_double(value))
        return self

    def bytes(self, field_number: int, value: bytes) -> "Writer":
        if value or self._emit_defaults:
            self._append(encode_tag(field_number, WIRETYPE_LENGTH_DELIMITED))
            self._append(encode_bytes(value))
        return self

    def string(self, field_number: int, value: str) -> "Writer":
        if value or self._emit_defaults:
            self._append(encode_tag(field_number, WIRETYPE_LENGTH_DELIMITED))
            self._append(encode_string(value))
        return self

    def message(self, field_number: int, payload: bytes) -> "Writer":
        self._append(encode_tag(field_number, WIRETYPE_LENGTH_DELIMITED))
        self._append(encode_bytes(payload))
        return self

    def packed(self, field_number: int, values: List[int]) -> "Writer":
        if values:
            self._append(encode_tag(field_number, WIRETYPE_LENGTH_DELIMITED))
            self._append(encode_packed_varints(values))
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)

    def __len__(self) -> int:
        return self._length


def _scalar(value: object) -> int:
    """A numeric field's value; a length-delimited one raises."""
    if not isinstance(value, int):
        raise WireError("expected numeric field, got length-delimited")
    return value


def _payload(value: object, wtype: int) -> bytes:
    """A string, bytes or message field's payload; a number raises."""
    if wtype != WIRETYPE_LENGTH_DELIMITED:
        raise WireError("expected length-delimited field, got wire type %d"
                        % wtype)
    return value  # type: ignore[return-value]


def _as_int64(value: object) -> int:
    result = _scalar(value)
    if result >= 1 << 63:
        result -= 1 << 64
    return result


def _repeated_int(value: object, wtype: int) -> List[int]:
    if wtype == WIRETYPE_LENGTH_DELIMITED:
        assert isinstance(value, bytes)
        return decode_packed_varints(value)
    return [_as_int64(value)]


# --------------------------------------------------------------------------
# pprof profile.proto (original message codec)
# --------------------------------------------------------------------------

def _serialize_value_type(vt: pprof_pb.ValueType) -> bytes:
    return (Writer().varint(1, vt.type).varint(2, vt.unit).getvalue())


def _parse_value_type(data: bytes) -> pprof_pb.ValueType:
    msg = pprof_pb.ValueType()
    for num, wtype, value in iter_fields(data):
        if num == 1:
            msg.type = _as_int64(value)
        elif num == 2:
            msg.unit = _as_int64(value)
    return msg


def _serialize_label(lbl: pprof_pb.Label) -> bytes:
    return (Writer().varint(1, lbl.key).varint(2, lbl.str)
            .varint(3, lbl.num).varint(4, lbl.num_unit).getvalue())


def _parse_label(data: bytes) -> pprof_pb.Label:
    msg = pprof_pb.Label()
    for num, wtype, value in iter_fields(data):
        if num == 1:
            msg.key = _as_int64(value)
        elif num == 2:
            msg.str = _as_int64(value)
        elif num == 3:
            msg.num = _as_int64(value)
        elif num == 4:
            msg.num_unit = _as_int64(value)
    return msg


def _serialize_sample(smp: pprof_pb.Sample) -> bytes:
    writer = Writer()
    writer.packed(1, smp.location_id)
    writer.packed(2, smp.value)
    for lbl in smp.label:
        writer.message(3, _serialize_label(lbl))
    return writer.getvalue()


def _parse_sample(data: bytes) -> pprof_pb.Sample:
    msg = pprof_pb.Sample()
    for num, wtype, value in iter_fields(data):
        if num == 1:
            msg.location_id.extend(_repeated_int(value, wtype))
        elif num == 2:
            msg.value.extend(_repeated_int(value, wtype))
        elif num == 3:
            msg.label.append(_parse_label(_payload(value, wtype)))
    return msg


def _serialize_mapping(mp: pprof_pb.Mapping) -> bytes:
    return (Writer()
            .varint(1, mp.id).varint(2, mp.memory_start)
            .varint(3, mp.memory_limit).varint(4, mp.file_offset)
            .varint(5, mp.filename).varint(6, mp.build_id)
            .varint(7, int(mp.has_functions))
            .varint(8, int(mp.has_filenames))
            .varint(9, int(mp.has_line_numbers))
            .varint(10, int(mp.has_inline_frames)).getvalue())


def _parse_mapping(data: bytes) -> pprof_pb.Mapping:
    msg = pprof_pb.Mapping()
    for num, wtype, value in iter_fields(data):
        if num == 1:
            msg.id = _as_int64(value)
        elif num == 2:
            msg.memory_start = _as_int64(value)
        elif num == 3:
            msg.memory_limit = _as_int64(value)
        elif num == 4:
            msg.file_offset = _as_int64(value)
        elif num == 5:
            msg.filename = _as_int64(value)
        elif num == 6:
            msg.build_id = _as_int64(value)
        elif num == 7:
            msg.has_functions = bool(_scalar(value))
        elif num == 8:
            msg.has_filenames = bool(_scalar(value))
        elif num == 9:
            msg.has_line_numbers = bool(_scalar(value))
        elif num == 10:
            msg.has_inline_frames = bool(_scalar(value))
    return msg


def _serialize_line(ln: pprof_pb.Line) -> bytes:
    return (Writer().varint(1, ln.function_id).varint(2, ln.line).getvalue())


def _parse_line(data: bytes) -> pprof_pb.Line:
    msg = pprof_pb.Line()
    for num, wtype, value in iter_fields(data):
        if num == 1:
            msg.function_id = _as_int64(value)
        elif num == 2:
            msg.line = _as_int64(value)
    return msg


def _serialize_location(loc: pprof_pb.Location) -> bytes:
    writer = (Writer().varint(1, loc.id).varint(2, loc.mapping_id)
              .varint(3, loc.address))
    for ln in loc.line:
        writer.message(4, _serialize_line(ln))
    writer.varint(5, int(loc.is_folded))
    return writer.getvalue()


def _parse_location(data: bytes) -> pprof_pb.Location:
    msg = pprof_pb.Location()
    for num, wtype, value in iter_fields(data):
        if num == 1:
            msg.id = _as_int64(value)
        elif num == 2:
            msg.mapping_id = _as_int64(value)
        elif num == 3:
            msg.address = _as_int64(value)
        elif num == 4:
            msg.line.append(_parse_line(_payload(value, wtype)))
        elif num == 5:
            msg.is_folded = bool(_scalar(value))
    return msg


def _serialize_function(fn: pprof_pb.Function) -> bytes:
    return (Writer()
            .varint(1, fn.id).varint(2, fn.name).varint(3, fn.system_name)
            .varint(4, fn.filename).varint(5, fn.start_line).getvalue())


def _parse_function(data: bytes) -> pprof_pb.Function:
    msg = pprof_pb.Function()
    for num, wtype, value in iter_fields(data):
        if num == 1:
            msg.id = _as_int64(value)
        elif num == 2:
            msg.name = _as_int64(value)
        elif num == 3:
            msg.system_name = _as_int64(value)
        elif num == 4:
            msg.filename = _as_int64(value)
        elif num == 5:
            msg.start_line = _as_int64(value)
    return msg


def serialize_pprof(profile: pprof_pb.Profile) -> bytes:
    """Serialize a pprof profile exactly as the original codec did."""
    writer = Writer()
    for vt in profile.sample_type:
        writer.message(1, _serialize_value_type(vt))
    for smp in profile.sample:
        writer.message(2, _serialize_sample(smp))
    for mp in profile.mapping:
        writer.message(3, _serialize_mapping(mp))
    for loc in profile.location:
        writer.message(4, _serialize_location(loc))
    for fn in profile.function:
        writer.message(5, _serialize_function(fn))
    for s in profile.string_table:
        writer.message(6, s.encode("utf-8"))
    writer.varint(7, profile.drop_frames)
    writer.varint(8, profile.keep_frames)
    writer.varint(9, profile.time_nanos)
    writer.varint(10, profile.duration_nanos)
    if profile.period_type.type or profile.period_type.unit:
        writer.message(11, _serialize_value_type(profile.period_type))
    writer.varint(12, profile.period)
    writer.packed(13, profile.comment)
    writer.varint(14, profile.default_sample_type)
    return writer.getvalue()


def parse_pprof(data: bytes) -> pprof_pb.Profile:
    """Parse a raw (uncompressed) pprof payload with the original codec."""
    msg = pprof_pb.Profile(string_table=[])
    for num, wtype, value in iter_fields(bytes(data)):
        if num == 1:
            msg.sample_type.append(_parse_value_type(_payload(value, wtype)))
        elif num == 2:
            msg.sample.append(_parse_sample(_payload(value, wtype)))
        elif num == 3:
            msg.mapping.append(_parse_mapping(_payload(value, wtype)))
        elif num == 4:
            msg.location.append(_parse_location(_payload(value, wtype)))
        elif num == 5:
            msg.function.append(_parse_function(_payload(value, wtype)))
        elif num == 6:
            msg.string_table.append(_payload(value, wtype).decode("utf-8"))
        elif num == 7:
            msg.drop_frames = _as_int64(value)
        elif num == 8:
            msg.keep_frames = _as_int64(value)
        elif num == 9:
            msg.time_nanos = _as_int64(value)
        elif num == 10:
            msg.duration_nanos = _as_int64(value)
        elif num == 11:
            msg.period_type = _parse_value_type(_payload(value, wtype))
        elif num == 12:
            msg.period = _as_int64(value)
        elif num == 13:
            msg.comment.extend(_repeated_int(value, wtype))
        elif num == 14:
            msg.default_sample_type = _as_int64(value)
    if not msg.string_table:
        msg.string_table = [""]
    return msg


# --------------------------------------------------------------------------
# EasyView profile schema (original message codec)
# --------------------------------------------------------------------------

def _serialize_metric_descriptor(md: easyview_pb.MetricDescriptor) -> bytes:
    return (Writer().varint(1, md.name).varint(2, md.unit)
            .varint(3, md.description).varint(4, md.aggregation).getvalue())


def _parse_metric_descriptor(data: bytes) -> easyview_pb.MetricDescriptor:
    msg = easyview_pb.MetricDescriptor()
    for num, wtype, value in iter_fields(data):
        if num == 1:
            msg.name = _scalar(value)
        elif num == 2:
            msg.unit = _scalar(value)
        elif num == 3:
            msg.description = _scalar(value)
        elif num == 4:
            msg.aggregation = _scalar(value)
    return msg


def _serialize_context_node(node: easyview_pb.ContextNode) -> bytes:
    return (Writer()
            .varint(1, node.id).varint(2, node.parent_id)
            .varint(3, node.kind).varint(4, node.name)
            .varint(5, node.file).varint(6, node.line)
            .varint(7, node.module).varint(8, node.address).getvalue())


def _parse_context_node(data: bytes) -> easyview_pb.ContextNode:
    msg = easyview_pb.ContextNode(kind=easyview_pb.CONTEXT_ROOT)
    for num, wtype, value in iter_fields(data):
        if num == 1:
            msg.id = _scalar(value)
        elif num == 2:
            msg.parent_id = _scalar(value)
        elif num == 3:
            msg.kind = _scalar(value)
        elif num == 4:
            msg.name = _scalar(value)
        elif num == 5:
            msg.file = _scalar(value)
        elif num == 6:
            msg.line = _scalar(value)
        elif num == 7:
            msg.module = _scalar(value)
        elif num == 8:
            msg.address = _scalar(value)
    return msg


def _serialize_metric_value(mv: easyview_pb.MetricValue) -> bytes:
    return (Writer().varint(1, mv.metric_id).double(2, mv.value).getvalue())


def _parse_metric_value(data: bytes) -> easyview_pb.MetricValue:
    msg = easyview_pb.MetricValue()
    for num, wtype, value in iter_fields(data):
        if num == 1:
            msg.metric_id = _scalar(value)
        elif num == 2:
            if wtype != WIRETYPE_FIXED64:
                raise WireError("MetricValue.value must be a double")
            msg.value = struct.unpack("<d", struct.pack("<Q", value))[0]
    return msg


def _serialize_point(point: easyview_pb.MonitoringPoint) -> bytes:
    writer = Writer()
    writer.packed(1, point.context_id)
    for mv in point.values:
        writer.message(2, _serialize_metric_value(mv))
    writer.varint(3, point.kind)
    writer.varint(4, point.sequence)
    return writer.getvalue()


def _parse_point(data: bytes) -> easyview_pb.MonitoringPoint:
    msg = easyview_pb.MonitoringPoint()
    for num, wtype, value in iter_fields(data):
        if num == 1:
            if wtype == WIRETYPE_LENGTH_DELIMITED:
                msg.context_id.extend(decode_packed_varints(value))
            else:
                msg.context_id.append(value)
        elif num == 2:
            msg.values.append(_parse_metric_value(_payload(value, wtype)))
        elif num == 3:
            msg.kind = _scalar(value)
        elif num == 4:
            msg.sequence = _scalar(value)
    return msg


def serialize_easyview(message: easyview_pb.ProfileMessage) -> bytes:
    """Serialize an EasyView message exactly as the original codec did."""
    writer = Writer()
    writer.varint(1, message.tool)
    for s in message.string_table:
        writer.message(2, s.encode("utf-8"))
    for md in message.metrics:
        writer.message(3, _serialize_metric_descriptor(md))
    for node in message.nodes:
        writer.message(4, _serialize_context_node(node))
    for point in message.points:
        writer.message(5, _serialize_point(point))
    writer.varint(6, message.time_nanos)
    writer.varint(7, message.duration_nanos)
    return writer.getvalue()


def parse_easyview(data: bytes) -> easyview_pb.ProfileMessage:
    """Parse an EasyView message body with the original codec."""
    msg = easyview_pb.ProfileMessage(string_table=[])
    for num, wtype, value in iter_fields(bytes(data)):
        if num == 1:
            msg.tool = _scalar(value)
        elif num == 2:
            msg.string_table.append(_payload(value, wtype).decode("utf-8"))
        elif num == 3:
            msg.metrics.append(
                _parse_metric_descriptor(_payload(value, wtype)))
        elif num == 4:
            msg.nodes.append(_parse_context_node(_payload(value, wtype)))
        elif num == 5:
            msg.points.append(_parse_point(_payload(value, wtype)))
        elif num == 6:
            msg.time_nanos = _scalar(value)
        elif num == 7:
            msg.duration_nanos = _scalar(value)
    if not msg.string_table:
        msg.string_table = [""]
    return msg


# --------------------------------------------------------------------------
# ProfStore encodings (original WAL payload and segment footer)
# --------------------------------------------------------------------------

def wal_payload(record) -> bytes:
    """Encode a :class:`repro.store.wal.WalRecord` payload (original form)."""
    writer = Writer()
    writer.string(1, record.service)
    writer.string(2, record.ptype)
    writer.string(3, json.dumps(record.labels, sort_keys=True)
                  if record.labels else "")
    writer.varint(4, record.time_nanos)
    writer.varint(5, record.duration_nanos)
    writer.bytes(6, record.blob)
    writer.varint(7, record.seq)
    return writer.getvalue()


def record_meta_bytes(meta) -> bytes:
    """Encode a :class:`repro.store.segment.RecordMeta` (original form)."""
    writer = Writer()
    writer.string(1, meta.service)
    writer.string(2, meta.ptype)
    writer.string(3, json.dumps(meta.labels, sort_keys=True)
                  if meta.labels else "")
    writer.varint(4, meta.time_nanos)
    writer.varint(5, meta.duration_nanos)
    writer.varint(6, meta.offset)
    writer.varint(7, meta.length)
    writer.varint(8, meta.seq)
    return writer.getvalue()


def segment_footer(strings: List[str], records, created_nanos: int) -> bytes:
    """Encode a segment footer (original form)."""
    writer = Writer()
    for text in strings:
        writer.message(1, text.encode("utf-8"))
    for meta in records:
        writer.message(2, record_meta_bytes(meta))
    writer.varint(3, created_nanos)
    return writer.getvalue()
