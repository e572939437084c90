"""Hand-written implementation of pprof's ``profile.proto`` messages.

The message and field layout follows the canonical schema from
https://github.com/google/pprof/blob/main/proto/profile.proto, so byte
streams produced by Go's ``runtime/pprof``, ``net/http/pprof``, Google Cloud
Profiler, and ``perf``'s pprof converter all parse with this module.

Repeated scalar fields are encoded *packed* (the proto3 default) but both
packed and unpacked encodings are accepted on decode, like real protobuf
runtimes.  Profiles are conventionally gzip-compressed on disk; the
:func:`loads`/:func:`dumps` helpers handle both raw and gzipped framing.

Decode and encode run on the :mod:`repro.proto.fastwire` kernels: parsing
streams zero-copy ``memoryview`` slices (sample id/value lists go through
the bulk packed decoder, string-table entries through the shared intern
pool), and serialization writes every nested message in one pass into a
single buffer.  Output is byte-identical to the original codec, preserved
as :mod:`repro.proto.reference` and asserted equal in the codec tests.
"""

from __future__ import annotations

import gzip
import zlib
from dataclasses import dataclass, field
from typing import List

from ..core.gcguard import no_gc
from ..errors import OversizedError
from ..obs import get_registry, get_tracer
from .fastwire import (_UNPACK_FIXED32, _UNPACK_FIXED64,
                       WIRETYPE_LENGTH_DELIMITED, Buffer,
                       PackedInt64Batch, WireError, Writer, as_view,
                       decode_packed_int64s, decode_packed_samples,
                       delimited, intern_string, scalar, scan_fields)

GZIP_MAGIC = b"\x1f\x8b"

_tracer = get_tracer()
_registry = get_registry()
_parse_calls = _registry.counter(
    "codec.pprof.parse_calls", "pprof messages parsed via fastwire")
_parse_bytes = _registry.counter(
    "codec.pprof.parse_bytes", "raw pprof bytes decoded via fastwire")
_serialize_calls = _registry.counter(
    "codec.pprof.serialize_calls", "pprof messages serialized via fastwire")
_serialize_bytes = _registry.counter(
    "codec.pprof.serialize_bytes", "pprof bytes encoded via fastwire")

_INT64_SIGN = 1 << 63
_TWO_TO_64 = 1 << 64
_UINT64_MASK = (1 << 64) - 1


@dataclass
class ValueType:
    """A (metric type, unit) pair, both as string-table indices."""

    type: int = 0
    unit: int = 0

    def _fields(self, writer: Writer) -> None:
        writer.varint(1, self.type).varint(2, self.unit)

    def serialize(self) -> bytes:
        writer = Writer()
        self._fields(writer)
        return writer.getvalue()

    @classmethod
    def parse(cls, data: Buffer) -> "ValueType":
        msg = cls()
        for num, wtype, value in scan_fields(data):
            if num == 1:
                msg.type = _as_int64(wtype, value)
            elif num == 2:
                msg.unit = _as_int64(wtype, value)
        return msg


@dataclass
class Label:
    """A key/value annotation attached to a sample."""

    key: int = 0
    str: int = 0
    num: int = 0
    num_unit: int = 0

    def _fields(self, writer: Writer) -> None:
        (writer.varint(1, self.key).varint(2, self.str)
         .varint(3, self.num).varint(4, self.num_unit))

    def serialize(self) -> bytes:
        writer = Writer()
        self._fields(writer)
        return writer.getvalue()

    @classmethod
    def parse(cls, data: Buffer) -> "Label":
        msg = cls()
        for num, wtype, value in scan_fields(data):
            if num == 1:
                msg.key = _as_int64(wtype, value)
            elif num == 2:
                msg.str = _as_int64(wtype, value)
            elif num == 3:
                msg.num = _as_int64(wtype, value)
            elif num == 4:
                msg.num_unit = _as_int64(wtype, value)
        return msg


@dataclass
class Sample:
    """One monitoring point: a call stack (leaf first) plus metric values."""

    location_id: List[int] = field(default_factory=list)
    value: List[int] = field(default_factory=list)
    label: List[Label] = field(default_factory=list)

    def _fields(self, writer: Writer) -> None:
        writer.packed(1, self.location_id)
        writer.packed(2, self.value)
        for lbl in self.label:
            mark = writer.begin_message(3)
            lbl._fields(writer)
            writer.end_message(mark)

    def serialize(self) -> bytes:
        writer = Writer()
        self._fields(writer)
        return writer.getvalue()

    @classmethod
    def parse(cls, data: Buffer) -> "Sample":
        msg = cls()
        for num, wtype, value in scan_fields(data):
            if num == 1:
                if wtype == WIRETYPE_LENGTH_DELIMITED:
                    msg.location_id.extend(decode_packed_int64s(value))
                else:
                    msg.location_id.append(_as_int64(wtype, value))
            elif num == 2:
                if wtype == WIRETYPE_LENGTH_DELIMITED:
                    msg.value.extend(decode_packed_int64s(value))
                else:
                    msg.value.append(_as_int64(wtype, value))
            elif num == 3:
                msg.label.append(Label.parse(delimited(wtype, value)))
        return msg

    @classmethod
    def _parse_deferred(cls, data: "memoryview",
                        batch: PackedInt64Batch) -> "Sample":
        """Like :meth:`parse`, but packed runs decode via the batch.

        ``Profile.parse`` registers every sample's id/value payloads with
        one :class:`PackedInt64Batch` and flushes it once at the end —
        one vectorized pass instead of two small decodes per sample.

        This is the single hottest loop in the repo (one call per sample,
        a hundred thousand calls per large profile), so the field scan is
        fully inlined rather than driven by ``scan_fields``: no generator
        frame per sample, no function call per packed run.  Error
        behavior is byte-for-byte the reference codec's, enforced by the
        every-offset truncation and fuzz tests in
        ``tests/test_proto_fastwire.py``.
        """
        msg = cls.__new__(cls)
        location_id = msg.location_id = []
        value_list = msg.value = []
        labels = msg.label = []
        payloads = batch._payloads
        targets = batch._targets
        buf = data
        pos = 0
        end = len(buf)
        # -- shape fast path ----------------------------------------------
        # Nearly every real sample is exactly two packed runs — field 1
        # (location ids) then field 2 (values), both under 128 bytes, with
        # no labels and nothing trailing.  Recognize that layout up front
        # and skip the general scan: every bound is checked before any
        # read, so a non-matching or malformed buffer just falls through.
        if end > 1 and buf[0] == 0x0A:
            length = buf[1]
            p1_stop = 2 + length
            if length < 0x80 and p1_stop + 1 < end and buf[p1_stop] == 0x12:
                l2 = buf[p1_stop + 1]
                p2_start = p1_stop + 2
                if l2 < 0x80 and p2_start + l2 == end:
                    if length:
                        payloads.append(buf[2:p1_stop])
                        targets.append(location_id)
                    if l2:
                        payloads.append(buf[p2_start:end])
                        targets.append(value_list)
                    return msg
        while pos < end:
            # -- tag varint, inlined (fields 1-3 fit in one byte) ---------
            start = pos
            byte = buf[pos]
            pos += 1
            if byte < 0x80:
                key = byte
            else:
                key = byte & 0x7F
                shift = 7
                while True:
                    if pos >= end:
                        raise WireError(
                            "truncated varint at offset %d" % start)
                    byte = buf[pos]
                    pos += 1
                    key |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
                    if shift >= 70:
                        raise WireError(
                            "varint longer than 10 bytes at offset %d"
                            % start)
                key &= _UINT64_MASK
            field_number = key >> 3
            wire_type = key & 0x7
            if field_number == 0:
                raise WireError("field number 0 is reserved")

            if wire_type == 2:  # length-delimited
                start = pos
                if pos >= end:
                    raise WireError("truncated varint at offset %d" % start)
                byte = buf[pos]
                pos += 1
                if byte < 0x80:
                    length = byte
                else:
                    length = byte & 0x7F
                    shift = 7
                    while True:
                        if pos >= end:
                            raise WireError(
                                "truncated varint at offset %d" % start)
                        byte = buf[pos]
                        pos += 1
                        length |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                        if shift >= 70:
                            raise WireError(
                                "varint longer than 10 bytes at offset %d"
                                % start)
                    length &= _UINT64_MASK
                stop = pos + length
                if stop > end:
                    raise WireError(
                        "length-delimited field overruns buffer at "
                        "offset %d" % pos)
                if field_number == 1:
                    if length:
                        payloads.append(buf[pos:stop])
                        targets.append(location_id)
                elif field_number == 2:
                    if length:
                        payloads.append(buf[pos:stop])
                        targets.append(value_list)
                elif field_number == 3:
                    labels.append(Label.parse(buf[pos:stop]))
                pos = stop
            elif wire_type == 0:  # varint
                start = pos
                if pos >= end:
                    raise WireError("truncated varint at offset %d" % start)
                byte = buf[pos]
                pos += 1
                if byte < 0x80:
                    value = byte
                else:
                    value = byte & 0x7F
                    shift = 7
                    while True:
                        if pos >= end:
                            raise WireError(
                                "truncated varint at offset %d" % start)
                        byte = buf[pos]
                        pos += 1
                        value |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                        if shift >= 70:
                            raise WireError(
                                "varint longer than 10 bytes at offset %d"
                                % start)
                    value &= _UINT64_MASK
                if value >= _INT64_SIGN:
                    value -= _TWO_TO_64
                if field_number == 1:
                    batch.drain(location_id)  # keep wire order
                    location_id.append(value)
                elif field_number == 2:
                    batch.drain(value_list)
                    value_list.append(value)
                elif field_number == 3:
                    labels.append(Label.parse(delimited(wire_type, value)))
            elif wire_type == 1:  # fixed64
                if pos + 8 > end:
                    raise WireError("truncated fixed64 at offset %d" % pos)
                value = _UNPACK_FIXED64(buf, pos)[0]
                pos += 8
                if field_number == 1 or field_number == 2:
                    if value >= _INT64_SIGN:
                        value -= _TWO_TO_64
                    target = location_id if field_number == 1 else value_list
                    batch.drain(target)
                    target.append(value)
                elif field_number == 3:
                    labels.append(Label.parse(delimited(wire_type, value)))
            elif wire_type == 5:  # fixed32
                if pos + 4 > end:
                    raise WireError("truncated fixed32 at offset %d" % pos)
                value = _UNPACK_FIXED32(buf, pos)[0]
                pos += 4
                if field_number == 1 or field_number == 2:
                    target = location_id if field_number == 1 else value_list
                    batch.drain(target)
                    target.append(value)
                elif field_number == 3:
                    labels.append(Label.parse(delimited(wire_type, value)))
            else:
                raise WireError("unsupported wire type %d for field %d"
                                % (wire_type, field_number))
        return msg


@dataclass
class SampleBlock:
    """One profile's sample bodies, kept columnar instead of materialized.

    ``ok`` flags, per sample in wire order, whether the body matched the
    canonical two-packed-runs layout and was bulk-decoded; ``decoded`` is
    the int64 ndarray of every matched sample's location-id and value runs
    laid end to end, with ``offsets`` the cumulative value counts (leading
    zero, two entries per matched sample).  Non-matching bodies are parsed
    into ``irregular`` :class:`Sample` objects, wire order preserved.

    This is the zero-object handoff the columnar CCT builder consumes:
    for a typical profile not a single ``Sample`` is constructed.
    """

    ok: List[bool]
    decoded: "object"
    offsets: "object"
    irregular: List["Sample"] = field(default_factory=list)


@dataclass
class Mapping:
    """A loaded binary or shared object (load module)."""

    id: int = 0
    memory_start: int = 0
    memory_limit: int = 0
    file_offset: int = 0
    filename: int = 0
    build_id: int = 0
    has_functions: bool = False
    has_filenames: bool = False
    has_line_numbers: bool = False
    has_inline_frames: bool = False

    def _fields(self, writer: Writer) -> None:
        (writer.varint(1, self.id)
         .varint(2, self.memory_start)
         .varint(3, self.memory_limit)
         .varint(4, self.file_offset)
         .varint(5, self.filename)
         .varint(6, self.build_id)
         .varint(7, int(self.has_functions))
         .varint(8, int(self.has_filenames))
         .varint(9, int(self.has_line_numbers))
         .varint(10, int(self.has_inline_frames)))

    def serialize(self) -> bytes:
        writer = Writer()
        self._fields(writer)
        return writer.getvalue()

    @classmethod
    def parse(cls, data: Buffer) -> "Mapping":
        msg = cls()
        for num, wtype, value in scan_fields(data):
            if num == 1:
                msg.id = _as_int64(wtype, value)
            elif num == 2:
                msg.memory_start = _as_int64(wtype, value)
            elif num == 3:
                msg.memory_limit = _as_int64(wtype, value)
            elif num == 4:
                msg.file_offset = _as_int64(wtype, value)
            elif num == 5:
                msg.filename = _as_int64(wtype, value)
            elif num == 6:
                msg.build_id = _as_int64(wtype, value)
            elif num == 7:
                msg.has_functions = bool(scalar(wtype, value))
            elif num == 8:
                msg.has_filenames = bool(scalar(wtype, value))
            elif num == 9:
                msg.has_line_numbers = bool(scalar(wtype, value))
            elif num == 10:
                msg.has_inline_frames = bool(scalar(wtype, value))
        return msg


@dataclass
class Line:
    """A (function, line) pair within a location; supports inlining."""

    function_id: int = 0
    line: int = 0

    def _fields(self, writer: Writer) -> None:
        writer.varint(1, self.function_id).varint(2, self.line)

    def serialize(self) -> bytes:
        writer = Writer()
        self._fields(writer)
        return writer.getvalue()

    @classmethod
    def parse(cls, data: Buffer) -> "Line":
        vals = [0, 0, 0]
        _scan_int_fields(as_view(data), vals)
        msg = cls.__new__(cls)
        msg.function_id = vals[1]
        msg.line = vals[2]
        return msg


@dataclass
class Location:
    """An instruction address attributed to one or more source lines."""

    id: int = 0
    mapping_id: int = 0
    address: int = 0
    line: List[Line] = field(default_factory=list)
    is_folded: bool = False

    def _fields(self, writer: Writer) -> None:
        (writer.varint(1, self.id)
         .varint(2, self.mapping_id)
         .varint(3, self.address))
        for ln in self.line:
            mark = writer.begin_message(4)
            ln._fields(writer)
            writer.end_message(mark)
        writer.varint(5, int(self.is_folded))

    def serialize(self) -> bytes:
        writer = Writer()
        self._fields(writer)
        return writer.getvalue()

    @classmethod
    def parse(cls, data: Buffer) -> "Location":
        # Scalar fields ride the shared inlined scan; Line submessages and
        # the bool are picked out of the raw buffer here.  One Location
        # per stack frame makes this the third-hottest parse in the repo.
        msg = cls.__new__(cls)
        lines = msg.line = []
        msg.is_folded = False
        vals = [0, 0, 0, 0]
        buf = as_view(data)
        pos = 0
        end = len(buf)
        while pos < end:
            start = pos
            byte = buf[pos]
            pos += 1
            if byte < 0x80:
                key = byte
            else:
                key = byte & 0x7F
                shift = 7
                while True:
                    if pos >= end:
                        raise WireError(
                            "truncated varint at offset %d" % start)
                    byte = buf[pos]
                    pos += 1
                    key |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
                    if shift >= 70:
                        raise WireError(
                            "varint longer than 10 bytes at offset %d"
                            % start)
                key &= _UINT64_MASK
            num = key >> 3
            wtype = key & 0x7
            if num == 0:
                raise WireError("field number 0 is reserved")

            if wtype == 0:  # varint
                start = pos
                if pos >= end:
                    raise WireError("truncated varint at offset %d" % start)
                byte = buf[pos]
                pos += 1
                if byte < 0x80:
                    value = byte
                else:
                    value = byte & 0x7F
                    shift = 7
                    while True:
                        if pos >= end:
                            raise WireError(
                                "truncated varint at offset %d" % start)
                        byte = buf[pos]
                        pos += 1
                        value |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                        if shift >= 70:
                            raise WireError(
                                "varint longer than 10 bytes at offset %d"
                                % start)
                    value &= _UINT64_MASK
                if num < 4:
                    if value >= _INT64_SIGN:
                        value -= _TWO_TO_64
                    vals[num] = value
                elif num == 4:
                    lines.append(Line.parse(delimited(wtype, value)))
                elif num == 5:
                    msg.is_folded = bool(value)
            elif wtype == 2:  # length-delimited
                start = pos
                if pos >= end:
                    raise WireError("truncated varint at offset %d" % start)
                byte = buf[pos]
                pos += 1
                if byte < 0x80:
                    length = byte
                else:
                    length = byte & 0x7F
                    shift = 7
                    while True:
                        if pos >= end:
                            raise WireError(
                                "truncated varint at offset %d" % start)
                        byte = buf[pos]
                        pos += 1
                        length |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                        if shift >= 70:
                            raise WireError(
                                "varint longer than 10 bytes at offset %d"
                                % start)
                    length &= _UINT64_MASK
                stop = pos + length
                if stop > end:
                    raise WireError(
                        "length-delimited field overruns buffer at "
                        "offset %d" % pos)
                if num == 4:
                    lines.append(Line.parse(buf[pos:stop]))
                elif num <= 5:
                    raise WireError(
                        "expected numeric field, got length-delimited")
                pos = stop
            elif wtype == 1:  # fixed64
                if pos + 8 > end:
                    raise WireError("truncated fixed64 at offset %d" % pos)
                value = _UNPACK_FIXED64(buf, pos)[0]
                pos += 8
                if num < 4:
                    if value >= _INT64_SIGN:
                        value -= _TWO_TO_64
                    vals[num] = value
                elif num == 4:
                    lines.append(Line.parse(delimited(wtype, value)))
                elif num == 5:
                    msg.is_folded = bool(value)
            elif wtype == 5:  # fixed32
                if pos + 4 > end:
                    raise WireError("truncated fixed32 at offset %d" % pos)
                value = _UNPACK_FIXED32(buf, pos)[0]
                pos += 4
                if num < 4:
                    vals[num] = value
                elif num == 4:
                    lines.append(Line.parse(delimited(wtype, value)))
                elif num == 5:
                    msg.is_folded = bool(value)
            else:
                raise WireError("unsupported wire type %d for field %d"
                                % (wtype, num))
        msg.id = vals[1]
        msg.mapping_id = vals[2]
        msg.address = vals[3]
        return msg


@dataclass
class Function:
    """A source-level function with name and file attribution."""

    id: int = 0
    name: int = 0
    system_name: int = 0
    filename: int = 0
    start_line: int = 0

    def _fields(self, writer: Writer) -> None:
        (writer.varint(1, self.id)
         .varint(2, self.name)
         .varint(3, self.system_name)
         .varint(4, self.filename)
         .varint(5, self.start_line))

    def serialize(self) -> bytes:
        writer = Writer()
        self._fields(writer)
        return writer.getvalue()

    @classmethod
    def parse(cls, data: Buffer) -> "Function":
        vals = [0, 0, 0, 0, 0, 0]
        _scan_int_fields(as_view(data), vals)
        msg = cls.__new__(cls)
        msg.id = vals[1]
        msg.name = vals[2]
        msg.system_name = vals[3]
        msg.filename = vals[4]
        msg.start_line = vals[5]
        return msg


@dataclass
class Profile:
    """The top-level pprof profile message."""

    sample_type: List[ValueType] = field(default_factory=list)
    sample: List[Sample] = field(default_factory=list)
    mapping: List[Mapping] = field(default_factory=list)
    location: List[Location] = field(default_factory=list)
    function: List[Function] = field(default_factory=list)
    string_table: List[str] = field(default_factory=lambda: [""])
    drop_frames: int = 0
    keep_frames: int = 0
    time_nanos: int = 0
    duration_nanos: int = 0
    period_type: ValueType = field(default_factory=ValueType)
    period: int = 0
    comment: List[int] = field(default_factory=list)
    default_sample_type: int = 0

    def serialize(self) -> bytes:
        writer = Writer()
        begin = writer.begin_message
        end = writer.end_message
        for vt in self.sample_type:
            mark = begin(1)
            vt._fields(writer)
            end(mark)
        for smp in self.sample:
            mark = begin(2)
            smp._fields(writer)
            end(mark)
        for mp in self.mapping:
            mark = begin(3)
            mp._fields(writer)
            end(mark)
        for loc in self.location:
            mark = begin(4)
            loc._fields(writer)
            end(mark)
        for fn in self.function:
            mark = begin(5)
            fn._fields(writer)
            end(mark)
        for s in self.string_table:
            # Index 0 must be "" and proto3 drops empty strings, so emit the
            # tag explicitly for every entry to keep indices stable.
            writer.message(6, s.encode("utf-8"))
        writer.varint(7, self.drop_frames)
        writer.varint(8, self.keep_frames)
        writer.varint(9, self.time_nanos)
        writer.varint(10, self.duration_nanos)
        if self.period_type.type or self.period_type.unit:
            mark = begin(11)
            self.period_type._fields(writer)
            end(mark)
        writer.varint(12, self.period)
        writer.packed(13, self.comment)
        writer.varint(14, self.default_sample_type)
        data = writer.getvalue()
        _serialize_calls.inc()
        _serialize_bytes.inc(len(data))
        return data

    @classmethod
    def parse(cls, data: Buffer) -> "Profile":
        """Decode a raw (non-gzipped) profile message.

        The top-level scan is fully inlined — no :func:`scan_fields`
        generator, no per-sample function call.  A hundred thousand
        samples means a hundred thousand top-level fields, so the sample
        shape fast path (two packed runs, no labels) lives directly in
        this loop; only irregular samples fall back to
        :meth:`Sample._parse_deferred`.  Error behavior matches the
        reference codec byte for byte (see the every-offset truncation
        test in ``tests/test_proto_fastwire.py``).
        """
        _parse_calls.inc()
        _parse_bytes.inc(len(data))
        # A large profile materializes hundreds of thousands of containers
        # in one burst; with the collector enabled, generation-0 sweeps
        # fire every ~700 allocations and rescan the ever-growing object
        # graph, costing more than the decode itself.  Nothing allocated
        # here is cyclic, so pause collection for the duration.
        with no_gc():
            return cls._parse_impl(data)

    @classmethod
    def parse_columnar(cls, data: Buffer):
        """Decode a raw profile, deferring sample bodies columnar-side.

        Returns ``(profile, block)``.  ``profile.sample`` is empty and the
        sample data lives in the :class:`SampleBlock`'s arrays; ``block``
        is ``None`` only for a profile without samples.  Error behavior
        is identical to :meth:`parse`.
        """
        _parse_calls.inc()
        _parse_bytes.inc(len(data))
        with no_gc():
            return cls._parse_impl(data, defer_samples=True)

    @classmethod
    def _parse_impl(cls, data: Buffer, defer_samples: bool = False):
        msg = cls(string_table=[])
        batch = PackedInt64Batch()
        sample_parse = Sample._parse_deferred
        sample_new = Sample.__new__
        sample_cls = Sample
        samples_append = msg.sample.append
        strings_append = msg.string_table.append
        spans: List[int] = []
        spans_append = spans.append
        buf = as_view(data)
        pos = 0
        end = len(buf)
        while pos < end:
            byte = buf[pos]
            pos += 1
            if byte == 0x12:
                # Sample field (2, length-delimited) — the tag on half the
                # top-level bytes of a real profile.  Record the body span
                # and move on; the bodies decode in bulk after the walk.
                start = pos
                if pos >= end:
                    raise WireError("truncated varint at offset %d" % start)
                length = buf[pos]
                pos += 1
                if length >= 0x80:
                    length &= 0x7F
                    shift = 7
                    while True:
                        if pos >= end:
                            raise WireError(
                                "truncated varint at offset %d" % start)
                        byte = buf[pos]
                        pos += 1
                        length |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                        if shift >= 70:
                            raise WireError(
                                "varint longer than 10 bytes at offset %d"
                                % start)
                    length &= _UINT64_MASK
                stop = pos + length
                if stop > end:
                    raise WireError(
                        "length-delimited field overruns buffer at "
                        "offset %d" % pos)
                spans_append(pos)
                spans_append(stop)
                pos = stop
                continue
            # -- tag varint, inlined --------------------------------------
            start = pos - 1
            if byte < 0x80:
                key = byte
            else:
                key = byte & 0x7F
                shift = 7
                while True:
                    if pos >= end:
                        raise WireError(
                            "truncated varint at offset %d" % start)
                    byte = buf[pos]
                    pos += 1
                    key |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
                    if shift >= 70:
                        raise WireError(
                            "varint longer than 10 bytes at offset %d"
                            % start)
                key &= _UINT64_MASK
            num = key >> 3
            wtype = key & 0x7
            if num == 0:
                raise WireError("field number 0 is reserved")

            if wtype == 2:  # length-delimited
                start = pos
                if pos >= end:
                    raise WireError("truncated varint at offset %d" % start)
                byte = buf[pos]
                pos += 1
                if byte < 0x80:
                    length = byte
                else:
                    length = byte & 0x7F
                    shift = 7
                    while True:
                        if pos >= end:
                            raise WireError(
                                "truncated varint at offset %d" % start)
                        byte = buf[pos]
                        pos += 1
                        length |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                        if shift >= 70:
                            raise WireError(
                                "varint longer than 10 bytes at offset %d"
                                % start)
                    length &= _UINT64_MASK
                stop = pos + length
                if stop > end:
                    raise WireError(
                        "length-delimited field overruns buffer at "
                        "offset %d" % pos)
                if num == 2:
                    # Non-canonical (multi-byte) sample tag: same deferred
                    # handling as the fused 0x12 case above.
                    spans_append(pos)
                    spans_append(stop)
                    pos = stop
                    continue
                if num == 6:
                    strings_append(intern_string(buf[pos:stop]))
                    pos = stop
                    continue
                value = buf[pos:stop]
                pos = stop
            elif wtype == 0:  # varint
                start = pos
                if pos >= end:
                    raise WireError("truncated varint at offset %d" % start)
                byte = buf[pos]
                pos += 1
                if byte < 0x80:
                    value = byte
                else:
                    value = byte & 0x7F
                    shift = 7
                    while True:
                        if pos >= end:
                            raise WireError(
                                "truncated varint at offset %d" % start)
                        byte = buf[pos]
                        pos += 1
                        value |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                        if shift >= 70:
                            raise WireError(
                                "varint longer than 10 bytes at offset %d"
                                % start)
                    value &= _UINT64_MASK
            elif wtype == 1:  # fixed64
                if pos + 8 > end:
                    raise WireError("truncated fixed64 at offset %d" % pos)
                value = _UNPACK_FIXED64(buf, pos)[0]
                pos += 8
            elif wtype == 5:  # fixed32
                if pos + 4 > end:
                    raise WireError("truncated fixed32 at offset %d" % pos)
                value = _UNPACK_FIXED32(buf, pos)[0]
                pos += 4
            else:
                raise WireError("unsupported wire type %d for field %d"
                                % (wtype, num))

            # -- non-delimited or rare fields -----------------------------
            if num == 2:
                samples_append(sample_parse(delimited(wtype, value), batch))
            elif num == 6:
                strings_append(intern_string(delimited(wtype, value)))
            elif num == 4:
                msg.location.append(Location.parse(delimited(wtype, value)))
            elif num == 5:
                msg.function.append(Function.parse(delimited(wtype, value)))
            elif num == 1:
                msg.sample_type.append(
                    ValueType.parse(delimited(wtype, value)))
            elif num == 3:
                msg.mapping.append(Mapping.parse(delimited(wtype, value)))
            elif num == 7:
                msg.drop_frames = _as_int64(wtype, value)
            elif num == 8:
                msg.keep_frames = _as_int64(wtype, value)
            elif num == 9:
                msg.time_nanos = _as_int64(wtype, value)
            elif num == 10:
                msg.duration_nanos = _as_int64(wtype, value)
            elif num == 11:
                msg.period_type = ValueType.parse(delimited(wtype, value))
            elif num == 12:
                msg.period = _as_int64(wtype, value)
            elif num == 13:
                msg.comment.extend(_repeated_int(value, wtype))
            elif num == 14:
                msg.default_sample_type = _as_int64(wtype, value)
        block = None
        if spans:
            bulk = decode_packed_samples(buf, spans, as_array=defer_samples)
            if bulk is None:
                # A canonical-looking run was malformed: scan every sample
                # sequentially, in wire order, so the first offender
                # raises the reference-identical error.
                for i in range(0, len(spans), 2):
                    samples_append(
                        sample_parse(buf[spans[i]:spans[i + 1]], batch))
            elif defer_samples:
                ok_list, decoded, offsets = bulk
                irregular: List[Sample] = []
                i = 0
                for matched in ok_list:
                    if not matched:
                        irregular.append(
                            sample_parse(buf[spans[i]:spans[i + 1]], batch))
                    i += 2
                block = SampleBlock(ok=ok_list, decoded=decoded,
                                    offsets=offsets, irregular=irregular)
            else:
                ok_list, decoded, offsets = bulk
                k = 0
                i = 0
                for matched in ok_list:
                    if matched:
                        smp = sample_new(sample_cls)
                        mid = offsets[k + 1]
                        smp.location_id = decoded[offsets[k]:mid]
                        smp.value = decoded[mid:offsets[k + 2]]
                        smp.label = []
                        k += 2
                        samples_append(smp)
                    else:
                        samples_append(
                            sample_parse(buf[spans[i]:spans[i + 1]], batch))
                    i += 2
        batch.flush()
        if not msg.string_table:
            msg.string_table = [""]
        if defer_samples:
            return msg, block
        return msg

    # -- convenience -----------------------------------------------------

    def string(self, index: int) -> str:
        """Resolve a string-table index, tolerating out-of-range indices."""
        if 0 <= index < len(self.string_table):
            return self.string_table[index]
        return ""


def _as_int64(wtype: int, value: object) -> int:
    """A numeric field's decoded value, sign-extended to ``int64``."""
    value = scalar(wtype, value)
    if value >= _INT64_SIGN:
        value -= _TWO_TO_64
    return value


def _scan_int_fields(buf: "memoryview", vals: List[int]) -> None:
    """Decode a message whose known fields are all scalar int64s.

    ``vals`` is indexed by field number (slot 0 unused); known fields are
    ``1 .. len(vals) - 1`` and land sign-extended in their slot, last
    occurrence winning.  Unknown higher-numbered fields are skipped.  The
    scan is inlined for the same reason as :meth:`Profile.parse` — Line
    and Function messages number in the tens of thousands per profile —
    and raises exactly where ``scan_fields`` + ``_as_int64`` would,
    including the numeric-field error for a length-delimited value on a
    known field.
    """
    known = len(vals)
    pos = 0
    end = len(buf)
    while pos < end:
        # -- tag varint, inlined ------------------------------------------
        start = pos
        byte = buf[pos]
        pos += 1
        if byte < 0x80:
            key = byte
        else:
            key = byte & 0x7F
            shift = 7
            while True:
                if pos >= end:
                    raise WireError("truncated varint at offset %d" % start)
                byte = buf[pos]
                pos += 1
                key |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
                if shift >= 70:
                    raise WireError(
                        "varint longer than 10 bytes at offset %d" % start)
            key &= _UINT64_MASK
        num = key >> 3
        wtype = key & 0x7
        if num == 0:
            raise WireError("field number 0 is reserved")

        if wtype == 0:  # varint
            start = pos
            if pos >= end:
                raise WireError("truncated varint at offset %d" % start)
            byte = buf[pos]
            pos += 1
            if byte < 0x80:
                value = byte
            else:
                value = byte & 0x7F
                shift = 7
                while True:
                    if pos >= end:
                        raise WireError(
                            "truncated varint at offset %d" % start)
                    byte = buf[pos]
                    pos += 1
                    value |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
                    if shift >= 70:
                        raise WireError(
                            "varint longer than 10 bytes at offset %d"
                            % start)
                value &= _UINT64_MASK
            if num < known:
                if value >= _INT64_SIGN:
                    value -= _TWO_TO_64
                vals[num] = value
        elif wtype == 2:  # length-delimited
            start = pos
            if pos >= end:
                raise WireError("truncated varint at offset %d" % start)
            byte = buf[pos]
            pos += 1
            if byte < 0x80:
                length = byte
            else:
                length = byte & 0x7F
                shift = 7
                while True:
                    if pos >= end:
                        raise WireError(
                            "truncated varint at offset %d" % start)
                    byte = buf[pos]
                    pos += 1
                    length |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
                    if shift >= 70:
                        raise WireError(
                            "varint longer than 10 bytes at offset %d"
                            % start)
                length &= _UINT64_MASK
            stop = pos + length
            if stop > end:
                raise WireError(
                    "length-delimited field overruns buffer at offset %d"
                    % pos)
            if num < known:
                raise WireError(
                    "expected numeric field, got length-delimited")
            pos = stop
        elif wtype == 1:  # fixed64
            if pos + 8 > end:
                raise WireError("truncated fixed64 at offset %d" % pos)
            if num < known:
                value = _UNPACK_FIXED64(buf, pos)[0]
                if value >= _INT64_SIGN:
                    value -= _TWO_TO_64
                vals[num] = value
            pos += 8
        elif wtype == 5:  # fixed32
            if pos + 4 > end:
                raise WireError("truncated fixed32 at offset %d" % pos)
            if num < known:
                vals[num] = _UNPACK_FIXED32(buf, pos)[0]
            pos += 4
        else:
            raise WireError("unsupported wire type %d for field %d"
                            % (wtype, num))


def _repeated_int(value: object, wtype: int) -> List[int]:
    """Decode a repeated int field that may be packed or unpacked."""
    if wtype == WIRETYPE_LENGTH_DELIMITED:
        return decode_packed_int64s(value)
    return [_as_int64(wtype, value)]


def dumps(profile: Profile, compress: bool = True) -> bytes:
    """Serialize a profile, gzip-compressed by default like pprof files."""
    with _tracer.span("codec.pprof.serialize", compress=compress):
        raw = profile.serialize()
        if compress:
            # mtime=0 keeps the gzip header free of the wall clock so
            # serializing the same profile twice yields identical bytes.
            return gzip.compress(raw, compresslevel=6, mtime=0)
        return raw


#: The most bytes a gzipped payload may inflate to: the top of the
#: paper's 1 MB → 1 GB profile range (Fig. 5).  Deflate reaches ~1000:1,
#: so a cap on the compressed size alone (the collector's body limit)
#: does not bound memory.
MAX_INFLATED_BYTES = 1 << 30


#: Output bytes per inflate step.  A step's buffer is copied once more
#: when it completes, so this (not the budget) bounds the extra memory a
#: refused payload costs on top of what it inflated to.
_INFLATE_STEP = 1 << 18


def gunzip(data: bytes) -> bytes:
    """``gzip.decompress`` that stops at :data:`MAX_INFLATED_BYTES`.

    Inflates member after member, as ``gzip.decompress`` does, in steps
    capped at what is left of the budget, and raises
    :class:`~repro.errors.OversizedError` once the output would pass it.
    Truncated or corrupt streams raise ``EOFError`` or ``zlib.error``.
    """
    budget = MAX_INFLATED_BYTES
    parts: List[bytes] = []
    size = 0
    while data:
        inflater = zlib.decompressobj(16 + zlib.MAX_WBITS)
        while not inflater.eof:
            want = min(_INFLATE_STEP, budget - size + 1)
            part = inflater.decompress(data, want)
            size += len(part)
            if size > budget:
                raise OversizedError(
                    "gzip payload inflates past %d bytes" % budget)
            parts.append(part)
            data = inflater.unconsumed_tail
            if len(part) < want and not inflater.eof:
                # Short of the cap, a step stops only when input runs out.
                raise EOFError("gzip payload ended before the "
                               "end-of-stream marker")
        # Members may follow, after optional zero padding.
        data = inflater.unused_data.lstrip(b"\x00")
    return b"".join(parts)


def loads(data: bytes) -> Profile:
    """Parse a pprof payload, transparently handling gzip framing."""
    with _tracer.span("codec.pprof.parse", bytes=len(data)):
        if data[:2] == GZIP_MAGIC:
            data = gunzip(data)
        return Profile.parse(data)


def loads_columnar(data: bytes):
    """Parse a pprof payload with sample bodies kept columnar.

    Returns ``(profile, block)`` as :meth:`Profile.parse_columnar`,
    transparently handling gzip framing.
    """
    with _tracer.span("codec.pprof.parse", bytes=len(data)):
        if data[:2] == GZIP_MAGIC:
            data = gunzip(data)
        return Profile.parse_columnar(data)
