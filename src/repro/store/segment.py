"""Content-addressed immutable segments: the store's at-rest format.

A segment is a batch of profiles flushed from the write-ahead log.  On
disk::

    FILE   := MAGIC(8, b"EZSEG001") | BODY | FOOTER | FOOTER_LEN(8, LE) | END(8, b"EZSEGEND")
    BODY   := profile blob *             (offsets in the footer)
    FOOTER := wire message               (string table + per-record metadata)

Each profile blob is the EasyView :class:`~repro.proto.easyview_pb.ProfileMessage`
with its *private string table stripped*: all string indices are remapped
into one segment-wide table carried by the footer, so a segment of 100
profiles from the same service stores each function name, file path, and
metric name once (per-segment string dedup).  The wire codec is the same
columnar one the profile format uses
(:class:`~repro.proto.easyview_pb.ProfileColumns`): a record's string
columns are remapped with one ``np.take`` each, and no profile is built.

Footer message fields::

    1 (repeated bytes)    string-table entries, UTF-8, index order
    2 (repeated message)  RecordMeta
    3 (varint)            segment creation time, nanoseconds

RecordMeta fields::

    1 string  service        5 varint  duration_nanos
    2 string  profile type   6 varint  body offset of the blob
    3 string  labels (JSON)  7 varint  blob length
    4 varint  time_nanos     8 varint  ingest sequence number

The **content address** is a 32-hex-char BLAKE2b digest over ``BODY +
FOOTER`` and doubles as the file name (``<address>.seg``).  Addresses make
segments immutable (any edit changes the name), flushes idempotent (re-
flushing the same WAL bytes produces the same file), and integrity checks
trivial (`easyview store stats` re-hashes and compares).

:func:`write_segment` streams: the magic, each record blob as it is
encoded, the footer and the trailer go into a temporary file and the
address hash one piece at a time, and the file is renamed to its address
at the end, so a flush holds one record's blob at a time, never the body.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from ..core.atomicio import atomic_write_stream
from ..core.profile import Profile
from ..core.strings import StringTable
from ..core import serialize
from ..errors import StoreError
from ..obs import get_registry, get_tracer
from ..proto import easyview_pb as pb
from ..proto.fastwire import (WireError, Writer, decode_string, delimited,
                              intern_string, scalar, scan_fields)
from .wal import WalRecord, labels_json, parse_labels

_tracer = get_tracer()
_registry = get_registry()
_segments_built = _registry.counter(
    "codec.segment.built", "segments composed via fastwire")
_footers_parsed = _registry.counter(
    "codec.segment.footers_parsed", "segment footers decoded via fastwire")

SEGMENT_MAGIC = b"EZSEG001"
SEGMENT_END = b"EZSEGEND"
SEGMENT_SUFFIX = ".seg"
_FOOTER_LEN = struct.Struct("<Q")

_ADDRESS_BYTES = 16  # 32 hex chars, matching repro.core.digest


@dataclass
class RecordMeta:
    """Footer metadata for one profile blob inside a segment."""

    service: str = ""
    ptype: str = "cpu"
    labels: Dict[str, str] = field(default_factory=dict)
    time_nanos: int = 0
    duration_nanos: int = 0
    offset: int = 0
    length: int = 0
    seq: int = 0

    def _fields(self, writer: Writer) -> None:
        writer.string(1, self.service)
        writer.string(2, self.ptype)
        writer.string(3, labels_json(self.labels))
        writer.varint(4, self.time_nanos)
        writer.varint(5, self.duration_nanos)
        writer.varint(6, self.offset)
        writer.varint(7, self.length)
        writer.varint(8, self.seq)

    def serialize(self) -> bytes:
        writer = Writer()
        self._fields(writer)
        return writer.getvalue()

    @classmethod
    def parse(cls, data: "bytes | memoryview") -> "RecordMeta":
        meta = cls()
        for num, wtype, value in scan_fields(data):
            if num == 1:
                meta.service = intern_string(delimited(wtype, value))
            elif num == 2:
                meta.ptype = intern_string(delimited(wtype, value))
            elif num == 3:
                meta.labels = parse_labels(
                    decode_string(delimited(wtype, value)))
            elif num == 4:
                meta.time_nanos = scalar(wtype, value)
            elif num == 5:
                meta.duration_nanos = scalar(wtype, value)
            elif num == 6:
                meta.offset = scalar(wtype, value)
            elif num == 7:
                meta.length = scalar(wtype, value)
            elif num == 8:
                meta.seq = scalar(wtype, value)
        return meta


@dataclass
class Segment:
    """One immutable segment: its address, strings, and record metadata."""

    address: str
    path: str
    strings: List[str]
    records: List[RecordMeta]
    created_nanos: int = 0
    size_bytes: int = 0


def _remap_strings(columns: pb.ProfileColumns, shared: StringTable) -> None:
    """Re-point every string index into the segment-wide table.

    Strings enter ``shared`` in the order the fields first reference them
    — the tool, each metric's name, unit and description, then each
    node's name, file and module — and an out-of-range index reads as
    the empty string, so the table comes out as a field-by-field remap
    would build it.
    """
    table = columns.string_table or [""]
    size = len(table)
    head = [columns.tool]
    for descriptor in columns.metrics:
        head += [descriptor.name, descriptor.unit, descriptor.description]
    nodes = columns.nodes
    uses = np.concatenate((np.array(head, dtype=np.uint64),
                           nodes[:, pb.NODE_STRING_COLUMNS].ravel()))
    uses = np.minimum(uses, size).astype(np.intp)  # ``size`` stands for ""
    used, first = np.unique(uses, return_index=True)
    lut = np.zeros(size + 1, dtype=np.uint64)
    for index in used[np.argsort(first)].tolist():
        lut[index] = shared.intern(table[index] if index < size else "")
    remapped = lut[uses[:len(head)]].tolist()
    columns.tool = remapped[0]
    for k, descriptor in enumerate(columns.metrics):
        (descriptor.name, descriptor.unit,
         descriptor.description) = remapped[1 + 3 * k:4 + 3 * k]
    node_uses = uses[len(head):].reshape(-1, len(pb.NODE_STRING_COLUMNS))
    for k, column in enumerate(pb.NODE_STRING_COLUMNS):
        nodes[:, column] = np.take(lut, node_uses[:, k])
    columns.string_table = []


def _footer_bytes(strings: List[str], records: List[RecordMeta],
                  created_nanos: int) -> bytes:
    writer = Writer()
    for text in strings:
        writer.message(1, text.encode("utf-8"))
    for meta in records:
        mark = writer.begin_message(2)
        meta._fields(writer)
        writer.end_message(mark)
    writer.varint(3, created_nanos)
    return writer.getvalue()


def _parse_footer(data: "bytes | memoryview") -> "Segment":
    strings: List[str] = []
    records: List[RecordMeta] = []
    created = 0
    for num, wtype, value in scan_fields(data):
        if num == 1:
            # Segment string tables are exactly what the shared intern pool
            # is for: every segment from a service repeats the same names.
            strings.append(intern_string(delimited(wtype, value)))
        elif num == 2:
            records.append(RecordMeta.parse(delimited(wtype, value)))
        elif num == 3:
            created = scalar(wtype, value)
    if not strings:
        strings = [""]
    _footers_parsed.inc()
    return Segment(address="", path="", strings=strings, records=records,
                   created_nanos=created)


def segment_address(body: bytes, footer: bytes) -> str:
    """The content address: BLAKE2b over body + footer."""
    h = hashlib.blake2b(digest_size=_ADDRESS_BYTES)
    h.update(body)
    h.update(footer)
    return h.hexdigest()


def _compose(wal_records: List[WalRecord], created_nanos: int,
             write: Callable[[bytes], object]) -> Segment:
    """Encode a segment from WAL records, handing the file to ``write``
    piece by piece, and return its metadata.

    The same WAL records always produce the same bytes — record order, the
    shared string table's intern order, and the footer encoding are all
    deterministic — so the content address is reproducible and a re-flush
    after a crash lands on the identical file.  Each record is decoded
    into columns, its strings remapped and its blob re-encoded on its
    own, and only that blob is alive while it is written.
    """
    if not wal_records:
        raise StoreError("cannot build a segment from zero records")
    _segments_built.inc()
    shared = StringTable()
    hasher = hashlib.blake2b(digest_size=_ADDRESS_BYTES)
    metas: List[RecordMeta] = []
    offset = 0
    write(SEGMENT_MAGIC)
    for record in wal_records:
        try:
            columns = pb.loads(record.blob)
        except (WireError, UnicodeDecodeError) as exc:
            raise StoreError("WAL record #%d does not parse: %s"
                             % (record.seq, exc)) from exc
        _remap_strings(columns, shared)
        blob = columns.serialize()
        write(blob)
        hasher.update(blob)
        metas.append(RecordMeta(service=record.service, ptype=record.ptype,
                                labels=dict(record.labels),
                                time_nanos=record.time_nanos,
                                duration_nanos=record.duration_nanos,
                                offset=offset, length=len(blob),
                                seq=record.seq))
        offset += len(blob)
    with _tracer.span("store.segment.encode_footer",
                      records=len(metas), strings=len(shared)):
        footer = _footer_bytes(shared.as_list(), metas, created_nanos)
    hasher.update(footer)
    write(footer)
    write(_FOOTER_LEN.pack(len(footer)) + SEGMENT_END)
    return Segment(address=hasher.hexdigest(), path="",
                   strings=shared.as_list(), records=metas,
                   created_nanos=created_nanos,
                   size_bytes=(len(SEGMENT_MAGIC) + offset + len(footer)
                               + _FOOTER_LEN.size + len(SEGMENT_END)))


def build_segment(wal_records: List[WalRecord],
                  created_nanos: int = 0) -> "tuple[bytes, Segment]":
    """Compose segment file bytes (and metadata) from WAL records: the
    bytes :func:`write_segment` streams to disk."""
    pieces: List[bytes] = []
    segment = _compose(wal_records, created_nanos, pieces.append)
    return b"".join(pieces), segment


def write_segment(directory: str, wal_records: List[WalRecord],
                  created_nanos: int = 0) -> Segment:
    """Flush WAL records to ``<directory>/<address>.seg`` atomically.

    The file is streamed into a temporary next to its destination and
    renamed once the address is known; on any failure no segment
    appears.
    """
    built: List[Segment] = []

    def produce(write: Callable[[bytes], object]) -> str:
        built.append(_compose(wal_records, created_nanos, write))
        return built[0].address + SEGMENT_SUFFIX

    path = atomic_write_stream(directory, produce, prefix="segment.")
    segment = built[0]
    segment.path = path
    return segment


def read_segment(path: str, verify: bool = False) -> Segment:
    """Open a segment file and parse its footer (body left on disk)."""
    with open(path, "rb") as handle:
        data = handle.read()
    return parse_segment(data, path, verify=verify)


def parse_segment(data: bytes, path: str = "",
                  verify: bool = False) -> Segment:
    """Parse segment bytes; with ``verify`` re-hash the content address."""
    if data[:len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
        raise StoreError("%s is not a segment (bad magic)" % (path or "<data>"))
    trailer_at = len(data) - len(SEGMENT_END)
    if trailer_at < 0 or data[trailer_at:] != SEGMENT_END:
        raise StoreError("segment %s is truncated (missing end marker)"
                         % (path or "<data>"))
    len_at = trailer_at - _FOOTER_LEN.size
    (footer_len,) = _FOOTER_LEN.unpack_from(data, len_at)
    footer_at = len_at - footer_len
    if footer_at < len(SEGMENT_MAGIC):
        raise StoreError("segment %s has an impossible footer length %d"
                         % (path or "<data>", footer_len))
    view = memoryview(data)  # footer/body stay zero-copy through parsing
    footer = view[footer_at:len_at]
    body = view[len(SEGMENT_MAGIC):footer_at]
    try:
        segment = _parse_footer(footer)
    except (WireError, UnicodeDecodeError, ValueError,
            RecursionError) as exc:  # labels JSON nested too deep
        raise StoreError("segment %s has a corrupt footer: %s"
                         % (path or "<data>", exc)) from exc
    segment.path = path
    segment.size_bytes = len(data)
    segment.address = segment_address(body, footer)
    if path:
        named = os.path.basename(path)
        if named.endswith(SEGMENT_SUFFIX):
            named = named[:-len(SEGMENT_SUFFIX)]
        if verify and named != segment.address:
            raise StoreError(
                "segment %s fails its integrity check: content hashes to "
                "%s" % (path, segment.address))
    for meta in segment.records:
        if meta.offset < 0 or meta.offset + meta.length > len(body):
            raise StoreError("segment %s record #%d overruns the body"
                             % (path or "<data>", meta.seq))
    return segment


def load_profile(segment: Segment, meta: RecordMeta) -> Profile:
    """Materialize one profile from a segment record.

    Reads only the record's byte range, reattaches the segment string
    table, and raises the columns into a :class:`Profile`.
    """
    with open(segment.path, "rb") as handle:
        handle.seek(len(SEGMENT_MAGIC) + meta.offset)
        blob = handle.read(meta.length)
    if len(blob) != meta.length:
        raise StoreError("segment %s record #%d is truncated"
                         % (segment.path, meta.seq))
    try:
        columns = pb.ProfileColumns.parse(blob)
    except (WireError, UnicodeDecodeError) as exc:
        raise StoreError("segment %s record #%d does not parse: %s"
                         % (segment.path, meta.seq, exc)) from exc
    columns.string_table = segment.strings
    profile = serialize.from_columns(columns)
    profile.meta.time_nanos = meta.time_nanos
    profile.meta.duration_nanos = meta.duration_nanos
    return profile


def to_wal_record(segment: Segment, meta: RecordMeta) -> WalRecord:
    """Re-log one segment record (used by compaction to rebuild batches)."""
    profile = load_profile(segment, meta)
    return WalRecord(service=meta.service, ptype=meta.ptype,
                     labels=dict(meta.labels), time_nanos=meta.time_nanos,
                     duration_nanos=meta.duration_nanos,
                     blob=serialize.dumps(profile), seq=meta.seq)
