"""The store's write-ahead log: durability between segment flushes.

Every ingested profile is appended here *before* it is acknowledged, so a
crash between ingest and segment flush loses nothing.  The format is a
flat sequence of self-delimiting records::

    RECORD := MAGIC(2, b"WR") | LENGTH(4, LE u32) | CRC32(4, LE u32) | PAYLOAD

``CRC32`` covers the payload only; ``LENGTH`` is the payload length.  The
payload itself is a small protobuf-style message (via the in-repo wire
codec) carrying the ingest metadata plus the profile serialized with
:mod:`repro.core.serialize`:

====== ========= ==============================================
field  type      meaning
====== ========= ==============================================
1      string    service name
2      string    profile type (``cpu``, ``heap``, ...)
3      string    labels as canonical JSON (sorted keys)
4      varint    wall-clock capture time (nanoseconds)
5      varint    capture duration (nanoseconds)
6      bytes     the profile, in EasyView binary format
7      varint    store-wide ingest sequence number
====== ========= ==============================================

**Crash recovery** (replay-on-open): records are scanned front to back;
the first record whose magic, length, or CRC does not check out marks the
torn tail, and the file is truncated back to the last fully-committed
record.  A record is *committed* iff every one of its bytes — trailing
CRC-checked payload included — made it to disk; the byte-level truncation
test in ``tests/test_store_wal.py`` exercises every prefix length.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import StoreError
from ..obs import get_registry, get_tracer
from ..proto.fastwire import (WireError, Writer, decode_string, delimited,
                              intern_string, scalar, scan_fields)

_tracer = get_tracer()
_registry = get_registry()
_records_decoded = _registry.counter(
    "codec.wal.records_decoded", "WAL records decoded via fastwire")
_records_encoded = _registry.counter(
    "codec.wal.records_encoded", "WAL records encoded via fastwire")

RECORD_MAGIC = b"WR"
_HEADER = struct.Struct("<2sII")  # magic, payload length, payload crc32

#: Refuse absurd lengths up front so a corrupt header cannot trigger a
#: multi-gigabyte allocation before the CRC check gets a chance to fail.
MAX_RECORD_BYTES = 1 << 31


def labels_json(labels: Dict[str, str]) -> str:
    """Labels as their canonical JSON (sorted keys; empty for none)."""
    return json.dumps(labels, sort_keys=True) if labels else ""


def parse_labels(text: str) -> Dict[str, str]:
    """Labels from their JSON form.

    Raises ``ValueError`` unless the text is a JSON object whose values
    are all strings: the index and the query language treat labels as
    string pairs, so a record carrying anything else is corrupt.
    """
    labels = json.loads(text) if text else {}
    if not isinstance(labels, dict) or not all(
            isinstance(value, str) for value in labels.values()):
        raise ValueError("labels must be a JSON object of strings")
    return labels


@dataclass
class WalRecord:
    """One ingested profile, as logged."""

    service: str = ""
    ptype: str = "cpu"
    labels: Dict[str, str] = field(default_factory=dict)
    time_nanos: int = 0
    duration_nanos: int = 0
    blob: bytes = b""
    seq: int = 0

    def payload(self) -> bytes:
        writer = Writer()
        writer.string(1, self.service)
        writer.string(2, self.ptype)
        writer.string(3, labels_json(self.labels))
        writer.varint(4, self.time_nanos)
        writer.varint(5, self.duration_nanos)
        writer.bytes(6, self.blob)
        writer.varint(7, self.seq)
        _records_encoded.inc()
        return writer.getvalue()

    @classmethod
    def from_payload(cls, payload: "bytes | memoryview") -> "WalRecord":
        record = cls()
        for num, wtype, value in scan_fields(payload):
            if num == 1:
                # Service/type names repeat across every record a service
                # logs; the shared intern pool makes each one ``str`` once.
                record.service = intern_string(delimited(wtype, value))
            elif num == 2:
                record.ptype = intern_string(delimited(wtype, value))
            elif num == 3:
                record.labels = parse_labels(
                    decode_string(delimited(wtype, value)))
            elif num == 4:
                record.time_nanos = scalar(wtype, value)
            elif num == 5:
                record.duration_nanos = scalar(wtype, value)
            elif num == 6:
                # The blob outlives the scan buffer, so this copy is real.
                record.blob = bytes(delimited(wtype, value))
            elif num == 7:
                record.seq = scalar(wtype, value)
        _records_decoded.inc()
        return record

    def encode(self) -> bytes:
        payload = self.payload()
        return _HEADER.pack(RECORD_MAGIC, len(payload),
                            zlib.crc32(payload)) + payload


def scan(data: bytes) -> Tuple[List[WalRecord], int]:
    """Decode every fully-committed record in ``data``.

    Returns ``(records, valid_length)`` where ``valid_length`` is the byte
    offset just past the last good record — everything after it is a torn
    tail (or garbage) to be truncated.  Never raises on corrupt input.
    """
    records: List[WalRecord] = []
    view = memoryview(data)  # one view; per-record payloads are subviews
    pos = 0
    size = len(data)
    while pos + _HEADER.size <= size:
        magic, length, crc = _HEADER.unpack_from(data, pos)
        if magic != RECORD_MAGIC or length > MAX_RECORD_BYTES:
            break
        start = pos + _HEADER.size
        end = start + length
        if end > size:
            break  # torn tail: payload not fully on disk
        payload = view[start:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            records.append(WalRecord.from_payload(payload))
        except (WireError, UnicodeDecodeError, ValueError, RecursionError):
            # ValueError: labels that are not a JSON object of strings;
            # RecursionError: labels JSON nested past the parser's limit.
            break
        pos = end
    return records, pos


class WriteAheadLog:
    """An append-only, CRC-checked log with replay-on-open recovery."""

    def __init__(self, path: str, fsync: bool = True) -> None:
        self.path = path
        self.fsync = fsync
        self.records: List[WalRecord] = []
        #: Bytes discarded from the tail during recovery (0 = clean open).
        self.recovered_torn_bytes = 0
        self._open()

    def _open(self) -> None:
        if os.path.exists(self.path):
            with open(self.path, "rb") as handle:
                data = handle.read()
            self.records, valid = scan(data)
            if valid != len(data):
                self.recovered_torn_bytes = len(data) - valid
                with open(self.path, "r+b") as handle:
                    handle.truncate(valid)
        self._handle = open(self.path, "ab")

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: WalRecord) -> WalRecord:
        """Durably append one record (flushed and fsynced before return)."""
        if self._handle.closed:
            raise StoreError("write-ahead log %s is closed" % self.path)
        with _tracer.span("store.wal.append", seq=record.seq,
                          bytes=len(record.blob), fsync=self.fsync):
            self._handle.write(record.encode())
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
        self.records.append(record)
        return record

    def reset(self) -> None:
        """Drop all records (called after they are flushed to a segment)."""
        self._handle.close()
        with open(self.path, "wb") as handle:
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        self.records = []
        self._handle = open(self.path, "ab")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
