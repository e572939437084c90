"""Every decoder checks each field's wire type where it reads the field.

A number sent where a string or message belongs, or a length-delimited
payload where a number belongs, must fail as a typed error: before these
checks a varint string-table entry became ``bytes(n)`` (memory grows
with the number, not with the input), a length-delimited ``b"42"`` read
as the number 42, and other shapes leaked ``TypeError``/``ValueError``.
"""

from __future__ import annotations

import dataclasses
import random
import struct
import tracemalloc
import zlib

import pytest

from repro.converters import pprof
from repro.core import serialize
from repro.errors import EasyViewError, FormatError, StoreError
from repro.profilers.corpus import generate_bytes, tier
from repro.proto import easyview_pb, pprof_pb
from repro.proto.fastwire import WireError, Writer, encode_varint
from repro.store.segment import (SEGMENT_MAGIC, RecordMeta, Segment,
                                 build_segment, load_profile, parse_segment)
from repro.store.wal import _HEADER, RECORD_MAGIC, WalRecord, scan


def _ezvw(body: bytes) -> bytes:
    """Frame a ProfileMessage body as an ``.ezvw`` file."""
    return (easyview_pb.FORMAT_MAGIC + bytes([easyview_pb.FORMAT_VERSION])
            + encode_varint(len(body)) + body)


def _profile_body(node: bytes, strings=(b"", b"main")) -> bytes:
    """A root, one function node given as raw bytes, and a string table."""
    writer = Writer()
    for text in strings:
        writer.message(2, text)
    writer.message(4, b"")  # the root: every field at its default
    writer.message(4, node)
    return writer.getvalue()


def _node(extra: Writer = None) -> bytes:
    """ContextNode id 1 under the root, named string 1, then ``extra``."""
    node = (Writer().varint(1, 1).varint(3, easyview_pb.CONTEXT_FUNCTION)
            .varint(4, 1).getvalue())
    return node + (extra.getvalue() if extra is not None else b"")


def _load_node(extra: Writer):
    """``serialize.loads`` of a profile whose one node carries ``extra``."""
    return serialize.loads(_ezvw(_profile_body(_node(extra))))


class TestEasyView:
    def test_well_formed_node_loads(self):
        profile = _load_node(Writer().varint(6, 42))
        (main,) = profile.root.children.values()
        assert (main.frame.name, main.frame.line) == ("main", 42)

    def test_delimited_line_is_not_parsed_as_digits(self):
        with pytest.raises(FormatError):
            _load_node(Writer().bytes(6, b"42"))

    @pytest.mark.parametrize("payload", [b"x", b"", b"\xff"])
    def test_delimited_scalar_raises_format_error(self, payload):
        with pytest.raises(FormatError):
            _load_node(Writer(emit_defaults=True).bytes(8, payload))

    def test_varint_where_node_message_belongs(self):
        body = Writer().message(2, b"").varint(4, 5).getvalue()
        with pytest.raises(FormatError):
            serialize.loads(_ezvw(body))

    def test_varint_string_table_entry(self):
        body = Writer().varint(2, 1 << 26).getvalue()
        with pytest.raises(WireError):
            easyview_pb.loads(_ezvw(body))

    def test_invalid_utf8_string_is_format_error(self):
        body = _profile_body(_node(), strings=(b"", b"\xff\xfe"))
        with pytest.raises(FormatError):
            serialize.loads(_ezvw(body))

    def test_unknown_aggregation_is_format_error(self):
        descriptor = Writer().varint(1, 1).varint(4, 9).getvalue()
        body = _profile_body(_node()) + Writer().message(3, descriptor) \
            .getvalue()
        with pytest.raises(FormatError):
            serialize.loads(_ezvw(body))

    def test_address_stays_unsigned(self):
        address = (1 << 64) - 16
        profile = _load_node(Writer().varint(8, address))
        (main,) = profile.root.children.values()
        assert main.frame.address == address


def _pprof_with_varint_string(value: int) -> bytes:
    """A pprof message whose only string-table entry is a varint."""
    return Writer().varint(6, value).getvalue()


class TestPprof:
    def test_varint_string_entry_fails_in_bounded_memory(self):
        raw = _pprof_with_varint_string(1 << 26)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                pprof.parse(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak

    @pytest.mark.parametrize("raw", [
        Writer().varint(2, 3).getvalue(),            # sample as a number
        Writer().varint(4, 3).getvalue(),            # location as a number
        Writer().message(4, Writer().varint(4, 7)    # line as a number
                         .getvalue()).getvalue(),
        Writer().message(4, Writer().bytes(5, b"\x01")  # bool as bytes
                         .getvalue()).getvalue(),
        Writer().message(3, Writer().bytes(7, b"\x01")  # mapping bool
                         .getvalue()).getvalue(),
        Writer().message(2, Writer().varint(3, 1)    # label as a number
                         .getvalue()).getvalue(),
        Writer().bytes(9, b"1700").getvalue(),       # time as bytes
    ])
    def test_wrong_wire_type_is_format_error(self, raw):
        with pytest.raises(WireError):
            pprof_pb.Profile.parse(raw)
        with pytest.raises(FormatError):
            pprof.parse(raw)


def _segment_bytes(record_meta: bytes, blob: bytes = b"") -> bytes:
    footer = Writer().message(1, b"").message(2, record_meta).getvalue()
    return (SEGMENT_MAGIC + blob + footer + struct.pack("<Q", len(footer))
            + b"EZSEGEND")


class TestStore:
    def test_segment_offset_as_bytes_is_store_error(self):
        meta = Writer().string(1, "api").bytes(6, b"0").getvalue()
        with pytest.raises(StoreError):
            parse_segment(_segment_bytes(meta))

    def test_segment_string_as_varint_is_store_error(self):
        meta = Writer().varint(1, 1 << 26).getvalue()
        with pytest.raises(StoreError):
            parse_segment(_segment_bytes(meta))

    def test_segment_record_with_invalid_utf8_is_store_error(self, tmp_path):
        blob = Writer().message(2, b"\xff\xfe").getvalue()
        path = tmp_path / "bad.seg"
        path.write_bytes(SEGMENT_MAGIC + blob)
        segment = Segment(address="", path=str(path), strings=[""],
                          records=[])
        meta = RecordMeta(offset=0, length=len(blob), seq=1)
        with pytest.raises(StoreError):
            load_profile(segment, meta)

    def test_good_segment_still_loads(self, simple_profile):
        record = WalRecord(service="api", blob=serialize.dumps(
            simple_profile), seq=1)
        data, _ = build_segment([record])
        assert parse_segment(data).records[0].seq == 1

    def test_wal_seq_as_bytes_ends_the_log(self):
        good = WalRecord(service="api", blob=b"x", seq=1).encode()
        payload = Writer().string(1, "api").bytes(7, b"2").getvalue()
        bad = _HEADER.pack(RECORD_MAGIC, len(payload),
                           zlib.crc32(payload)) + payload
        records, valid = scan(good + bad)
        assert [r.seq for r in records] == [1]
        assert valid == len(good)


# -- seeded mutation loops --------------------------------------------------

_SMALL = dataclasses.replace(tier("small"), name="mutation", functions=60,
                             samples=200, max_depth=12)


def _mutants(data: bytes, count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        mutant = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            mutant[rng.randrange(len(mutant))] = rng.randrange(256)
        yield bytes(mutant)


def _escapes(parse, data: bytes) -> list:
    escaped = []
    for mutant in _mutants(data, 300, seed=17):
        try:
            parse(mutant)
        except EasyViewError:
            pass
        except Exception as exc:  # noqa: BLE001 - the point of the test
            escaped.append("%s: %s" % (type(exc).__name__, exc))
    return escaped


def test_ezvw_mutations_raise_only_easyview_errors():
    raw = generate_bytes(_SMALL, compress=False)
    data = serialize.dumps(pprof.parse(raw))
    assert _escapes(serialize.loads, data) == []


def test_pprof_mutations_raise_only_easyview_errors():
    raw = generate_bytes(_SMALL, compress=False)
    assert _escapes(pprof.parse, raw) == []
