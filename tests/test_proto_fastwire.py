"""Property/fuzz tests for the fastwire codec against the reference codec.

The reference module (:mod:`repro.proto.reference`) is the pre-fastwire
implementation preserved verbatim; every test here is differential: the
fast path must produce byte-identical encodes, equal decoded objects, and
the same :class:`WireError` at the same offset — on fixtures, on
hypothesis-generated messages, on varint boundary values, and on payloads
truncated at every byte offset.
"""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import ezvw_oracle
from repro.converters import pprof as pprof_conv
from repro.profilers.corpus import generate_bytes, tier
from repro.proto import easyview_pb, fastwire, pprof_pb, reference
from repro.proto.fastwire import WireError

# Varint boundary values: 2^(7k) ± 1 (the byte-length cliffs), the u64
# ceiling, sign-extended negatives.
BOUNDARY_VALUES = sorted({
    v for k in range(0, 10) for base in ((1 << (7 * k)),)
    for v in (base - 1, base, base + 1)
} | {(1 << 64) - 1, (1 << 63), (1 << 63) - 1})
SIGNED_BOUNDARIES = sorted({
    v for k in range(0, 9) for base in ((1 << (7 * k)),)
    for v in (base - 1, base, base + 1, -(base - 1), -base, -(base + 1))
    if -(1 << 63) <= v < (1 << 63)
} | {(1 << 63) - 1, -(1 << 63)})

int64s = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
uint64s = st.integers(min_value=0, max_value=(1 << 64) - 1)


@pytest.fixture(scope="module")
def small_pprof_raw():
    return generate_bytes(tier("small"), compress=False)


@pytest.fixture(scope="module")
def small_easyview_raw(small_pprof_raw):
    profile = pprof_conv.parse(small_pprof_raw)
    return ezvw_oracle.to_message(profile).serialize()


# --------------------------------------------------------------------------
# Scalar and packed kernels
# --------------------------------------------------------------------------

class TestVarintKernels:
    @pytest.mark.parametrize("value", BOUNDARY_VALUES)
    def test_boundary_encode_matches_reference(self, value):
        assert fastwire.encode_varint(value) == reference.encode_varint(value)

    @pytest.mark.parametrize("value", BOUNDARY_VALUES)
    def test_boundary_reader_round_trip(self, value):
        encoded = fastwire.encode_varint(value)
        reader = fastwire.Reader(encoded)
        assert reader.varint() == value
        assert reader.pos == len(encoded)

    @given(uint64s)
    def test_encode_matches_reference(self, value):
        assert fastwire.encode_varint(value) == reference.encode_varint(value)

    @given(int64s)
    def test_svarint_round_trip(self, value):
        encoded = reference.encode_signed_varint(value)
        assert fastwire.Reader(encoded).svarint() == value

    def test_negative_rejected(self):
        with pytest.raises(WireError):
            fastwire.encode_varint(-1)
        with pytest.raises(WireError):
            fastwire.encode_varint(1 << 64)

    @given(st.binary(max_size=24))
    def test_reader_varint_matches_decode_varint(self, data):
        try:
            expected = ("ok", reference.decode_varint(data, 0))
        except WireError as exc:
            expected = ("err", str(exc))
        reader = fastwire.Reader(data)
        try:
            got = ("ok", (reader.varint(), reader.pos))
        except WireError as exc:
            got = ("err", str(exc))
        assert got == expected


class TestPackedKernels:
    @pytest.mark.parametrize("value", SIGNED_BOUNDARIES)
    def test_boundary_values_both_kernels(self, value):
        values = [value] * 3 + [0, 1]
        payload = fastwire.encode_packed_int64s(values)
        ref_body, _ = reference.decode_bytes(
            reference.encode_packed_varints(values), 0)
        assert payload == ref_body
        assert fastwire._decode_packed_py(
            memoryview(payload), 0, len(payload)) == values
        assert fastwire._decode_packed_numpy(memoryview(payload)) == values

    @given(st.lists(int64s, max_size=64))
    def test_encode_matches_reference(self, values):
        ref_body, _ = reference.decode_bytes(
            reference.encode_packed_varints(values), 0)
        assert fastwire.encode_packed_int64s(values) == ref_body

    @given(st.lists(int64s, min_size=1, max_size=64))
    def test_decode_kernels_agree_on_valid_input(self, values):
        payload = fastwire.encode_packed_int64s(values)
        assert reference.decode_packed_varints(payload) == values
        assert fastwire._decode_packed_py(
            memoryview(payload), 0, len(payload)) == values
        assert fastwire._decode_packed_numpy(memoryview(payload)) == values

    @given(st.binary(min_size=1, max_size=48))
    @settings(max_examples=300)
    def test_kernels_agree_on_byte_soup(self, payload):
        """Both kernels mirror the reference on arbitrary bytes — value
        for value, error message for error message."""
        outcomes = []
        for decode in (
                reference.decode_packed_varints,
                lambda p: fastwire._decode_packed_py(
                    memoryview(p), 0, len(p)),
                lambda p: fastwire._decode_packed_numpy(memoryview(p))):
            try:
                outcomes.append(("ok", decode(payload)))
            except WireError as exc:
                outcomes.append(("err", str(exc)))
        assert all(o == outcomes[0] for o in outcomes[1:])

    def test_dispatcher_uses_numpy_for_long_runs(self):
        values = list(range(1000))
        payload = fastwire.encode_packed_int64s(values)
        assert len(payload) >= fastwire.NUMPY_MIN_PACKED_BYTES
        before = fastwire.packed_stats()["numpyRuns"]
        assert fastwire.decode_packed_int64s(payload) == values
        assert fastwire.packed_stats()["numpyRuns"] == before + 1

    def test_single_byte_fast_path(self):
        values = list(range(128))
        assert fastwire.encode_packed_int64s(values) == bytes(values)


# --------------------------------------------------------------------------
# scan_fields vs the reference iterator
# --------------------------------------------------------------------------

def _field_outcomes(data, iterator):
    out = []
    try:
        for num, wtype, value in iterator(data):
            if isinstance(value, memoryview):
                value = bytes(value)
            out.append((num, wtype, value))
        return ("ok", out)
    except WireError as exc:
        return ("err", str(exc))


@given(st.binary(max_size=64))
@settings(max_examples=300)
def test_scan_fields_matches_reference_on_byte_soup(data):
    assert (_field_outcomes(data, fastwire.scan_fields)
            == _field_outcomes(data, reference.iter_fields))


# --------------------------------------------------------------------------
# Writer equivalence (including the scope API)
# --------------------------------------------------------------------------

random_messages = st.lists(
    st.tuples(st.integers(min_value=1, max_value=64),
              st.one_of(uint64s,
                        st.binary(max_size=200),
                        st.floats(allow_nan=False))),
    max_size=24)


class TestWriterEquivalence:
    @given(random_messages)
    def test_random_shapes_byte_identical(self, fields):
        fast, ref = fastwire.Writer(), reference.Writer()
        for num, value in fields:
            if isinstance(value, bytes):
                fast.bytes(num, value)
                ref.bytes(num, value)
            elif isinstance(value, float):
                fast.double(num, value)
                ref.double(num, value)
            else:
                fast.varint(num, value)
                ref.varint(num, value)
        assert fast.getvalue() == ref.getvalue()
        assert len(fast) == len(ref.getvalue())

    def test_negative_zero_double_reaches_the_wire(self):
        fast, ref = fastwire.Writer(), reference.Writer()
        fast.double(1, -0.0)
        ref.double(1, -0.0)
        assert fast.getvalue() == ref.getvalue() != b""
        (_, _, bits), = fastwire.scan_fields(fast.getvalue())
        value = struct.unpack("<d", struct.pack("<Q", bits))[0]
        assert math.copysign(1.0, value) == -1.0
        fast2 = fastwire.Writer()
        fast2.double(1, 0.0)
        assert fast2.getvalue() == b""  # +0.0 is the suppressed default

    @given(st.binary(max_size=300))
    def test_scope_matches_child_bytes_then_copy(self, payload):
        """begin/end_message produces the same bytes as serializing the
        child separately — across the 128-byte patch boundary."""
        scoped = fastwire.Writer()
        mark = scoped.begin_message(7)
        scoped.bytes(1, payload)
        scoped.varint(2, 99)
        scoped.end_message(mark)

        child = fastwire.Writer()
        child.bytes(1, payload)
        child.varint(2, 99)
        flat = reference.Writer().message(7, child.getvalue())
        assert scoped.getvalue() == flat.getvalue()

    def test_nested_scopes(self):
        writer = fastwire.Writer()
        outer = writer.begin_message(1)
        writer.varint(1, 5)
        inner = writer.begin_message(2)
        writer.bytes(1, b"x" * 200)  # forces the inner length to 2 bytes
        writer.end_message(inner)
        writer.varint(3, 7)
        writer.end_message(outer)

        inner_w = reference.Writer().bytes(1, b"x" * 200)
        mid = reference.Writer().varint(1, 5)
        mid.message(2, inner_w.getvalue()).varint(3, 7)
        expected = reference.Writer().message(1, mid.getvalue())
        assert writer.getvalue() == expected.getvalue()

    def test_len_is_tracked_not_recomputed(self):
        writer = fastwire.Writer()
        assert len(writer) == 0
        writer.varint(1, 300)
        assert len(writer) == 3  # 1 tag byte + 2 varint bytes


# --------------------------------------------------------------------------
# Message codecs: fixtures decode equal / encode byte-identical
# --------------------------------------------------------------------------

class TestPprofEquivalence:
    def test_fixture_decode_equal(self, small_pprof_raw):
        assert (pprof_pb.Profile.parse(small_pprof_raw)
                == reference.parse_pprof(small_pprof_raw))

    def test_fixture_encode_byte_identical(self, small_pprof_raw):
        profile = pprof_pb.Profile.parse(small_pprof_raw)
        assert profile.serialize() == reference.serialize_pprof(profile)

    def test_fixture_encode_is_input(self, small_pprof_raw):
        profile = pprof_pb.Profile.parse(small_pprof_raw)
        assert profile.serialize() == small_pprof_raw

    def test_medium_fixture_round_trip(self):
        raw = generate_bytes(tier("medium"), compress=False)
        profile = pprof_pb.Profile.parse(raw)
        assert profile == reference.parse_pprof(raw)
        assert profile.serialize() == reference.serialize_pprof(profile)


class TestEasyViewEquivalence:
    def test_fixture_decode_equal(self, small_easyview_raw):
        assert (easyview_pb.ProfileMessage.parse(small_easyview_raw)
                == reference.parse_easyview(small_easyview_raw))

    def test_fixture_encode_byte_identical(self, small_easyview_raw):
        message = easyview_pb.ProfileMessage.parse(small_easyview_raw)
        assert message.serialize() == reference.serialize_easyview(message)

    def test_loads_accepts_memoryview(self, small_easyview_raw):
        message = easyview_pb.ProfileMessage.parse(small_easyview_raw)
        framed = easyview_pb.dumps(message)
        columns = easyview_pb.loads(memoryview(framed))
        assert ezvw_oracle.message_of(columns) == message

    def test_columnar_decode_equal(self, small_easyview_raw):
        columns = easyview_pb.ProfileColumns.parse(small_easyview_raw)
        assert (ezvw_oracle.message_of(columns)
                == reference.parse_easyview(small_easyview_raw))

    def test_columnar_encode_byte_identical(self, small_easyview_raw):
        columns = easyview_pb.ProfileColumns.parse(small_easyview_raw)
        message = ezvw_oracle.message_of(columns)
        assert columns.serialize() == reference.serialize_easyview(message)
        assert columns.serialize() == small_easyview_raw


class TestStoreEncodingEquivalence:
    def test_wal_payload_byte_identical(self):
        from repro.store.wal import WalRecord
        record = WalRecord(service="web", ptype="cpu",
                           labels={"zone": "b", "az": "a"},
                           time_nanos=123456789, duration_nanos=60_000,
                           blob=b"\x01\x02" * 300, seq=42)
        assert record.payload() == reference.wal_payload(record)
        assert WalRecord.from_payload(record.payload()) == record

    def test_segment_footer_byte_identical(self):
        from repro.store.segment import RecordMeta, _footer_bytes, \
            _parse_footer
        metas = [RecordMeta(service="web", ptype="heap",
                            labels={"pod": str(i)}, time_nanos=i * 1000,
                            duration_nanos=5, offset=i * 64, length=64,
                            seq=i)
                 for i in range(20)]
        strings = ["", "main", "handler", "π"] * 5
        footer = _footer_bytes(strings, metas, 777)
        assert footer == reference.segment_footer(strings, metas, 777)
        parsed = _parse_footer(footer)
        assert parsed.strings == strings
        assert parsed.records == metas
        assert parsed.created_nanos == 777


# --------------------------------------------------------------------------
# Truncation: every byte offset, reference-identical behavior
# --------------------------------------------------------------------------

def _truncation_fixture():
    profile = pprof_pb.Profile(
        sample_type=[pprof_pb.ValueType(type=1, unit=2)],
        sample=[pprof_pb.Sample(location_id=[1, 2, 300],
                                value=[10, -5],
                                label=[pprof_pb.Label(key=3, num=128)])],
        location=[pprof_pb.Location(
            id=1, address=0xDEADBEEF,
            line=[pprof_pb.Line(function_id=1, line=42)])],
        function=[pprof_pb.Function(id=1, name=4, filename=5)],
        string_table=["", "cpu", "nanoseconds", "thread", "main", "main.c"],
        time_nanos=1_700_000_000_000_000_000,
        period=10_000_000,
        default_sample_type=1,  # non-default tail field
    )
    return profile.serialize()


def test_truncation_at_every_offset_matches_reference():
    raw = _truncation_fixture()
    assert len(raw) > 100
    for cut in range(len(raw)):
        prefix = raw[:cut]
        try:
            expected = ("ok", reference.parse_pprof(prefix))
        except WireError as exc:
            expected = ("err", str(exc))
        except Exception as exc:  # pragma: no cover - would be a real bug
            pytest.fail("reference crashed at offset %d: %r" % (cut, exc))
        try:
            got = ("ok", pprof_pb.Profile.parse(prefix))
        except WireError as exc:
            got = ("err", str(exc))
        except Exception as exc:
            pytest.fail("fastwire crashed at offset %d: %r" % (cut, exc))
        assert got == expected, "divergence at offset %d" % cut


def test_scan_fields_truncation_never_crashes():
    raw = _truncation_fixture()
    for cut in range(len(raw)):
        assert (_field_outcomes(raw[:cut], fastwire.scan_fields)
                == _field_outcomes(raw[:cut], reference.iter_fields))


# --------------------------------------------------------------------------
# Interner
# --------------------------------------------------------------------------

class TestStringInterner:
    def test_identity_across_decodes(self):
        pool = fastwire.StringInterner()
        first = pool.decode(b"main.handleRequest")
        second = pool.decode(bytearray(b"main.handleRequest"))
        assert first is second
        assert pool.hits == 1 and pool.misses == 1

    def test_bounded(self):
        pool = fastwire.StringInterner(max_entries=4)
        for i in range(10):
            pool.decode(str(i).encode())
        assert len(pool) <= 4
        assert pool.decode(b"9") == "9"  # correctness survives the clear

    def test_utf8_errors_propagate(self):
        with pytest.raises(UnicodeDecodeError):
            fastwire.intern_string(b"\xff\xfe\xfd")
