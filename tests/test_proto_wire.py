"""Tests for the protobuf wire format: the single-value primitives kept as
the spec in ``repro.proto.reference``, and the ``fastwire`` writer and
field scanner."""

import pytest
from hypothesis import given, strategies as st

from repro.proto import fastwire, reference
from repro.proto.fastwire import WireError


class TestVarint:
    def test_zero_is_one_byte(self):
        assert reference.encode_varint(0) == b"\x00"

    def test_small_values_single_byte(self):
        for value in (1, 42, 127):
            assert reference.encode_varint(value) == bytes([value])

    def test_128_spills_to_two_bytes(self):
        assert reference.encode_varint(128) == b"\x80\x01"

    def test_known_vector_300(self):
        # The canonical example from the protobuf encoding docs.
        assert reference.encode_varint(300) == b"\xac\x02"

    def test_max_uint64(self):
        value = (1 << 64) - 1
        encoded = reference.encode_varint(value)
        assert len(encoded) == 10
        assert reference.decode_varint(encoded)[0] == value

    def test_negative_rejected(self):
        with pytest.raises(WireError):
            reference.encode_varint(-1)

    def test_oversized_rejected(self):
        with pytest.raises(WireError):
            reference.encode_varint(1 << 64)

    def test_truncated_decode_raises(self):
        with pytest.raises(WireError):
            reference.decode_varint(b"\x80")

    def test_overlong_decode_raises(self):
        with pytest.raises(WireError):
            reference.decode_varint(b"\x80" * 10 + b"\x01")

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_roundtrip(self, value):
        encoded = reference.encode_varint(value)
        decoded, pos = reference.decode_varint(encoded)
        assert decoded == value
        assert pos == len(encoded)

    @given(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    def test_signed_roundtrip(self, value):
        encoded = reference.encode_signed_varint(value)
        decoded, _ = reference.decode_signed_varint(encoded)
        assert decoded == value

    def test_negative_int64_is_ten_bytes(self):
        # proto3 int64 sign-extends negatives: always 10 bytes on the reference.
        assert len(reference.encode_signed_varint(-1)) == 10


class TestZigZag:
    @pytest.mark.parametrize("value,encoded", [
        (0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4), (2147483647, 4294967294),
    ])
    def test_known_vectors(self, value, encoded):
        assert reference.zigzag_encode(value) == encoded
        assert reference.zigzag_decode(encoded) == value

    @given(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    def test_roundtrip(self, value):
        assert reference.zigzag_decode(reference.zigzag_encode(value)) == value

    def test_out_of_range_rejected(self):
        with pytest.raises(WireError):
            reference.zigzag_encode(1 << 63)


class TestTags:
    def test_tag_layout(self):
        # field 1, varint → key 0x08.
        assert reference.encode_tag(1, fastwire.WIRETYPE_VARINT) == b"\x08"
        # field 2, length-delimited → key 0x12.
        assert reference.encode_tag(2, fastwire.WIRETYPE_LENGTH_DELIMITED) == b"\x12"

    def test_tag_roundtrip(self):
        data = reference.encode_tag(150, fastwire.WIRETYPE_FIXED64)
        field, wtype, pos = reference.decode_tag(data, 0)
        assert (field, wtype) == (150, fastwire.WIRETYPE_FIXED64)
        assert pos == len(data)

    def test_field_zero_rejected(self):
        with pytest.raises(WireError):
            reference.encode_tag(0, fastwire.WIRETYPE_VARINT)
        with pytest.raises(WireError):
            reference.decode_tag(b"\x00", 0)

    def test_group_wire_type_rejected(self):
        with pytest.raises(WireError):
            reference.encode_tag(1, fastwire.WIRETYPE_START_GROUP)


class TestFixedAndBytes:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_double_roundtrip(self, value):
        encoded = reference.encode_double(value)
        decoded, _ = reference.decode_double(encoded, 0)
        assert decoded == value

    def test_fixed64_roundtrip(self):
        encoded = reference.encode_fixed64(0xDEADBEEFCAFEBABE)
        assert reference.decode_fixed64(encoded, 0)[0] == 0xDEADBEEFCAFEBABE

    def test_fixed32_roundtrip(self):
        encoded = reference.encode_fixed32(0xDEADBEEF)
        assert reference.decode_fixed32(encoded, 0)[0] == 0xDEADBEEF

    def test_truncated_fixed_raises(self):
        with pytest.raises(WireError):
            reference.decode_fixed64(b"\x01\x02", 0)

    @given(st.binary(max_size=512))
    def test_bytes_roundtrip(self, payload):
        encoded = reference.encode_bytes(payload)
        decoded, pos = reference.decode_bytes(encoded, 0)
        assert decoded == payload
        assert pos == len(encoded)

    def test_overrunning_length_raises(self):
        with pytest.raises(WireError):
            reference.decode_bytes(b"\x05abc", 0)


class TestPacked:
    @given(st.lists(st.integers(min_value=-(1 << 63),
                                max_value=(1 << 63) - 1), max_size=50))
    def test_packed_roundtrip(self, values):
        payload, pos = reference.decode_bytes(reference.encode_packed_varints(values), 0)
        assert reference.decode_packed_varints(payload) == values


class TestIterFields:
    def test_mixed_message(self):
        writer = (fastwire.Writer()
                  .varint(1, 150)
                  .string(2, "hello")
                  .double(3, 2.5)
                  .bytes(4, b"\x00\x01"))
        fields = list(fastwire.scan_fields(writer.getvalue()))
        numbers = [f[0] for f in fields]
        assert numbers == [1, 2, 3, 4]
        assert fields[1][2] == b"hello"

    def test_defaults_omitted(self):
        writer = fastwire.Writer().varint(1, 0).string(2, "").double(3, 0.0)
        assert writer.getvalue() == b""

    def test_negative_zero_double_is_present(self):
        # Regression: ``value or emit_defaults`` treated -0.0 as the proto3
        # default (it is falsy) and dropped it; only the exact +0.0 bit
        # pattern is absent from the reference.
        import math
        import struct
        data = fastwire.Writer().double(1, -0.0).getvalue()
        assert data != b""
        (num, wtype, raw) = next(iter(fastwire.scan_fields(data)))
        assert (num, wtype) == (1, fastwire.WIRETYPE_FIXED64)
        decoded = struct.unpack("<d", struct.pack("<Q", raw))[0]
        assert math.copysign(1.0, decoded) == -1.0

    @given(st.floats(allow_nan=False, allow_infinity=True, width=64))
    def test_double_presence_matches_bit_pattern(self, value):
        # A double is omitted iff it is bit-identical to +0.0; everything
        # else (including -0.0) round-trips through the wire exactly.
        import struct
        data = fastwire.Writer().double(5, value).getvalue()
        if struct.pack("<d", value) == struct.pack("<d", 0.0):
            assert data == b""
        else:
            fields = list(fastwire.scan_fields(data))
            assert len(fields) == 1
            decoded = struct.unpack("<d", struct.pack("<Q", fields[0][2]))[0]
            assert struct.pack("<d", decoded) == struct.pack("<d", value)

    def test_emit_defaults(self):
        writer = fastwire.Writer(emit_defaults=True).varint(1, 0)
        assert writer.getvalue() == b"\x08\x00"

    def test_skip_unknown_fields(self):
        data = (fastwire.Writer().varint(99, 7).string(1, "x")).getvalue()
        seen = {num: val for num, _, val in fastwire.scan_fields(data)}
        assert seen == {99: 7, 1: b"x"}

    def test_garbage_raises(self):
        with pytest.raises(WireError):
            list(fastwire.scan_fields(b"\x0b\x01"))  # wire type 3 = group

    @given(st.binary(max_size=64))
    def test_fuzz_never_hangs(self, data):
        # Arbitrary bytes either parse or raise WireError — no crashes.
        try:
            list(fastwire.scan_fields(data))
        except WireError:
            pass
