"""Tests for the hand-written pprof profile.proto implementation."""

import gzip

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OversizedError
from repro.proto import fastwire, pprof_pb


def build_reference_profile() -> pprof_pb.Profile:
    profile = pprof_pb.Profile()
    profile.string_table = ["", "cpu", "nanoseconds", "main", "work",
                            "app.go", "/usr/bin/app", "samples", "count"]
    profile.sample_type = [pprof_pb.ValueType(type=1, unit=2),
                           pprof_pb.ValueType(type=7, unit=8)]
    profile.mapping = [pprof_pb.Mapping(id=1, memory_start=0x1000,
                                        memory_limit=0x9000, filename=6,
                                        has_functions=True)]
    profile.function = [
        pprof_pb.Function(id=1, name=3, system_name=3, filename=5,
                          start_line=10),
        pprof_pb.Function(id=2, name=4, system_name=4, filename=5,
                          start_line=40),
    ]
    profile.location = [
        pprof_pb.Location(id=1, mapping_id=1, address=0x1234,
                          line=[pprof_pb.Line(function_id=1, line=12)]),
        pprof_pb.Location(id=2, mapping_id=1, address=0x2234,
                          line=[pprof_pb.Line(function_id=2, line=44)]),
    ]
    profile.sample = [
        pprof_pb.Sample(location_id=[2, 1], value=[1200, 3]),
        pprof_pb.Sample(location_id=[1], value=[500, 1],
                        label=[pprof_pb.Label(key=1, num=9)]),
    ]
    profile.period_type = pprof_pb.ValueType(type=1, unit=2)
    profile.period = 10_000_000
    profile.time_nanos = 1_700_000_000
    profile.duration_nanos = 2_000_000_000
    return profile


class TestRoundTrip:
    def test_full_profile_roundtrip(self):
        original = build_reference_profile()
        parsed = pprof_pb.Profile.parse(original.serialize())
        assert parsed.string_table == original.string_table
        assert len(parsed.sample) == 2
        assert parsed.sample[0].location_id == [2, 1]
        assert parsed.sample[0].value == [1200, 3]
        assert parsed.sample[1].label[0].num == 9
        assert parsed.mapping[0].has_functions is True
        assert parsed.location[1].line[0].line == 44
        assert parsed.period == 10_000_000
        assert parsed.time_nanos == 1_700_000_000

    def test_gzip_framing(self):
        original = build_reference_profile()
        compressed = pprof_pb.dumps(original, compress=True)
        assert compressed[:2] == pprof_pb.GZIP_MAGIC
        parsed = pprof_pb.loads(compressed)
        assert parsed.string_table == original.string_table

    def test_uncompressed_accepted(self):
        original = build_reference_profile()
        raw = pprof_pb.dumps(original, compress=False)
        assert raw[:2] != pprof_pb.GZIP_MAGIC
        assert pprof_pb.loads(raw).period == original.period

    def test_double_roundtrip_is_stable(self):
        original = build_reference_profile()
        once = pprof_pb.Profile.parse(original.serialize())
        twice = pprof_pb.Profile.parse(once.serialize())
        assert once.serialize() == twice.serialize()


class TestBoundedGunzip:
    """The inflate budget at the pprof ingress, shrunk to keep tests small."""

    BUDGET = 4 << 20
    #: Step buffers and bookkeeping on top of the budget itself.
    SLACK = 1 << 20

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(pprof_pb, "MAX_INFLATED_BYTES", self.BUDGET)

    def test_bomb_refused_under_bounded_memory(self):
        import tracemalloc
        # Zeros deflate ~1000:1: 64 KiB here would inflate to 64 MiB.
        bomb = gzip.compress(bytes(16 * self.BUDGET), compresslevel=9)
        tracemalloc.start()
        try:
            for decode in (pprof_pb.loads, pprof_pb.loads_columnar):
                with pytest.raises(OversizedError):
                    decode(bomb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.BUDGET + self.SLACK

    def test_converter_reraises_the_typed_error(self):
        from repro.converters import parse_bytes
        bomb = gzip.compress(bytes(2 * self.BUDGET))
        for fmt in ("pprof", None):
            with pytest.raises(OversizedError):
                parse_bytes(bomb, format=fmt)

    def test_exactly_the_budget_decodes(self):
        payload = bytes(self.BUDGET)
        assert pprof_pb.gunzip(gzip.compress(payload)) == payload
        with pytest.raises(OversizedError):
            pprof_pb.gunzip(gzip.compress(payload + b"x"))

    def test_truncated_and_bit_flipped_raise_format_error(self):
        from repro.converters import parse_bytes
        from repro.errors import FormatError
        data = pprof_pb.dumps(build_reference_profile())
        flipped = bytearray(data)
        flipped[len(data) // 2] ^= 0xFF
        for bad in (data[:-4], data[:len(data) // 2], bytes(flipped),
                    data + b"junk"):
            with pytest.raises(FormatError) as excinfo:
                parse_bytes(bad, format="pprof")
            assert not isinstance(excinfo.value, OversizedError)

    def test_multi_member_gzip_decodes(self):
        raw = pprof_pb.dumps(build_reference_profile(), compress=False)
        half = len(raw) // 2
        members = (gzip.compress(raw[:half]) + gzip.compress(raw[half:])
                   + b"\x00" * 8)
        assert pprof_pb.gunzip(members) == gzip.decompress(members) == raw
        assert pprof_pb.loads(members).period == 10_000_000


class TestWireCompatibility:
    def test_unpacked_repeated_ints_accepted(self):
        # proto2 emitters write repeated ints unpacked; both must parse.
        writer = fastwire.Writer()
        writer.varint(1, 5)   # location_id, unpacked
        writer.varint(1, 6)
        writer.varint(2, 100)  # value, unpacked
        sample = pprof_pb.Sample.parse(writer.getvalue())
        assert sample.location_id == [5, 6]
        assert sample.value == [100]

    def test_packed_repeated_ints_roundtrip(self):
        sample = pprof_pb.Sample(location_id=[1, 2, 3], value=[7, -8])
        parsed = pprof_pb.Sample.parse(sample.serialize())
        assert parsed.location_id == [1, 2, 3]
        assert parsed.value == [7, -8]

    def test_unknown_fields_skipped(self):
        base = pprof_pb.ValueType(type=3, unit=4).serialize()
        extra = fastwire.Writer().string(99, "future").getvalue()
        parsed = pprof_pb.ValueType.parse(base + extra)
        assert (parsed.type, parsed.unit) == (3, 4)

    def test_empty_string_table_defaults(self):
        parsed = pprof_pb.Profile.parse(b"")
        assert parsed.string_table == [""]

    def test_string_helper_tolerates_bad_index(self):
        profile = build_reference_profile()
        assert profile.string(10_000) == ""
        assert profile.string(-1) == ""

    def test_empty_strings_keep_indices(self):
        profile = pprof_pb.Profile()
        profile.string_table = ["", "a", "", "b"]
        parsed = pprof_pb.Profile.parse(profile.serialize())
        assert parsed.string_table == ["", "a", "", "b"]


@st.composite
def profiles(draw):
    n_functions = draw(st.integers(min_value=1, max_value=5))
    table = [""]
    profile = pprof_pb.Profile(string_table=table)
    for i in range(n_functions):
        table.append("fn%d" % i)
        profile.function.append(pprof_pb.Function(id=i + 1,
                                                  name=len(table) - 1))
        profile.location.append(pprof_pb.Location(
            id=i + 1, address=draw(st.integers(0, 2 ** 48)),
            line=[pprof_pb.Line(function_id=i + 1,
                                line=draw(st.integers(0, 10000)))]))
    table.append("metric")
    profile.sample_type.append(pprof_pb.ValueType(type=len(table) - 1))
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        stack = draw(st.lists(st.integers(1, n_functions), min_size=1,
                              max_size=6))
        profile.sample.append(pprof_pb.Sample(
            location_id=stack,
            value=[draw(st.integers(-(1 << 40), 1 << 40))]))
    return profile


class TestPropertyRoundTrip:
    @settings(max_examples=40)
    @given(profiles())
    def test_generated_profiles_roundtrip(self, profile):
        parsed = pprof_pb.loads(pprof_pb.dumps(profile))
        assert parsed.string_table == profile.string_table
        assert len(parsed.sample) == len(profile.sample)
        for a, b in zip(parsed.sample, profile.sample):
            assert a.location_id == b.location_id
            assert a.value == b.value
