"""The pprof converter against its object-tree oracle on irregular input.

The corpus tiers carry only canonical samples (one packed id run, one
packed value run per declared column, nothing else), so these tests
generate what they lack: samples with labels, unpacked ids and values,
ragged value runs, id runs too long for a one-byte length, metric
columns that alias one name, and payloads without samples.  Every
message must convert to the same profile through
:func:`repro.converters.pprof.parse` as through
:func:`repro.bench.pprof_oracle.parse_object`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.pprof_oracle import parse_object
from repro.converters import pprof
from repro.core.digest import profile_digest
from repro.errors import FormatError
from repro.proto.pprof_pb import (Function, Label, Line, Location, Sample,
                                  ValueType)
from repro.proto.fastwire import Writer

#: Index 1-2 metric names, 3-4 units, 5-8 function names, 9-10 files.
STRINGS = ["", "cpu", "alloc", "ns", "bytes", "main", "f", "g", "h",
           "a.c", "b.c"]

int64s = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


def _unpacked(stack, values) -> bytes:
    """A sample body with every id and value as its own varint field."""
    writer = Writer(emit_defaults=True)
    for location_id in stack:
        writer.varint(1, location_id)
    for value in values:
        writer.varint(2, value)
    return writer.getvalue()


@st.composite
def _samples(draw, n_locations: int, n_columns: int):
    kind = draw(st.sampled_from(
        ["canonical", "canonical", "labeled", "ragged", "unpacked",
         "long"]))
    ids = st.integers(min_value=1, max_value=n_locations)
    size = 130 if kind == "long" else draw(st.integers(0, 6))
    stack = draw(st.lists(ids, min_size=size, max_size=size))
    if kind == "ragged":
        values = draw(st.lists(int64s, max_size=n_columns + 2))
    else:
        values = draw(st.lists(st.integers(-1000, 10 ** 6),
                               min_size=n_columns, max_size=n_columns))
    if kind == "unpacked":
        return _unpacked(stack, values)
    labels = ([Label(key=1, num=draw(st.integers(0, 9)))]
              if kind == "labeled" else [])
    return Sample(location_id=stack, value=values, label=labels).serialize()


@st.composite
def pprof_messages(draw):
    """A pprof payload mixing canonical and irregular samples."""
    # Types drawn from two alias columns as often as not (a name must keep
    # its unit: conflicting descriptors are a schema error on both paths).
    types = draw(st.lists(st.sampled_from([(1, 3), (2, 4)]),
                          min_size=1, max_size=3))
    n_functions = draw(st.integers(1, 4))
    n_locations = draw(st.integers(1, 6))
    writer = Writer()
    for name, unit in types:
        writer.message(1, ValueType(type=name, unit=unit).serialize())
    sample_bodies = draw(st.lists(_samples(n_locations, len(types)),
                                  max_size=12))
    for body in sample_bodies:
        writer.message(2, body)
    for location_id in range(1, n_locations + 1):
        lines = draw(st.lists(
            st.builds(Line, function_id=st.integers(1, n_functions),
                      line=st.integers(0, 40)),
            min_size=1, max_size=2))
        writer.message(4, Location(id=location_id, address=location_id,
                                   line=lines).serialize())
    for function_id in range(1, n_functions + 1):
        writer.message(5, Function(
            id=function_id, name=draw(st.integers(5, 8)),
            filename=draw(st.integers(9, 10))).serialize())
    for text in STRINGS:
        writer.message(6, text.encode("utf-8"))
    return writer.getvalue()


def assert_same_profile(raw: bytes) -> None:
    fast = pprof.parse(raw)
    oracle = parse_object(raw)
    assert fast.schema.names() == oracle.schema.names()
    assert profile_digest(fast) == profile_digest(oracle)
    stack = [(fast.root, oracle.root)]
    while stack:
        x, y = stack.pop()
        assert x.frame == y.frame
        assert x.metrics == y.metrics
        assert list(x.children) == list(y.children)
        stack.extend(zip(x.children.values(), y.children.values()))


@given(pprof_messages())
@settings(max_examples=300, deadline=None)
def test_irregular_messages_match_the_oracle(raw):
    assert_same_profile(raw)


def _message(*sample_bodies: bytes) -> bytes:
    """Two metrics, three single-line locations, and the given samples."""
    writer = Writer()
    writer.message(1, ValueType(type=1, unit=3).serialize())
    writer.message(1, ValueType(type=2, unit=4).serialize())
    for body in sample_bodies:
        writer.message(2, body)
    for location_id in (1, 2, 3):
        writer.message(4, Location(
            id=location_id,
            line=[Line(function_id=location_id, line=10 * location_id)]
        ).serialize())
    for function_id in (1, 2, 3):
        writer.message(5, Function(id=function_id, name=4 + function_id,
                                   filename=9).serialize())
    for text in STRINGS:
        writer.message(6, text.encode("utf-8"))
    return writer.getvalue()


class TestHandWritten:
    def test_unpacked_ids_between_canonical_samples(self):
        canonical = Sample(location_id=[2, 1], value=[5, 7]).serialize()
        assert_same_profile(_message(
            canonical, _unpacked([3, 2, 1], [1, 2]), canonical,
            _unpacked([2, 1], [0, 4])))

    def test_unpacked_then_packed_ids_in_one_sample(self):
        mixed = (Writer(emit_defaults=True).varint(1, 3)
                 .packed(1, [2, 1]).packed(2, [9, 9]).getvalue())
        assert_same_profile(_message(mixed))

    def test_values_add_in_wire_order(self):
        # Past 2**53 float additions do not commute: 1 + 1 + 2**53 is
        # exact, while 2**53 + 1 + 1 rounds back to 2**53.
        labeled = Sample(location_id=[1], value=[1, 1],
                         label=[Label(key=1, num=1)]).serialize()
        big = Sample(location_id=[1], value=[1 << 53, 0]).serialize()
        raw = _message(labeled, labeled, big)
        assert_same_profile(raw)
        assert pprof.parse(raw).total("cpu") == (1 << 53) + 2

    def test_sample_free_payload_is_the_bare_root(self):
        raw = _message()
        profile = pprof.parse(raw)
        assert profile.columnar().n_nodes == 1  # arrays, as every parse
        assert not profile.root.children
        assert_same_profile(raw)

    def test_undefined_location_raises_on_both_paths(self):
        raw = _message(_unpacked([4], [1, 1]))
        with pytest.raises(FormatError):
            pprof.parse(raw)
        with pytest.raises(FormatError):
            parse_object(raw)
