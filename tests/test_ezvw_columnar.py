"""The columnar ``.ezvw`` codec against its per-node oracle.

:mod:`repro.core.serialize` encodes straight from the columnar CCT and
decodes straight into arrays; :mod:`repro.bench.ezvw_oracle` keeps the
per-node message path it replaced.  Every test here is differential: the
same bytes out, the same profile in (digest, schema, meta and points),
and the same error class on damaged or hand-made input, including the
shapes only the per-field decode handles.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro import ProfileBuilder
from repro.bench import ezvw_oracle as oracle, profile_oracle
from repro.bench.profile_oracle import ObjectProfile, fold, set_value
from repro.converters import parse_bytes, pprof
from repro.core import jsonio, serialize
from repro.core.digest import profile_digest
from repro.errors import EasyViewError, FormatError
from repro.obs import get_registry
from repro.profilers.corpus import generate_bytes, tier
from repro.profilers.workloads import (deep_path_profile,
                                       grpc_client_profile,
                                       lulesh_reuse_profile)
from repro.proto import easyview_pb as pb
from repro.proto.fastwire import WireError, Writer, encode_varint

from tests.test_converters_robustness import _valid_inputs
from tests.twins import object_only


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _points(profile):
    return [(point.kind, point.sequence,
             sorted((k, _bits(v)) for k, v in point.values.items()),
             [tuple(frame.key() for frame in ctx.call_path())
              for ctx in point.contexts])
            for point in profile.points]


def assert_same_profile(fast, slow):
    assert isinstance(slow, ObjectProfile)
    assert profile_digest(fast) == profile_oracle.digest(slow)
    assert ([(m.name, m.unit, m.description, m.aggregation)
             for m in fast.schema]
            == [(m.name, m.unit, m.description, m.aggregation)
                for m in slow.schema])
    assert fast.meta == slow.meta
    assert _points(fast) == _points(slow)


def _outcome(loads, data: bytes):
    """What one decoder makes of ``data``: an error class or a profile."""
    try:
        profile = loads(data)
    except EasyViewError as exc:
        return ("error", type(exc).__name__)
    digest = (profile_oracle.digest(profile)
              if isinstance(profile, ObjectProfile) else
              profile_digest(profile))
    return ("ok", digest, profile.meta.tool, _points(profile))


# -- byte identity and decode equality on real profiles ---------------------

def _builders():
    small = generate_bytes(tier("small"), compress=False)
    medium = generate_bytes(tier("medium"), compress=False)
    builders = {
        "corpus-small": lambda: pprof.parse(small),
        "corpus-medium": lambda: pprof.parse(medium),
        "fig4-leak": lambda: grpc_client_profile(clients=50, snapshots=20),
        "fig7-reuse": lambda: lulesh_reuse_profile(scale=4),
        "deep-path": lambda: deep_path_profile(depth=10000),
    }
    for name, data in _valid_inputs().items():
        builders["converter-" + name] = (
            lambda data=data, name=name: parse_bytes(data, format=name))
    return builders


BUILDERS = _builders()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_dumps_and_loads_match_the_oracle(name):
    data = serialize.dumps(BUILDERS[name]())
    assert data == oracle.dumps(BUILDERS[name]())
    assert_same_profile(serialize.loads(data), oracle.loads(data))


def test_dumps_of_a_columnar_profile_builds_no_object_tree():
    raw = generate_bytes(tier("small"), compress=False)
    profile = pprof.parse(raw)
    counter = get_registry().counter("core.cct_materializations")
    before = counter.value
    data = serialize.dumps(profile)
    loaded = serialize.loads(data)
    assert serialize.dumps(loaded) == data
    assert counter.value == before


@st.composite
def valued_profiles(draw):
    """Profiles whose cells are NaN, infinities, +0.0, -0.0 or absent,
    with snapshot points carrying the same kinds of values."""
    values = st.one_of(st.just(math.nan), st.just(0.0), st.just(-0.0),
                       st.floats(allow_nan=True, allow_infinity=True),
                       st.integers(-3, 3).map(float))
    builder = ProfileBuilder(tool=draw(st.sampled_from(["", "hyp"])))
    metrics = [builder.metric("m%d" % i)
               for i in range(draw(st.integers(1, 3)))]
    paths = st.lists(st.sampled_from("abcd"), min_size=1, max_size=5)
    for _ in range(draw(st.integers(1, 10))):
        path = [(name, "h.c", j + 1)
                for j, name in enumerate(draw(paths))]
        cells = draw(st.dictionaries(st.sampled_from(metrics), values,
                                     max_size=len(metrics)))
        if draw(st.booleans()):
            builder.sample(path, cells)
        else:
            builder.snapshot(draw(st.integers(1, 3)), path, cells)
    profile = object_only(builder.build())
    for node in list(profile.nodes())[1:]:
        if draw(st.booleans()):
            set_value(node, draw(st.sampled_from(metrics)), draw(values))
    return fold(profile)


@settings(max_examples=80, deadline=None)
@given(valued_profiles())
def test_hypothesis_profiles_match_the_oracle(profile):
    expected = oracle.dumps(profile)
    data = serialize.dumps(profile)
    assert data == expected
    assert_same_profile(serialize.loads(data), oracle.loads(data))


# -- hand-made messages: the per-field paths ---------------------------------

def _frame(body: bytes) -> bytes:
    return (pb.FORMAT_MAGIC + bytes([pb.FORMAT_VERSION])
            + encode_varint(len(body)) + body)


def _node(**fields) -> bytes:
    order = ["id", "parent_id", "kind", "name", "file", "line", "module",
             "address"]
    writer = Writer()
    for number, key in enumerate(order, 1):
        writer.varint(number, fields.get(key, 0))
    return writer.getvalue()


def _point(contexts, values, kind=0, sequence=0) -> bytes:
    return pb.MonitoringPoint(
        context_id=list(contexts),
        values=[pb.MetricValue(metric_id=m, value=v) for m, v in values],
        kind=kind, sequence=sequence).serialize()


def _message(nodes, points, strings=("", "t", "cpu", "main", "work"),
             metrics=1) -> bytes:
    writer = Writer().varint(1, 1)
    for text in strings:
        writer.message(2, text.encode())
    for _ in range(metrics):
        writer.message(3, pb.MetricDescriptor(name=2).serialize())
    for node in nodes:
        writer.message(4, node)
    for point in points:
        writer.message(5, point)
    return writer.getvalue()


ROOT = _node(kind=pb.CONTEXT_ROOT)
MAIN = _node(id=1, kind=1, name=3)
WORK = _node(id=2, parent_id=1, kind=1, name=4, line=7)

HAND_MADE = {
    "canonical": _message([ROOT, MAIN, WORK],
                          [_point([1], [(0, 2.0)]), _point([2], [(0, 5.0)])]),
    "duplicate-siblings": _message(
        [ROOT, MAIN, _node(id=2, kind=1, name=3), WORK],
        [_point([1], [(0, 2.0)]), _point([2], [(0, 3.0)]),
         _point([3], [(0, 4.0)])]),
    "forward-parent": _message([ROOT, _node(id=1, parent_id=2, kind=1,
                                            name=3), WORK], []),
    "sparse-ids": _message([ROOT, _node(id=10, kind=1, name=3),
                            _node(id=20, parent_id=10, kind=1, name=4)],
                           [_point([20], [(0, 1.5)])]),
    "redefined-id": _message([ROOT, MAIN, _node(id=1, kind=1, name=4),
                              _node(id=2, parent_id=1, kind=1, name=3)],
                             [_point([1], [(0, 1.0)]),
                              _point([2], [(0, 2.0)])]),
    "second-root": _message([ROOT, MAIN, _node(id=2, kind=0, name=4),
                             _node(id=3, parent_id=2, kind=1, name=4)],
                            [_point([3], [(0, 1.0)])]),
    "unknown-kind": _message([ROOT, _node(id=1, kind=99, name=3)],
                             [_point([1], [(0, 1.0)])]),
    "repeated-field": _message(
        [ROOT, MAIN + Writer().varint(4, 4).getvalue()],
        [_point([1], [(0, 1.0)])]),
    "unknown-field": _message(
        [ROOT, MAIN + Writer().varint(9, 5).string(10, "x").getvalue()],
        [_point([1], [(0, 1.0)])]),
    "fixed64-line": _message(
        [ROOT, MAIN + Writer().fixed64(6, 12).getvalue()],
        [_point([1], [(0, 1.0)])]),
    "fields-out-of-order": _message(
        [ROOT, Writer().varint(4, 3).varint(1, 1).varint(3, 1).getvalue()],
        [_point([1], [(0, 1.0)])]),
    "overlong-varint": _message([ROOT, b"\x08" + b"\xff" * 10 + b"\x01"],
                                []),
    "torn-node": _message([ROOT, b"\x08\x81"], []),
    "two-points-one-cell": _message(
        [ROOT, MAIN], [_point([1], [(0, 1.0)]), _point([1], [(0, 0.1)])]),
    "duplicate-metric-in-point": _message(
        [ROOT, MAIN], [_point([1], [(0, 1.0), (0, 7.0)])]),
    "descending-metrics": _message(
        [ROOT, MAIN], [_point([1], [(1, 1.0), (0, 7.0)])], metrics=2),
    "out-of-schema-metric": _message(
        [ROOT, MAIN], [_point([1], [(0, 1.0), (5, 2.0)])]),
    "no-metrics-in-schema": _message(
        [ROOT, MAIN], [_point([1], [(0, 1.0)])], metrics=0),
    "multi-context-plain": _message([ROOT, MAIN, WORK],
                                    [_point([1, 2], [(0, 1.0)])]),
    "empty-plain": _message([ROOT, MAIN], [b""]),
    "undefined-context": _message([ROOT, MAIN], [_point([7], [(0, 1.0)])]),
    "negative-context": _message([ROOT, MAIN], [_point([-1], [(0, 1.0)])]),
    "snapshots-between-plain": _message(
        [ROOT, MAIN, WORK],
        [_point([1], [(0, 1.0)]), _point([2], [(0, 3.0)], kind=1,
                                         sequence=2),
         _point([2], [(0, 2.0)]), _point([1, 2], [(0, 4.0)], kind=3)]),
    "unknown-point-kind": _message([ROOT, MAIN],
                                   [_point([1], [(0, 1.0)], kind=42)]),
    "plain-with-sequence": _message(
        [ROOT, MAIN], [_point([1], [(0, 1.0)], sequence=3)]),
    "explicit-defaults": _message(
        [ROOT, MAIN],
        [Writer(emit_defaults=True).packed(1, [1])
         .message(2, Writer(emit_defaults=True).varint(1, 0)
                  .double(2, 0.0).getvalue())
         .varint(3, 0).varint(4, 0).getvalue()]),
    "negative-zero-and-nan": _message(
        [ROOT, MAIN, WORK],
        [_point([1], [(0, -0.0)]), _point([2], [(0, math.nan)])]),
    "big-metric-id": _message(
        [ROOT, MAIN], [_point([1], [(300, 1.0)])], metrics=1),
    "out-of-schema-snapshot": _message(
        [ROOT, MAIN], [_point([1], [(0, 1.0)]),
                       _point([1], [(4, 2.0)], kind=1, sequence=1)]),
    "no-nodes": _message([], [_point([0], [(0, 1.0)])]),
    "no-strings": _message([ROOT, MAIN], [_point([1], [(0, 1.0)])],
                           strings=()),
}


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_hand_made_messages_match_the_oracle(name):
    body = HAND_MADE[name]
    data = _frame(body)
    assert _outcome(serialize.loads, data) == _outcome(oracle.loads, data)
    try:
        expected = pb.ProfileMessage.parse(body).serialize()
    except WireError:
        with pytest.raises(WireError):
            pb.ProfileColumns.parse(body)
        return
    columns = pb.ProfileColumns.parse(body)
    assert columns.serialize() == expected
    # repr, not ==: NaN values compare unequal to themselves.
    assert (repr(oracle.message_of(columns))
            == repr(pb.ProfileMessage.parse(body)))


def test_hand_made_messages_cover_both_paths():
    """The canonical message takes the bulk decode and every irregular
    one above is still decoded as the per-node codec decodes it."""
    columns = pb.ProfileColumns.parse(HAND_MADE["canonical"])
    assert columns.others == []
    assert columns.plain_context.tolist() == [1, 2]
    assert serialize._bulk_tree(columns.nodes, lambda i: "") is not None
    irregular = pb.ProfileColumns.parse(HAND_MADE["duplicate-siblings"])
    assert serialize._bulk_tree(irregular.nodes, lambda i: "") is None
    assert _outcome(serialize.loads, _frame(HAND_MADE["forward-parent"])) \
        == ("error", "FormatError")


def _mutants(data: bytes, count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        mutant = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            mutant[rng.randrange(len(mutant))] = rng.randrange(256)
        yield bytes(mutant)


def test_mutants_decode_as_the_oracle_decodes():
    spec = dataclasses.replace(tier("small"), name="mutation", functions=40,
                               samples=120, max_depth=8)
    profile = pprof.parse(generate_bytes(spec, compress=False))
    data = serialize.dumps(profile)
    differ = []
    for mutant in _mutants(data, 400, seed=23):
        fast = _outcome(serialize.loads, mutant)
        slow = _outcome(oracle.loads, mutant)
        if fast != slow:
            differ.append((fast[:2], slow[:2]))
    assert differ == []


@pytest.mark.parametrize("name", ["out-of-schema-metric", "big-metric-id",
                                  "no-metrics-in-schema",
                                  "out-of-schema-snapshot"])
def test_a_value_outside_the_schema_fails_closed_at_load(name):
    """Such a value (ProfLint's EV310) has no column to live in: the
    decoder and its oracle refuse it at load, plain or on a point."""
    data = _frame(HAND_MADE[name])
    for loads in (serialize.loads, oracle.loads):
        with pytest.raises(FormatError, match="outside the schema"):
            loads(data)


@pytest.mark.parametrize("where", ["metrics", "values"])
def test_a_json_value_outside_the_schema_fails_closed_at_load(where):
    builder = ProfileBuilder()
    cpu = builder.metric("cpu")
    builder.sample(["main"], {cpu: 1.0})
    builder.snapshot(1, ["main"], {cpu: 2.0})
    document = jsonio.to_dict(builder.build())
    if where == "metrics":
        document["nodes"][1]["metrics"]["7"] = 1.0
    else:
        document["points"][0]["values"]["7"] = 1.0
    data = json.dumps(document).encode()
    with pytest.raises(FormatError, match="metric 7 outside the schema"):
        parse_bytes(data, format="easyview-json")


def test_corrupt_input_is_a_format_error():
    with pytest.raises(FormatError):
        serialize.loads(_frame(HAND_MADE["overlong-varint"]))
