"""Tests for the ProfileBuilder API and profile validation."""

import hashlib
import json
import math
import os
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.transform import transform
from repro.builder import ProfileBuilder, validate
from repro.builder.builder import _coerce_frame
from repro.converters import names, parse_bytes
from repro.core import jsonio, serialize
from repro.core.digest import profile_digest, viewtree_digest
from repro.core.frame import Frame, FrameKind, data_object_frame, intern_frame
from repro.core.metric import Metric
from repro.core.monitor import POINT_ARITY, MonitoringPoint, PointKind
from repro.core.profile import Profile, ProfileMeta
from repro.errors import SchemaError
from repro.obs import export, get_registry
from repro.obs.tracer import Span
from repro.profilers import memsnap, sampling, tracing
from repro.profilers.workloads import (checkout_service_profile,
                                       deep_path_profile,
                                       false_sharing_workload,
                                       go_service_profile,
                                       grpc_client_profile,
                                       lulesh_fused_profile, lulesh_profile,
                                       lulesh_reuse_profile,
                                       redundancy_workload, spark_profile)

from .test_converters_robustness import _valid_inputs
from .twins import assert_views_identical

SHAPES = ("top_down", "bottom_up", "flat")


class TestFrameSpecs:
    def test_string_spec(self):
        frame = _coerce_frame("main")
        assert frame.name == "main" and frame.file == ""

    def test_tuple_specs(self):
        assert _coerce_frame(("f",)).name == "f"
        assert _coerce_frame(("f", "a.c")).file == "a.c"
        assert _coerce_frame(("f", "a.c", 3)).line == 3
        assert _coerce_frame(("f", "a.c", 3, "m")).module == "m"

    def test_frame_passthrough(self):
        frame = intern_frame("x")
        assert _coerce_frame(frame) is frame

    def test_bad_tuple_rejected(self):
        with pytest.raises(ValueError):
            _coerce_frame(("a", "b", 1, "m", "extra"))

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            _coerce_frame(42)


class TestBuilder:
    def test_metric_reuse(self):
        builder = ProfileBuilder()
        assert builder.metric("cpu") == builder.metric("cpu")

    def test_leaf_sample_reverses(self):
        builder = ProfileBuilder()
        cpu = builder.metric("cpu")
        builder.leaf_sample(["leaf", "mid", "root"], {cpu: 1.0})
        profile = builder.build()
        leaf = profile.find_by_name("leaf")[0]
        assert [f.name for f in leaf.call_path()] == ["root", "mid", "leaf"]

    def test_snapshot_requires_positive_sequence(self):
        builder = ProfileBuilder()
        builder.metric("m")
        with pytest.raises(ValueError):
            builder.snapshot(0, ["main"], {0: 1.0})

    def test_snapshot_not_folded_into_node_metrics(self):
        builder = ProfileBuilder()
        mem = builder.metric("inuse", unit="bytes")
        builder.snapshot(1, ["main"], {mem: 100.0})
        profile = builder.build()
        assert profile.total("inuse") == 0.0  # lives on the point only
        assert profile.points[0].value(mem) == 100.0

    def test_allocation_creates_data_object_context(self):
        builder = ProfileBuilder()
        size = builder.metric("bytes", unit="bytes")
        builder.allocation("buf", ["main", "alloc_site"], {size: 64.0})
        (point,) = builder.build().points
        leaf = point.primary()
        assert leaf.frame.kind is FrameKind.DATA_OBJECT
        assert leaf.frame.name == "buf"
        assert leaf.parent.frame.name == "alloc_site"

    def test_pair_point_orders_contexts(self):
        builder = ProfileBuilder()
        count = builder.metric("n")
        builder.pair_point(PointKind.REDUNDANCY,
                           [["main", "dead"], ["main", "killer"]],
                           {count: 2.0})
        (point,) = builder.build().points
        assert [c.frame.name for c in point.contexts] == ["dead", "killer"]

    def test_build_finalizes(self):
        builder = ProfileBuilder()
        builder.metric("m")
        builder.build()
        with pytest.raises(RuntimeError):
            builder.sample(["f"], {0: 1.0})

    def test_attributes_recorded(self):
        builder = ProfileBuilder(tool="x")
        builder.attribute("host", "dev01")
        assert builder.build().meta.attributes == {"host": "dev01"}


class TestValidation:
    def test_clean_profile_passes(self, simple_profile):
        report = validate(simple_profile)
        assert report.ok
        assert not report.errors

    def test_unused_metric_warns(self):
        builder = ProfileBuilder()
        builder.metric("used")
        builder.metric("unused")
        builder.sample(["main"], {0: 1.0})
        report = validate(builder.build())
        assert report.ok
        assert any("unused" in w for w in report.warnings)

    def test_line_without_file_warns(self):
        builder = ProfileBuilder()
        builder.metric("m")
        builder.sample([intern_frame("f", line=12)], {0: 1.0})
        report = validate(builder.build())
        assert any("code link" in w for w in report.warnings)

    def test_negative_sum_metric_warns(self):
        builder = ProfileBuilder()
        builder.metric("m")
        builder.sample(["f"], {0: -5.0})
        report = validate(builder.build())
        assert any("negative" in w for w in report.warnings)

    def test_bad_point_arity_is_error(self):
        builder = ProfileBuilder()
        builder.metric("m")
        builder.sample(["f"], {0: 1.0})
        profile = builder.build()
        from repro.core.monitor import MonitoringPoint
        node = profile.find_by_name("f")[0]
        # Bypass add_point validation to simulate a corrupt file.
        profile.points.append(MonitoringPoint(
            kind=PointKind.USE_REUSE, contexts=[node], values={}))
        report = validate(profile)
        assert not report.ok


# -- one builder: the columnar build against the edit API -------------------

_SPECS = st.sampled_from(["main", "work", ("work", "w.c", 3),
                          ("leaf", "l.c", 9, "lib"),
                          intern_frame("io", "io.c", 1)])
#: Root-first paths, the empty one (the root itself) included.
_PATHS = st.lists(_SPECS, max_size=4)
_VALUES = st.one_of(st.floats(allow_nan=False), st.just(math.nan),
                    st.sampled_from([0.0, -0.0, 0.5, 1.25, 1e-300]),
                    st.integers(-3, 3))
_PAIRS = st.sampled_from([PointKind.USE_REUSE, PointKind.REDUNDANCY,
                          PointKind.DATA_RACE, PointKind.FALSE_SHARING])


@st.composite
def _recordings(draw):
    """``(metric count, calls)``: a stream of builder calls of every
    kind, each a method name and its arguments."""
    n_metrics = draw(st.integers(2, 3))
    cells = st.dictionaries(st.integers(0, n_metrics - 1), _VALUES,
                            max_size=n_metrics)
    calls = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["sample", "sample", "leaf_sample",
                                     "snapshot", "allocation",
                                     "pair_point"]))
        if kind in ("sample", "leaf_sample"):
            calls.append((kind, draw(_PATHS), draw(cells)))
        elif kind == "snapshot":
            calls.append((kind, draw(st.integers(1, 3)), draw(_PATHS),
                          draw(cells)))
        elif kind == "allocation":
            calls.append((kind, draw(st.sampled_from(["buf", "arr"])),
                          draw(_PATHS), draw(cells),
                          draw(st.integers(0, 2))))
        else:
            pair = draw(_PAIRS)
            paths = [draw(_PATHS) for _ in range(POINT_ARITY[pair])]
            calls.append((kind, pair, paths, draw(cells)))
    return n_metrics, calls


def _built(n_metrics, calls):
    builder = ProfileBuilder(tool="t")
    for index in range(n_metrics):
        builder.metric("m%d" % index)
    for name, *args in calls:
        getattr(builder, name)(*args)
    return builder.build()


def _edited(n_metrics, calls):
    """The same calls through the edit API: the object tree, folded."""
    profile = Profile(meta=ProfileMeta(tool="t"))
    for index in range(n_metrics):
        profile.add_metric(Metric("m%d" % index))

    def context(path):
        return profile.cct.add_path([_coerce_frame(s) for s in path])

    for name, *args in calls:
        if name == "sample":
            path, values = args
            profile.add_sample([_coerce_frame(s) for s in path], values)
        elif name == "leaf_sample":
            path, values = args
            profile.add_sample([_coerce_frame(s) for s in reversed(path)],
                               values)
        elif name == "snapshot":
            sequence, path, values = args
            profile.add_point(MonitoringPoint(
                kind=PointKind.ALLOCATION, contexts=[context(path)],
                values=dict(values), sequence=sequence))
        elif name == "allocation":
            object_name, path, values, sequence = args
            profile.add_point(MonitoringPoint(
                kind=PointKind.ALLOCATION,
                contexts=[context(list(path)
                                  + [data_object_frame(object_name)])],
                values=dict(values), sequence=sequence))
        else:
            kind, paths, values = args
            profile.add_point(MonitoringPoint(
                kind=kind, contexts=[context(path) for path in paths],
                values=dict(values)))
    assert profile.columnar(build=True) is not None
    return profile


@settings(max_examples=150, deadline=None)
@given(_recordings())
def test_the_builder_equals_the_edit_api(recording):
    built, edited = _built(*recording), _edited(*recording)
    assert built.columnar() is not None
    assert profile_digest(built) == profile_digest(edited)
    for shape in SHAPES:
        assert_views_identical(transform(built, shape),
                               transform(edited, shape))
    assert serialize.dumps(built) == serialize.dumps(edited)
    assert jsonio.dumps(built) == jsonio.dumps(edited)


def test_recording_methods_return_nothing():
    builder = ProfileBuilder()
    cpu = builder.metric("cpu")
    assert builder.sample(["main"], {cpu: 1.0}) is None
    assert builder.leaf_sample(["main"], {cpu: 1.0}) is None
    assert builder.snapshot(1, ["main"], {cpu: 1.0}) is None
    assert builder.allocation("buf", ["main"], {cpu: 1.0}) is None
    assert builder.pair_point(PointKind.REDUNDANCY, [["a"], ["b"]],
                              {cpu: 1.0}) is None


def test_column_and_arity_checks_raise_at_call_time():
    builder = ProfileBuilder()
    cpu = builder.metric("cpu")
    with pytest.raises(SchemaError):
        builder.sample(["main"], {cpu + 1: 1.0})
    with pytest.raises(SchemaError):
        builder.snapshot(1, ["main"], {7: 1.0})
    with pytest.raises(SchemaError):
        builder.pair_point(PointKind.USE_REUSE, [["a"], ["b"]], {cpu: 1.0})
    with pytest.raises(TypeError):
        builder.sample(["main"], {cpu: "3"})  # no number, as add_value


def test_a_metric_added_after_a_parse_gets_its_column():
    """A snapshot narrower than the schema is stale, so the next use folds
    the facade with every column (the parsed arrays stayed one column
    short, and ``total`` of the new metric raised ``IndexError``)."""
    profile = parse_bytes(_valid_inputs()["pprof"], format="pprof")
    profile.add_metric(Metric("extra"))
    assert profile.columnar() is None
    assert profile.total("extra") == 0.0
    tree = transform(profile, "top_down")
    assert tree.columnar().inclusive.shape[1] == len(profile.schema)


# -- opens fold nothing -------------------------------------------------------

_BUILDS = ("core.cct_materializations", "core.cct_folds")


def _builds():
    counters = get_registry().snapshot()["counters"]
    return [counters[name] for name in _BUILDS]


@pytest.mark.parametrize("name", sorted(_valid_inputs()))
def test_opening_and_viewing_builds_no_object_tree(name):
    data = _valid_inputs()[name]
    before = _builds()
    profile = parse_bytes(data, format=name)
    for shape in SHAPES:
        transform(profile, shape)
    assert profile.columnar() is not None
    assert _builds() == before


def test_a_profile_with_points_is_materialized_once_at_build():
    builder = ProfileBuilder()
    inuse = builder.metric("inuse")
    builder.sample(["main", "alloc"], {inuse: 1.0})
    builder.snapshot(1, ["main", "alloc"], {inuse: 64.0})
    before = _builds()
    profile = builder.build()
    assert _builds() == [before[0] + 1, before[1]]
    (point,) = profile.points
    (node,) = profile.find_by_name("alloc")
    assert point.contexts == [node]
    for loads, dumps in ((serialize.loads, serialize.dumps),
                         (lambda text: jsonio.loads(text), jsonio.dumps)):
        data = dumps(profile)
        before = _builds()
        loaded = loads(data)
        for shape in SHAPES:
            transform(loaded, shape)
        assert _builds() == [before[0] + 1, before[1]]
        assert profile_digest(loaded) == profile_digest(profile)


# -- the builder's profiles against the object-tree builder's digests -------
#
# tests/data/builder_digests.json holds, for every converter's test input
# and every in-process producer below, the profile digest, the three view
# digests and hashes of the .ezvw bytes and the easyview-json text, as
# the builder made them when it inserted every path into object nodes.

_GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                       "builder_digests.json")


def _code(name, line, module="app", back=None):
    """A stand-in for a Python frame object."""
    code = SimpleNamespace(co_qualname=name, co_name=name,
                           co_filename="%s.py" % module,
                           co_firstlineno=line)
    return SimpleNamespace(f_code=code, f_lineno=line + 2,
                           f_globals={"__name__": module}, f_back=back)


def _traced():
    """The tracing profiler over scripted call/return events, on a clock
    that ticks 7 µs per reading."""
    ticks = iter(range(10 ** 6))
    profiler = tracing.TracingProfiler(timer=lambda: next(ticks) * 7e-6)
    main, work, leaf = _code("main", 1), _code("work", 10), _code("leaf", 20)
    events = [(main, "call", None), (work, "call", None),
              (leaf, "call", None), (leaf, "return", None),
              (work, "c_call", len), (work, "c_return", len),
              (work, "return", None), (work, "call", None),
              (work, "return", None), (main, "return", None)]
    real_sys = tracing.sys
    tracing.sys = SimpleNamespace(setprofile=lambda fn: None)
    try:
        profiler.start()
        for pyframe, event, arg in events:
            profiler._trace(pyframe, event, arg)
        return profiler.stop()
    finally:
        tracing.sys = real_sys


class _Ticks:
    """A stop event that lets a sampler loop run ``count`` times."""

    def __init__(self, count):
        self.count = count

    def wait(self, timeout):
        self.count -= 1
        return self.count < 0

    def set(self):
        pass

    def clear(self):
        pass


def _sampled(all_threads):
    """The sampling profiler over scripted stacks on two threads."""
    main = _code("main", 1)
    stacks = {1: _code("leaf", 30, back=_code("work", 20, back=main)),
              2: _code("poll", 40, module="net", back=main)}
    idle = SimpleNamespace(start=lambda: None, join=lambda: None)
    profiler = sampling.SamplingProfiler(all_threads=all_threads)
    profiler._stop_event = _Ticks(5)
    real_sys, real_threading = sampling.sys, sampling.threading
    sampling.sys = SimpleNamespace(_current_frames=lambda: stacks)
    sampling.threading = SimpleNamespace(
        Thread=lambda target, daemon: idle, get_ident=lambda: 0,
        enumerate=lambda: [])
    try:
        profiler.start(thread_id=1)
        profiler._run()
        return profiler.stop()
    finally:
        sampling.sys, sampling.threading = real_sys, real_threading


def _heap_snapshots():
    """The heap profiler over three scripted tracemalloc snapshots."""
    def stat(size, *lines):
        return SimpleNamespace(
            traceback=[SimpleNamespace(filename="alloc.py", lineno=n)
                       for n in lines], size=size, count=size // 16)
    captures = iter([[stat(64, 3, 2, 1), stat(32, 4, 1)],
                     [stat(128, 3, 2, 1), stat(32, 4, 1), stat(0)],
                     [stat(256, 3, 2, 1)]])
    fake = SimpleNamespace(
        start=lambda frames: None, stop=lambda: None,
        take_snapshot=lambda: SimpleNamespace(
            statistics=lambda key, found=next(captures): found))
    real = memsnap.tracemalloc
    memsnap.tracemalloc = fake
    try:
        profiler = memsnap.HeapSnapshotProfiler()
        profiler.start()
        for _ in range(3):
            profiler.capture()
        return profiler.stop()
    finally:
        memsnap.tracemalloc = real


def _spans():
    """``obs.export.to_profile`` over a scripted span tree."""
    def span(name, span_id, parent_id, start, duration):
        made = Span(name, "t1", span_id, parent_id)
        made.start_wall_ns, made.duration_ns = start, duration
        return made
    return export.to_profile([
        span("serve.request", "a", None, 1000, 900),
        span("engine.transform", "b", "a", 1100, 500),
        span("analysis.layout", "c", "b", 1200, 200),
        span("store.load", "d", "a", 1700, 100),
        span("store.load", "e", "missing", 2000, 50)])


def _producers():
    """Name -> factory of every profile the golden file covers."""
    producers = {"converter-" + name: (lambda data=data, name=name:
                                       parse_bytes(data, format=name))
                 for name, data in _valid_inputs().items()}
    producers.update({
        "machine-lulesh": lulesh_profile,
        "machine-lulesh-fused": lambda: lulesh_fused_profile(scale=2),
        "machine-lulesh-reuse": lambda: lulesh_reuse_profile(scale=2),
        "machine-spark": spark_profile,
        "machine-grpc-leak": lambda: grpc_client_profile(clients=6,
                                                         snapshots=4),
        "machine-redundancy": lambda: redundancy_workload(scale=2),
        "machine-false-sharing": false_sharing_workload,
        "machine-go-service": lambda: go_service_profile(requests=40),
        "machine-deep-path": lambda: deep_path_profile(depth=1500),
        "machine-checkout": checkout_service_profile,
        "tracing": _traced,
        "sampling": lambda: _sampled(False),
        "sampling-all-threads": lambda: _sampled(True),
        "memsnap": _heap_snapshots,
        "obs-export": _spans,
    })
    return producers


def builder_digests(profile):
    """What the golden file records of one profile."""
    profile.meta.time_nanos = profile.meta.duration_nanos = 0
    record = {"profile": profile_digest(profile)}
    for shape in SHAPES:
        record[shape] = viewtree_digest(transform(profile, shape))
    record["ezvw"] = hashlib.sha256(serialize.dumps(profile)).hexdigest()
    record["json"] = hashlib.sha256(
        jsonio.dumps(profile).encode("utf-8")).hexdigest()
    return record


def test_golden_covers_every_producer():
    with open(_GOLDEN) as handle:
        golden = json.load(handle)
    assert sorted(golden) == sorted(_producers())
    assert {"converter-" + name for name in names()} <= set(golden)


@pytest.mark.parametrize("name", sorted(_producers()))
def test_the_builder_keeps_the_golden_digests(name):
    with open(_GOLDEN) as handle:
        expected = json.load(handle)[name]
    assert builder_digests(_producers()[name]()) == expected
