"""The analyses that derive a new profile from built ones — anonymize,
combine, split_by_thread, range_profile — against their node-by-node
bodies in :mod:`repro.bench.profile_oracle`: equal digests, ``.ezvw``
bytes and JSON text.  Also here: none of them folds an object tree into
arrays, and without points none materializes one."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import ProfileBuilder
from repro.analysis.anonymize import anonymize
from repro.analysis.combine import combine
from repro.analysis.threads import split_by_thread, thread_totals
from repro.analysis.timerange import range_profile
from repro.analysis.transform import transform
from repro.bench import ezvw_oracle, profile_oracle
from repro.core import jsonio, serialize
from repro.core.digest import profile_digest
from repro.core.frame import FrameKind, intern_frame
from repro.core.monitor import PointKind
from repro.obs import get_registry
from repro.profilers.workloads import (false_sharing_workload,
                                       grpc_client_profile, lulesh_profile,
                                       lulesh_reuse_profile)

from .twins import object_only


def assert_same_profile(fast, slow):
    """``fast`` (built on arrays) and the oracle's ``slow`` (objects) are
    the same profile, bit for bit."""
    assert isinstance(slow, profile_oracle.ObjectProfile)
    folded = profile_oracle.fold(slow)
    assert profile_digest(fast) == profile_oracle.digest(slow)
    assert profile_digest(folded) == profile_oracle.digest(slow)
    assert serialize.dumps(fast) == ezvw_oracle.dumps(slow)
    assert serialize.dumps(fast) == serialize.dumps(folded)
    assert jsonio.dumps(fast) == jsonio.dumps(folded)


# -- inputs -------------------------------------------------------------------

#: Same-name siblings that differ only in line (they merge when lines are
#: dropped, and on ``merge_key`` in combine), a kept module, and threads.
_FRAMES = [("f", "a.c", 1, "app"), ("f", "a.c", 2, "app"),
           ("g", "b.c", 3, "libc.so"), ("g", "b.c", 4, "libc.so"),
           ("h", "", 0, ""), intern_frame("T1", kind=FrameKind.THREAD)]

_VALUES = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1e16, -2.5, 7.0 / 3])

#: Metric descriptors; equal names with different units conflict.
_METRICS = [("cpu", "ns"), ("cpu", "count"), ("mem", "bytes")]


@st.composite
def built_profiles(draw):
    builder = ProfileBuilder(tool=draw(st.sampled_from(["perf", "heap"])))
    names = set()
    columns = []
    for name, unit in draw(st.lists(st.sampled_from(_METRICS), min_size=1,
                                    max_size=3)):
        if name not in names:
            names.add(name)
            columns.append(builder.metric(name, unit=unit))
    paths = st.lists(st.sampled_from(_FRAMES), min_size=0, max_size=5)
    cells = st.dictionaries(st.sampled_from(columns), _VALUES)
    for _ in range(draw(st.integers(1, 12))):
        builder.sample(draw(paths), draw(cells))
    for _ in range(draw(st.integers(0, 2))):
        builder.snapshot(draw(st.integers(1, 3)), draw(paths), draw(cells))
    if draw(st.booleans()):
        builder.pair_point(PointKind.DATA_RACE, [draw(paths), draw(paths)],
                           draw(cells))
    return builder.build()


# -- the properties -----------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(built_profiles(), st.booleans(),
       st.sampled_from([(), ("libc.so",), ("app", "libc.so")]))
def test_anonymize_equals_its_node_by_node_body(profile, keep_lines,
                                                keep_modules):
    fast = anonymize(profile, key="k", keep_lines=keep_lines,
                     keep_modules=keep_modules)
    slow = profile_oracle.anonymize(object_only(profile), key="k",
                                    keep_lines=keep_lines,
                                    keep_modules=keep_modules)
    assert_same_profile(fast, slow)


@settings(max_examples=120, deadline=None)
@given(st.lists(built_profiles(), min_size=2, max_size=3))
def test_combine_equals_its_node_by_node_body(profiles):
    fast = combine(profiles)
    slow = profile_oracle.combine([object_only(p) for p in profiles])
    assert fast.schema.names() == slow.schema.names()
    assert_same_profile(fast, slow)


@pytest.mark.parametrize("make", [false_sharing_workload,
                                  lambda: false_sharing_workload(threads=3)])
def test_split_by_thread_equals_its_node_by_node_body(make):
    profile = make()
    fast = split_by_thread(profile)
    slow = profile_oracle.split_by_thread(object_only(profile))
    assert list(fast) == list(slow)
    for key in fast:
        assert_same_profile(fast[key], slow[key])
    assert thread_totals(profile, "cpu") == profile_oracle.thread_totals(
        object_only(profile), "cpu")


@pytest.mark.parametrize("combine_as", ["mean", "sum", "last"])
@pytest.mark.parametrize("window", [(1, 4), (2, 3), (4, 4)])
def test_range_profile_equals_its_node_by_node_body(combine_as, window):
    profile = grpc_client_profile(clients=6, snapshots=4)
    fast = range_profile(profile, *window, combine=combine_as)
    slow = profile_oracle.range_profile(object_only(profile), *window,
                                        combine=combine_as)
    assert_same_profile(fast, slow)


# -- no object tree is folded -------------------------------------------------

def _builds():
    counters = get_registry().snapshot()["counters"]
    return (counters["core.cct_materializations"],
            counters["core.cct_folds"])


def _derived(plain, with_points):
    """Every analysis that derives a profile, on inputs built first."""
    yield "split_by_thread", lambda: list(
        split_by_thread(plain["threads"]).values())
    yield "thread_totals", lambda: thread_totals(plain["threads"], "cpu")
    yield "anonymize", lambda: [anonymize(plain["lulesh"], key="k")]
    yield "combine", lambda: [combine([plain["lulesh"], plain["lulesh"]])]
    yield "range_profile", lambda: [range_profile(with_points["grpc"], 1, 3)]


def _threaded():
    builder = ProfileBuilder()
    cpu = builder.metric("cpu")
    for name, value in (("t0", 1.0), ("t1", 3.0)):
        builder.sample([intern_frame(name, kind=FrameKind.THREAD), "work"],
                       {cpu: value})
    return builder.build()


def test_no_analysis_folds_an_object_tree():
    plain = {"threads": _threaded(), "lulesh": lulesh_profile(scale=2)}
    with_points = {"grpc": grpc_client_profile(clients=6, snapshots=4),
                   "reuse": lulesh_reuse_profile(scale=2)}
    for name, run in _derived(plain, with_points):
        before = _builds()
        result = run()
        if isinstance(result, list):
            for profile in result:
                transform(profile, "top_down")
        materialized, folds = (a - b for a, b in zip(_builds(), before))
        assert folds == 0, name
        if name != "range_profile":  # its input carries points
            assert materialized == 0, name
    before = _builds()
    anonymize(with_points["reuse"], key="k")
    combine([with_points["reuse"], plain["lulesh"]])
    assert _builds()[1] == before[1]


def test_merged_cells_sum_in_the_copy_loops_order():
    """Three contexts land in one cell once lines are dropped (anonymize)
    or on ``merge_key`` (combine).  0.1, 0.2 and 0.3 sum to different
    floats in different orders, so only the old loops' order — rows pop
    last-first — gives the oracle's bits."""
    builder = ProfileBuilder()
    cpu = builder.metric("cpu")
    f1, f2, g3, g4 = _FRAMES[:4]
    for path, value in (([f1, g3], 0.1), ([f1, g4], 0.2), ([f2, g3], 0.3)):
        builder.sample(path, {cpu: value})
    profile = builder.build()
    assert_same_profile(anonymize(profile, key="k"),
                        profile_oracle.anonymize(object_only(profile), "k"))
    assert_same_profile(combine([profile, profile]),
                        profile_oracle.combine([object_only(profile)] * 2))
