"""The §V-B customization hooks on the columnar transforms.

``transform(profile, shape, customization)`` runs remap, elide and
derived-metric callbacks on the arrays and returns a columnar-backed
tree, whether the builder made the arrays or ``from_cct`` folded them.
Every check holds it against :mod:`repro.bench.view_oracle` run on an
object-only copy of the same profile: equal digests and an identical
node-by-node comparison (values, child order and sources), for each
shape and each hook setting, on corpus, workload, deep, root-only and
hypothesis profiles.  Also here: the hook semantics themselves (an elided
context leaves with its subtree in every shape; a merging remap does not
double-count the flat view).
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ProfileBuilder
from repro.analysis.callbacks import Customization
from repro.analysis.transform import transform
from repro.bench import view_oracle
from repro.bench.pprof_oracle import parse_object
from repro.bench.profile_oracle import ObjectProfile
from repro.converters import pprof
from repro.core.cct_columnar import from_cct
from repro.core.digest import viewtree_digest
from repro.core.frame import intern_frame
from repro.core.metric import Metric
from repro.profilers.corpus import generate_bytes, tier
from repro.profilers.workloads import (deep_path_profile, lulesh_profile,
                                       spark_profile)

from .twins import object_only

SHAPES = ("top_down", "bottom_up", "flat")


def _shorten(frame):
    """A merging remap: names sharing a 4-character prefix become one
    frame, with the file dropped."""
    return intern_frame(frame.name[:4], "", frame.line, frame.module,
                        frame.address, frame.kind)


def _names(profile):
    return sorted({node.frame.name for node in profile.nodes()})


def _remap(profile):
    return Customization().remap_with(_shorten)


def _elide_names(profile):
    return Customization().elide_names(*_names(profile)[1::4])


def _elide_if(profile):
    return Customization().elide_if(lambda node: node.frame.line % 7 == 3)


def _cheap_cutoff(profile):
    """A quarter of the first metric's total, summed the same way
    whatever the profile's representation."""
    return math.fsum(node.metrics.get(0, 0.0)
                     for node in profile.nodes()) / 4


def _elide_cheap(profile):
    # Reads each offered context's cost, as a pane script's
    # ``elide(lambda n: value(n, "cpu") < 1.0)`` does.
    cutoff = _cheap_cutoff(profile)
    return Customization().elide_if(
        lambda node: node.inclusive.get(0, 0.0) < cutoff)


def _derive_inclusive(profile):
    first = profile.schema.names()[0]
    return Customization().derive(
        Metric("half_plus_fanout"),
        lambda node, env: env[first] / 2 + len(node.children))


def _derive_exclusive(profile):
    first = profile.schema.names()[0]
    return Customization().derive(
        Metric("tripled"), lambda node, env: 3 * env[first],
        inclusive=False)


def _all_hooks(profile):
    first = profile.schema.names()[0]
    custom = Customization().remap_with(_shorten)
    custom.elide_names(*_names(profile)[1::4])
    custom.elide_if(lambda node: node.frame.line % 7 == 3)
    cutoff = _cheap_cutoff(profile)
    custom.elide_if(lambda node: node.inclusive.get(0, 0.0) < cutoff)
    custom.derive(Metric("half"), lambda node, env: env[first] / 2)
    custom.derive(Metric("tripled"), lambda node, env: 3 * env[first],
                  inclusive=False)
    return custom


HOOKS = {
    "none": lambda profile: None,
    "remap_with": _remap,
    "elide_names": _elide_names,
    "elide_if": _elide_if,
    "elide_cheap": _elide_cheap,
    "derive_inclusive": _derive_inclusive,
    "derive_exclusive": _derive_exclusive,
    "all": _all_hooks,
}
# Without hooks, test_viewtree_columnar.py::TestTransformOracle holds the
# corpus and workload views against the oracle.
HOOKED = sorted(set(HOOKS) - {"none"})


def assert_same_view(fast, oracle):
    """Equal digests and equal trees node by node: frames, values, child
    order, and the sources' frames."""
    assert fast.columnar() is not None
    assert isinstance(oracle, view_oracle.ObjectTree)
    assert fast.schema.names() == oracle.schema.names()
    assert viewtree_digest(fast) == view_oracle.digest(oracle)
    stack = [(fast.root, oracle.root)]
    while stack:
        x, y = stack.pop()
        assert x.frame == y.frame
        assert x.inclusive == y.inclusive
        assert x.exclusive == y.exclusive
        assert list(x.children) == list(y.children)
        assert (sorted(s.frame.key() for s in x.sources)
                == sorted(s.frame.key() for s in y.sources))
        stack.extend(zip(x.children.values(), y.children.values()))


def check(make, hook, shape):
    """Both kinds of arrays (the builder's, folded ones) against the
    oracle on an object-only copy."""
    reference = object_only(make())
    oracle = view_oracle.transform(reference, shape, HOOKS[hook](reference))
    built = make()
    folded = make()
    folded.attach_columnar(from_cct(folded.cct, len(folded.schema)))
    for profile in (built, folded):
        fast = transform(profile, shape, HOOKS[hook](profile))
        assert_same_view(fast, oracle)
    assert isinstance(reference, ObjectProfile)  # the oracle never folds


@pytest.fixture(scope="module")
def corpus_raw():
    return generate_bytes(tier("small"), compress=False)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("hook", HOOKED)
def test_corpus(corpus_raw, hook, shape):
    reference = parse_object(corpus_raw)
    oracle = view_oracle.transform(reference, shape, HOOKS[hook](reference))
    fast_profile = pprof.parse(corpus_raw)
    assert fast_profile.columnar() is not None
    fast = transform(fast_profile, shape, HOOKS[hook](fast_profile))
    assert_same_view(fast, oracle)


def deep_chain():
    """A 3000-frame chain: deep past any recursion limit, yet small
    enough for the object bottom-up view, which walks one whole reversed
    path per contributing context."""
    return deep_path_profile(depth=3000)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("hook", HOOKED)
@pytest.mark.parametrize("make", [lulesh_profile, spark_profile,
                                  deep_chain])
def test_workloads(make, hook, shape):
    check(make, hook, shape)


def _root_only(value=None):
    def make():
        builder = ProfileBuilder(tool="test")
        cpu = builder.metric("cpu")
        if value is not None:
            builder.sample([], {cpu: value})
        return builder.build()
    return make


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("hook", sorted(HOOKS))
@pytest.mark.parametrize("value", [None, 5.0])
def test_root_only(value, hook, shape):
    check(_root_only(value), hook, shape)


_frames = st.sampled_from([("f_v1", "a.c", 1), ("f_v2", "a.c", 2),
                           ("g", "b.c", 3), ("gate", "b.c", 10),
                           ("main", "m.c", 4), ("work", "w.c", 17)])


@given(samples=st.lists(st.tuples(
           st.lists(_frames, min_size=1, max_size=6),
           st.dictionaries(st.integers(0, 1),
                           st.sampled_from([0.0, 1.0, 2.5, 7.0]),
                           max_size=2)),
           min_size=1, max_size=10),
       hook=st.sampled_from(sorted(HOOKS)), shape=st.sampled_from(SHAPES))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hypothesis_profiles(samples, hook, shape):
    def make():
        builder = ProfileBuilder(tool="test")
        builder.metric("cpu")
        builder.metric("alloc")
        for path, values in samples:
            builder.sample(path, values)
        return builder.build()
    check(make, hook, shape)


# -- what the hooks mean ---------------------------------------------------

def _profile(samples):
    builder = ProfileBuilder(tool="test")
    cpu = builder.metric("cpu")
    for path, value in samples:
        builder.sample([(name, "a.c", line)
                        for line, name in enumerate(path, 1)], {cpu: value})
    return builder.build()


def _rows(tree):
    return {node.frame.name: (node.inclusive.get(0), node.exclusive.get(0))
            for node in tree.nodes()}


BOTH_PATHS = [transform, view_oracle.transform]


@pytest.mark.parametrize("build", BOTH_PATHS)
def test_merging_remap_counts_recursion_once_in_flat(build):
    profile = _profile([(["f_v1", "f_v2", "g"], 10.0), (["f_v1"], 1.0)])
    custom = Customization().remap_with(
        lambda frame: intern_frame("f", frame.file, frame.line)
        if frame.name.startswith("f_v") else frame)
    rows = _rows(build(profile, "flat", custom))
    assert rows["<root>"] == (11.0, 11.0)
    assert rows["f"] == (11.0, 1.0)
    assert rows["g"] == (10.0, 10.0)


ELIDE_SAMPLES = [(["main", "work", "leaf"], 10.0), (["main", "work"], 3.0),
                 (["main"], 1.0)]


@pytest.mark.parametrize("build", BOTH_PATHS)
@pytest.mark.parametrize("shape,expected", [
    # The ancestors keep their full inclusive values.
    ("top_down", {"<root>": (14.0, None), "main": (14.0, 1.0)}),
    # Only main's own cost is left to reverse.
    ("bottom_up", {"<root>": (1.0, None), "main": (1.0, 1.0)}),
    ("flat", {"<root>": (1.0, 1.0), "<unknown module>": (1.0, 1.0),
              "a.c": (1.0, 1.0), "main": (14.0, 1.0)}),
])
def test_elide_drops_the_subtree_in_every_shape(build, shape, expected):
    custom = Customization().elide_names("work")
    assert _rows(build(_profile(ELIDE_SAMPLES), shape, custom)) == expected


@pytest.mark.parametrize("shape", SHAPES)
def test_elide_callbacks_never_see_an_elided_subtree(shape):
    seen = []

    def elide(node):
        seen.append(node.frame.name)
        return node.frame.name == "work"

    tree = transform(_profile(ELIDE_SAMPLES), shape,
                     Customization().elide_if(elide))
    assert tree.columnar() is not None
    assert sorted(seen) == ["main", "work"]


@pytest.mark.parametrize("shape", SHAPES)
def test_elided_view_sources_are_the_profiles_own_contexts(shape):
    profile = _profile(ELIDE_SAMPLES)
    tree = transform(profile, shape, Customization().elide_names("work"))
    contexts = {id(node) for node in profile.nodes()}
    sources = [source for node in tree.nodes() for source in node.sources]
    assert sources and all(id(source) in contexts for source in sources)


def test_remap_never_sees_the_root():
    seen = []

    def remap(frame):
        seen.append(frame.name)
        return frame

    for shape in SHAPES:
        transform(_profile(ELIDE_SAMPLES), shape,
                  Customization().remap_with(remap))
    assert "<root>" not in seen
    assert sorted(set(seen)) == ["leaf", "main", "work"]


def test_remap_only_builds_no_cct_facade(corpus_raw):
    profile = pprof.parse(corpus_raw)
    tree = transform(profile, "top_down", _remap(profile))
    assert tree.columnar() is not None
    assert profile._cct is None


def test_derived_column_covers_every_row(corpus_raw):
    profile = pprof.parse(corpus_raw)
    tree = transform(profile, "flat", _derive_exclusive(profile))
    cvt = tree.columnar()
    assert cvt is not None
    index = tree.schema.index_of("tripled")
    assert (cvt.exclusive[:, index] == 3 * cvt.exclusive[:, 0]).all()
    assert cvt.excl_present[:, index].all()
