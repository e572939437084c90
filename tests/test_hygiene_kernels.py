"""Differential oracle for the §V-A(a) hygiene kernels.

``prune``, ``collapse_recursion``, ``truncate_depth`` and
``filter_by_name`` run on the view rows and return trees with arrays.
Each is held against its object body in :mod:`repro.bench.view_oracle`,
run on the facade of the same view (``twins.facade_only``): equal
digests, and equal trees node by node — values, tags, baselines,
histograms, child order, each dict's key order and sources.  Inputs:
the corpus small and medium tiers, the LULESH and Spark workloads, a
10,000-frame chain, a root-only profile and hypothesis profiles; trees:
the three shapes plus one diff and one aggregate tree of each input.

Also here: the rules both sides share — a row merged from several
recursion depths sums their inclusive values, and every plane of a kept
row survives (a ``<pruned>`` row sums the dropped rows' baselines and
histograms) — and that every view the analysis package returns carries
arrays.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import ProfileBuilder, obs
from repro.analysis import (collapse_recursion, derive, diff_trees,
                            filter_by_name, filter_tree, merge_trees, prune,
                            truncate_depth, viewrows)
from repro.analysis.diff import add_delta_column
from repro.analysis.transform import bottom_up, flat, top_down, transform
from repro.analysis.viewtree import ViewTree
from repro.bench import view_oracle
from repro.converters import pprof
from repro.core.digest import viewtree_digest
from repro.profilers.corpus import generate_bytes, tier
from repro.profilers.workloads import (deep_path_profile, lulesh_profile,
                                       spark_profile)

from .twins import assert_views_identical, facade_only

SHAPES = ("top_down", "bottom_up", "flat")
KINDS = SHAPES + ("diff", "aggregate")


def _views(first, second, kind):
    """(view, facade-only twin) of one shape, a diff or an aggregate."""
    if kind in SHAPES:
        tree = transform(first, kind)
    else:
        pair = [transform(first, "top_down"), transform(second, "top_down")]
        tree = diff_trees(*pair) if kind == "diff" else merge_trees(pair)
    return tree, facade_only(tree)


def _operations(tree):
    """(label, kernel, oracle body) for every hygiene setting the tests
    hold; the filter hits the name of the view's first non-root row."""
    names = [frame.name for frame in tree.columnar().frames
             if frame.name != "<root>"]
    hit = names[0] if names else "main"
    operations = [
        ("collapse", collapse_recursion, view_oracle.collapse_recursion)]
    for fraction in (0.0, 0.005, 0.15):
        operations.append((
            "prune %g" % fraction,
            lambda t, f=fraction: prune(t, min_fraction=f),
            lambda t, f=fraction: view_oracle.prune(t, min_fraction=f)))
    operations.append((
        "prune of a pruned tree",
        lambda t: prune(prune(t, min_fraction=0.01), min_fraction=0.05),
        lambda t: view_oracle.prune(view_oracle.prune(t, min_fraction=0.01),
                                    min_fraction=0.05)))
    for depth in range(1, 6):
        operations.append((
            "truncate %d" % depth,
            lambda t, d=depth: truncate_depth(t, d),
            lambda t, d=depth: view_oracle.truncate_depth(t, d)))
    for label, pattern, regex in (("hit", hit, False),
                                  ("miss", "no such frame", False),
                                  ("regex", "^[a-m]", True)):
        operations.append((
            "filter %s" % label,
            lambda t, p=pattern, r=regex: filter_by_name(t, p, regex=r),
            lambda t, p=pattern, r=regex: view_oracle.filter_by_name(
                t, p, regex=r)))
    return operations


def check_all(first, second, spread=False):
    """Every operation on every kind of view of ``first`` (diffed and
    merged with ``second``) against the oracle; with ``spread``, each
    operation on one kind only, in turn, which keeps large inputs fast."""
    for position, kind in enumerate(KINDS):
        tree, twin = _views(first, second, kind)
        operations = _operations(tree)
        if spread:
            operations = operations[position::len(KINDS)]
        for label, kernel, oracle in operations:
            ours = kernel(tree)
            theirs = oracle(twin)
            assert isinstance(ours, ViewTree), (kind, label)
            assert viewtree_digest(ours) == view_oracle.digest(theirs), \
                (kind, label)
            assert_views_identical(ours, theirs)


def _corpus(name, seed=None):
    spec = tier(name)
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    return pprof.parse(generate_bytes(spec, compress=False))


def test_corpus_small():
    check_all(_corpus("small"), _corpus("small", seed=99))


def test_corpus_medium():
    check_all(_corpus("medium"), _corpus("medium", seed=99), spread=True)


@pytest.mark.parametrize("make", [lulesh_profile, spark_profile])
def test_workloads(make):
    check_all(make(), make(scale=3))


def test_deep_chain():
    check_all(deep_path_profile(10000), deep_path_profile(10000, seed=7),
              spread=True)


def _root_only(value):
    builder = ProfileBuilder(tool="test")
    cpu = builder.metric("cpu")
    profile = builder.build()
    if value is not None:
        profile.add_sample([], {cpu: value})
    return profile


@pytest.mark.parametrize("value", [None, 5.0])
def test_root_only(value):
    check_all(_root_only(value), _root_only(3.0))


_frames = st.sampled_from([("main", "m.c", 1), ("f", "r.c", 5),
                           ("f", "r.c", 6), ("g", "r.c", 9),
                           ("h", "h.c", 2), ("<pruned>", "", 0)])
_samples = st.lists(st.tuples(
    st.lists(_frames, min_size=0, max_size=6),
    st.dictionaries(st.integers(0, 1),
                    st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.5, 100.0, -4.0]),
                    max_size=2)), min_size=1, max_size=10)


def _build(samples):
    builder = ProfileBuilder(tool="test")
    builder.metric("cpu")
    builder.metric("alloc")
    for path, values in samples:
        builder.sample(path, values)
    return builder.build()


@given(_samples, _samples)
@settings(max_examples=40, deadline=None)
def test_hypothesis_profiles(first, second):
    check_all(_build(first), _build(second))


# -- the rules both sides share ---------------------------------------------

def _profile(samples):
    builder = ProfileBuilder(tool="test")
    cpu = builder.metric("cpu")
    for path, value in samples:
        builder.sample([(name, "r.c", line)
                        for line, name in enumerate(path, 1)], {cpu: value})
    return builder.build()


def _rows(tree):
    return {node.frame.name: (node.inclusive.get(0), node.exclusive.get(0))
            for node in tree.nodes()}


@pytest.mark.parametrize("collapse", [collapse_recursion,
                                      view_oracle.collapse_recursion])
def test_collapse_adds_a_callee_met_at_two_depths(collapse):
    profile = _profile([(["main", "f", "g"], 10.0),
                        (["main", "f", "f", "g"], 5.0)])
    tree = top_down(profile)
    collapsed = collapse(tree if collapse is collapse_recursion
                         else facade_only(tree))
    rows = _rows(collapsed)
    assert rows["g"] == (15.0, 15.0)
    assert rows["f"] == (15.0, None)   # the outermost f's inclusive


@given(_samples)
@settings(max_examples=60, deadline=None)
def test_collapsed_inclusive_is_exclusive_plus_children(samples):
    profile = _build([(path, {0: abs(values.get(0, 1.0))})
                      for path, values in samples])
    for node in collapse_recursion(top_down(profile)).nodes():
        children = sum(child.inclusive.get(0, 0.0)
                       for child in node.children.values())
        assert node.inclusive.get(0, 0.0) == pytest.approx(
            node.exclusive.get(0, 0.0) + children)


def _diff_and_aggregate():
    base = _profile([(["main", "work"], 100.0), (["main", "idle"], 2.0),
                     (["main", "gone"], 1.0)])
    treat = _profile([(["main", "work"], 150.0), (["main", "idle"], 3.0),
                      (["main", "new"], 1.0)])
    trees = [top_down(base), top_down(treat)]
    return diff_trees(*trees), merge_trees(trees)


HYGIENE = [
    ("prune", lambda t: prune(t, min_fraction=0.0)),
    ("collapse", collapse_recursion),
    ("truncate", lambda t: truncate_depth(t, 2)),
    ("filter", lambda t: filter_by_name(t, "work")),
]


@pytest.mark.parametrize("label,operation", HYGIENE)
def test_planes_survive_on_a_diff_tree(label, operation):
    diffed, _ = _diff_and_aggregate()
    work = operation(diffed).find_by_name("work")[0]
    assert work.delta(0) == 50.0
    assert work.baseline == {0: 100.0}
    assert work.tag == "+"


@pytest.mark.parametrize("label,operation", HYGIENE)
def test_planes_survive_on_an_aggregate_tree(label, operation):
    _, merged = _diff_and_aggregate()
    work = operation(merged).find_by_name("work")[0]
    assert work.histogram == {0: [100.0, 150.0]}


def test_pruned_row_sums_baselines_and_histograms():
    diffed, merged = _diff_and_aggregate()
    for tree, prune_fn in ((diffed, prune), (facade_only(diffed),
                                             view_oracle.prune)):
        (placeholder,) = prune_fn(tree, min_fraction=0.1).find_by_name(
            "<pruned>")
        # idle (3) and new (1) drop from the treatment; idle (2) and
        # gone (1) from the baseline.
        assert placeholder.inclusive == {0: 4.0}
        assert placeholder.exclusive == {0: 4.0}
        assert placeholder.baseline == {0: 3.0}
        assert placeholder.tag is None
    (placeholder,) = prune(merged, min_fraction=0.1).find_by_name("<pruned>")
    assert placeholder.histogram == {0: [3.0, 4.0]}


@pytest.mark.parametrize("prune_fn,twin", [(prune, lambda t: t),
                                           (view_oracle.prune, facade_only)])
def test_prune_of_a_pruned_tree_adds_into_its_placeholder(prune_fn, twin):
    profile = _profile([(["main", "a"], 100.0), (["main", "b"], 10.0),
                        (["main", "c"], 3.0), (["main", "d"], 3.0),
                        (["main", "e"], 4.0)])
    once = prune_fn(twin(top_down(profile)), min_fraction=0.03)
    assert _rows(once)["<pruned>"] == (6.0, 6.0)      # c and d
    twice = prune_fn(once, min_fraction=0.04)
    (main,) = twice.find_by_name("main")
    assert [child.frame.name for child in main.children.values()] == \
        ["a", "b", "<pruned>"]
    assert _rows(twice)["<pruned>"] == (10.0, 10.0)   # and then e


def _two_metrics(samples):
    builder = ProfileBuilder(tool="test")
    builder.metric("cpu")
    builder.metric("alloc")
    for path, values in samples:
        builder.sample([(name, "r.c", line)
                        for line, name in enumerate(path, 1)], values)
    return builder.build()


@pytest.mark.parametrize("prune_fn,twin", [(prune, lambda t: t),
                                           (view_oracle.prune, facade_only)])
def test_pruned_row_keys_follow_the_dropped_children(prune_fn, twin):
    # In the bottom-up view, a (dropped first) brings only alloc, then b
    # brings cpu: the <pruned> row lists alloc first, and so does its
    # histogram in an aggregate, whose first series the click pane shows.
    profile = _two_metrics([(["main", "a"], {1: 1.0}),
                            (["main", "b"], {0: 1.0, 1: 2.0}),
                            (["main", "c"], {0: 100.0})])
    (placeholder,) = prune_fn(twin(bottom_up(profile)),
                              min_fraction=0.1).find_by_name("<pruned>")
    assert list(placeholder.inclusive.items()) == [(1, 3.0), (0, 1.0)]
    assert list(placeholder.exclusive.items()) == [(1, 3.0), (0, 1.0)]
    merged = merge_trees([bottom_up(profile), bottom_up(profile)])
    pruned = prune_fn(twin(merged), min_fraction=0.1)
    (placeholder,) = pruned.find_by_name("<pruned>")
    assert list(placeholder.histogram.items()) == [(1, [3.0, 3.0]),
                                                   (0, [1.0, 1.0])]
    if prune_fn is prune:
        cvt = pruned.columnar()
        (row,) = [row for row in range(cvt.n_rows)
                  if viewrows.row_label(cvt, row) == placeholder.label()]
        assert viewrows.row_histogram(cvt, row) == [3.0, 3.0]


@pytest.mark.parametrize("collapse", [collapse_recursion,
                                      view_oracle.collapse_recursion])
def test_collapsed_row_keys_follow_the_walk(collapse):
    # The outer f brings alloc before the inner f, folded in, brings cpu.
    tree = top_down(_two_metrics([(["main", "f"], {1: 3.0}),
                                  (["main", "f", "f"], {0: 4.0})]))
    (f,) = collapse(tree if collapse is collapse_recursion
                    else facade_only(tree)).find_by_name("f")
    assert list(f.exclusive.items()) == [(1, 3.0), (0, 4.0)]


# -- every view carries arrays ------------------------------------------------

def test_every_view_carries_arrays():
    profile = _profile([(["main", "f", "f", "g"], 10.0),
                        (["main", "idle"], 1.0)])
    other = _profile([(["main", "f", "g"], 4.0)])
    views = [top_down(profile), bottom_up(profile), flat(profile)]
    views.append(merge_trees([views[0], top_down(other)]))
    views.append(diff_trees(views[0], top_down(other)))
    counter = obs.get_registry().counter("analysis.view_materializations")
    before = counter.value
    views += [prune(views[0]), collapse_recursion(views[0]),
              truncate_depth(views[0], 2), filter_by_name(views[0], "g")]
    assert counter.value == before
    views.append(filter_tree(views[0], lambda node: node.frame.name == "g"))
    views.append(views[0].fork())
    derived = top_down(profile)
    derive(derived, "twice", "2 * cpu")
    delta = diff_trees(views[0], top_down(other))
    add_delta_column(delta, 0)
    views += [derived, delta]
    for view in views:
        assert isinstance(view, ViewTree)
        assert view.columnar() is not None
        assert view.columnar().n_rows == view.node_count()
