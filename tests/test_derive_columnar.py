"""Differential oracle for column-wise derived metrics.

``formula.derive`` and ``diff.add_delta_column`` evaluate over the value
matrix of a columnar-backed view and keep the arrays; the scalar
evaluator over the ``ViewNode`` dicts stays as the oracle.  Every check
here runs the same operations on a columnar tree and on its
``mark_mutated()`` twin (same arrays, facade only) and demands identical
results bit for bit — digests, materialized dicts with key order, signed
zeros — and the same diff / aggregate / summary / flame layout on top.

NaNs compare as one value: which payload (sign included) survives ``+``
or ``*`` of two NaNs changes in CPython itself once the adaptive
interpreter specializes the bytecode, so the oracle does not fix it.
Digests are compared exactly whenever no NaN is involved.
"""

import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ProfileBuilder
from repro.analysis import formula
from repro.analysis.aggregate import merge_trees
from repro.analysis.diff import add_delta_column, diff_trees, summarize
from repro.analysis.transform import transform
from repro.analysis.viewtree import ViewTree
from repro.core.cct_columnar import from_cct
from repro.core.digest import viewtree_digest
from repro.errors import EasyViewError
from repro.viz.layout import layout

np = pytest.importorskip("numpy")

# The edge values overflow and meet inf * 0 on purpose.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SHAPES = ("top_down", "bottom_up", "flat")
METRICS = ("cpu", "alloc", "samples")
DERIVED = ("d0", "d1")

#: Absent cells come from samples that leave a metric out; these are the
#: values the present ones take.
EDGE_VALUES = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1e308,
               -1e308, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 3.0,
               -2.5, 7.0, 0.5)
FINITE_VALUES = (0.0, -0.0, 5e-324, 1e-310, 1.0, 3.0, 2.5, 7.0, 0.5, 12.0)

FRAMES = [("main", "m.c", 1), ("a", "a.c", 2), ("b", "b.c", 3),
          ("c", "c.c", 4), ("a", "a2.c", 5)]


def _profiles(values):
    sample = st.tuples(
        st.lists(st.sampled_from(FRAMES), min_size=1, max_size=4),
        st.dictionaries(st.integers(0, len(METRICS) - 1),
                        st.sampled_from(values), max_size=len(METRICS)))
    return st.lists(sample, min_size=1, max_size=8)


def _build(samples):
    """A profile with a columnar CCT, so transforms take the array path."""
    builder = ProfileBuilder(tool="test")
    for name in METRICS:
        builder.metric(name)
    for path, values in samples:
        builder.sample(path, values)
    profile = builder.build()
    profile.attach_columnar(from_cct(profile.cct, len(profile.schema)))
    return profile


def _formulas(names):
    numbers = st.sampled_from(["0", "1", "2", "0.5", "3e-1", "1e308",
                               "5e-324", "1e-310"])
    refs = st.sampled_from(["`%s`" % name for name in names])
    leaves = st.one_of(numbers, refs, refs)

    def extend(inner):
        binary = st.tuples(
            inner, st.sampled_from(["+", "-", "*", "/", "%", "^", ">", "<",
                                    ">=", "<=", "==", "!="]), inner)
        return st.one_of(
            binary.map(lambda t: "(%s %s %s)" % t),
            st.tuples(st.sampled_from("-+"), inner).map(
                lambda t: "(%s%s)" % t),
            st.tuples(st.sampled_from(["abs", "sqrt", "log", "log2",
                                       "log10"]), inner).map(
                lambda t: "%s(%s)" % t),
            st.tuples(st.sampled_from(["min", "max"]), inner, inner).map(
                lambda t: "%s(%s, %s)" % t),
            st.tuples(inner, inner, inner).map(
                lambda t: "if(%s, %s, %s)" % t))

    return st.recursive(leaves, extend, max_leaves=8)


#: One derive step: (name, formula, inclusive).  Two names only, so the
#: same name is derived again — with the same formula (replaced column)
#: or another one (a descriptor clash both paths must reject unchanged).
_steps = st.lists(st.tuples(st.sampled_from(DERIVED),
                            _formulas(METRICS + DERIVED), st.booleans()),
                  min_size=1, max_size=3)


def _bits(value):
    """A float's exact bits, with every NaN as one value."""
    return struct.pack("<d", value) if value == value else "nan"


def _cells(mapping):
    return [(key, _bits(value)) for key, value in mapping.items()]


def assert_same_facade(a, b):
    """Materialized trees equal bit for bit, dict key order included;
    returns whether any NaN was met."""
    saw_nan = False
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        assert x.frame == y.frame
        for plane in ("inclusive", "exclusive", "baseline"):
            ours = _cells(getattr(x, plane))
            assert ours == _cells(getattr(y, plane))
            saw_nan = saw_nan or any(bits == "nan" for _, bits in ours)
        ours = [(k, [_bits(v) for v in series])
                for k, series in x.histogram.items()]
        assert ours == [(k, [_bits(v) for v in series])
                        for k, series in y.histogram.items()]
        saw_nan = saw_nan or any("nan" in series for _, series in ours)
        assert x.tag == y.tag
        assert list(x.children) == list(y.children)
        stack.extend(zip(x.children.values(), y.children.values()))
    return saw_nan


def assert_same_tree(fast, oracle):
    # The arrays hash exactly like the facade materialized from them...
    facade = ViewTree(fast.schema, fast.shape)
    facade.root = fast.root
    assert viewtree_digest(fast) == viewtree_digest(facade)
    # ...and that facade equals the oracle's.
    if not assert_same_facade(fast, oracle):
        assert viewtree_digest(fast) == viewtree_digest(oracle)


def _twins(profile, shape):
    """(columnar tree, object-only twin) built off the same arrays."""
    fast = transform(profile, shape)
    oracle = transform(profile, shape)
    oracle.mark_mutated()
    assert fast.columnar() is not None and oracle.columnar() is None
    return fast, oracle


def _apply(steps, fast, oracle):
    """Run each derive on both trees; both must succeed or fail alike."""
    for name, source, inclusive in steps:
        outcomes = []
        for tree in (fast, oracle):
            try:
                outcomes.append(formula.derive(tree, name, source,
                                               inclusive=inclusive))
            except EasyViewError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]


_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@given(samples=_profiles(EDGE_VALUES), steps=_steps,
       shape=st.sampled_from(SHAPES), touch_first=st.booleans())
@_SETTINGS
def test_derive_matches_scalar_path(samples, steps, shape, touch_first):
    fast, oracle = _twins(_build(samples), shape)
    if touch_first:
        fast.root  # facade built first: derive must write through it too
    _apply(steps, fast, oracle)
    assert fast.columnar() is not None
    assert_same_tree(fast, oracle)


@given(base=_profiles(EDGE_VALUES), treat=_profiles(EDGE_VALUES),
       steps_a=_steps, steps_b=_steps, shape=st.sampled_from(SHAPES),
       mode=st.sampled_from(["subtract", "ratio"]))
@_SETTINGS
def test_derive_then_diff_merge_summarize(base, treat, steps_a, steps_b,
                                          shape, mode):
    # Separate derive steps give the two schemas different column orders.
    fast_a, oracle_a = _twins(_build(base), shape)
    fast_b, oracle_b = _twins(_build(treat), shape)
    _apply(steps_a, fast_a, oracle_a)
    _apply(steps_b, fast_b, oracle_b)

    fast_diff = diff_trees(fast_a, fast_b)
    oracle_diff = diff_trees(oracle_a, oracle_b)
    assert fast_diff.columnar() is not None
    # The summary is counted off the tag codes; its key order must be
    # the order the facade walk meets each tag.
    assert list(summarize(fast_diff).items()) == \
        list(summarize(oracle_diff).items())
    assert_same_tree(fast_diff, oracle_diff)
    for metric_index in range(len(fast_diff.schema)):
        assert (add_delta_column(fast_diff, metric_index, mode)
                == add_delta_column(oracle_diff, metric_index, mode))
    assert fast_diff.columnar() is not None
    assert_same_tree(fast_diff, oracle_diff)

    fast_merged = merge_trees([fast_a, fast_b])
    oracle_merged = merge_trees([oracle_a, oracle_b])
    assert fast_merged.columnar() is not None
    assert_same_tree(fast_merged, oracle_merged)
    index = formula.derive(fast_merged, "spread", "`cpu:max` - `cpu:min`")
    assert index == formula.derive(oracle_merged, "spread",
                                   "`cpu:max` - `cpu:min`")
    assert fast_merged.columnar() is not None
    assert_same_tree(fast_merged, oracle_merged)


@given(samples=_profiles(FINITE_VALUES), steps=_steps,
       shape=st.sampled_from(SHAPES))
@_SETTINGS
def test_derive_then_layout(samples, steps, shape):
    fast, oracle = _twins(_build(samples), shape)
    _apply(steps, fast, oracle)
    for metric_index in range(len(fast.schema)):
        ours = layout(fast, metric_index=metric_index, min_width=0.0)
        theirs = layout(oracle, metric_index=metric_index, min_width=0.0)
        assert ours.laid_out_nodes == theirs.laid_out_nodes
        assert ours.skipped_nodes == theirs.skipped_nodes
        assert ours.max_depth == theirs.max_depth
        assert _bits(ours.total_value) == _bits(theirs.total_value)
        # x sums sibling widths in another float association: equal to
        # rounding, and the rounding scales with the widths summed — which
        # a derived metric can push far past the canvas (a child worth
        # 1e160 times its root).
        scale = sum(rect.width for rect in theirs.rects
                    if math.isfinite(rect.width))
        for a, b in zip(ours.rects, theirs.rects):
            assert a.node.frame == b.node.frame
            assert a.depth == b.depth
            assert _bits(a.width) == _bits(b.width)
            if math.isfinite(b.x) and math.isfinite(scale):
                assert abs(a.x - b.x) <= 1e-9 * (abs(b.x) + scale + 1.0)
            else:
                assert _bits(a.x) == _bits(b.x)


class TestEvaluateColumns:
    """Row i of the column result has the bits of the scalar result."""

    @pytest.mark.parametrize("source", [
        "a + b", "a - b", "a * b", "a / b", "a % b", "a ^ b", "-a", "+a",
        "a > b", "a <= b", "a == b", "a != b", "min(a, b)", "max(a, b)",
        "abs(a)", "sqrt(a)", "log(a)", "log2(a)", "log10(a)",
        "if(a, b, 1)"])
    def test_every_pair_of_edge_values(self, source):
        pairs = [(a, b) for a in EDGE_VALUES for b in EDGE_VALUES]
        env = {"a": np.array([a for a, _ in pairs]),
               "b": np.array([b for _, b in pairs])}
        expr = formula.parse(source)
        column = formula.evaluate_columns(expr, env, len(pairs))
        for (a, b), value in zip(pairs, column.tolist()):
            expected = formula.evaluate(expr, {"a": a, "b": b})
            assert _bits(value) == _bits(expected), (source, a, b)
