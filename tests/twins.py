"""Object-only twins of profiles and view trees, arrays for hand-built
views, and the node-by-node comparison of two views."""

from repro.analysis.viewtree import ViewTree
from repro.bench.view_oracle import ObjectTree, to_arrays
from repro.core.metric import MetricSchema


def object_only(profile):
    """``profile`` with its arrays dropped: its object facade, built now,
    becomes its only tree, as the object-path oracles need."""
    profile.cct = profile.cct
    return profile


def facade_only(tree):
    """A view tree's ``ViewNode`` facade as an oracle tree (no arrays), so
    every oracle function given it walks the objects (and the CCT nodes
    behind their sources)."""
    return ObjectTree(tree.schema, tree.shape, tree.root)


def with_arrays(tree):
    """A hand-built oracle tree as a :class:`ViewTree` with its arrays."""
    columnar = to_arrays(tree)
    assert columnar is not None, "histograms of unequal length"
    return ViewTree(tree.schema.copy(), tree.shape, columnar)


def empty_view(schema=None):
    """A root-only view tree."""
    return with_arrays(ObjectTree(schema if schema is not None
                                  else MetricSchema()))


def assert_views_identical(a, b, check_sources=True):
    """Bitwise view-tree equality, insertion order included (children and
    every value dict's keys): frames, values, tags, baselines, histograms
    and the sources' frames.  A NaN value equals a NaN in the same place
    (``repr`` of a float round-trips, so equal reprs are equal values)."""
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        assert x.frame == y.frame
        for plane in ("exclusive", "inclusive", "baseline", "histogram"):
            cells = [list(getattr(z, plane).items()) for z in (x, y)]
            assert cells[0] == cells[1] or \
                repr(cells[0]) == repr(cells[1]), plane
        assert x.tag == y.tag
        assert list(x.children) == list(y.children)
        if check_sources:
            assert len(x.sources) == len(y.sources)
            assert (sorted(s.frame.key() for s in x.sources)
                    == sorted(s.frame.key() for s in y.sources))
        stack.extend(zip(x.children.values(), y.children.values()))
