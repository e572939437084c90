"""The object-tree oracle of the view pipeline.

Every view tree in production carries arrays
(:class:`~repro.analysis.viewtree_columnar.ColumnarViewTree`), and every
operation on views runs on them.  This module keeps the same operations
written the old way, node by node over ``ViewNode`` dicts, on trees that
have nothing but objects (:class:`ObjectTree`):

* :func:`top_down`, :func:`bottom_up` and :func:`flat` walk the
  per-node object CCT, and :func:`finish` applies a customization's
  derived-metric callbacks node by node;
* :func:`merge_trees`, :func:`diff_trees`, :func:`add_delta_column`,
  :func:`summarize` and :func:`derive` are aggregate, diff and the
  formula column; :func:`digest` is the view-tree digest walk;
* :func:`layout`, :func:`search`, :func:`match_fraction`,
  :func:`line_attribution`, :func:`assembly_attribution`, :func:`top`,
  :func:`hot_path` and :func:`render_summary` are the renderer's and the
  IDE's reads;
* :func:`prune`, :func:`collapse_recursion`, :func:`truncate_depth`,
  :func:`filter_tree` and :func:`filter_by_name` are the §V-A(a)
  hygiene operations.

The production functions of the same names must give the same trees —
digests, child order, values, tags, baselines, histograms and sources —
and the same reads: the CCT bench gate (:mod:`repro.bench.cct`) and the
differential tests hold them to that.  :func:`to_arrays` gives an object
tree arrays, for tests that build trees by hand.

The §V-B hooks mean the same in every shape: an elide callback drops a
context together with its subtree (the contexts below an elided one are
never offered to it), and the kept contexts keep their full inclusive
values; a remap callback rewrites every frame but the root's before
anything compares merge keys.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import aggregate, diff, formula as formula_mod, query
from ..analysis.callbacks import Customization
from ..analysis.viewtree import MergeKey, SourceList, ViewNode
from ..analysis.viewtree_columnar import (_TAG_CODE, ColumnarViewTree,
                                          _if_unordered)
from ..core import digest as digest_mod
from ..core.cct import CCTNode
from ..core.frame import Frame, FrameKind, ROOT_FRAME, intern_frame
from ..core.metric import Aggregation, MetricSchema
from ..core.profile import Profile
from ..viz.layout import FlameLayout, FlameRect
from ..viz.terminal import format_summary
from .profile_oracle import compute_inclusive

LineKey = Tuple[str, int]


class ObjectTree:
    """A view tree of ``ViewNode`` objects and nothing else."""

    def __init__(self, schema: MetricSchema, shape: str = "top_down",
                 root: Optional[ViewNode] = None) -> None:
        self.root = root if root is not None else ViewNode(ROOT_FRAME)
        self.schema = schema
        self.shape = shape

    def nodes(self) -> Iterator[ViewNode]:
        """Pre-order iteration over all nodes."""
        return self.root.walk()

    def node_count(self) -> int:
        return sum(1 for _ in self.nodes())

    def total(self, metric_index: int) -> float:
        """The root's inclusive value for a metric."""
        return self.root.inclusive.get(metric_index, 0.0)

    def find_by_name(self, name: str) -> List[ViewNode]:
        return [n for n in self.nodes() if n.frame.name == name]


def _like(tree: ObjectTree) -> ObjectTree:
    """An empty tree with ``tree``'s schema (a copy), shape and root
    frame."""
    return ObjectTree(tree.schema.copy(), tree.shape,
                      ViewNode(tree.root.frame))


# ---------------------------------------------------------------------------
# the transforms
# ---------------------------------------------------------------------------

def _kept_children(node: CCTNode, custom: Customization) -> List[CCTNode]:
    """``node``'s children no elide callback drops, in pre-order."""
    return [child for child in node.sorted_children()
            if not custom.elides(child)]


def _kept(root: CCTNode, custom: Customization) -> Iterator[CCTNode]:
    """Pre-order over the CCT (``traversal.preorder``'s sibling order),
    root included, skipping every elided subtree."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_kept_children(node, custom)))


def _flat_contexts(root: CCTNode, custom: Customization
                   ) -> Iterator[Tuple[CCTNode, Frame, bool]]:
    """``(context, remapped frame, outermost)`` for every kept context
    below the root, in pre-order.  A context is outermost when no
    ancestor below the root has its remapped merge key."""
    on_path: Dict[Tuple, int] = {}
    stack: List[Tuple[Optional[CCTNode], Optional[Tuple]]] = [
        (child, None) for child in reversed(_kept_children(root, custom))]
    while stack:
        node, leaving = stack.pop()
        if node is None:
            on_path[leaving] -= 1
            continue
        frame = custom.remap(node.frame)
        key = frame.merge_key()
        yield node, frame, not on_path.get(key)
        on_path[key] = on_path.get(key, 0) + 1
        stack.append((None, key))
        stack.extend((child, None)
                     for child in reversed(_kept_children(node, custom)))


def top_down(profile: Profile,
             customization: Optional[Customization] = None) -> ObjectTree:
    """The top-down view, merged node by node off the object CCT."""
    custom = customization or Customization.empty()
    passthrough = custom.is_passthrough()
    compute_inclusive(profile)
    tree = ObjectTree(profile.schema.copy(), "top_down")
    # Mirror the CCT into the view, merging sibling contexts that share
    # a merge key (e.g. the same callee invoked from two lines).
    stack = [(profile.root, tree.root)]
    while stack:
        cct_node, view_node = stack.pop()
        if view_node.sources:
            # A sibling context already merged here: accumulate.
            for index, value in cct_node.metrics.items():
                view_node.add_exclusive(index, value)
            for index, value in cct_node.inclusive.items():
                view_node.add_inclusive(index, value)
        else:
            # First (and usually only) context for this view node: copy.
            if cct_node.metrics:
                view_node.exclusive = dict(cct_node.metrics)
            if cct_node.inclusive:
                view_node.inclusive = dict(cct_node.inclusive)
        view_node.sources.append(cct_node)
        children_map = view_node.children
        for child in cct_node.children.values():
            if passthrough:
                frame = child.frame
            else:
                if custom.elides(child):
                    continue
                frame = custom.remap(child.frame)
            key = frame.merge_key()
            view_child = children_map.get(key)
            if view_child is None:
                view_child = ViewNode(frame, parent=view_node)
                children_map[key] = view_child
            stack.append((child, view_child))
    finish(custom, tree)
    return tree


def bottom_up(profile: Profile,
              customization: Optional[Customization] = None) -> ObjectTree:
    """The bottom-up view: one reversed path per kept context with
    exclusive values, merged node by node."""
    custom = customization or Customization.empty()
    if custom.has_elide_hooks():
        compute_inclusive(profile)  # a callback may read a node's cost
    tree = ObjectTree(profile.schema.copy(), "bottom_up")
    for node in _kept(profile.root, custom):
        if not node.metrics:
            continue
        values = node.metrics
        for index, value in values.items():
            tree.root.add_inclusive(index, value)
        view = tree.root
        current: Optional[CCTNode] = node
        first = True
        while current is not None and current.frame.kind is not FrameKind.ROOT:
            view = view.child(custom.remap(current.frame))
            # The source is the context this row *names* (the caller at
            # this reversal depth), so code links land on its line, not
            # on the hot leaf that contributed the value.
            view.sources.append(current)
            for index, value in values.items():
                view.add_inclusive(index, value)
                if first:
                    view.add_exclusive(index, value)
            first = False
            current = current.parent
    finish(custom, tree)
    return tree


def flat(profile: Profile,
         customization: Optional[Customization] = None) -> ObjectTree:
    """The flat view (program → load module → file → function), with
    inclusive values summed over outermost contexts only."""
    custom = customization or Customization.empty()
    compute_inclusive(profile)
    tree = ObjectTree(profile.schema.copy(), "flat")
    for node, frame, outermost in _flat_contexts(profile.root, custom):
        module_frame = intern_frame(frame.module or "<unknown module>",
                                    module=frame.module,
                                    kind=FrameKind.BASIC_BLOCK)
        file_frame = intern_frame(frame.file or "<unknown file>",
                                  file=frame.file, module=frame.module,
                                  kind=FrameKind.BASIC_BLOCK)
        module_view = tree.root.child(module_frame)
        file_view = module_view.child(file_frame)
        func_view = file_view.child(frame)
        func_view.sources.append(node)

        for index, value in node.metrics.items():
            for view in (tree.root, module_view, file_view, func_view):
                view.add_exclusive(index, value)
                # In a flat view a grouping level's "inclusive" total is the
                # sum of its members' exclusive costs.
                if view is not func_view:
                    view.add_inclusive(index, value)
        if outermost:
            for index, value in node.inclusive.items():
                func_view.add_inclusive(index, value)
    finish(custom, tree)
    return tree


def finish(custom: Customization, tree: ObjectTree) -> None:
    """Apply the derived-metric callbacks to every node's dicts, in walk
    order, each node's environment read before any of its writes."""
    derived = custom._derived  # (metric, fn, inclusive) as registered
    if not derived:
        return
    names = tree.schema.names()
    plans = [(tree.schema.add(metric), fn, inclusive)
             for metric, fn, inclusive in derived]
    for node in tree.nodes():
        inc_env = {name: node.inclusive.get(i, 0.0)
                   for i, name in enumerate(names)}
        exc_env = {name: node.exclusive.get(i, 0.0)
                   for i, name in enumerate(names)}
        for index, fn, inclusive in plans:
            env = inc_env if inclusive else exc_env
            value = float(fn(node, env))
            if inclusive:
                node.inclusive[index] = value
            else:
                node.exclusive[index] = value


_SHAPES: Dict[str, Callable[..., ObjectTree]] = {
    "top_down": top_down,
    "bottom_up": bottom_up,
    "flat": flat,
}


def transform(profile: Profile, shape: str,
              customization: Optional[Customization] = None) -> ObjectTree:
    """The object-path view of one shape."""
    return _SHAPES[shape](profile, customization)


# ---------------------------------------------------------------------------
# aggregate, diff, derived columns, digest
# ---------------------------------------------------------------------------

def merge_trees(trees: Sequence[ObjectTree],
                operators: Sequence[Aggregation] = aggregate.DEFAULT_OPERATORS
                ) -> ObjectTree:
    """:func:`repro.analysis.aggregate.merge_trees`, node by node."""
    base_schema, schema = aggregate.merged_schema(trees, operators)
    result = ObjectTree(schema, "aggregate:%s" % trees[0].shape)
    stat_columns = {
        (index, op): schema.index_of("%s:%s" % (metric.name,
                                               op.name.lower()))
        for index, metric in enumerate(base_schema) for op in operators}
    count = len(trees)
    for position, tree in enumerate(trees):
        # Map this tree's columns onto the unified column order.
        remap = [base_schema.index_of(name) for name in tree.schema.names()]
        stack = [(tree.root, result.root)]
        while stack:
            src, dst = stack.pop()
            dst.sources.extend(src.sources)
            for local_index, value in src.inclusive.items():
                unified = remap[local_index]
                series = dst.histogram.setdefault(unified, [0.0] * count)
                series[position] += value
            for local_index, value in src.exclusive.items():
                unified = remap[local_index]
                dst.add_exclusive(stat_columns.get(
                    (unified, Aggregation.SUM),
                    stat_columns[(unified, operators[0])]), value)
            for child in src.children.values():
                stack.append((child, dst.child(child.frame)))

    for node in result.root.walk():
        for unified, series in node.histogram.items():
            for op in operators:
                node.inclusive[stat_columns[(unified, op)]] = op.combine(series)
    return result


def diff_trees(baseline: ObjectTree, treatment: ObjectTree,
               metric_index: int = 0, tolerance: float = 0.0) -> ObjectTree:
    """:func:`repro.analysis.diff.diff_trees`, node by node."""
    schema = baseline.schema.union(treatment.schema)
    result = ObjectTree(schema, "diff:%s" % baseline.shape)
    base_remap = [schema.index_of(n) for n in baseline.schema.names()]
    treat_remap = [schema.index_of(n) for n in treatment.schema.names()]

    # Overlay the baseline first, then the treatment, then classify.
    base_seen = set()
    stack = [(baseline.root, result.root)]
    while stack:
        src, dst = stack.pop()
        base_seen.add(id(dst))
        for local, value in src.inclusive.items():
            dst.baseline[base_remap[local]] = (
                dst.baseline.get(base_remap[local], 0.0) + value)
        dst.sources.extend(src.sources)
        for child in src.children.values():
            stack.append((child, dst.child(child.frame)))

    seen = set()
    stack = [(treatment.root, result.root)]
    while stack:
        src, dst = stack.pop()
        seen.add(id(dst))
        for local, value in src.inclusive.items():
            dst.add_inclusive(treat_remap[local], value)
        for local, value in src.exclusive.items():
            dst.add_exclusive(treat_remap[local], value)
        dst.sources.extend(src.sources)
        for child in src.children.values():
            stack.append((child, dst.child(child.frame)))

    for node in result.nodes():
        if node is result.root:
            continue
        in_treatment = id(node) in seen
        in_baseline = id(node) in base_seen
        before = node.baseline.get(metric_index, 0.0)
        after = node.inclusive.get(metric_index, 0.0)
        if in_treatment and not in_baseline:
            node.tag = diff.TAG_ADDED
        elif in_baseline and not in_treatment:
            node.tag = diff.TAG_DELETED
        elif after > before + tolerance:
            node.tag = diff.TAG_GREW
        elif after < before - tolerance:
            node.tag = diff.TAG_SHRANK
        else:
            node.tag = diff.TAG_SAME
    return result


def add_delta_column(tree: ObjectTree, metric_index: int,
                     mode: str = "subtract") -> int:
    """:func:`repro.analysis.diff.add_delta_column`, node by node."""
    column = diff.delta_metric(tree, metric_index, mode)
    for node in tree.nodes():
        before = node.baseline.get(metric_index, 0.0)
        after = node.inclusive.get(metric_index, 0.0)
        if mode == "subtract":
            node.inclusive[column] = after - before
        else:
            node.inclusive[column] = after / before if before else 0.0
    return column


def summarize(tree: ObjectTree) -> Dict[str, int]:
    """Nodes per differential tag, keyed in walk order of first meeting."""
    counts: Dict[str, int] = {}
    for node in tree.nodes():
        if node.tag:
            counts[node.tag] = counts.get(node.tag, 0) + 1
    return counts


def derive(tree: ObjectTree, name: str, formula: str, unit: str = "",
           description: str = "", inclusive: bool = True,
           aggregation: Aggregation = Aggregation.SUM) -> int:
    """:func:`repro.analysis.formula.derive`, one evaluation per node."""
    names = tree.schema.names()
    expr, index = formula_mod.declare(tree, name, formula, unit,
                                      description, aggregation)
    for node in tree.nodes():
        table = node.inclusive if inclusive else node.exclusive
        env = {metric_name: table.get(i, 0.0)
               for i, metric_name in enumerate(names)}
        table[index] = formula_mod.evaluate(expr, env)
    return index


def digest(tree: ObjectTree) -> str:
    """:func:`repro.core.digest.viewtree_digest`, as a walk over the
    nodes: children in ``repr(merge key)`` order."""
    h = digest_mod._new_hash()
    digest_mod._update_str(h, tree.shape)
    digest_mod._update_schema(h, tree.schema)
    stack = [(tree.root, False)]
    while stack:
        node, exiting = stack.pop()
        if exiting:
            h.update(digest_mod._EXIT)
            continue
        h.update(digest_mod._ENTER)
        digest_mod._update_frame(h, node.frame)
        digest_mod._update_values(h, node.inclusive)
        digest_mod._update_values(h, node.exclusive)
        digest_mod._update_str(h, node.tag or "")
        digest_mod._update_values(h, node.baseline)
        for index in sorted(node.histogram):
            h.update(digest_mod._PACK_INT(index))
            series = node.histogram[index]
            h.update(digest_mod._PACK_INT(len(series)))
            for value in series:
                h.update(digest_mod._PACK_DOUBLE(value))
        h.update(digest_mod._SEP)
        stack.append((node, True))
        children = sorted(node.children.items(), key=lambda kv: repr(kv[0]))
        stack.extend((child, False) for _, child in reversed(children))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the renderer's and the IDE's reads
# ---------------------------------------------------------------------------

def layout(tree: ObjectTree, metric_index: int = 0,
           canvas_width: float = 1200.0, min_width: float = 0.5,
           root: Optional[ViewNode] = None,
           max_depth: Optional[int] = None) -> FlameLayout:
    """:func:`repro.viz.layout.layout` as a depth-first walk that pushes
    children by descending value; ``root`` zooms to a node."""
    origin = root if root is not None else tree.root
    total = origin.inclusive.get(metric_index, 0.0)
    rects: List[FlameRect] = []
    skipped = 0
    deepest = 0
    if total > 0:
        scale = canvas_width / total
        # (node, x, depth); children are laid out left-to-right by
        # descending value, the conventional flame-graph ordering.
        stack = [(origin, 0.0, 0)]
        while stack:
            node, x, depth = stack.pop()
            value = node.inclusive.get(metric_index, 0.0)
            width = value * scale
            if width < min_width:
                skipped += sum(1 for _ in node.walk())
                continue
            rects.append(FlameRect(node=node, x=x, width=width, depth=depth))
            if depth > deepest:
                deepest = depth
            if max_depth is not None and depth >= max_depth:
                continue
            child_x = x
            for child in node.sorted_children():
                child_value = child.inclusive.get(metric_index, 0.0)
                if child_value <= 0:
                    continue
                stack.append((child, child_x, depth + 1))
                child_x += child_value * scale
    return FlameLayout(rects=rects, canvas_width=canvas_width,
                       max_depth=deepest, total_value=total,
                       metric_index=metric_index,
                       laid_out_nodes=len(rects), skipped_nodes=skipped)


def search(tree: ObjectTree, pattern: str, regex: bool = False,
           case_sensitive: bool = False) -> List[ViewNode]:
    """:func:`repro.analysis.query.search`: matching nodes in walk order."""
    matches = query._frame_matcher(pattern, regex, case_sensitive)
    return [node for node in tree.nodes()
            if node.frame.kind is not FrameKind.ROOT and matches(node.frame)]


def match_fraction(tree: ObjectTree, matches: Sequence[ViewNode],
                   metric_index: int = 0) -> float:
    """:func:`repro.analysis.query.match_fraction` over matched nodes."""
    total = tree.total(metric_index)
    if not total:
        return 0.0
    matched_ids = {id(node) for node in matches}
    covered = 0.0
    for node in matches:
        ancestor = node.parent
        shadowed = False
        while ancestor is not None:
            if id(ancestor) in matched_ids:
                shadowed = True
                break
            ancestor = ancestor.parent
        if not shadowed:
            covered += node.inclusive.get(metric_index, 0.0)
    return covered / total


def line_attribution(tree: ObjectTree) -> Dict[LineKey, Dict[int, float]]:
    """:func:`repro.ide.annotations.line_attribution` over the nodes'
    source contexts."""
    table: Dict[LineKey, Dict[int, float]] = {}
    for node in tree.nodes():
        if node.frame.kind is FrameKind.ROOT:
            continue
        for source in node.sources:
            frame = source.frame
            if not frame.file or frame.line <= 0:
                continue
            bucket = table.setdefault((frame.file, frame.line), {})
            for index, value in source.metrics.items():
                bucket[index] = bucket.get(index, 0.0) + value
    return table


def assembly_attribution(tree: ObjectTree) -> Dict[LineKey, List[str]]:
    """:func:`repro.ide.annotations.assembly_attribution` over the nodes'
    source contexts."""
    table: Dict[LineKey, List] = {}
    for node in tree.nodes():
        for source in node.sources:
            for child in source.children.values():
                frame = child.frame
                if frame.kind is not FrameKind.INSTRUCTION:
                    continue
                if not frame.file or frame.line <= 0:
                    continue
                weight = sum(child.metrics.values())
                if frame.address:
                    text = "0x%x  %s" % (frame.address, frame.name)
                else:
                    text = frame.name
                table.setdefault((frame.file, frame.line), []).append(
                    (weight, text))
    return {key: [text for _, text in
                  sorted(entries, key=lambda e: -e[0])]
            for key, entries in table.items()}


def top(tree: ObjectTree, metric_index: int = 0, count: int = 10,
        inclusive: bool = False) -> List[ViewNode]:
    """:meth:`repro.analysis.viewtree.ViewTree.top`: a stable sort of the
    non-root nodes by descending value."""
    candidates = [n for n in tree.nodes()
                  if n.frame.kind is not FrameKind.ROOT]
    candidates.sort(key=lambda n: -n.value(metric_index, inclusive))
    return candidates[:count]


def render_summary(tree: ObjectTree, metric_index: int = 0,
                   count: int = 10) -> str:
    """:func:`repro.viz.terminal.render_summary` over :func:`top`."""
    return format_summary(
        tree, metric_index,
        ((node.value(metric_index, inclusive=False), node.frame)
         for node in top(tree, metric_index, count)))


def hot_path(tree: ObjectTree, metric_index: int = 0,
             min_fraction: float = 0.5) -> List[ViewNode]:
    """:func:`repro.analysis.prune.hot_path`: the first child of largest
    ``|value|`` while it keeps ``min_fraction`` of its parent's."""
    path: List[ViewNode] = []
    node = tree.root
    while node.children:
        best: Optional[ViewNode] = None
        best_value = 0.0
        for child in node.children.values():
            value = abs(child.inclusive.get(metric_index, 0.0))
            if value > best_value:
                best, best_value = child, value
        parent_value = abs(node.inclusive.get(metric_index, 0.0))
        if best is None or parent_value <= 0:
            break
        if best_value < min_fraction * parent_value:
            break
        path.append(best)
        node = best
    return path


# ---------------------------------------------------------------------------
# hygiene (§V-A(a))
# ---------------------------------------------------------------------------

def _copy_node(src: ViewNode, dst: ViewNode) -> None:
    """Every plane of ``src`` onto ``dst``, plus its sources and tag."""
    dst.inclusive = dict(src.inclusive)
    dst.exclusive = dict(src.exclusive)
    dst.baseline = dict(src.baseline)
    dst.histogram = {k: list(v) for k, v in src.histogram.items()}
    dst.sources = src.sources.copy()
    dst.tag = src.tag


def _add_series(table: Dict[int, List[float]], index: int,
                series: List[float]) -> None:
    total = table.setdefault(index, [0.0] * len(series))
    for position, value in enumerate(series):
        total[position] += value


def collapse_recursion(tree: ObjectTree) -> ObjectTree:
    """:func:`repro.analysis.prune.collapse_recursion`: a node folds into
    its parent's copy when their merge keys are equal.  Exclusive values
    add over every folded node; inclusive, baseline and histogram values
    only over the nodes whose parent's copy is another node."""
    result = _like(tree)
    stack = [(tree.root, result.root, True)]
    while stack:
        src, dst, own = stack.pop()
        for index, value in src.exclusive.items():
            dst.add_exclusive(index, value)
        if own:
            for index, value in src.inclusive.items():
                dst.add_inclusive(index, value)
            for index, value in src.baseline.items():
                dst.baseline[index] = dst.baseline.get(index, 0.0) + value
            for index, series in src.histogram.items():
                _add_series(dst.histogram, index, series)
        dst.sources.extend(src.sources)
        dst.tag = dst.tag or src.tag
        for child in src.children.values():
            if child.frame.merge_key() == dst.frame.merge_key():
                stack.append((child, dst, False))  # recursing: fold in
            else:
                stack.append((child, dst.child(child.frame), True))
    return result


def prune(tree: ObjectTree, metric_index: int = 0,
          min_fraction: float = 0.005,
          other_label: str = "<pruned>") -> ObjectTree:
    """:func:`repro.analysis.prune.prune`: children under the threshold
    drop with their subtrees, and their inclusive (also as exclusive),
    baseline and histogram values add into one ``<pruned>`` child."""
    threshold = abs(tree.total(metric_index)) * min_fraction
    placeholder_frame = intern_frame(other_label, kind=FrameKind.BASIC_BLOCK)
    result = _like(tree)
    _copy_node(tree.root, result.root)
    stack = [(tree.root, result.root)]
    while stack:
        src, dst = stack.pop()
        dropped = []
        for child in src.children.values():
            if abs(child.inclusive.get(metric_index, 0.0)) >= threshold:
                copy = dst.child(child.frame)
                _copy_node(child, copy)
                stack.append((child, copy))
            else:
                dropped.append(child)
        if not dropped:
            continue
        inclusive: Dict[int, float] = {}
        baseline: Dict[int, float] = {}
        histogram: Dict[int, List[float]] = {}
        for child in dropped:
            for index, value in child.inclusive.items():
                inclusive[index] = inclusive.get(index, 0.0) + value
            for index, value in child.baseline.items():
                baseline[index] = baseline.get(index, 0.0) + value
            for index, series in child.histogram.items():
                _add_series(histogram, index, series)
        placeholder = dst.child(placeholder_frame)
        for index, value in inclusive.items():
            placeholder.add_inclusive(index, value)
            placeholder.add_exclusive(index, value)
        for index, value in baseline.items():
            placeholder.baseline[index] = (
                placeholder.baseline.get(index, 0.0) + value)
        for index, series in histogram.items():
            _add_series(placeholder.histogram, index, series)
    return result


def truncate_depth(tree: ObjectTree, max_depth: int) -> ObjectTree:
    """:func:`repro.analysis.prune.truncate_depth`: nodes at ``max_depth``
    keep their inclusive values as their exclusive ones and lose their
    children."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    result = _like(tree)
    stack = [(tree.root, result.root, max_depth)]
    while stack:
        src, dst, remaining = stack.pop()
        _copy_node(src, dst)
        if remaining == 0:
            dst.exclusive = dict(src.inclusive)
            continue
        for child in src.children.values():
            stack.append((child, dst.child(child.frame), remaining - 1))
    return result


def filter_tree(tree: ObjectTree,
                predicate: Callable[[ViewNode], bool]) -> ObjectTree:
    """:func:`repro.analysis.query.filter_tree`: matching nodes with their
    subtrees and ancestors."""
    keep = set()
    for node in tree.nodes():
        if node is tree.root:
            continue
        if predicate(node):
            for sub in node.walk():
                keep.add(id(sub))
            ancestor: Optional[ViewNode] = node.parent
            while ancestor is not None:
                keep.add(id(ancestor))
                ancestor = ancestor.parent
    result = _like(tree)
    stack = [(tree.root, result.root)]
    while stack:
        src, dst = stack.pop()
        _copy_node(src, dst)
        for child in src.children.values():
            if id(child) in keep:
                stack.append((child, dst.child(child.frame)))
    return result


def filter_by_name(tree: ObjectTree, pattern: str,
                   regex: bool = False) -> ObjectTree:
    """:func:`repro.analysis.query.filter_by_name` through
    :func:`filter_tree`."""
    if regex:
        compiled = re.compile(pattern)
        return filter_tree(tree, lambda n: bool(compiled.search(n.frame.name)))
    return filter_tree(tree, lambda n: pattern in n.frame.name)


# ---------------------------------------------------------------------------
# arrays for hand-built trees
# ---------------------------------------------------------------------------

class _StoredSources:
    """Row sources captured from an object tree."""

    __slots__ = ("lists",)

    def __init__(self, lists: List[SourceList]) -> None:
        self.lists = lists

    def __call__(self, row: int) -> SourceList:
        return self.lists[row].copy()


def to_arrays(tree: ObjectTree) -> Optional[ColumnarViewTree]:
    """The arrays of an object tree (None when its histograms differ in
    length), so a hand-built tree can become a
    :class:`~repro.analysis.viewtree.ViewTree`.

    The inverse of :meth:`ColumnarViewTree.materialize`.  Row ids follow
    the same reversed-push DFS as ``cct_columnar.from_cct``, so within a
    parent the ascending row ids are the children's insertion order.
    """
    n_metrics = len(tree.schema)
    root = tree.root
    frame_index: Dict[int, int] = {}
    frames: List[Frame] = []
    token_of: Dict[MergeKey, int] = {}
    merge_keys: List[MergeKey] = []
    parents: List[int] = []
    depths: List[int] = []
    tokens: List[int] = []
    frame_ids: List[int] = []
    records = []

    def intern(frame: Frame) -> int:
        index = frame_index.get(id(frame))
        if index is None:
            index = len(frames)
            frame_index[id(frame)] = index
            frames.append(frame)
        return index

    def token_for(key: MergeKey) -> int:
        token = token_of.get(key)
        if token is None:
            token = len(merge_keys)
            token_of[key] = token
            merge_keys.append(key)
        return token

    stack = [(root, root.frame.merge_key(), -1, 0)]
    while stack:
        node, key, parent_id, depth = stack.pop()
        row = len(parents)
        parents.append(parent_id)
        depths.append(depth)
        tokens.append(token_for(key))
        frame_ids.append(intern(node.frame))
        records.append(node)
        for child_key, child in reversed(list(node.children.items())):
            stack.append((child, child_key, row, depth + 1))

    n_rows = len(parents)
    inclusive = np.zeros((n_rows, n_metrics), dtype=np.float64)
    incl_present = np.zeros((n_rows, n_metrics), dtype=bool)
    exclusive = np.zeros((n_rows, n_metrics), dtype=np.float64)
    excl_present = np.zeros((n_rows, n_metrics), dtype=bool)
    baseline = None
    base_present = None
    tag_codes = None
    hist = None
    hist_present = None
    hist_first = None
    n_series = 0
    source_lists: List[SourceList] = []
    # Each cell's position in its dict, for the planes whose dicts are not
    # all ascending by key (``ColumnarViewTree.cell_order``).
    ranks = {plane: np.zeros((n_rows, n_metrics), dtype=np.int64)
             for plane in ("inclusive", "exclusive", "baseline")}
    for row, node in enumerate(records):
        for rank, (col, value) in enumerate(node.inclusive.items()):
            inclusive[row, col] = value
            incl_present[row, col] = True
            ranks["inclusive"][row, col] = rank
        for rank, (col, value) in enumerate(node.exclusive.items()):
            exclusive[row, col] = value
            excl_present[row, col] = True
            ranks["exclusive"][row, col] = rank
        if node.baseline:
            if baseline is None:
                baseline = np.zeros((n_rows, n_metrics), dtype=np.float64)
                base_present = np.zeros((n_rows, n_metrics), dtype=bool)
            for rank, (col, value) in enumerate(node.baseline.items()):
                baseline[row, col] = value
                base_present[row, col] = True
                ranks["baseline"][row, col] = rank
        if node.tag is not None:
            if tag_codes is None:
                tag_codes = np.zeros(n_rows, dtype=np.int8)
            tag_codes[row] = _TAG_CODE.get(node.tag, 0)
        if node.histogram:
            if hist is None:
                n_series = len(next(iter(node.histogram.values())))
                hist = np.zeros((n_rows, n_metrics, n_series),
                                dtype=np.float64)
                hist_present = np.zeros((n_rows, n_metrics), dtype=bool)
                hist_first = np.zeros((n_rows, n_metrics), dtype=np.int64)
            for rank, (col, series) in enumerate(node.histogram.items()):
                if len(series) != n_series:
                    return None
                hist[row, col, :] = series
                hist_present[row, col] = True
                hist_first[row, col] = rank
        source_lists.append(node.sources)

    return ColumnarViewTree(
        parent=np.asarray(parents, dtype=np.int64),
        depth=np.asarray(depths, dtype=np.int64),
        token=np.asarray(tokens, dtype=np.int64),
        frame_id=np.asarray(frame_ids, dtype=np.int64),
        frames=frames, merge_keys=merge_keys, shape=tree.shape,
        inclusive=inclusive, incl_present=incl_present,
        exclusive=exclusive, excl_present=excl_present,
        baseline=baseline, base_present=base_present, tag_codes=tag_codes,
        hist=hist, hist_present=hist_present, hist_first=hist_first,
        n_series=n_series, row_sources=_StoredSources(source_lists),
        cell_order={plane: ranks[plane] for plane, presence in (
            ("inclusive", incl_present), ("exclusive", excl_present),
            ("baseline", base_present)) if presence is not None
            and _if_unordered(ranks[plane], presence) is not None})
