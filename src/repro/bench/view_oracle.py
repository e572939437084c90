"""The view transforms' object-tree oracle.

:func:`top_down`, :func:`bottom_up` and :func:`flat` build a view by
walking the per-node object CCT and merging into ``ViewNode`` dicts, the
way the transforms worked before the columnar view builders, and
:func:`finish` applies a customization's derived-metric callbacks node by
node.  :func:`repro.analysis.transform.transform` must produce the same
trees — digests, child order, values and sources — for every shape and
every customization: the CCT bench gate (:mod:`repro.bench.cct`) and the
differential tests hold it to that.  The trees built here never carry
arrays, so merges, diffs and layouts of them take the object paths too.

The §V-B hooks mean the same in every shape: an elide callback drops a
context together with its subtree (the contexts below an elided one are
never offered to it), and the kept contexts keep their full inclusive
values; a remap callback rewrites every frame but the root's before
anything compares merge keys.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..analysis.callbacks import Customization
from ..analysis.metrics import compute_inclusive
from ..analysis.viewtree import ViewNode, ViewTree
from ..core.cct import CCTNode
from ..core.frame import Frame, FrameKind, intern_frame
from ..core.profile import Profile


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
             customization: Optional[Customization] = None) -> ViewTree:
    """The top-down view, merged node by node off the object CCT."""
    custom = customization or Customization.empty()
    passthrough = custom.is_passthrough()
    compute_inclusive(profile)
    tree = ViewTree(profile.schema.copy(), shape="top_down")
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
              customization: Optional[Customization] = None) -> ViewTree:
    """The bottom-up view: one reversed path per kept context with
    exclusive values, merged node by node."""
    custom = customization or Customization.empty()
    if custom.has_elide_hooks():
        compute_inclusive(profile)  # a callback may read a node's cost
    tree = ViewTree(profile.schema.copy(), shape="bottom_up")
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
         customization: Optional[Customization] = None) -> ViewTree:
    """The flat view (program → load module → file → function), with
    inclusive values summed over outermost contexts only."""
    custom = customization or Customization.empty()
    compute_inclusive(profile)
    tree = ViewTree(profile.schema.copy(), shape="flat")
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


def finish(custom: Customization, tree: ViewTree) -> None:
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


_SHAPES: Dict[str, Callable[..., ViewTree]] = {
    "top_down": top_down,
    "bottom_up": bottom_up,
    "flat": flat,
}


def transform(profile: Profile, shape: str,
              customization: Optional[Customization] = None) -> ViewTree:
    """The object-path view of one shape."""
    return _SHAPES[shape](profile, customization)
