"""Tree transformations: top-down, bottom-up, and flat views (§V-A(b)).

* The **top-down** tree is the CCT rooted at the program entry with callees
  as children; it shows how a metric distributes along call paths.
* The **bottom-up** tree reverses call paths: hot functions become the first
  level and their *callers* hang below, answering "where is this hot
  function called from?".
* The **flat** tree discards call paths and groups by load module → file →
  function, highlighting hot shared libraries and files.

Every transform merges contexts on their frame's merge key (name + file +
module, :meth:`~repro.core.frame.Frame.merge_key`) and produces a
:class:`~repro.analysis.viewtree.ViewTree` carrying both inclusive and
exclusive values, optionally invoking the user's node-visit customization
hooks (§V-B).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.cct import CCTNode
from ..core.frame import Frame, FrameKind, intern_frame
from ..core.profile import Profile
from . import viewtree_columnar
from .callbacks import Customization
from .metrics import compute_inclusive
from .traversal import postorder, preorder
from .viewtree import ViewNode, ViewTree


def top_down(profile: Profile,
             customization: Optional[Customization] = None) -> ViewTree:
    """Build the top-down view tree from a profile's CCT."""
    custom = customization or Customization.empty()
    passthrough = custom.is_passthrough()
    if passthrough:
        columnar = profile.columnar()
        if columnar is not None:
            tree = viewtree_columnar.build_top_down(profile, columnar)
            custom.finish(tree)
            return tree
    compute_inclusive(profile)
    tree = ViewTree(profile.schema.copy(), shape="top_down")
    # Walk the CCT and mirror it into the view, merging sibling contexts
    # that share a merge key (e.g. the same callee invoked from two lines).
    # The loop is the open-pipeline hot path, hence the inlined fast paths.
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
    custom.finish(tree)
    return tree


def bottom_up(profile: Profile,
              customization: Optional[Customization] = None) -> ViewTree:
    """Build the bottom-up view: hot contexts first, callers below.

    Every CCT context with a nonzero exclusive value contributes one
    reversed path.  A first-level node's inclusive value is therefore the
    total *exclusive* cost of that function across all call paths — the
    quantity Fig. 6 uses to expose ``brk`` as the hotspot.
    """
    custom = customization or Customization.empty()
    if custom.is_passthrough():
        columnar = profile.columnar()
        if columnar is not None:
            tree = viewtree_columnar.build_bottom_up(profile, columnar)
            custom.finish(tree)
            return tree
    tree = ViewTree(profile.schema.copy(), shape="bottom_up")
    for node in preorder(profile.root):
        if not node.metrics or custom.elides(node):
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
    custom.finish(tree)
    return tree


def flat(profile: Profile,
         customization: Optional[Customization] = None) -> ViewTree:
    """Build the flat view: program → load module → file → function.

    Exclusive values sum straightforwardly.  Inclusive values sum only over
    *outermost* occurrences of each function (paths containing no other
    frame with the same identity), so recursion does not double-count.
    """
    custom = customization or Customization.empty()
    if custom.is_passthrough():
        columnar = profile.columnar()
        if columnar is not None:
            tree = viewtree_columnar.build_flat(profile, columnar)
            custom.finish(tree)
            return tree
    compute_inclusive(profile)
    tree = ViewTree(profile.schema.copy(), shape="flat")

    for node in preorder(profile.root):
        if node.frame.kind is FrameKind.ROOT or custom.elides(node):
            continue
        frame = custom.remap(node.frame)
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
        if _is_outermost(node, frame):
            for index, value in node.inclusive.items():
                func_view.add_inclusive(index, value)
    custom.finish(tree)
    return tree


def _is_outermost(node: CCTNode, frame: Frame) -> bool:
    """True when no ancestor shares this node's merge identity."""
    key = frame.merge_key()
    current = node.parent
    while current is not None:
        if current.frame.merge_key() == key:
            return False
        current = current.parent
    return True


_SHAPES: Dict[str, Callable[..., ViewTree]] = {
    "top_down": top_down,
    "bottom_up": bottom_up,
    "flat": flat,
}


def transform(profile: Profile, shape: str,
              customization: Optional[Customization] = None) -> ViewTree:
    """Dispatch to a transform by shape name."""
    try:
        fn = _SHAPES[shape]
    except KeyError:
        raise ValueError("unknown view shape %r (expected one of %s)"
                         % (shape, ", ".join(sorted(_SHAPES)))) from None
    return fn(profile, customization)
