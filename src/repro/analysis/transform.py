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
columnar-backed :class:`~repro.analysis.viewtree.ViewTree` carrying both
inclusive and exclusive values.  A profile without arrays is folded into
them first (:meth:`~repro.core.profile.Profile.columnar`).  The user's
customization hooks (§V-B) run on the arrays too: remap callbacks over the
frame table, elide callbacks into one mask that drops each elided context
with its subtree in every shape, and derived-metric callbacks into new
value columns (:meth:`~repro.analysis.callbacks.Customization.finish`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.profile import Profile
from . import viewtree_columnar
from .callbacks import Customization
from .viewtree import ViewTree


def _build(builder: Callable[..., ViewTree], profile: Profile,
           customization: Optional[Customization]) -> ViewTree:
    custom = customization or Customization.empty()
    tree = builder(profile, profile.columnar(build=True), custom)
    custom.finish(tree)
    return tree


def top_down(profile: Profile,
             customization: Optional[Customization] = None) -> ViewTree:
    """Build the top-down view tree from a profile's CCT."""
    return _build(viewtree_columnar.build_top_down, profile, customization)


def bottom_up(profile: Profile,
              customization: Optional[Customization] = None) -> ViewTree:
    """Build the bottom-up view: hot contexts first, callers below.

    Every CCT context with a nonzero exclusive value contributes one
    reversed path.  A first-level node's inclusive value is therefore the
    total *exclusive* cost of that function across all call paths — the
    quantity Fig. 6 uses to expose ``brk`` as the hotspot.
    """
    return _build(viewtree_columnar.build_bottom_up, profile, customization)


def flat(profile: Profile,
         customization: Optional[Customization] = None) -> ViewTree:
    """Build the flat view: program → load module → file → function.

    Exclusive values sum straightforwardly.  Inclusive values sum only over
    *outermost* occurrences of each function (paths containing no other
    frame with the same identity), so recursion does not double-count.
    """
    return _build(viewtree_columnar.build_flat, profile, customization)


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
