"""The calling context tree (CCT): EasyView's central data structure.

All monitoring points are organized into a compact CCT by merging the common
prefixes of their call paths (§IV-A), which minimizes both memory and disk
footprint.  Each node holds one :class:`~repro.core.frame.Frame` of
attribution plus the *exclusive* metric values measured at that exact
context; inclusive values are computed by the analysis engine
(:mod:`repro.analysis.metrics`) and cached on the node.

Every mutation — creating a node, accumulating or overwriting a value —
bumps the owning tree's *version counter*.  Derived state (the per-node
inclusive caches, a profile's columnar snapshot in
:mod:`repro.core.cct_columnar`) records the version it was computed at and
is considered stale the moment the versions disagree, so callers never have
to remember to invalidate anything by hand.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .frame import Frame, FrameKind, ROOT_FRAME


def _child_order(node: "CCTNode") -> Tuple[str, str, int, str, int, int]:
    """Deterministic sibling sort key: the frame's full identity tuple.

    Siblings are distinct interned frames, so the key never ties and the
    resulting order is total — independent of sample arrival order.  It is
    the same key :mod:`repro.core.digest` sorts by, so walk order and
    digest order agree.
    """
    return node.frame.key()


class CCTNode:
    """One node of a calling context tree.

    Attributes:
        frame: the attribution (function/loop/object) of this context.
        parent: the calling context, or ``None`` for the root.
        children: child contexts keyed by their interned frame.
        metrics: exclusive metric values, metric column index → value.
        inclusive: cached inclusive values (filled by the analysis engine).
    """

    __slots__ = ("frame", "parent", "children", "metrics", "inclusive",
                 "_tree")

    def __init__(self, frame: Frame,
                 parent: Optional["CCTNode"] = None) -> None:
        self.frame = frame
        self.parent = parent
        self.children: Dict[Frame, CCTNode] = {}
        self.metrics: Dict[int, float] = {}
        self.inclusive: Dict[int, float] = {}
        # Back-pointer to the owning CCT (None for detached nodes) so
        # mutations can bump the tree version in O(1).
        self._tree = parent._tree if parent is not None else None

    # -- construction ----------------------------------------------------

    def child(self, frame: Frame) -> "CCTNode":
        """Return the child for ``frame``, creating it if absent.

        This is the prefix-merge operation: two call paths that share a
        prefix share the corresponding chain of nodes.
        """
        node = self.children.get(frame)
        if node is None:
            node = CCTNode(frame, parent=self)
            self.children[frame] = node
            tree = self._tree
            if tree is not None:
                tree._version += 1
        return node

    def add_value(self, metric_index: int, value: float) -> None:
        """Accumulate an exclusive metric value on this node."""
        self.metrics[metric_index] = self.metrics.get(metric_index, 0.0) + value
        tree = self._tree
        if tree is not None:
            tree._version += 1

    def set_value(self, metric_index: int, value: float) -> None:
        """Overwrite an exclusive metric value on this node."""
        self.metrics[metric_index] = value
        tree = self._tree
        if tree is not None:
            tree._version += 1

    # -- queries ----------------------------------------------------------

    def exclusive(self, metric_index: int) -> float:
        """Exclusive value of a metric at this node (0 when absent)."""
        return self.metrics.get(metric_index, 0.0)

    def inclusive_value(self, metric_index: int) -> float:
        """Cached inclusive value; falls back to exclusive when uncomputed."""
        if metric_index in self.inclusive:
            return self.inclusive[metric_index]
        return self.metrics.get(metric_index, 0.0)

    def call_path(self) -> List[Frame]:
        """Frames from the root (exclusive) down to this node."""
        frames: List[Frame] = []
        node: Optional[CCTNode] = self
        while node is not None and node.frame.kind is not FrameKind.ROOT:
            frames.append(node.frame)
            node = node.parent
        frames.reverse()
        return frames

    def depth(self) -> int:
        """Distance from the root (root itself has depth 0)."""
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def is_leaf(self) -> bool:
        """True when this context has no callees."""
        return not self.children

    def sorted_children(self) -> List["CCTNode"]:
        """Children in deterministic frame-identity order.

        The key is the frame's full identity tuple — (name, file, line,
        module, address, kind) — so the order is total and matches both
        :meth:`walk` and the digest walk in :mod:`repro.core.digest`.
        """
        return sorted(self.children.values(), key=_child_order)

    def walk(self) -> Iterator["CCTNode"]:
        """Depth-first pre-order iteration over this subtree.

        Siblings are visited in :meth:`sorted_children` order, so the
        sequence is deterministic regardless of sample arrival order.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            children = node.children
            if children:
                if len(children) > 1:
                    stack.extend(sorted(children.values(), key=_child_order,
                                        reverse=True))
                else:
                    stack.extend(children.values())

    def __repr__(self) -> str:
        return "<CCTNode %s children=%d>" % (self.frame.label(),
                                             len(self.children))


class CCT:
    """A calling context tree with a synthetic root.

    ``_version`` counts mutations (node creation, value accumulation);
    ``_inclusive_stamp`` records the version the nodes' inclusive caches
    were computed at.  The two agreeing is the validity condition checked
    by :func:`repro.analysis.metrics.compute_inclusive`, which makes the
    caches self-invalidating: mutate, and the next inclusive query simply
    recomputes.
    """

    def __init__(self) -> None:
        self._version = 0
        self._inclusive_stamp = 0
        self.root = CCTNode(ROOT_FRAME)
        self.root._tree = self

    def add_path(self, frames: Iterable[Frame]) -> CCTNode:
        """Merge a root-first call path into the tree; returns the leaf node."""
        node = self.root
        for frame in frames:
            node = node.child(frame)
        return node

    def add_sample(self, frames: Iterable[Frame],
                   values: Dict[int, float]) -> CCTNode:
        """Merge a call path and accumulate its metric values on the leaf."""
        node = self.add_path(frames)
        for metric_index, value in values.items():
            node.add_value(metric_index, value)
        return node

    def node_count(self) -> int:
        """Total number of nodes including the root."""
        return sum(1 for _ in self.root.walk())

    def max_depth(self) -> int:
        """Depth of the deepest context."""
        best = 0
        stack: List[Tuple[CCTNode, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if depth > best:
                best = depth
            stack.extend((child, depth + 1) for child in node.children.values())
        return best

    def nodes(self) -> Iterator[CCTNode]:
        """Pre-order iteration over all nodes."""
        return self.root.walk()

    def find(self, predicate: Callable[[CCTNode], bool]) -> List[CCTNode]:
        """All nodes satisfying ``predicate``, in pre-order."""
        return [node for node in self.nodes() if predicate(node)]

    def find_by_name(self, name: str) -> List[CCTNode]:
        """All nodes whose frame name equals ``name``."""
        return self.find(lambda node: node.frame.name == name)

    def leaf_nodes(self) -> Iterator[CCTNode]:
        """All leaves (contexts with no callees)."""
        return (node for node in self.nodes() if node.is_leaf())

    def clear_inclusive_cache(self) -> None:
        """Drop cached inclusive values.

        Mutation through the node API invalidates automatically (the
        version stamp no longer matches), so calling this by hand is only
        needed after writing ``node.metrics`` dictionaries directly.

        Such direct writes (into node dicts, or into a profile's point
        objects) bypass the engine's cache-key stamp too
        (:meth:`~repro.core.profile.Profile.stamp`): a profile parsed
        from bytes keeps serving its source key.  Go through the node API
        (``add_value``/``set_value``), or assign a new tree to
        ``Profile.cct``, to change a profile that may already be cached.
        """
        for node in self.nodes():
            node.inclusive.clear()
        self._inclusive_stamp = self._version
