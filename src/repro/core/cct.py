"""The calling context tree (CCT): EasyView's central data structure.

All monitoring points are organized into a compact CCT by merging the common
prefixes of their call paths (§IV-A), which minimizes both memory and disk
footprint.  Each node holds one :class:`~repro.core.frame.Frame` of
attribution plus the *exclusive* metric values measured at that exact
context; inclusive values are computed by the analysis engine
(:mod:`repro.analysis.metrics`) and cached on the node.

A profile's tree is its columnar arrays
(:class:`~repro.core.cct_columnar.ColumnarCCT`); the classes here are the
read-only facade :meth:`~repro.core.cct_columnar.ColumnarCCT.to_cct`
builds from them for callbacks, elide hooks, lint rules, monitoring
points and the text writers.  They offer no way to add a node or a
value: a profile is built (:class:`~repro.builder.ProfileBuilder`), not
edited.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

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

    __slots__ = ("frame", "parent", "children", "metrics", "inclusive")

    def __init__(self, frame: Frame,
                 parent: Optional["CCTNode"] = None) -> None:
        self.frame = frame
        self.parent = parent
        self.children: Dict[Frame, CCTNode] = {}
        self.metrics: Dict[int, float] = {}
        self.inclusive: Dict[int, float] = {}

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
    """A calling context tree with a synthetic root."""

    def __init__(self) -> None:
        self.root = CCTNode(ROOT_FRAME)

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
