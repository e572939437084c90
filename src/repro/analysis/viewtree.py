"""View trees: the display-oriented trees the analysis engine produces.

A raw CCT keeps every calling context distinct (one node per frame *and*
call line).  Views merge contexts that a reader considers the same — by
default on (function name, file, module) — and carry both inclusive and
exclusive values per metric.  All three tree shapes from §V-A (top-down,
bottom-up, flat) are view trees, which lets the differential and aggregate
operations (§V-A(c)) apply uniformly to every shape, a capability the paper
highlights over prior diff tools that only handle top-down flame graphs.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..core.cct import CCTNode
from ..core.digest import viewtree_digest
from ..core.frame import Frame, FrameKind
from ..core.keys import CONTENT, derived_key
from ..core.metric import MetricSchema

#: Key under which children are merged: :meth:`Frame.merge_key`.
MergeKey = Tuple


class SourceList:
    """The CCT nodes that contributed to a view node, resolved lazily.

    Behaves like the plain list it replaces, but can additionally hold
    *lazy parts* — ``(resolver, ids)`` pairs of columnar node ids plus a
    callable that materializes them into :class:`CCTNode` objects.  The
    columnar transforms hand out thousands of these without touching a
    single object node; only consumers that actually need code links
    (annotations, session detail panes) pay for materialization.

    Length and truthiness never force resolution, so "does this view node
    exist yet" checks in the merge loops stay free.
    """

    __slots__ = ("_parts",)

    def __init__(self, items: Optional[Iterable[CCTNode]] = None) -> None:
        #: Ordered parts: each one either a list of nodes or a lazy
        #: ``(resolver, payload, count)`` triple — ``resolver(payload)``
        #: yields ``count`` materialized nodes.
        self._parts: List[object] = []
        if items:
            self._parts.append(list(items))

    @classmethod
    def lazy(cls, resolver: Callable[[object], List[CCTNode]],
             payload: object, count: int) -> "SourceList":
        """A deferred source list, materialized on first iteration."""
        instance = cls()
        if count:
            instance._parts.append((resolver, payload, count))
        return instance

    def _force(self) -> List[CCTNode]:
        parts = self._parts
        if len(parts) == 1 and type(parts[0]) is list:
            return parts[0]
        items: List[CCTNode] = []
        for part in parts:
            if type(part) is list:
                items.extend(part)
            else:
                items.extend(part[0](part[1]))
        self._parts = [items] if items else []
        return items

    # -- list protocol ---------------------------------------------------

    def append(self, node: CCTNode) -> None:
        parts = self._parts
        if parts and type(parts[-1]) is list:
            parts[-1].append(node)
        else:
            parts.append([node])

    def extend(self, items) -> None:
        if isinstance(items, SourceList):
            # Copy list parts (list.extend semantics: the receiving list
            # must not alias the source); lazy parts are immutable pairs
            # and can be shared.
            for part in items._parts:
                if type(part) is list:
                    if part:
                        self._parts.append(list(part))
                else:
                    self._parts.append(part)
        else:
            items = list(items)
            if items:
                self._parts.append(items)

    def copy(self) -> "SourceList":
        duplicate = SourceList()
        duplicate._parts = [list(part) if type(part) is list else part
                            for part in self._parts]
        return duplicate

    def __iter__(self) -> Iterator[CCTNode]:
        return iter(self._force())

    def __len__(self) -> int:
        return sum(len(part) if type(part) is list else part[2]
                   for part in self._parts)

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __getitem__(self, index):
        return self._force()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, SourceList):
            return self._force() == other._force()
        if isinstance(other, list):
            return self._force() == other
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        return "SourceList(%r)" % (self._force(),)


class ViewNode:
    """One node of a view tree."""

    __slots__ = ("frame", "parent", "children", "inclusive", "exclusive",
                 "sources", "tag", "baseline", "histogram")

    def __init__(self, frame: Frame,
                 parent: Optional["ViewNode"] = None) -> None:
        self.frame = frame
        self.parent = parent
        self.children: Dict[MergeKey, ViewNode] = {}
        self.inclusive: Dict[int, float] = {}
        self.exclusive: Dict[int, float] = {}
        #: CCT nodes that contributed to this view node (for code links).
        self.sources: SourceList = SourceList()
        #: Differential tag: one of "A", "D", "+", "-", "=" (None otherwise).
        self.tag: Optional[str] = None
        #: In a differential tree, the first profile's inclusive values.
        self.baseline: Dict[int, float] = {}
        #: In an aggregate tree, per-profile (or per-snapshot) value series.
        self.histogram: Dict[int, List[float]] = {}

    # -- construction ----------------------------------------------------

    def child(self, frame: Frame) -> "ViewNode":
        """Return the merged child for ``frame``, creating it if absent."""
        key = frame.merge_key()
        node = self.children.get(key)
        if node is None:
            node = ViewNode(frame, parent=self)
            self.children[key] = node
        return node

    def add_inclusive(self, metric_index: int, value: float) -> None:
        """Accumulate an inclusive value."""
        self.inclusive[metric_index] = (
            self.inclusive.get(metric_index, 0.0) + value)

    def add_exclusive(self, metric_index: int, value: float) -> None:
        """Accumulate an exclusive value."""
        self.exclusive[metric_index] = (
            self.exclusive.get(metric_index, 0.0) + value)

    # -- queries -----------------------------------------------------------

    def value(self, metric_index: int, inclusive: bool = True) -> float:
        """This node's value for a metric (0 when absent)."""
        table = self.inclusive if inclusive else self.exclusive
        return table.get(metric_index, 0.0)

    def delta(self, metric_index: int) -> float:
        """In a differential tree: new value minus baseline value."""
        return (self.inclusive.get(metric_index, 0.0)
                - self.baseline.get(metric_index, 0.0))

    def label(self) -> str:
        """Display label, including the differential tag when present."""
        base = self.frame.label()
        if self.tag:
            return "[%s] %s" % (self.tag, base)
        return base

    def path(self) -> List["ViewNode"]:
        """Nodes from the root (exclusive) down to this node."""
        nodes: List[ViewNode] = []
        node: Optional[ViewNode] = self
        while node is not None and node.frame.kind is not FrameKind.ROOT:
            nodes.append(node)
            node = node.parent
        nodes.reverse()
        return nodes

    def depth(self) -> int:
        """Distance from the view root."""
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def sorted_children(self) -> List["ViewNode"]:
        """Children ordered by descending first-metric inclusive value,
        breaking ties on the label for determinism."""
        return sorted(self.children.values(),
                      key=lambda n: (-n.inclusive.get(0, 0.0), n.frame.name,
                                     n.frame.file))

    def walk(self) -> Iterator["ViewNode"]:
        """Depth-first pre-order iteration over this subtree."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def __repr__(self) -> str:
        return "<ViewNode %s>" % self.label()


class ViewTree:
    """A view tree plus the metric schema its column indices refer to.

    The tree *is* its :class:`~repro.analysis.viewtree_columnar.
    ColumnarViewTree`: digest, layout, merge, diff, the hygiene
    operations and the IDE's row kernels read the arrays through
    :meth:`columnar`, and ``ViewNode`` objects exist only once something
    touches :attr:`root` (the facade, built from the arrays).
    """

    #: Engine cache keys (:mod:`repro.core.keys`): the derivation key the
    #: engine puts on the trees it returns (moved on by the in-place
    #: mutators, see :meth:`rekey`), and the memoized content-digest
    #: fallback.  Trees however built start with neither.
    _derivation_key: Optional[str] = None
    _content_key: Optional[str] = None

    #: The shape of the view: "top_down", "bottom_up", "flat", or a
    #: decorated shape such as "diff:top_down" / "aggregate:top_down".
    def __init__(self, schema: MetricSchema, shape: str, columnar) -> None:
        self._columnar = columnar
        self.schema = schema
        self.shape = shape

    @property
    def root(self) -> ViewNode:
        """The facade's root node, materialized on first touch."""
        return self._columnar.facade()[0]

    def columnar(self):
        """The backing column arrays."""
        return self._columnar

    def fork(self) -> "ViewTree":
        """A copy to mutate in place: it shares the arrays (never the
        facade) and starts from this tree's cache key, but owns its
        schema, so this tree stays as it was."""
        tree = ViewTree(self.schema.copy(), self.shape,
                        self._columnar.with_planes())
        tree._derivation_key = self.cache_key()
        return tree

    def cache_key(self) -> str:
        """The engine's cache key: the derivation key, or else the content
        digest, memoized on the tree until :meth:`rekey`."""
        key = self._derivation_key or self._content_key
        if key is None:
            key = self._content_key = CONTENT + viewtree_digest(self)
        return key

    def rekey(self, *derivation) -> None:
        """Move the cache key past an in-place mutation.

        ``derivation`` names the mutation and its canonical arguments; a
        keyed tree then gets H(old key, *derivation).  Without one, or
        with no key taken yet, the tree falls back to a fresh content
        digest on next use.
        """
        old = self._derivation_key or self._content_key
        self._content_key = None
        self._derivation_key = (derived_key((old,) + derivation)
                                if old is not None and derivation else None)

    def nodes(self) -> Iterator[ViewNode]:
        """Pre-order iteration over the facade's nodes."""
        return self.root.walk()

    def node_count(self) -> int:
        """Total node count including the root."""
        return self._columnar.n_rows

    def total(self, metric_index: int) -> float:
        """The root's inclusive value for a metric."""
        columnar = self._columnar
        if 0 <= metric_index < columnar.n_metrics and \
                columnar.incl_present[0, metric_index]:
            return float(columnar.inclusive[0, metric_index])
        return 0.0

    def find_by_name(self, name: str) -> List[ViewNode]:
        """All nodes whose frame name equals ``name``."""
        return [n for n in self.nodes() if n.frame.name == name]

    def top(self, metric_index: int = 0, count: int = 10,
            inclusive: bool = False) -> Sequence[ViewNode]:
        """The hottest non-root nodes by a metric (ties in walk order), as
        :class:`~repro.analysis.viewrows.NodeRows`."""
        from . import viewrows
        columnar = self._columnar
        return viewrows.NodeRows(columnar, viewrows.top_rows(
            columnar, metric_index, count, inclusive))
