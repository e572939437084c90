"""The :class:`Profile` container: one loaded profile in EasyView's model.

A profile bundles a calling context tree, a metric schema, any advanced
monitoring points (snapshot series, multi-context points), and provenance
metadata (producing tool, capture time, duration).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import SchemaError
from .cct import CCT, CCTNode
from .digest import profile_digest, schema_digest
from .frame import Frame
from .keys import CONTENT, source_key
from .metric import Metric, MetricSchema
from .monitor import MonitoringPoint, POINT_ARITY, PointKind

#: Makes publishing a folded snapshot and re-stamping the cache keys one
#: step, and a cache-key read another: a read between the two would see
#: the new snapshot under the old stamp and fall back to a content digest,
#: and two threads folding one profile would each attach a snapshot.  The
#: fold and the digest themselves run outside it, so one lock serves
#: every profile.
_FOLD_LOCK = threading.Lock()


@dataclass
class ProfileMeta:
    """Provenance metadata for a profile."""

    tool: str = ""
    time_nanos: int = 0
    duration_nanos: int = 0
    attributes: Dict[str, str] = field(default_factory=dict)


class Profile:
    """One profile: CCT + metric schema + monitoring points + metadata.

    The CCT has two representations: the columnar struct-of-arrays
    snapshot (:class:`~repro.core.cct_columnar.ColumnarCCT`), which every
    producer builds — :class:`~repro.builder.ProfileBuilder`, the pprof
    converter and both file codecs — and the per-node object tree
    (:class:`~repro.core.cct.CCT`), the facade.  Touching :attr:`cct` (or
    :attr:`root`) materializes the facade lazily, so its consumers —
    callbacks, lint rules, monitoring points — never notice, and edits
    go through it.  Mutating the object tree bumps its version counter,
    which invalidates the columnar snapshot automatically.
    """

    def __init__(self, schema: Optional[MetricSchema] = None,
                 meta: Optional[ProfileMeta] = None) -> None:
        self._cct: Optional[CCT] = None
        self._columnar = None
        self.schema = schema if schema is not None else MetricSchema()
        self.points: List[MonitoringPoint] = []
        self.meta = meta if meta is not None else ProfileMeta()
        #: (key, stamp) pairs: the source key taken at parse, and the
        #: memoized content digest (see :meth:`cache_key`).
        self._source: Optional[Tuple[str, Tuple]] = None
        self._content: Optional[Tuple[str, Tuple]] = None

    # -- representations ---------------------------------------------------

    @property
    def cct(self) -> CCT:
        """The object CCT, materialized from the columnar form on demand
        (an empty tree for a profile that has neither)."""
        cct = self._cct
        if cct is None:
            col = self._columnar
            cct = self._cct = CCT() if col is None else col.to_cct()
        return cct

    @cct.setter
    def cct(self, value: CCT) -> None:
        self._cct = value
        self._columnar = None

    def attach_columnar(self, columnar) -> None:
        """Adopt a columnar CCT as this profile's contents.

        The object tree is dropped and will rebuild lazily from the
        columnar arrays if anything asks for it.
        """
        self._cct = None
        self._columnar = columnar

    def columnar(self, build: bool = False):
        """The columnar snapshot, or ``None`` when absent or stale.

        A snapshot is stale once the object tree mutated past the version
        the snapshot was taken at, or the schema outgrew its columns.
        With ``build=True`` a missing or stale snapshot is (re)built from
        the object tree, as every view transform does; the object tree
        stays, and so does a source key.
        """
        col = self._columnar
        cct = self._cct
        if (col is not None and col.n_metrics == len(self.schema)
                and (cct is None or cct._version == col._synced_version)):
            return col
        if not build:
            return None
        from .cct_columnar import from_cct
        folded = from_cct(self.cct, len(self.schema))
        with _FOLD_LOCK:
            col = self.columnar()
            if col is not None:  # another thread published first
                return col
            before = self.stamp()
            col = self._columnar = folded
            # The fold changes the representation, not the content: a
            # source key or digest taken on the object tree still names it.
            after = self.stamp()
            if self._source is not None and self._source[1] == before:
                self._source = (self._source[0], after)
            if self._content is not None and self._content[1] == before:
                self._content = (self._content[0], after)
            return col

    # -- cache keys --------------------------------------------------------

    def stamp(self) -> Tuple:
        """What must stay the same for a cache key taken now to hold.

        While the columnar snapshot is in sync the stamp holds it, and the
        object tree a consumer materialized from it (``to_cct``) does not
        move the stamp; otherwise it holds the object CCT and its mutation
        counter.  Both are held as objects, never as ``id()``: CPython
        reuses a freed object's address, and a reused id would match a
        stamp taken before.  The schema digest and the point count cover
        :meth:`add_metric` and :meth:`add_point`.  Writes straight into
        node dicts or point objects are not seen (see
        :meth:`~repro.core.cct.CCT.clear_inclusive_cache`).
        """
        col = self.columnar()
        cct = None if col is not None else self._cct
        return (col, cct, cct._version if cct is not None else None,
                schema_digest(self.schema), len(self.points))

    def set_source(self, format: str, *parts: bytes) -> None:
        """Key this profile by the bytes it was parsed from (see
        :func:`~repro.core.keys.source_key`)."""
        self._source = (source_key(format, *parts), self.stamp())

    def cache_key(self) -> str:
        """The engine's cache key for this profile's current content.

        The source key while the stamp still equals the one taken at
        parse; after that (or for a profile built in process) the content
        digest, computed once per stamp.
        """
        with _FOLD_LOCK:
            stamp = self.stamp()
            source = self._source
            if source is not None:
                if source[1] == stamp:
                    return source[0]
                # Mutated since parse: the bytes no longer describe it.
                self._source = None
            content = self._content
            if content is not None and content[1] == stamp:
                return content[0]
        key = CONTENT + profile_digest(self)
        with _FOLD_LOCK:
            if self.stamp() == stamp:  # unchanged while digesting
                self._content = (key, stamp)
        return key

    # -- construction ------------------------------------------------------

    def add_metric(self, metric: Metric) -> int:
        """Register a metric column; returns its index."""
        return self.schema.add(metric)

    def add_sample(self, frames: List[Frame],
                   values: Dict[int, float]) -> CCTNode:
        """Record a plain sample: merge the path, accumulate on the leaf."""
        self.check_columns(values)
        return self.cct.add_sample(frames, values)

    def add_point(self, point: MonitoringPoint) -> MonitoringPoint:
        """Record an advanced monitoring point.

        Snapshot points (``sequence > 0`` or kind ``ALLOCATION``) and
        multi-context points are kept as first-class objects in addition to
        any per-node accumulation the caller performed.
        """
        self.check_columns(point.values)
        if not point.arity_ok():
            raise SchemaError(
                "point of kind %s expects %d contexts, got %d"
                % (point.kind.name, POINT_ARITY[point.kind],
                   len(point.contexts)))
        self.points.append(point)
        return point

    def bind_point_rows(self) -> None:
        """Resolve point contexts a producer recorded as columnar rows:
        the object facade is built once, and each row becomes its node."""
        if self.points:
            self.cct
            nodes = self._columnar.node_objects
            for point in self.points:
                point.contexts = [nodes[row] for row in point.contexts]

    def check_columns(self, values: Dict[int, float]) -> None:
        """Raise :class:`SchemaError` for a column outside the schema."""
        limit = len(self.schema)
        for index in values:
            if not 0 <= index < limit:
                raise SchemaError(
                    "metric column %d out of range (schema has %d columns)"
                    % (index, limit))

    # -- queries -----------------------------------------------------------

    @property
    def root(self) -> CCTNode:
        """The CCT root node."""
        return self.cct.root

    def nodes(self) -> Iterator[CCTNode]:
        """Pre-order iteration over all CCT nodes."""
        return self.cct.nodes()

    def node_count(self) -> int:
        """Number of CCT nodes including the root."""
        col = self.columnar()
        if col is not None:
            return col.node_count()
        return self.cct.node_count()

    def metric_index(self, name: str) -> int:
        """Column index for a metric name (raises SchemaError if missing)."""
        return self.schema.index_of(name)

    def total(self, metric_name: str) -> float:
        """Program-wide total of a metric (sum of exclusive values)."""
        index = self.schema.index_of(metric_name)
        return self.columnar(build=True).total(index)

    def snapshot_sequences(self) -> List[int]:
        """Sorted distinct snapshot sequence numbers present in the points."""
        return sorted({p.sequence for p in self.points if p.sequence > 0})

    def points_of_kind(self, kind: PointKind) -> List[MonitoringPoint]:
        """All monitoring points of a given kind."""
        return [p for p in self.points if p.kind is kind]

    def find_by_name(self, name: str) -> List[CCTNode]:
        """All CCT nodes whose frame name equals ``name``."""
        return self.cct.find_by_name(name)

    def summary(self) -> Dict[str, object]:
        """A floating-window style summary of the whole profile (§VI-B)."""
        col = self.columnar(build=True)
        totals = col.totals().tolist()
        return {
            "tool": self.meta.tool,
            "contexts": col.node_count(),
            "max_depth": col.max_depth(),
            "points": len(self.points),
            "metrics": {metric.name: metric.format_value(totals[index])
                        for index, metric in enumerate(self.schema)},
        }

    def __repr__(self) -> str:
        return "<Profile tool=%r nodes=%d metrics=%s>" % (
            self.meta.tool, self.node_count(), self.schema.names())
