"""The :class:`Profile` container: one loaded profile in EasyView's model.

A profile bundles a calling context tree, a metric schema, any advanced
monitoring points (snapshot series, multi-context points), and provenance
metadata (producing tool, capture time, duration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import FormatError, SchemaError
from .cct import CCT, CCTNode
from .digest import profile_digest, schema_digest
from .keys import CONTENT, source_key
from .metric import Metric, MetricSchema
from .monitor import MonitoringPoint, POINT_ARITY, PointKind


@dataclass
class ProfileMeta:
    """Provenance metadata for a profile."""

    tool: str = ""
    time_nanos: int = 0
    duration_nanos: int = 0
    attributes: Dict[str, str] = field(default_factory=dict)


class Profile:
    """One profile: CCT + metric schema + monitoring points + metadata.

    A built profile's tree is its columnar arrays
    (:class:`~repro.core.cct_columnar.ColumnarCCT`), which every producer
    makes — :class:`~repro.builder.ProfileBuilder`, the pprof converter,
    both file codecs and the analyses that derive a new profile.  They
    are its only state: :attr:`cct` (or :attr:`root`) materializes the
    read-only object facade from them on demand, for callbacks, lint
    rules, monitoring points and the text writers.  A bare ``Profile()``
    is the root alone.
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
        """The object facade, materialized from the arrays on demand."""
        if self._cct is None:
            self._cct = self.columnar().to_cct()
        return self._cct

    def attach_columnar(self, columnar) -> None:
        """Adopt a columnar CCT as this profile's contents (the producers'
        last step); the facade rebuilds from it if anything asks."""
        self._cct = None
        self._columnar = columnar

    def columnar(self):
        """The columnar arrays (root-only ones for a bare profile)."""
        col = self._columnar
        if col is None:
            from .cct_columnar import ColumnarBuilder, value_cells
            col = self._columnar = ColumnarBuilder().finish(
                *value_cells(1, len(self.schema), (), (), ()))
        return col

    # -- cache keys --------------------------------------------------------

    def stamp(self) -> Tuple:
        """What must stay the same for a cache key taken now to hold.

        The arrays are held as an object, never as ``id()``: CPython
        reuses a freed object's address, and a reused id would match a
        stamp taken before.  The schema digest and the point count cover
        :meth:`add_metric` and :meth:`add_point`.  Writes straight into
        the arrays, the facade's dicts or point objects are not seen.
        """
        return (self.columnar(), schema_digest(self.schema),
                len(self.points))

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
        stamp = self.stamp()
        source = self._source
        if source is not None:
            if source[1] == stamp:
                return source[0]
            # Changed since parse: the bytes no longer describe it.
            self._source = None
        content = self._content
        if content is not None and content[1] == stamp:
            return content[0]
        key = CONTENT + profile_digest(self)
        if self.stamp() == stamp:  # unchanged while digesting
            self._content = (key, stamp)
        return key

    # -- construction ------------------------------------------------------

    def add_metric(self, metric: Metric) -> int:
        """Register a metric column; returns its index.  A built
        profile's arrays gain the column, absent on every row."""
        index = self.schema.add(metric)
        col = self._columnar
        if col is not None and col.n_metrics < len(self.schema):
            self._columnar = col.widened(len(self.schema))
        return index

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

    def row_nodes(self) -> List[CCTNode]:
        """The facade node of each row of the arrays (the facade is built
        on first use)."""
        self.cct
        return self._columnar.node_objects

    def bind_point_rows(self) -> None:
        """Resolve point contexts a producer recorded as columnar rows:
        the object facade is built once, and each row becomes its node."""
        if self.points:
            nodes = self.row_nodes()
            for point in self.points:
                point.contexts = [nodes[row] for row in point.contexts]

    def point_rows(self) -> List[List[int]]:
        """Each point's contexts as rows of the arrays (a context outside
        the tree is a :class:`~repro.errors.FormatError`)."""
        if not self.points:
            return []
        row_of = {id(node): row for row, node
                  in enumerate(self.columnar().node_objects or ())}
        rows = []
        for point in self.points:
            found = [row_of.get(id(ctx)) for ctx in point.contexts]
            if None in found:
                raise FormatError(
                    "monitoring point references a context outside the CCT")
            rows.append(found)
        return rows

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
        return self.columnar().node_count()

    def metric_index(self, name: str) -> int:
        """Column index for a metric name (raises SchemaError if missing)."""
        return self.schema.index_of(name)

    def total(self, metric_name: str) -> float:
        """Program-wide total of a metric (sum of exclusive values)."""
        index = self.schema.index_of(metric_name)
        return self.columnar().total(index)

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
        col = self.columnar()
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
