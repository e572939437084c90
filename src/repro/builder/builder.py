"""The :class:`ProfileBuilder`: the friendly way to construct profiles.

Converters, synthetic profilers, and tests all build profiles the same
way: declare metric columns, then feed call paths with values.  Frames can
be given as plain strings, ``(name, file, line, module)`` tuples, or
:class:`~repro.core.frame.Frame` objects; paths are root-first (use
:meth:`ProfileBuilder.leaf_sample` for leaf-first stacks as produced by
most unwinders).

Paths descend a :class:`~repro.core.cct_columnar.ColumnarBuilder` trie,
so a built profile has arrays and no object CCT.  Advanced monitoring
points — snapshot series, allocations with data-object contexts, and
multi-context inefficiency points — are recorded as first-class
:class:`~repro.core.monitor.MonitoringPoint` objects, exactly as the
paper's representation requires (§IV-A), bound to the object facade.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Union

from ..core.frame import Frame, data_object_frame, intern_frame
from ..core.metric import Aggregation, Metric
from ..core.monitor import MonitoringPoint, PointKind
from ..core.profile import Profile, ProfileMeta

#: What callers may pass wherever a frame is expected.
FrameSpec = Union[str, tuple, Frame]


def _coerce_frame(spec: FrameSpec) -> Frame:
    """Normalize a frame spec into an interned :class:`Frame`.

    Accepted shapes: a :class:`Frame` (returned as-is), a bare name string,
    or a ``(name,)`` / ``(name, file)`` / ``(name, file, line)`` /
    ``(name, file, line, module)`` tuple.
    """
    if isinstance(spec, Frame):
        return spec
    if isinstance(spec, str):
        return intern_frame(spec)
    if isinstance(spec, tuple):
        if not 1 <= len(spec) <= 4:
            raise ValueError(
                "frame tuple must have 1..4 elements "
                "(name, file, line, module), got %r" % (spec,))
        name = spec[0]
        file = spec[1] if len(spec) > 1 else ""
        line = spec[2] if len(spec) > 2 else 0
        module = spec[3] if len(spec) > 3 else ""
        return intern_frame(name, file, line, module)
    raise TypeError("cannot interpret %r as a frame" % (spec,))


class ProfileBuilder:
    """Incrementally assemble a :class:`~repro.core.profile.Profile`."""

    def __init__(self, tool: str = "", time_nanos: int = 0,
                 duration_nanos: int = 0) -> None:
        from ..core.cct_columnar import ColumnarBuilder
        meta = ProfileMeta(tool=tool, time_nanos=time_nanos,
                           duration_nanos=duration_nanos)
        self._profile = Profile(meta=meta)
        self._trie = ColumnarBuilder()
        #: Row -> column -> value, summed as ``CCTNode.add_value`` sums.
        self._cells: Dict[int, Dict[int, float]] = {}
        self._finished = False

    # -- schema ------------------------------------------------------------

    def metric(self, name: str, unit: str = "", description: str = "",
               aggregation: Aggregation = Aggregation.SUM) -> int:
        """Declare a metric column (idempotent per name); returns its index."""
        self._check_open()
        return self._profile.add_metric(Metric(
            name=name, unit=unit, description=description,
            aggregation=aggregation))

    def attribute(self, key: str, value: str) -> "ProfileBuilder":
        """Attach a provenance attribute (host, pid, cmdline, ...)."""
        self._check_open()
        self._profile.meta.attributes[key] = value
        return self

    # -- plain samples -----------------------------------------------------

    def sample(self, frames: Sequence[FrameSpec],
               values: Dict[int, float]) -> None:
        """Record a root-first call path, accumulating values on the leaf."""
        self._check_open()
        values = dict(values)
        self._profile.check_columns(values)
        cell = self._cells.setdefault(self._row(frames), {})
        for column, value in values.items():
            cell[column] = cell.get(column, 0.0) + value

    def leaf_sample(self, frames: Sequence[FrameSpec],
                    values: Dict[int, float]) -> None:
        """Record a leaf-first stack (the order unwinders produce)."""
        self.sample(list(reversed(list(frames))), values)

    # -- advanced monitoring points ---------------------------------------

    def snapshot(self, sequence: int, frames: Sequence[FrameSpec],
                 values: Dict[int, float],
                 kind: PointKind = PointKind.ALLOCATION) -> None:
        """Record one capture of a snapshot series (e.g. heap in-use).

        Snapshot values live on the point, tagged with the capture's
        ``sequence`` number (1-based) — they are *not* folded into the CCT
        node's metrics, since the same context is measured repeatedly.
        Heap snapshots describe live allocations, hence the default kind.
        """
        self._check_open()
        if sequence <= 0:
            raise ValueError("snapshot sequence must be positive, got %d"
                             % sequence)
        self._point(kind, [frames], values, sequence)

    def allocation(self, object_name: str, frames: Sequence[FrameSpec],
                   values: Dict[int, float], sequence: int = 0) -> None:
        """Record an allocation: a data-object context under the call path.

        The allocated object becomes a ``DATA_OBJECT`` frame child of the
        allocation site, enabling data-centric views.
        """
        self._check_open()
        path = list(frames) + [data_object_frame(object_name)]
        self._point(PointKind.ALLOCATION, [path], values, sequence)

    def pair_point(self, kind: PointKind,
                   paths: Sequence[Sequence[FrameSpec]],
                   values: Dict[int, float]) -> None:
        """Record a multi-context point (use/reuse, redundancy, races).

        ``paths`` are root-first call paths, one per context, in the
        kind-specific order documented on :class:`PointKind`.
        """
        self._check_open()
        self._point(kind, paths, values, 0)

    def _point(self, kind: PointKind, paths: Iterable[Sequence[FrameSpec]],
               values: Dict[int, float], sequence: int) -> None:
        """Add a point whose contexts are rows until :meth:`build` binds
        them; ``add_point``'s column and arity checks run now."""
        self._profile.add_point(MonitoringPoint(
            kind=kind, contexts=[self._row(path) for path in paths],
            values=dict(values), sequence=sequence))

    def _row(self, frames: Iterable[FrameSpec]) -> int:
        """The trie row of a root-first path, created as needed (every
        spec is coerced before any node is)."""
        trie = self._trie
        fids = [trie.frame_token(_coerce_frame(spec)) for spec in frames]
        row = 0
        for fid in fids:
            row = trie.descend(row, fid)
        return row

    # -- finishing ---------------------------------------------------------

    def build(self) -> Profile:
        """Finalize and return the profile.

        The summed cells become the columnar arrays; only a profile with
        points gets its object facade now, to bind their contexts.
        Further builder calls raise ``RuntimeError``; the profile stays
        editable through its facade.
        """
        from ..core.cct_columnar import value_cells
        self._check_open()
        self._finished = True
        profile, trie, cells = self._profile, self._trie, self._cells
        profile.attach_columnar(trie.finish(*value_cells(
            trie.n_nodes, len(profile.schema),
            [row for row, cell in cells.items() for _ in cell],
            [column for cell in cells.values() for column in cell],
            [value for cell in cells.values() for value in cell.values()])))
        profile.bind_point_rows()
        return profile

    def _check_open(self) -> None:
        if self._finished:
            raise RuntimeError("ProfileBuilder already finalized by build()")
