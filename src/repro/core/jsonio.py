"""Human-readable JSON (de)serialization of profiles.

The binary format (:mod:`repro.core.serialize`) is the interchange format;
this JSON form exists for debugging, diffing in code review, and feeding
web front-ends.  The layout mirrors the Protocol Buffer schema: a string
table, metric descriptors, a flattened node array with parent links, and
monitoring points.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

import numpy as np

from ..errors import FormatError
from .frame import FrameKind, intern_frame
from .metric import Aggregation, Metric, MetricSchema
from .monitor import MonitoringPoint, PointKind
from .profile import Profile, ProfileMeta

FORMAT_NAME = "easyview-json"
FORMAT_VERSION = 1


def _frame_fields(frame) -> Dict[str, Any]:
    """A node entry's frame fields, the empty ones left out."""
    fields: Dict[str, Any] = {"kind": frame.kind.name.lower(),
                              "name": frame.name}
    if frame.file:
        fields["file"] = frame.file
    if frame.line:
        fields["line"] = frame.line
    if frame.module:
        fields["module"] = frame.module
    if frame.address:
        fields["address"] = frame.address
    return fields


def to_dict(profile: Profile) -> Dict[str, Any]:
    """Lower a profile to JSON-ready plain data.

    Nodes are numbered in pre-order with siblings in descending frame
    order, the walk :func:`repro.core.serialize.to_columns` writes.
    """
    col = profile.columnar()
    walk = col.postorder_ids()[::-1]
    position = np.empty(walk.size, dtype=np.int64)
    position[walk] = np.arange(walk.size, dtype=np.int64)
    parents = [None] + position[col.parent[walk[1:]]].tolist()
    rows, columns = np.nonzero(col.present[walk])
    metrics: Dict[int, Dict[str, float]] = {}
    for row, column, value in zip(rows.tolist(), columns.tolist(),
                                  col.values[walk[rows], columns].tolist()):
        metrics.setdefault(row, {})[str(column)] = value
    fields = [_frame_fields(frame) for frame in col.frames]
    nodes: List[Dict[str, Any]] = []
    for node_id, fid in enumerate(col.frame_id[walk].tolist()):
        entry: Dict[str, Any] = {"id": node_id, "parent": parents[node_id]}
        entry.update(fields[fid])
        if node_id in metrics:
            entry["metrics"] = metrics[node_id]
        nodes.append(entry)

    position_l = position.tolist()
    points = [{
        "kind": point.kind.name.lower(),
        "contexts": [position_l[row] for row in context_rows],
        "values": {str(k): v for k, v in sorted(point.values.items())},
        "sequence": point.sequence,
    } for point, context_rows in zip(profile.points, profile.point_rows())]

    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "tool": profile.meta.tool,
        "timeNanos": profile.meta.time_nanos,
        "durationNanos": profile.meta.duration_nanos,
        "attributes": dict(profile.meta.attributes),
        "metrics": [{
            "name": metric.name,
            "unit": metric.unit,
            "description": metric.description,
            "aggregation": metric.aggregation.name.lower(),
        } for metric in profile.schema],
        "nodes": nodes,
        "points": points,
    }


def from_dict(payload: Dict[str, Any]) -> Profile:
    """Raise JSON-ready data back into a :class:`Profile`."""
    if payload.get("format") != FORMAT_NAME:
        raise FormatError("not an %s document" % FORMAT_NAME)
    if payload.get("version") != FORMAT_VERSION:
        raise FormatError("unsupported %s version %r"
                          % (FORMAT_NAME, payload.get("version")))

    schema = MetricSchema()
    for spec in payload.get("metrics", []):
        schema.add(Metric(
            name=spec["name"], unit=spec.get("unit", ""),
            description=spec.get("description", ""),
            aggregation=Aggregation[spec.get("aggregation",
                                             "sum").upper()]))
    profile = Profile(schema=schema, meta=ProfileMeta(
        tool=payload.get("tool", ""),
        time_nanos=int(payload.get("timeNanos", 0)),
        duration_nanos=int(payload.get("durationNanos", 0)),
        attributes=dict(payload.get("attributes", {}))))

    from .cct_columnar import ColumnarBuilder, value_cells
    builder = ColumnarBuilder()
    rows, cols, vals = [], [], []  # (row, column, value) records
    row_of: Dict[Any, int] = {}
    for entry in payload.get("nodes", []):
        kind = FrameKind[entry.get("kind", "function").upper()]
        if kind is FrameKind.ROOT:
            row_of[entry["id"]] = 0
            continue
        parent = row_of.get(entry.get("parent"))
        if parent is None:
            raise FormatError("node %r references undefined parent %r"
                              % (entry.get("id"), entry.get("parent")))
        frame = intern_frame(entry.get("name", ""),
                             file=entry.get("file", ""),
                             line=int(entry.get("line", 0)),
                             module=entry.get("module", ""),
                             address=int(entry.get("address", 0)),
                             kind=kind)
        row = builder.descend(parent, builder.frame_token(frame))
        for key, value in entry.get("metrics", {}).items():
            rows.append(row)
            cols.append(int(key))
            vals.append(float(value))
        row_of[entry["id"]] = row

    for spec in payload.get("points", []):
        contexts = []
        for context_id in spec.get("contexts", []):
            row = row_of.get(context_id)
            if row is None:
                raise FormatError("point references undefined node %r"
                                  % context_id)
            contexts.append(row)
        profile.points.append(MonitoringPoint(
            kind=PointKind[spec.get("kind", "plain").upper()],
            contexts=contexts,
            values={int(k): float(v)
                    for k, v in spec.get("values", {}).items()},
            sequence=int(spec.get("sequence", 0))))
    for column in cols + [k for point in profile.points for k in point.values]:
        if not 0 <= column < len(schema):  # no column to live in
            raise FormatError("metric %d outside the schema (%d columns)"
                              % (column, len(schema)))
    profile.attach_columnar(builder.finish(
        *value_cells(builder.n_nodes, len(schema), rows, cols, vals)))
    profile.bind_point_rows()
    return profile


def dumps(profile: Profile, indent: int = 2) -> str:
    """Serialize to a JSON string."""
    return json.dumps(to_dict(profile), indent=indent, sort_keys=False)


def dumps_data(payload: Any, indent: int = 2) -> str:
    """Serialize an arbitrary JSON-ready payload (not a profile).

    The one formatting used by every machine-readable CLI snapshot
    (``lint --json``, ``store stats --json``, ``engine-stats --json``,
    ``obs metrics --json``): sorted keys, two-space indent, trailing
    newline-free.
    """
    return json.dumps(payload, indent=indent, sort_keys=True)


def loads(text: str) -> Profile:
    """Parse from a JSON string."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("invalid JSON: %s" % exc) from exc
    if not isinstance(payload, dict):
        raise FormatError("document must be a JSON object")
    return from_dict(payload)


def dump(profile: Profile, path: str, indent: int = 2) -> None:
    """Write a profile to ``path`` as JSON, atomically."""
    from .atomicio import atomic_write_text
    atomic_write_text(path, dumps(profile, indent=indent))


def load(path: str) -> Profile:
    """Read a JSON profile from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
