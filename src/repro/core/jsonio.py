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

from ..errors import FormatError
from .cct import CCTNode
from .frame import FrameKind, intern_frame
from .metric import Aggregation, Metric, MetricSchema
from .monitor import MonitoringPoint, PointKind
from .profile import Profile, ProfileMeta

FORMAT_NAME = "easyview-json"
FORMAT_VERSION = 1


def to_dict(profile: Profile) -> Dict[str, Any]:
    """Lower a profile to JSON-ready plain data."""
    nodes: List[Dict[str, Any]] = []
    points: List[Dict[str, Any]] = []
    ids: Dict[int, int] = {}
    stack: List[CCTNode] = [profile.root]
    while stack:
        node = stack.pop()
        node_id = len(nodes)
        ids[id(node)] = node_id
        frame = node.frame
        entry: Dict[str, Any] = {
            "id": node_id,
            "parent": ids[id(node.parent)] if node.parent else None,
            "kind": frame.kind.name.lower(),
            "name": frame.name,
        }
        if frame.file:
            entry["file"] = frame.file
        if frame.line:
            entry["line"] = frame.line
        if frame.module:
            entry["module"] = frame.module
        if frame.address:
            entry["address"] = frame.address
        if node.metrics:
            entry["metrics"] = {str(k): v
                                for k, v in sorted(node.metrics.items())}
        nodes.append(entry)
        stack.extend(node.sorted_children())

    for point in profile.points:
        points.append({
            "kind": point.kind.name.lower(),
            "contexts": [ids[id(ctx)] for ctx in point.contexts],
            "values": {str(k): v for k, v in sorted(point.values.items())},
            "sequence": point.sequence,
        })

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
