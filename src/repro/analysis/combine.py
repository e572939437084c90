"""Combining profiles from *different tools* into one unified profile.

§VII-C2's HPC case study leans on EasyView's ability to put HPCToolkit's
hotspot profile and DrCCTProf's locality profile side by side: "these two
tools have their own GUIs ... which cannot easily combine their profiles
in a unified view for easy analysis."

:func:`combine` merges N profiles — typically from different profilers
over the same program — into one: calling contexts merge on the
cross-tool identity (name + file + module, line-insensitive like the
diff/aggregate operations), metric schemas concatenate with tool-prefixed
names on collision, and monitoring points carry over with their contexts
re-anchored.  The result is an ordinary profile: every view, the
correlated panes, and the leak detector all apply to the union.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.cct_columnar import ColumnarBuilder, replay, value_cells
from ..core.metric import Metric, MetricSchema
from ..core.monitor import MonitoringPoint
from ..core.profile import Profile, ProfileMeta
from ..errors import AnalysisError


def _header(profiles: Sequence[Profile],
            tool_names: Optional[Sequence[str]]
            ) -> Tuple[ProfileMeta, MetricSchema, List[List[int]]]:
    """The combined profile's metadata and schema, and each input's
    column remap into that schema (see :func:`combine`)."""
    labels = list(tool_names) if tool_names is not None else [
        profile.meta.tool or ("tool%d" % i)
        for i, profile in enumerate(profiles)]
    meta = ProfileMeta(tool="+".join(dict.fromkeys(labels)),
                       attributes={"combined_from": ", ".join(labels)})
    schema = MetricSchema()
    remaps: List[List[int]] = []
    for label, profile in zip(labels, profiles):
        remap: List[int] = []
        for metric in profile.schema:
            existing = schema.get(metric.name)
            if existing is not None and schema[existing] != metric:
                metric = Metric(name="%s:%s" % (label, metric.name),
                                unit=metric.unit,
                                description=metric.description,
                                aggregation=metric.aggregation)
            remap.append(schema.add(metric))
        remaps.append(remap)
    return meta, schema, remaps


def combine(profiles: Sequence[Profile],
            tool_names: Optional[Sequence[str]] = None) -> Profile:
    """Merge profiles from different tools into one unified profile.

    ``tool_names`` labels each input (defaults to each profile's own
    ``meta.tool``); when two inputs declare a metric with the same name
    but different descriptors, the later one is disambiguated as
    ``<tool>:<metric>``.
    """
    if not profiles:
        raise AnalysisError("cannot combine zero profiles")
    if tool_names is not None and len(tool_names) != len(profiles):
        raise AnalysisError("tool_names must match profiles in length")
    meta, schema, remaps = _header(profiles, tool_names)
    merged = Profile(schema=schema, meta=meta)

    # Cross-tool identity: merge on (name, file, module) so line-number
    # differences between tools do not split contexts; the first-seen
    # frame's attribution wins.  The index keeps merging linear.
    builder = ColumnarBuilder()
    merge_index: Dict[Tuple[int, Tuple], int] = {}
    rows, columns, values = [], [], []
    for profile, remap in zip(profiles, remaps):
        col = profile.columnar()
        keys = [frame.merge_key() for frame in col.frames]

        def descend(target: int, row: int) -> int:
            fid = int(col.frame_id[row])
            key = (target, keys[fid])
            found = merge_index.get(key)
            if found is None:
                found = merge_index[key] = builder.descend(
                    target, builder.frame_token(col.frames[fid]))
            return found

        out_of, (cell_rows, cell_columns, cell_values) = replay(col, descend)
        rows.append(cell_rows)
        columns.append(np.asarray(remap, dtype=np.int64)[cell_columns])
        values.append(cell_values)
        for point, point_rows in zip(profile.points, profile.point_rows()):
            merged.points.append(MonitoringPoint(
                kind=point.kind,
                contexts=out_of[point_rows].tolist(),
                values={remap[index]: value
                        for index, value in point.values.items()},
                sequence=point.sequence))
    merged.attach_columnar(builder.finish(*value_cells(
        builder.n_nodes, len(merged.schema), np.concatenate(rows),
        np.concatenate(columns), np.concatenate(values))))
    merged.bind_point_rows()
    return merged
