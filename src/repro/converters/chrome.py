"""Chrome DevTools CPU profiler (``.cpuprofile``) converter.

The V8 CPU profile JSON has a ``nodes`` array (each node: ``id``,
``callFrame`` with function/url/line, ``children`` ids), a ``samples``
array of node ids, and ``timeDeltas`` in microseconds.  The node tree *is*
a calling context tree already, so conversion rebuilds the paths and
attributes each sample's delta to the sampled node's path.
"""

from __future__ import annotations

import json
from typing import Dict, List, Set

from ..builder import ProfileBuilder
from ..core.frame import Frame, intern_frame
from ..core.profile import Profile
from ..errors import FormatError
from .base import Converter, register


def parse(data: bytes) -> Profile:
    """Convert a Chrome/V8 ``.cpuprofile`` JSON payload."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError("not valid cpuprofile JSON: %s" % exc) from exc
    if not isinstance(payload, dict) or "nodes" not in payload:
        raise FormatError("cpuprofile JSON must contain a 'nodes' array")

    nodes = payload["nodes"]
    if not isinstance(nodes, list):
        raise FormatError("cpuprofile 'nodes' must be an array")
    by_id: Dict[int, dict] = {}
    parents: Dict[int, int] = {}
    for node in nodes:
        if not isinstance(node, dict) or "id" not in node:
            raise FormatError("cpuprofile nodes must be objects with ids")
        by_id[node["id"]] = node
        for child in node.get("children", []):
            parents[child] = node["id"]

    frames: Dict[int, Frame] = {}
    for node in nodes:
        call_frame = node.get("callFrame", {})
        name = call_frame.get("functionName") or "(anonymous)"
        url = call_frame.get("url", "")
        # V8 line numbers are 0-based.
        line = int(call_frame.get("lineNumber", -1)) + 1
        frames[node["id"]] = intern_frame(name, file=url,
                                          line=max(line, 0),
                                          module=url.rsplit("/", 1)[-1])

    def path_of(node_id: int) -> List[Frame]:
        chain: List[Frame] = []
        seen: Set[int] = set()
        current = node_id
        while current in by_id:
            if current in seen:
                raise FormatError("cpuprofile node %r is its own ancestor "
                                  "('children' form a cycle)" % (current,))
            seen.add(current)
            frame = frames[current]
            # Skip V8's synthetic "(root)" frame; EasyView has its own root.
            if frame.name != "(root)":
                chain.append(frame)
            nxt = parents.get(current)
            if nxt is None:
                break
            current = nxt
        chain.reverse()
        return chain

    builder = ProfileBuilder(tool="chrome",
                             time_nanos=int(payload.get("startTime", 0))
                             * 1000)
    time_metric = builder.metric("cpu_time", unit="nanoseconds")
    hits_metric = builder.metric("samples", unit="count")

    paths = {node_id: path_of(node_id) for node_id in by_id}
    samples = payload.get("samples", [])
    deltas = payload.get("timeDeltas", [])
    if not isinstance(samples, list) or not isinstance(deltas, list):
        raise FormatError("'samples' and 'timeDeltas' must be arrays")
    if samples:
        for i, node_id in enumerate(samples):
            if node_id not in paths:
                raise FormatError("sample references unknown node %r"
                                  % (node_id,))
            delta_us = deltas[i] if i < len(deltas) else 0
            path = paths[node_id]
            if not path:
                continue
            builder.sample(path, {time_metric: float(delta_us) * 1000.0,
                                  hits_metric: 1.0})
    else:
        # Older captures carry only per-node hitCounts.
        interval_us = 1000.0
        for node in nodes:
            hits = node.get("hitCount", 0)
            path = paths[node["id"]]
            if hits and path:
                builder.sample(path, {
                    time_metric: hits * interval_us * 1000.0,
                    hits_metric: float(hits)})
    return builder.build()


def _sniff(data: bytes, path: str) -> bool:
    head = data[:2048].lstrip()
    if not head.startswith(b"{"):
        return False
    return b'"nodes"' in data[:8192] and b'"callFrame"' in data[:16384]


register(Converter(
    name="chrome",
    parse=parse,
    sniff=_sniff,
    extensions=(".cpuprofile",),
    description="Chrome DevTools / V8 CPU profiler JSON"))
