"""Speedscope JSON converter.

Speedscope's file format (https://www.speedscope.app) carries a ``shared``
frame table plus one or more profiles, each either *sampled* (stacks of
frame indices with per-sample weights) or *evented* (open/close frame
events with timestamps).  Both flavors convert; multiple profiles in one
file (threads) merge into one EasyView profile with a thread context each.
"""

from __future__ import annotations

import json
from typing import Dict, List

from ..builder import ProfileBuilder
from ..core.frame import Frame, FrameKind, intern_frame
from ..core.profile import Profile
from ..errors import FormatError
from .base import Converter, register


def parse(data: bytes) -> Profile:
    """Convert a speedscope JSON payload."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError("not valid speedscope JSON: %s" % exc) from exc
    if not isinstance(payload, dict):
        raise FormatError("speedscope JSON must be an object")
    if str(payload.get("$schema", "")).find("speedscope") < 0:
        raise FormatError("missing speedscope $schema marker")

    shared = payload.get("shared", {})
    if not isinstance(shared, dict):
        raise FormatError("speedscope 'shared' must be an object")
    shared_frames = shared.get("frames", [])
    if not isinstance(shared_frames, list):
        raise FormatError("speedscope frame table must be an array")
    frames: List[Frame] = []
    for spec in shared_frames:
        if not isinstance(spec, dict):
            raise FormatError("speedscope frames must be objects")
        frames.append(intern_frame(
            name=spec.get("name") or "(anonymous)",
            file=spec.get("file", ""),
            line=int(spec.get("line", 0) or 0)))

    profiles = payload.get("profiles", [])
    if not isinstance(profiles, list):
        raise FormatError("speedscope 'profiles' must be an array")
    builder = ProfileBuilder(tool="speedscope")
    weight_metric = builder.metric("weight", unit=_unit_of(profiles))
    multiple = len(profiles) > 1
    for profile_spec in profiles:
        if not isinstance(profile_spec, dict):
            raise FormatError("speedscope profiles must be objects")
        prefix: List[Frame] = []
        if multiple:
            prefix = [intern_frame(profile_spec.get("name", "thread"),
                                   kind=FrameKind.THREAD)]
        kind = profile_spec.get("type")
        if kind == "sampled":
            _convert_sampled(builder, weight_metric, profile_spec, frames,
                             prefix)
        elif kind == "evented":
            _convert_evented(builder, weight_metric, profile_spec, frames,
                             prefix)
        else:
            raise FormatError("unknown speedscope profile type %r" % kind)
    return builder.build()


def _unit_of(profiles: list) -> str:
    units = {p.get("unit") for p in profiles if isinstance(p, dict)}
    unit = units.pop() if len(units) == 1 else "none"
    return {"nanoseconds": "nanoseconds", "microseconds": "microseconds",
            "milliseconds": "milliseconds", "seconds": "seconds",
            "bytes": "bytes"}.get(unit or "none", "")


def _convert_sampled(builder: ProfileBuilder, metric: int, spec: dict,
                     frames: List[Frame], prefix: List[Frame]) -> None:
    samples = spec.get("samples", [])
    weights = spec.get("weights", [])
    if len(weights) not in (0, len(samples)):
        raise FormatError("weights length %d != samples length %d"
                          % (len(weights), len(samples)))
    for i, stack in enumerate(samples):
        weight = float(weights[i]) if weights else 1.0
        path = prefix + [frames[_frame_index(frames, index, "sample %d" % i)]
                         for index in stack]
        if path:
            builder.sample(path, {metric: weight})


def _frame_index(frames: List[Frame], index: object, where: str) -> int:
    """``index`` if it names an entry of the frame table.  Only a plain
    ``int`` in range does: a negative one would count from the end."""
    if type(index) is not int or not 0 <= index < len(frames):
        raise FormatError("%s references an unknown frame %r"
                          % (where, index))
    return index


def _convert_evented(builder: ProfileBuilder, metric: int, spec: dict,
                     frames: List[Frame], prefix: List[Frame]) -> None:
    stack: List[int] = []
    last_at = float(spec.get("startValue", 0))
    for event in spec.get("events", []):
        at = float(event.get("at", last_at))
        if stack and at > last_at:
            path = prefix + [frames[index] for index in stack]
            builder.sample(path, {metric: at - last_at})
        event_type = event.get("type")
        frame_index = _frame_index(frames, event.get("frame"), "event")
        if event_type == "O":
            stack.append(frame_index)
        elif event_type == "C":
            if not stack or stack[-1] != frame_index:
                raise FormatError(
                    "mismatched close event for frame %d" % frame_index)
            stack.pop()
        else:
            raise FormatError("unknown event type %r" % event_type)
        last_at = at
    if stack:
        raise FormatError("evented profile ended with %d open frames"
                          % len(stack))


def _sniff(data: bytes, path: str) -> bool:
    return b"speedscope" in data[:4096]


register(Converter(
    name="speedscope",
    parse=parse,
    sniff=_sniff,
    extensions=(".speedscope.json",),
    description="speedscope.app JSON (sampled and evented)"))
