"""Profile anonymization for safe sharing.

§II calls out that upload-based visualizers "raise some security and
privacy concerns", and EasyView's answer is local processing.  When a
profile *must* leave the machine anyway (attaching it to a public bug
report, sharing with a vendor), this module strips the identifying
content while preserving every analyzable property:

* function/file/module/object names are replaced by stable pseudonyms
  (``fn_3f2a…``) derived from a keyed hash, so equal names map to equal
  pseudonyms and all views, diffs, and aggregations still line up —
  including across two profiles anonymized with the same key;
* line numbers and instruction addresses are dropped (or kept, opt-in);
* free-form metadata attributes are removed;
* metric names, values, tree structure, and monitoring points are kept
  verbatim — the performance content is the point of sharing.

The mapping is one-way; whoever holds the key can regenerate it with
:func:`mapping_for` to translate findings back to real names.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Callable, Dict, Iterable, List, Optional

from ..core.cct_columnar import ColumnarBuilder, replay, value_cells
from ..core.frame import Frame, FrameKind, intern_frame
from ..core.monitor import MonitoringPoint
from ..core.profile import Profile, ProfileMeta

_PREFIX = {
    FrameKind.FUNCTION: "fn",
    FrameKind.LOOP: "loop",
    FrameKind.BASIC_BLOCK: "blk",
    FrameKind.INSTRUCTION: "insn",
    FrameKind.DATA_OBJECT: "obj",
    FrameKind.THREAD: "thr",
    FrameKind.ROOT: "root",
}


def _pseudonym(key: bytes, kind: str, text: str, length: int = 10) -> str:
    digest = hmac.new(key, ("%s\x00%s" % (kind, text)).encode("utf-8"),
                      hashlib.sha256).hexdigest()
    return "%s_%s" % (kind, digest[:length])


def _scrubber(key: str, keep_lines: bool,
              keep_modules: Iterable[str]) -> Callable[[Frame], Frame]:
    """The frame scrub :func:`anonymize` applies (same arguments)."""
    secret = key.encode("utf-8")
    keep = frozenset(keep_modules)

    def scrub_frame(frame: Frame) -> Frame:
        if frame.kind is FrameKind.ROOT:
            return frame
        if frame.module in keep and frame.module:
            return (frame if keep_lines
                    else intern_frame(frame.name, frame.file, 0,
                                      frame.module, 0, frame.kind))
        prefix = _PREFIX.get(frame.kind, "sym")
        name = _pseudonym(secret, prefix, frame.name)
        file = (_pseudonym(secret, "file", frame.file) + ".x"
                if frame.file else "")
        module = (_pseudonym(secret, "mod", frame.module)
                  if frame.module else "")
        return intern_frame(name, file,
                            frame.line if keep_lines else 0,
                            module, 0, frame.kind)

    return scrub_frame


def anonymize(profile: Profile, key: str,
              keep_lines: bool = False,
              keep_modules: Iterable[str] = ()) -> Profile:
    """Return an anonymized copy of ``profile``.

    ``key`` seeds the pseudonym hash — use the same key across profiles
    that must stay diffable against each other.  ``keep_modules`` lists
    module names to leave readable (e.g. well-known system libraries,
    whose names are not secrets and which reviewers need to recognize).
    Each distinct frame is scrubbed once; contexts whose scrubbed frames
    coincide under one parent merge.
    """
    scrub_frame = _scrubber(key, keep_lines, keep_modules)
    col = profile.columnar()
    builder = ColumnarBuilder()
    tokens: List[Optional[int]] = [None] * len(col.frames)

    def descend(target: int, row: int) -> int:
        fid = int(col.frame_id[row])
        token = tokens[fid]
        if token is None:
            token = tokens[fid] = builder.frame_token(
                scrub_frame(col.frames[fid]))
        return builder.descend(target, token)

    out_of, cells = replay(col, descend)
    result = Profile(schema=profile.schema.copy(),
                     meta=ProfileMeta(tool=profile.meta.tool,
                                      time_nanos=0, duration_nanos=
                                      profile.meta.duration_nanos))
    result.attach_columnar(builder.finish(*value_cells(
        builder.n_nodes, len(result.schema), *cells)))
    result.points = [MonitoringPoint(point.kind, out_of[rows].tolist(),
                                     dict(point.values), point.sequence)
                     for point, rows in zip(profile.points,
                                            profile.point_rows())]
    result.bind_point_rows()
    return result


def mapping_for(profile: Profile, key: str) -> Dict[str, str]:
    """Pseudonym → real-name mapping for a profile's frames.

    Generated from the *original* profile with the same key; the holder
    uses it to translate shared findings back.
    """
    secret = key.encode("utf-8")
    table: Dict[str, str] = {}
    for node in profile.nodes():
        frame = node.frame
        if frame.kind is FrameKind.ROOT:
            continue
        prefix = _PREFIX.get(frame.kind, "sym")
        table[_pseudonym(secret, prefix, frame.name)] = frame.name
        if frame.file:
            table[_pseudonym(secret, "file", frame.file) + ".x"] = \
                frame.file
        if frame.module:
            table[_pseudonym(secret, "mod", frame.module)] = frame.module
    return table
