"""Stable content digests for profiles and view trees.

The analysis engine (:mod:`repro.engine`) memoizes expensive operations —
transforms, diffs, aggregation, layout — keyed by the *content* of their
inputs rather than object identity, so equal profiles share cached results
and any mutation is picked up on the next request.  The digests here are
that key material: a short BLAKE2b hash over everything an analysis can
observe.

* :func:`profile_digest` covers the metric schema, the CCT structure (frame
  identities plus parent/child shape), every node's exclusive metric
  values, and the monitoring points.  Cached *inclusive* values are
  deliberately excluded: they are derived from the exclusives, so a profile
  digests the same whether or not ``compute_inclusive`` has run.
* :func:`viewtree_digest` covers the schema, the shape string, and every
  node's frame, inclusive/exclusive values, differential tag, baseline
  values, and histogram series.

Digests are *stable*: children are visited in a canonical sort order, so
two profiles built from the same samples in a different insertion order
digest identically.  Digesting is a single O(nodes) walk with no
allocation per node beyond the hash state — far cheaper than any of the
operations it guards.
"""

from __future__ import annotations

import hashlib
import struct
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analysis.viewtree import ViewTree
    from .metric import MetricSchema
    from .profile import Profile

#: Digest size in bytes; 16 gives a 32-hex-char key with negligible
#: collision probability at cache scale.
_DIGEST_SIZE = 16

_PACK_DOUBLE = struct.Struct("<d").pack
_PACK_INT = struct.Struct("<q").pack

#: Structure markers keeping the encoding prefix-free: without explicit
#: enter/exit bytes, a chain of three nodes and a node with two children
#: could hash the same field stream.
_ENTER = b"\x01"
_EXIT = b"\x02"
_SEP = b"\x00"


def _new_hash():
    return hashlib.blake2b(digest_size=_DIGEST_SIZE)


def _update_str(h, text: str) -> None:
    data = text.encode("utf-8", "surrogatepass")
    h.update(_PACK_INT(len(data)))
    h.update(data)


def _update_values(h, values) -> None:
    """Hash a metric-index → float mapping in index order."""
    for index in sorted(values):
        h.update(_PACK_INT(index))
        h.update(_PACK_DOUBLE(values[index]))
    h.update(_SEP)


def _update_frame(h, frame) -> None:
    _update_str(h, frame.name)
    _update_str(h, frame.file)
    h.update(_PACK_INT(frame.line))
    _update_str(h, frame.module)
    h.update(_PACK_INT(frame.address))
    h.update(_PACK_INT(int(frame.kind)))


def _update_schema(h, schema: "MetricSchema") -> None:
    h.update(_PACK_INT(len(schema)))
    for metric in schema:
        _update_str(h, metric.name)
        _update_str(h, metric.unit)
        h.update(_PACK_INT(int(metric.aggregation)))
    h.update(_SEP)


def schema_digest(schema: "MetricSchema") -> str:
    """Hex digest of a metric schema (names, units, aggregations, order)."""
    h = _new_hash()
    _update_schema(h, schema)
    return h.hexdigest()


def _frame_bytes(frame) -> bytes:
    """The exact byte stream :func:`_update_frame` feeds the hash."""
    name = frame.name.encode("utf-8", "surrogatepass")
    file = frame.file.encode("utf-8", "surrogatepass")
    module = frame.module.encode("utf-8", "surrogatepass")
    return b"".join((
        _PACK_INT(len(name)), name,
        _PACK_INT(len(file)), file,
        _PACK_INT(frame.line),
        _PACK_INT(len(module)), module,
        _PACK_INT(frame.address),
        _PACK_INT(int(frame.kind))))


def _update_cct_columnar(h, col) -> None:
    """Feed the hash the enter/exit walk straight from columnar arrays.

    Byte-identical to the object walk of the profile oracle
    (:func:`repro.bench.profile_oracle.digest`): the pre-order comes
    from the vectorized frame-sorted traversal, per-node
    value bytes are one structured-array encode over every written cell
    (rows ascend with node id, columns ascend within a row — exactly the
    sorted-index order the object walk emits), and EXIT markers fall out
    of :meth:`~repro.core.cct_columnar.ColumnarCCT.walk_events`.
    """
    import numpy as np

    frame_chunks = [_ENTER + _frame_bytes(frame) for frame in col.frames]
    rows, cols = np.nonzero(col.present)
    cells = np.empty(rows.size, dtype=[("i", "<i8"), ("v", "<f8")])
    cells["i"] = cols
    cells["v"] = col.values[rows, cols]
    cell_stream = memoryview(cells.tobytes())
    n = col.n_nodes
    cell_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n) * 16, out=cell_start[1:])
    starts = cell_start.tolist()

    pre_ids, exits = col.walk_events()
    fid_l = col.frame_id.tolist()
    out = bytearray()
    for node, exit_count in zip(pre_ids.tolist(), exits.tolist()):
        out += frame_chunks[fid_l[node]]
        out += cell_stream[starts[node]:starts[node + 1]]
        out += _SEP
        if exit_count:
            out += _EXIT * exit_count
        if len(out) >= 1 << 20:
            h.update(out)
            del out[:]
    h.update(out)


def profile_digest(profile: "Profile") -> str:
    """Hex digest of a profile's schema, CCT, values, and points."""
    h = _new_hash()
    _update_schema(h, profile.schema)
    _update_cct_columnar(h, profile.columnar())
    _update_points(h, profile)
    return h.hexdigest()


def _update_points(h, profile: "Profile") -> None:
    h.update(_PACK_INT(len(profile.points)))
    # Points are hashed in recorded order: the order of a snapshot series
    # is part of its meaning.
    for point in profile.points:
        h.update(_PACK_INT(int(point.kind)))
        h.update(_PACK_INT(point.sequence))
        _update_values(h, point.values)
        h.update(_PACK_INT(len(point.contexts)))
        for context in point.contexts:
            _update_frame(h, context.frame)
            h.update(_PACK_INT(context.depth()))


def _update_viewtree_columnar(h, cvt) -> None:
    """Feed the hash a view tree's walk straight from columnar arrays.

    Byte-identical to the object walk of the view oracle
    (:func:`repro.bench.view_oracle.digest`): the pre-order visits
    children ranked by ``repr(merge_key)`` (the object walk's sort key),
    and each value plane — inclusive, exclusive,
    baseline, histogram — becomes one structured-array encode over its
    written cells, sliced per row by a cumulative byte offset.
    """
    import numpy as np

    n = cvt.n_rows
    frame_chunks = [_ENTER + _frame_bytes(frame) for frame in cvt.frames]

    def cell_parts(matrix, presence):
        rows, cols = np.nonzero(presence)
        cells = np.empty(rows.size, dtype=[("i", "<i8"), ("v", "<f8")])
        cells["i"] = cols
        cells["v"] = matrix[rows, cols]
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n) * 16, out=starts[1:])
        return memoryview(cells.tobytes()), starts.tolist()

    incl_stream, incl_starts = cell_parts(cvt.inclusive, cvt.incl_present)
    excl_stream, excl_starts = cell_parts(cvt.exclusive, cvt.excl_present)
    base_stream = base_starts = None
    if cvt.baseline is not None:
        base_stream, base_starts = cell_parts(cvt.baseline, cvt.base_present)
    hist_stream = hist_starts = None
    if cvt.hist is not None:
        length = cvt.n_series
        dtype = np.dtype([("i", "<i8"), ("l", "<i8"),
                          ("v", "<f8", (length,))])
        rows, cols = np.nonzero(cvt.hist_present)
        cells = np.empty(rows.size, dtype=dtype)
        cells["i"] = cols
        cells["l"] = length
        cells["v"] = cvt.hist[rows, cols]
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n) * dtype.itemsize,
                  out=starts[1:])
        hist_stream, hist_starts = memoryview(cells.tobytes()), starts.tolist()
    empty_tag = _PACK_INT(0)
    tag_chunks = None
    if cvt.tag_codes is not None:
        from ..analysis.viewtree_columnar import _TAGS
        variants = []
        for tag in _TAGS:
            data = (tag or "").encode("utf-8", "surrogatepass")
            variants.append(_PACK_INT(len(data)) + data)
        tag_chunks = [variants[code] for code in cvt.tag_codes.tolist()]

    ranking = sorted(range(len(cvt.merge_keys)),
                     key=lambda t: repr(cvt.merge_keys[t]))
    rank = np.empty(len(cvt.merge_keys), dtype=np.int64)
    rank[ranking] = np.arange(len(ranking), dtype=np.int64)
    pre = cvt.visit_positions((rank[cvt.token],))
    exits = np.bincount(pre + cvt.subtree_sizes() - 1, minlength=n)
    seq = np.empty(n, dtype=np.int64)
    seq[pre] = np.arange(n, dtype=np.int64)
    fid = cvt.frame_id.tolist()
    out = bytearray()
    # Both seq and exits are indexed by pre-order position.
    for node, exit_count in zip(seq.tolist(), exits.tolist()):
        out += frame_chunks[fid[node]]
        out += incl_stream[incl_starts[node]:incl_starts[node + 1]]
        out += _SEP
        out += excl_stream[excl_starts[node]:excl_starts[node + 1]]
        out += _SEP
        out += tag_chunks[node] if tag_chunks is not None else empty_tag
        if base_stream is not None:
            out += base_stream[base_starts[node]:base_starts[node + 1]]
        out += _SEP
        if hist_stream is not None:
            out += hist_stream[hist_starts[node]:hist_starts[node + 1]]
        out += _SEP
        if exit_count:
            out += _EXIT * exit_count
        if len(out) >= 1 << 20:
            h.update(out)
            del out[:]
    h.update(out)


def viewtree_digest(tree: "ViewTree") -> str:
    """Hex digest of a view tree's schema, shape, structure, and values."""
    h = _new_hash()
    _update_str(h, tree.shape)
    _update_schema(h, tree.schema)
    _update_viewtree_columnar(h, tree.columnar())
    return h.hexdigest()
