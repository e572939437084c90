"""Zero-copy streaming kernels for the protobuf wire format.

Every byte EasyView touches — pprof payloads, EasyView CCT profiles,
ProfStore WAL records, segment string tables — passes through this module.
It exists because the original codec (preserved as
:mod:`repro.proto.reference`) decoded varints one function call at a time,
copied every length-delimited slice, and serialized messages by joining
thousands of tiny ``bytes`` chunks.  The kernels here keep the exact wire
semantics while removing the per-byte Python overhead:

* :func:`scan_fields` / :class:`Reader` — streaming decode over a
  ``memoryview`` with the varint loop inlined (no per-call tuple churn);
  length-delimited payloads come back as zero-copy subviews.
  :func:`scalar` and :func:`delimited` check each field's wire type where
  a message codec reads it, so a number sent where a string belongs (or
  the reverse) fails as :class:`WireError` instead of parsing.
* :func:`decode_packed_int64s` — bulk packed-varint decode: an unrolled
  pure-Python scan for short runs and a numpy kernel for long ones, gated
  behind byte-for-byte equality tests (``tests/test_proto_fastwire.py``).
* :class:`Writer` — a message writer backed by one growing ``bytearray``
  with a precomputed small-varint table and reserved length-prefix
  patching, so nested messages serialize in a single pass instead of
  child-bytes-then-copy.
* :func:`varint_sizes` / :func:`put_varints` — bulk varint encode over
  numpy arrays, one pass per byte position, for encoders that lay out a
  whole repeated field at once (the columnar ``.ezvw`` codec).
* :class:`StringInterner` — a shared intern pool for string-table decode,
  so the same function name appearing in ten thousand profiles is one
  ``str`` object process-wide.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

WIRETYPE_VARINT = 0
WIRETYPE_FIXED64 = 1
WIRETYPE_LENGTH_DELIMITED = 2
WIRETYPE_START_GROUP = 3  # deprecated in proto3; recognized but rejected
WIRETYPE_END_GROUP = 4
WIRETYPE_FIXED32 = 5

_MAX_VARINT_BYTES = 10  # ceil(64 / 7)
_UINT64_MASK = (1 << 64) - 1
_INT64_SIGN = 1 << 63
_TWO_TO_64 = 1 << 64

_UNPACK_FIXED64 = struct.Struct("<Q").unpack_from
_UNPACK_FIXED32 = struct.Struct("<I").unpack_from

Buffer = Union[bytes, bytearray, memoryview]


class WireError(ValueError):
    """Raised when a payload violates the protobuf wire format."""


#: Packed payloads at least this long go through the numpy kernel; shorter
#: runs stay on the unrolled pure-Python scan, whose fixed overhead is
#: lower than one ``np.frombuffer`` round trip.  Tuned on the corpus tiers
#: (see docs/PERFORMANCE.md); equality between both paths is asserted by
#: the property tests regardless of the threshold.
NUMPY_MIN_PACKED_BYTES = 256

#: Plain-int counters (GIL-atomic increments, no locks — these sit on the
#: hottest loops in the repo).  ``packed_stats()`` snapshots them and the
#: obs layer folds them into real Counters at loads/dumps granularity.
_PACKED_RUNS_PY = 0
_PACKED_RUNS_NUMPY = 0


def packed_stats() -> dict:
    """Which packed-decode kernel has been running (process-wide)."""
    return {"pyRuns": _PACKED_RUNS_PY, "numpyRuns": _PACKED_RUNS_NUMPY,
            "numpyMinBytes": NUMPY_MIN_PACKED_BYTES}


# --------------------------------------------------------------------------
# Reading
# --------------------------------------------------------------------------

def as_view(data: Buffer) -> memoryview:
    """A flat read view over ``data`` (no copy; idempotent for views)."""
    view = data if isinstance(data, memoryview) else memoryview(data)
    return view.cast("B") if view.format != "B" or view.ndim != 1 else view


def scan_fields(data: Buffer) -> Iterator[Tuple[int, int, object]]:
    """Stream ``(field_number, wire_type, value)`` triples from a message.

    The workhorse decode kernel: one generator frame for the whole
    message, varint decode inlined (no helper calls, no position tuples),
    and length-delimited values returned as zero-copy ``memoryview``
    subviews of the input.  Raises :class:`WireError` exactly where the
    reference codec does — truncation, overlong varints, field number 0,
    group wire types.
    """
    buf = as_view(data)
    pos = 0
    end = len(buf)
    while pos < end:
        # -- tag varint, inlined ------------------------------------------
        start = pos
        byte = buf[pos]
        pos += 1
        if byte < 0x80:
            key = byte
        else:
            key = byte & 0x7F
            shift = 7
            while True:
                if pos >= end:
                    raise WireError("truncated varint at offset %d" % start)
                byte = buf[pos]
                pos += 1
                key |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
                if shift >= 70:
                    raise WireError(
                        "varint longer than 10 bytes at offset %d" % start)
            key &= _UINT64_MASK
        field_number = key >> 3
        wire_type = key & 0x7
        if field_number == 0:
            raise WireError("field number 0 is reserved")

        if wire_type == WIRETYPE_VARINT:
            # -- value varint, inlined ------------------------------------
            start = pos
            if pos >= end:
                raise WireError("truncated varint at offset %d" % start)
            byte = buf[pos]
            pos += 1
            if byte < 0x80:
                value = byte
            else:
                value = byte & 0x7F
                shift = 7
                while True:
                    if pos >= end:
                        raise WireError(
                            "truncated varint at offset %d" % start)
                    byte = buf[pos]
                    pos += 1
                    value |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
                    if shift >= 70:
                        raise WireError(
                            "varint longer than 10 bytes at offset %d"
                            % start)
                value &= _UINT64_MASK
        elif wire_type == WIRETYPE_LENGTH_DELIMITED:
            # -- length varint, inlined -----------------------------------
            start = pos
            if pos >= end:
                raise WireError("truncated varint at offset %d" % start)
            byte = buf[pos]
            pos += 1
            if byte < 0x80:
                length = byte
            else:
                length = byte & 0x7F
                shift = 7
                while True:
                    if pos >= end:
                        raise WireError(
                            "truncated varint at offset %d" % start)
                    byte = buf[pos]
                    pos += 1
                    length |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
                    if shift >= 70:
                        raise WireError(
                            "varint longer than 10 bytes at offset %d"
                            % start)
                length &= _UINT64_MASK
            stop = pos + length
            if stop > end:
                raise WireError(
                    "length-delimited field overruns buffer at offset %d"
                    % pos)
            value = buf[pos:stop]
            pos = stop
        elif wire_type == WIRETYPE_FIXED64:
            if pos + 8 > end:
                raise WireError("truncated fixed64 at offset %d" % pos)
            value = _UNPACK_FIXED64(buf, pos)[0]
            pos += 8
        elif wire_type == WIRETYPE_FIXED32:
            if pos + 4 > end:
                raise WireError("truncated fixed32 at offset %d" % pos)
            value = _UNPACK_FIXED32(buf, pos)[0]
            pos += 4
        else:
            raise WireError("unsupported wire type %d for field %d"
                            % (wire_type, field_number))
        yield field_number, wire_type, value


def scalar(wire_type: int, value: object) -> int:
    """A numeric field's value as :func:`scan_fields` decoded it.

    Raises :class:`WireError` when the field arrived length-delimited:
    ``int()`` of that payload would parse its digits.  The value is
    returned as decoded (unsigned); ``int64`` fields sign-extend it.
    """
    if wire_type == WIRETYPE_LENGTH_DELIMITED:
        raise WireError("expected numeric field, got length-delimited")
    return value  # type: ignore[return-value]


def delimited(wire_type: int, value: object) -> memoryview:
    """A string, bytes or message field's payload.

    Raises :class:`WireError` when the field arrived as a number:
    ``bytes()`` of a varint allocates that many zero bytes.
    """
    if wire_type != WIRETYPE_LENGTH_DELIMITED:
        raise WireError("expected length-delimited field, got wire type %d"
                        % wire_type)
    return value  # type: ignore[return-value]


class Reader:
    """A streaming cursor over a wire-format buffer.

    Where :func:`scan_fields` drives whole-message decode, ``Reader`` is
    the piecewise interface: framing code (the EasyView file header, the
    WAL record scanner) reads one varint or one delimited run at a time
    while keeping the buffer zero-copy.  The position is public; callers
    may seek.
    """

    __slots__ = ("buf", "pos", "end")

    def __init__(self, data: Buffer, pos: int = 0,
                 end: Optional[int] = None) -> None:
        self.buf = as_view(data)
        self.pos = pos
        self.end = len(self.buf) if end is None else end

    def __bool__(self) -> bool:
        return self.pos < self.end

    @property
    def remaining(self) -> int:
        return self.end - self.pos

    def varint(self) -> int:
        """Decode one unsigned varint at the cursor (inlined loop)."""
        buf = self.buf
        pos = self.pos
        end = self.end
        start = pos
        if pos >= end:
            raise WireError("truncated varint at offset %d" % start)
        byte = buf[pos]
        pos += 1
        if byte < 0x80:
            self.pos = pos
            return byte
        result = byte & 0x7F
        shift = 7
        while True:
            if pos >= end:
                raise WireError("truncated varint at offset %d" % start)
            byte = buf[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
            if shift >= 70:
                raise WireError(
                    "varint longer than 10 bytes at offset %d" % start)
        self.pos = pos
        return result & _UINT64_MASK

    def svarint(self) -> int:
        """Decode one ``int64`` varint (sign-extended two's complement)."""
        value = self.varint()
        return value - _TWO_TO_64 if value >= _INT64_SIGN else value

    def tag(self) -> Tuple[int, int]:
        """Decode a field tag: ``(field_number, wire_type)``."""
        key = self.varint()
        field_number = key >> 3
        if field_number == 0:
            raise WireError("field number 0 is reserved")
        return field_number, key & 0x7

    def delimited(self) -> memoryview:
        """Decode a length-delimited payload as a zero-copy subview."""
        length = self.varint()
        pos = self.pos
        stop = pos + length
        if stop > self.end:
            raise WireError(
                "length-delimited field overruns buffer at offset %d" % pos)
        self.pos = stop
        return self.buf[pos:stop]

    def fixed64(self) -> int:
        pos = self.pos
        if pos + 8 > self.end:
            raise WireError("truncated fixed64 at offset %d" % pos)
        self.pos = pos + 8
        return _UNPACK_FIXED64(self.buf, pos)[0]

    def fixed32(self) -> int:
        pos = self.pos
        if pos + 4 > self.end:
            raise WireError("truncated fixed32 at offset %d" % pos)
        self.pos = pos + 4
        return _UNPACK_FIXED32(self.buf, pos)[0]

    def skip(self, wire_type: int) -> None:
        """Skip an unknown field's payload."""
        if wire_type == WIRETYPE_VARINT:
            self.varint()
        elif wire_type == WIRETYPE_FIXED64:
            if self.pos + 8 > self.end:
                raise WireError(
                    "truncated fixed64 while skipping at offset %d"
                    % self.pos)
            self.pos += 8
        elif wire_type == WIRETYPE_LENGTH_DELIMITED:
            self.delimited()
        elif wire_type == WIRETYPE_FIXED32:
            if self.pos + 4 > self.end:
                raise WireError(
                    "truncated fixed32 while skipping at offset %d"
                    % self.pos)
            self.pos += 4
        else:
            raise WireError(
                "cannot skip wire type %d (groups are unsupported)"
                % wire_type)

    def fields(self) -> Iterator[Tuple[int, int, object]]:
        """Stream the remaining buffer as field triples."""
        return scan_fields(self.buf[self.pos:self.end])


# --------------------------------------------------------------------------
# Bulk packed-varint decode
# --------------------------------------------------------------------------

def _decode_packed_py(buf: memoryview, pos: int, end: int) -> List[int]:
    """The unrolled pure-Python packed scan (authoritative semantics)."""
    global _PACKED_RUNS_PY
    _PACKED_RUNS_PY += 1
    values: List[int] = []
    append = values.append
    while pos < end:
        byte = buf[pos]
        pos += 1
        if byte < 0x80:
            append(byte)  # 1-byte varints dominate real id lists
            continue
        start = pos - 1
        result = byte & 0x7F
        shift = 7
        while True:
            if pos >= end:
                raise WireError("truncated varint at offset %d" % start)
            byte = buf[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
            if shift >= 70:
                raise WireError(
                    "varint longer than 10 bytes at offset %d" % start)
        result &= _UINT64_MASK
        append(result - _TWO_TO_64 if result >= _INT64_SIGN else result)
    return values


def _decode_packed_numpy(buf: memoryview) -> List[int]:
    """Vectorized packed decode for long runs.

    Terminator positions (bytes with the high bit clear) delimit the
    varints; values are assembled with at most ten vectorized OR-shift
    passes, one per byte position within a varint.  uint64 shifts discard
    bits past 2**64 exactly like the reference codec's final mask, and
    viewing the result as int64 applies the two's-complement sign rule in
    one step.
    """
    global _PACKED_RUNS_NUMPY
    _PACKED_RUNS_NUMPY += 1
    data = np.frombuffer(buf, dtype=np.uint8)
    terminator = data < 0x80
    ends = np.flatnonzero(terminator)
    if ends.size:
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        lengths = ends - starts + 1
    else:
        starts = lengths = ends
    # Errors must surface in reference order: the sequential scan raises at
    # the FIRST offending varint, so check complete varints left to right
    # before looking at the torn tail (which is by definition rightmost).
    overlong = np.flatnonzero(lengths > _MAX_VARINT_BYTES)
    if overlong.size:
        raise WireError("varint longer than 10 bytes at offset %d"
                        % int(starts[overlong[0]]))
    tail_start = int(ends[-1]) + 1 if ends.size else 0
    if tail_start != data.size:
        # The reference scan gives up on a torn varint once it has consumed
        # ten bytes without a terminator; shorter tails read as truncation.
        if data.size - tail_start >= _MAX_VARINT_BYTES:
            raise WireError(
                "varint longer than 10 bytes at offset %d" % tail_start)
        raise WireError("truncated varint at offset %d" % tail_start)
    max_len = int(lengths.max())
    payload = (data & 0x7F).astype(np.uint64)
    values = payload[starts]
    for k in range(1, max_len):
        mask = lengths > k
        values[mask] |= payload[starts[mask] + k] << np.uint64(7 * k)
    return values.view(np.int64).tolist()


def decode_packed_int64s(data: Buffer) -> List[int]:
    """Decode a packed repeated ``int64`` payload into a list.

    Semantics match ``reference.decode_packed_varints`` bit for bit
    (including error offsets); long runs take the numpy kernel, everything
    else the unrolled scan.
    """
    buf = as_view(data)
    size = len(buf)
    if size == 0:
        return []
    if size >= NUMPY_MIN_PACKED_BYTES:
        return _decode_packed_numpy(buf)
    return _decode_packed_py(buf, 0, size)


class PackedInt64Batch:
    """Deferred bulk decode of many packed runs in one vectorized pass.

    A large pprof profile carries two packed runs per sample — a hundred
    thousand samples means two hundred thousand small payloads, each too
    short to amortize a numpy call on its own.  Message parsers register
    each run with :meth:`add` as they scan, and :meth:`flush` (called once
    per top-level message) concatenates every pending payload and decodes
    the whole batch with a single vectorized pass.  Per-payload value
    counts are recovered from the terminator bytes, so each destination
    list receives exactly its own values, in wire order.

    Varints cannot straddle payloads: a well-formed packed run ends on a
    terminator byte.  Any payload that breaks that invariant — or any
    overlong varint anywhere in the batch — routes the whole batch through
    the sequential scan instead, which reproduces the reference codec's
    error (first bad payload in wire order wins).
    """

    __slots__ = ("_payloads", "_targets")

    def __init__(self) -> None:
        self._payloads: List[memoryview] = []
        self._targets: List[List[int]] = []

    def add(self, payload: memoryview, target: List[int]) -> None:
        """Queue one packed payload to be decoded into ``target``."""
        if len(payload):
            self._payloads.append(payload)
            self._targets.append(target)

    def drain(self, target: List[int]) -> None:
        """Decode ``target``'s pending payloads immediately, in order.

        Needed when an *unpacked* entry for the same field arrives after
        a deferred packed run: wire order must be preserved, so the
        pending values land in the list before the new entry does.
        """
        if not any(tgt is target for tgt in self._targets):
            return  # identity, not ==: distinct empty lists compare equal
        keep_payloads: List[memoryview] = []
        keep_targets: List[List[int]] = []
        for payload, tgt in zip(self._payloads, self._targets):
            if tgt is target:
                tgt.extend(_decode_packed_py(payload, 0, len(payload)))
            else:
                keep_payloads.append(payload)
                keep_targets.append(tgt)
        # In-place, not rebinding: callers on the hot path hold bound
        # ``.append`` methods of these exact list objects.
        self._payloads[:] = keep_payloads
        self._targets[:] = keep_targets

    def _flush_sequential(self, payloads: List[memoryview],
                          targets: List[List[int]]) -> None:
        for payload, target in zip(payloads, targets):
            target.extend(_decode_packed_py(payload, 0, len(payload)))

    def flush(self) -> None:
        """Decode every pending payload into its destination list."""
        if not self._payloads:
            return
        payloads = self._payloads[:]
        targets = self._targets[:]
        # In-place clear, not rebinding — see :meth:`drain`.
        del self._payloads[:]
        del self._targets[:]
        global _PACKED_RUNS_NUMPY
        _PACKED_RUNS_NUMPY += 1
        data = np.frombuffer(b"".join(payloads), dtype=np.uint8)
        sizes = np.fromiter(map(len, payloads), dtype=np.int64,
                            count=len(payloads))
        result = _assemble_packed(data, np.cumsum(sizes))
        if result is None:
            # Some payload is torn or overlong: decode sequentially so the
            # first offender raises the reference-identical error.
            self._flush_sequential(payloads, targets)
            return
        decoded, cum = result
        offset = 0
        for target, stop in zip(targets, cum.tolist()):
            target.extend(decoded[offset:stop])
            offset = stop


def _assemble_packed(data: "object", bounds_end: "object",
                     as_array: bool = False):
    """Bulk-decode concatenated packed int64 runs in one numpy pass.

    ``data`` is a uint8 ndarray of run payloads laid end to end;
    ``bounds_end`` holds each run's exclusive end offset (ascending, with
    empty runs repeating the previous offset).  Returns ``(decoded,
    cum)`` — every value in order as a Python list (an int64 ndarray with
    ``as_array``, for consumers that stay columnar), plus the cumulative
    value count at each run end — or ``None`` when any run ends
    mid-varint or contains an overlong varint, so the caller can rerun
    the sequential scan and surface the reference codec's error.

    Varints cannot straddle runs: a well-formed packed run ends on a
    terminator byte, which is exactly the per-run check below.
    """
    terminator = data < 0x80
    prev = np.empty_like(bounds_end)
    prev[0] = 0
    prev[1:] = bounds_end[:-1]
    nonempty = bounds_end > prev
    if not terminator[bounds_end[nonempty] - 1].all():
        return None
    ends = np.flatnonzero(terminator)
    v_starts = np.empty_like(ends)
    if ends.size:
        v_starts[0] = 0
        v_starts[1:] = ends[:-1] + 1
    v_lengths = ends - v_starts + 1
    if v_lengths.size and int(v_lengths.max()) > _MAX_VARINT_BYTES:
        return None
    # Assemble values byte-column by byte-column, shrinking the index set
    # to just the still-unfinished varints each round: total gather work
    # is O(continuation bytes), not O(varints * max_len).
    values = (data[v_starts] & 0x7F).astype(np.uint64)
    sel = np.flatnonzero(v_lengths > 1)
    idx = v_starts[sel]
    lens = v_lengths[sel]
    k = 1
    while sel.size:
        values[sel] |= ((data[idx + k] & 0x7F).astype(np.uint64)
                        << np.uint64(7 * k))
        k += 1
        keep = np.flatnonzero(lens > k)
        sel = sel[keep]
        idx = idx[keep]
        lens = lens[keep]
    decoded = values.view(np.int64)
    if not as_array:
        decoded = decoded.tolist()
    # Values per run = terminators before each run end; ``ends`` is
    # sorted, so binary search beats a reduceat over the byte array.
    cum = np.searchsorted(ends, bounds_end, side="left")
    return decoded, cum


def decode_packed_samples(buf: "memoryview", span_bounds: List[int],
                          as_array: bool = False):
    """Vectorized shape check + bulk decode for pprof sample messages.

    ``span_bounds`` is a flat ``[start, stop, ...]`` list of sample body
    byte ranges inside ``buf``.  A body matching the canonical layout —
    a field 1 packed run then a field 2 packed run, both with single-byte
    lengths and nothing trailing — is decoded wholesale without ever
    scanning it in Python.  Returns ``(ok, decoded, offsets)``: ``ok``
    flags which samples matched, ``decoded`` holds their values in wire
    order, and ``offsets`` the cumulative value counts (leading zero;
    each ok sample consumes two entries — its id run and its value run).
    With ``as_array``, ``decoded`` and ``offsets`` stay int64 ndarrays —
    the zero-materialization path the columnar CCT builder feeds on.

    Returns ``None`` when any matched run is malformed; the caller then
    re-scans every sample sequentially so the first offender raises the
    reference-identical error.  Every gather below is index-clamped, so a
    garbage length byte can never read out of bounds — it just fails the
    mask.
    """
    data = np.frombuffer(buf, dtype=np.uint8)
    last = data.size - 1
    bounds = np.array(span_bounds, dtype=np.int64)
    starts = bounds[0::2]
    stops = bounds[1::2]
    ok = (stops - starts) >= 4  # smallest canonical body: 0A 00 12 00
    ok &= data[np.minimum(starts, last)] == 0x0A
    len1 = data[np.minimum(starts + 1, last)].astype(np.int64)
    ok &= len1 < 0x80
    run2_tag = starts + 2 + len1
    ok &= run2_tag + 1 < stops
    ok &= data[np.minimum(run2_tag, last)] == 0x12
    len2 = data[np.minimum(run2_tag + 1, last)].astype(np.int64)
    ok &= len2 < 0x80
    ok &= run2_tag + 2 + len2 == stops
    ok_idx = np.flatnonzero(ok)
    ok_list = ok.tolist()
    if not ok_idx.size:
        if as_array:
            return ok_list, np.empty(0, dtype=np.int64), \
                np.zeros(1, dtype=np.int64)
        return ok_list, [], [0]
    global _PACKED_RUNS_NUMPY
    _PACKED_RUNS_NUMPY += 1
    n_ok = ok_idx.size
    run_starts = np.empty(2 * n_ok, dtype=np.int64)
    run_lens = np.empty(2 * n_ok, dtype=np.int64)
    run_starts[0::2] = starts[ok_idx] + 2
    run_lens[0::2] = len1[ok_idx]
    run_starts[1::2] = run2_tag[ok_idx] + 2
    run_lens[1::2] = len2[ok_idx]
    bounds_end = np.cumsum(run_lens)
    total = int(bounds_end[-1])
    gathered_starts = np.empty_like(bounds_end)
    gathered_starts[0] = 0
    gathered_starts[1:] = bounds_end[:-1]
    # Lay every run's bytes end to end with one fancy gather: for run r,
    # position j in the gathered array maps back to
    # run_starts[r] + (j - gathered_starts[r]).
    gather = (np.repeat(run_starts - gathered_starts, run_lens)
              + np.arange(total, dtype=np.int64))
    result = _assemble_packed(data[gather], bounds_end, as_array=as_array)
    if result is None:
        return None
    decoded, cum = result
    if as_array:
        offsets_a = np.empty(cum.size + 1, dtype=np.int64)
        offsets_a[0] = 0
        offsets_a[1:] = cum
        return ok_list, decoded, offsets_a
    offsets = [0]
    offsets.extend(cum.tolist())
    return ok_list, decoded, offsets


# --------------------------------------------------------------------------
# Writing
# --------------------------------------------------------------------------

#: Every 1- and 2-byte varint, pre-encoded.  Covers field tags, string
#: lengths, ids, line numbers — the overwhelming majority of varints a
#: profile writes.
_SMALL_VARINT_LIMIT = 1 << 14
_SMALL_VARINTS: Tuple[bytes, ...] = tuple(
    bytes([value]) if value < 0x80
    else bytes([(value & 0x7F) | 0x80, value >> 7])
    for value in range(_SMALL_VARINT_LIMIT))

_DOUBLE_ZERO = struct.pack("<d", 0.0)
_PACK_DOUBLE = struct.Struct("<d").pack


def append_varint(buf: bytearray, value: int) -> None:
    """Append one unsigned varint to ``buf`` (table fast path)."""
    if 0 <= value < _SMALL_VARINT_LIMIT:
        buf += _SMALL_VARINTS[value]
        return
    if value < 0:
        raise WireError("varint cannot encode negative value %d; "
                        "use the int64 sign-extension rule" % value)
    if value > _UINT64_MASK:
        raise WireError("varint value %d exceeds 64 bits" % value)
    while value >= 0x80:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def encode_varint(value: int) -> bytes:
    """Encode one unsigned varint (< 2**64) as ``bytes``."""
    if 0 <= value < _SMALL_VARINT_LIMIT:
        return _SMALL_VARINTS[value]
    buf = bytearray()
    append_varint(buf, value)
    return bytes(buf)


def encode_packed_int64s(values: Sequence[int]) -> bytes:
    """Bulk-encode a packed repeated ``int64`` body (no tag, no length).

    The all-single-byte fast path covers the id lists that dominate real
    profiles; everything else runs the table-assisted loop.  Negative
    values sign-extend to ten bytes, exactly like the reference codec.
    """
    if not values:
        return b""
    if 0 <= min(values) and max(values) < 0x80:
        return bytes(values)
    out = bytearray()
    append = out.append
    small = _SMALL_VARINTS
    for value in values:
        if 0 <= value < _SMALL_VARINT_LIMIT:
            out += small[value]
            continue
        value &= _UINT64_MASK
        while value >= 0x80:
            append((value & 0x7F) | 0x80)
            value >>= 7
        append(value)
    return bytes(out)


#: The smallest value of each varint length from two bytes to ten.
_VARINT_LENGTH_STEPS = np.array([1 << (7 * k) for k in range(1, 10)],
                                dtype=np.uint64)


def varint_sizes(values: "np.ndarray") -> "np.ndarray":
    """Encoded length in bytes (1..10) of every uint64 in ``values``."""
    return np.searchsorted(_VARINT_LENGTH_STEPS, values, side="right") + 1


def put_varints(out: "np.ndarray", positions: "np.ndarray",
                values: "np.ndarray", sizes: "np.ndarray") -> None:
    """Write every uint64 of ``values`` as a varint into the uint8 array
    ``out`` at ``positions``; ``sizes`` comes from :func:`varint_sizes`.

    One vectorized pass per byte position, each over only the varints
    that still have bytes left, so the work is O(bytes written).
    """
    while values.size:
        more = sizes > 1
        out[positions] = ((values & np.uint64(0x7F))
                          | (more.astype(np.uint64) << np.uint64(7)))
        keep = np.flatnonzero(more)
        values = values[keep] >> np.uint64(7)
        positions = positions[keep] + 1
        sizes = sizes[keep] - 1


class Writer:
    """A one-pass message writer over a single growing ``bytearray``.

    API-compatible with the original chunk-list writer (``varint`` /
    ``sint`` / ``double`` / ``bytes`` / ``string`` / ``message`` /
    ``packed`` / ``getvalue``), with two additions:

    * ``begin_message(field)`` / ``end_message(mark)`` serialize a nested
      message *in place*: one length-prefix byte is reserved up front and
      patched when the scope closes, so child messages never serialize to
      a separate buffer first.  Messages under 128 bytes — almost every
      submessage in both schemas — patch without moving a single byte;
      larger ones shift their tail once.
    * ``__len__`` is O(1): the buffer knows its own size (the original
      recomputed ``sum(len(chunk) ...)`` per call).

    Proto3 default-suppression semantics are identical to the reference
    writer, including the ``-0.0`` bit-pattern presence rule.
    """

    __slots__ = ("_buf", "_emit_defaults")

    def __init__(self, emit_defaults: bool = False) -> None:
        self._buf = bytearray()
        self._emit_defaults = emit_defaults

    # -- scalar fields ----------------------------------------------------

    def varint(self, field_number: int, value: int) -> "Writer":
        """Write an ``int64``/``uint64``/``bool``/enum field."""
        if value or self._emit_defaults:
            if field_number < 1:
                raise WireError("field numbers must be positive, got %d"
                                % field_number)
            buf = self._buf
            append_varint(buf, field_number << 3)
            append_varint(buf, int(value) & _UINT64_MASK)
        return self

    def sint(self, field_number: int, value: int) -> "Writer":
        """Write a ZigZag-encoded ``sint64`` field."""
        if value or self._emit_defaults:
            if field_number < 1:
                raise WireError("field numbers must be positive, got %d"
                                % field_number)
            if not -_INT64_SIGN <= value < _INT64_SIGN:
                raise WireError("sint64 value %d out of range" % value)
            buf = self._buf
            append_varint(buf, field_number << 3)
            append_varint(buf,
                          ((value << 1) ^ (value >> 63)) & _UINT64_MASK)
        return self

    def double(self, field_number: int, value: float) -> "Writer":
        """Write a ``double`` field.

        Presence is judged on the bit pattern, not truthiness: ``-0.0``
        is falsy but bit-distinct from the proto3 default ``0.0`` and
        must reach the wire, or a round trip silently flips its sign.
        """
        packed = _PACK_DOUBLE(value)
        if self._emit_defaults or packed != _DOUBLE_ZERO:
            if field_number < 1:
                raise WireError("field numbers must be positive, got %d"
                                % field_number)
            buf = self._buf
            append_varint(buf, (field_number << 3) | WIRETYPE_FIXED64)
            buf += packed
        return self

    def fixed64(self, field_number: int, value: int) -> "Writer":
        """Write an unsigned ``fixed64`` field."""
        if value or self._emit_defaults:
            if field_number < 1:
                raise WireError("field numbers must be positive, got %d"
                                % field_number)
            buf = self._buf
            append_varint(buf, (field_number << 3) | WIRETYPE_FIXED64)
            buf += struct.pack("<Q", value & _UINT64_MASK)
        return self

    # -- delimited fields -------------------------------------------------

    def bytes(self, field_number: int, value: Buffer) -> "Writer":
        """Write a ``bytes`` field."""
        if value or self._emit_defaults:
            self._delimited(field_number, value)
        return self

    def string(self, field_number: int, value: str) -> "Writer":
        """Write a ``string`` field."""
        if value or self._emit_defaults:
            self._delimited(field_number, value.encode("utf-8"))
        return self

    def message(self, field_number: int, payload: Buffer) -> "Writer":
        """Write an embedded message field from its serialized payload.

        Unlike scalar fields, an *empty* message is still written when
        explicitly requested, because presence is meaningful for messages.
        (Prefer ``begin_message``/``end_message`` when the child is built
        by this writer; this form is for payloads that already exist.)
        """
        self._delimited(field_number, payload)
        return self

    def packed(self, field_number: int, values: Sequence[int]) -> "Writer":
        """Write a packed repeated integer field (bulk-encoded body)."""
        if values:
            self._delimited(field_number, encode_packed_int64s(values))
        return self

    def _delimited(self, field_number: int, payload: Buffer) -> None:
        if field_number < 1:
            raise WireError("field numbers must be positive, got %d"
                            % field_number)
        buf = self._buf
        append_varint(buf, (field_number << 3) | WIRETYPE_LENGTH_DELIMITED)
        append_varint(buf, len(payload))
        buf += payload

    # -- nested message scopes --------------------------------------------

    def begin_message(self, field_number: int) -> int:
        """Open a nested message field; returns the mark to close it with.

        Reserves a single length byte.  Scopes nest; close them in LIFO
        order (``end_message`` of an inner scope must precede the outer's).
        """
        if field_number < 1:
            raise WireError("field numbers must be positive, got %d"
                            % field_number)
        buf = self._buf
        append_varint(buf, (field_number << 3) | WIRETYPE_LENGTH_DELIMITED)
        buf.append(0)  # length placeholder, patched by end_message
        return len(buf)

    def end_message(self, mark: int) -> "Writer":
        """Close the scope opened at ``mark``, patching its length prefix."""
        buf = self._buf
        length = len(buf) - mark
        if length < 0x80:
            buf[mark - 1] = length
        else:
            # Rare path: the placeholder byte grows into a full varint and
            # the tail shifts once (a C-level memmove).
            buf[mark - 1:mark] = encode_varint(length)
        return self

    # -- output -----------------------------------------------------------

    def getvalue(self) -> bytes:
        """Return the serialized message."""
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


# --------------------------------------------------------------------------
# Interning string-table decode
# --------------------------------------------------------------------------

class StringInterner:
    """A bounded intern pool for decoded UTF-8 payloads.

    Profile string tables repeat enormously across profiles — every
    segment in a store, every WAL record from the same service carries the
    same function names and file paths.  Decoding through one shared pool
    makes each distinct string a single ``str`` object process-wide, which
    both skips redundant UTF-8 decodes and turns downstream equality
    checks into pointer compares.

    The pool is bounded: when full it is cleared wholesale (a decode
    cache, not a registry — correctness never depends on a hit).  Lookups
    and inserts are single dict operations, safe under the GIL.
    """

    __slots__ = ("max_entries", "_cache", "hits", "misses")

    def __init__(self, max_entries: int = 1 << 16) -> None:
        self.max_entries = max_entries
        self._cache: dict = {}
        self.hits = 0
        self.misses = 0

    def decode(self, payload: Buffer) -> str:
        """Decode a UTF-8 payload through the pool."""
        key = bytes(payload)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        text = key.decode("utf-8")
        if len(self._cache) >= self.max_entries:
            self._cache.clear()
        self._cache[key] = text
        return text

    def __len__(self) -> int:
        return len(self._cache)

    def stats(self) -> dict:
        return {"entries": len(self._cache), "hits": self.hits,
                "misses": self.misses, "maxEntries": self.max_entries}


#: The process-wide pool shared by pprof string tables, segment footers,
#: and WAL metadata decode.
_interner = StringInterner()


def intern_string(payload: Buffer) -> str:
    """Decode a UTF-8 payload through the shared intern pool."""
    return _interner.decode(payload)


def decode_string(payload: Buffer) -> str:
    """Decode a UTF-8 payload without interning (one-off strings)."""
    return str(payload, "utf-8")
