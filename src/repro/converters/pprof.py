"""pprof binary → EasyView converter (and back).

pprof's ``profile.proto`` is, as §VII-A notes, essentially a subset of
EasyView's representation, so the conversion is mechanical: samples'
leaf-first location stacks become root-first call paths, every declared
``sample_type`` becomes a metric column, inlined frames expand into
separate contexts, and mappings become load modules.

The reverse direction (:func:`to_pprof`) loses only what pprof cannot hold
(multi-context points, snapshot sequences); it exists so EasyView can feed
its analyses back into pprof-consuming pipelines.
"""

from __future__ import annotations

import os
from typing import Dict, List

import numpy as np

from ..builder import ProfileBuilder
from ..core.cct_columnar import ColumnarBuilder
from ..core.frame import Frame, intern_frame
from ..core.profile import Profile
from ..errors import FormatError, OversizedError
from ..proto import pprof_pb
from .base import Converter, register


def _begin(message: "pprof_pb.Profile"):
    """Builder + metric column mapping for a parsed pprof message."""
    builder = ProfileBuilder(tool="pprof",
                             time_nanos=message.time_nanos,
                             duration_nanos=message.duration_nanos)
    metric_columns = []
    for value_type in message.sample_type:
        name = message.string(value_type.type) or "value"
        unit = message.string(value_type.unit)
        metric_columns.append(builder.metric(name, unit=unit))
    if not metric_columns:
        metric_columns.append(builder.metric("value"))
    return builder, metric_columns


def _frame_chains(message: "pprof_pb.Profile") -> Dict[int, List[Frame]]:
    """Pre-resolve every location to its frame chain (caller-first), since
    locations repeat across thousands of samples."""
    functions = {fn.id: fn for fn in message.function}
    mappings = {mp.id: mp for mp in message.mapping}
    frames_by_location: Dict[int, List[Frame]] = {}
    for location in message.location:
        module = ""
        mapping = mappings.get(location.mapping_id)
        if mapping is not None:
            module = os.path.basename(message.string(mapping.filename))
        chain: List[Frame] = []
        # A location's lines are innermost-first (inlining); callers first
        # for EasyView means reversed.
        for line in reversed(location.line):
            function = functions.get(line.function_id)
            if function is None:
                continue
            chain.append(intern_frame(
                name=message.string(function.name) or "<unknown>",
                file=message.string(function.filename),
                line=line.line or function.start_line,
                module=module,
                address=location.address))
        if not chain:
            chain.append(intern_frame(
                name="0x%x" % location.address if location.address
                else "<unknown>",
                module=module, address=location.address))
        frames_by_location[location.id] = chain
    return frames_by_location


def _descend_stack(location_ids: List[int],
                   chain_fids: Dict[int, tuple], descend) -> int:
    """Descend the frame trie along one leaf-first location stack."""
    leaf = 0
    # pprof stacks are leaf-first; walk callers-first.
    for location_id in reversed(location_ids):
        fids = chain_fids.get(location_id)
        if fids is None:
            raise FormatError(
                "sample references undefined location %d" % location_id)
        for fid in fids:
            leaf = descend(leaf, fid)
    return leaf


def _build_columnar(message: "pprof_pb.Profile",
                    block: "pprof_pb.SampleBlock",
                    metric_columns: List[int], n_schema: int):
    """Fold a deferred sample block straight into a columnar CCT.

    Mirrors the object-tree oracle
    (:func:`repro.bench.pprof_oracle.parse_object`) exactly — same
    wire-order sample walk, same leaf cache, same zip-truncation value
    semantics — but over integer frame ids, with zero
    :class:`~repro.core.cct.CCTNode` (and, on the fast path, zero
    ``Sample``) objects ever constructed.
    """
    bld = ColumnarBuilder()
    chain_fids: Dict[int, tuple] = {
        loc_id: tuple(bld.frame_token(frame) for frame in chain)
        for loc_id, chain in _frame_chains(message).items()}

    decoded = block.decoded
    offsets = block.offsets
    irregular = iter(block.irregular)
    descend = bld.descend
    leaf_cache: Dict[object, int] = {}
    ok_leafs: List[int] = []
    # (ok samples before it, leaf id, value list) per irregular sample
    slow: List[tuple] = []
    k = 0
    # Wire order matters: trie nodes are created at first touch, and the
    # materialized facade must reproduce the object tree's child insertion
    # order — so ok and irregular samples interleave exactly as sent.
    # Real profiles repeat call stacks heavily, so each distinct stack's
    # leaf is resolved once (one of the §V-C optimizations).
    for matched in block.ok:
        if matched:
            seg = decoded[offsets[2 * k]:offsets[2 * k + 1]]
            k += 1
            key = seg.tobytes()
        else:
            sample = next(irregular)
            key = tuple(sample.location_id)
        leaf = leaf_cache.get(key)
        if leaf is None:
            leaf = leaf_cache[key] = _descend_stack(
                seg.tolist() if matched else sample.location_id,
                chain_fids, descend)
        if matched:
            ok_leafs.append(leaf)
        else:
            slow.append((len(ok_leafs), leaf, sample.value))

    n_nodes = bld.n_nodes
    values = np.zeros((n_nodes, n_schema), dtype=np.float64)
    present = np.zeros((n_nodes, n_schema), dtype=bool)
    n_ok = len(ok_leafs)
    v_starts = offsets[1:2 * n_ok:2]
    v_ends = offsets[2:2 * n_ok + 1:2]
    m = len(metric_columns)
    if (n_ok and not slow and metric_columns == list(range(m))
            and bool((v_ends - v_starts == m).all())):
        # Canonical case: every sample carries exactly one value per
        # declared column — gather into an (n_ok, m) matrix and
        # scatter-add in one pass.
        leaf_arr = np.asarray(ok_leafs, dtype=np.int64)
        idx = v_starts[:, None] + np.arange(m, dtype=np.int64)
        np.add.at(values, leaf_arr, decoded[idx].astype(np.float64))
        present[leaf_arr] = True
        return bld.finish(values, present)

    # Ragged value runs, aliased metric names or irregular samples:
    # zip-truncate per sample in wire order, exactly like the object
    # path (past 2**53 the order of the float additions shows).
    def add(leaf: int, run) -> None:
        for column, value in zip(metric_columns, run):
            values[leaf, column] += value
            present[leaf, column] = True

    starts_l = v_starts.tolist()
    ends_l = v_ends.tolist()
    s = 0
    for i, leaf in enumerate(ok_leafs):
        while s < len(slow) and slow[s][0] == i:
            add(slow[s][1], slow[s][2])
            s += 1
        add(leaf, decoded[starts_l[i]:ends_l[i]].tolist())
    for _, leaf, run in slow[s:]:
        add(leaf, run)
    return bld.finish(values, present)


def parse(data: bytes) -> Profile:
    """Convert a (possibly gzipped) pprof payload.

    Payloads stay columnar end to end — packed sample runs are
    bulk-decoded into int64 arrays and folded straight into a
    :class:`~repro.core.cct_columnar.ColumnarCCT`; the object tree only
    materializes if a consumer asks for it.  A payload without samples
    is the bare root.
    """
    try:
        message, block = pprof_pb.loads_columnar(data)
    except OversizedError:
        raise
    except Exception as exc:
        raise FormatError("not a pprof profile: %s" % exc) from exc

    builder, metric_columns = _begin(message)
    profile = builder.build()
    if block is not None:
        profile.attach_columnar(_build_columnar(
            message, block, metric_columns, len(profile.schema)))
    return profile


def to_pprof(profile: Profile, metric_names: List[str] = None
             ) -> pprof_pb.Profile:
    """Lower an EasyView profile to a pprof message (lossy; see module doc)."""
    from ..core.frame import FrameKind

    message = pprof_pb.Profile()
    strings: Dict[str, int] = {"": 0}
    table = [""]

    def intern(text: str) -> int:
        index = strings.get(text)
        if index is None:
            index = len(table)
            table.append(text)
            strings[text] = index
        return index

    schema = profile.schema
    columns = ([schema.index_of(name) for name in metric_names]
               if metric_names else list(range(len(schema))))
    for column in columns:
        metric = schema[column]
        message.sample_type.append(pprof_pb.ValueType(
            type=intern(metric.name), unit=intern(metric.unit)))

    function_ids: Dict[tuple, int] = {}
    location_ids: Dict[tuple, int] = {}

    def location_for(frame: Frame) -> int:
        fn_key = (frame.name, frame.file)
        fn_id = function_ids.get(fn_key)
        if fn_id is None:
            fn_id = len(message.function) + 1
            function_ids[fn_key] = fn_id
            message.function.append(pprof_pb.Function(
                id=fn_id, name=intern(frame.name),
                system_name=intern(frame.name),
                filename=intern(frame.file)))
        loc_key = (fn_id, frame.line, frame.address)
        loc_id = location_ids.get(loc_key)
        if loc_id is None:
            loc_id = len(message.location) + 1
            location_ids[loc_key] = loc_id
            message.location.append(pprof_pb.Location(
                id=loc_id, address=frame.address,
                line=[pprof_pb.Line(function_id=fn_id, line=frame.line)]))
        return loc_id

    for node in profile.nodes():
        if not node.metrics or node.frame.kind is FrameKind.ROOT:
            continue
        stack = [location_for(frame)
                 for frame in reversed(node.call_path())]
        message.sample.append(pprof_pb.Sample(
            location_id=stack,
            value=[int(node.metrics.get(column, 0.0))
                   for column in columns]))

    message.string_table = table
    message.time_nanos = profile.meta.time_nanos
    message.duration_nanos = profile.meta.duration_nanos
    return message


def _sniff(data: bytes, path: str) -> bool:
    if data[:2] == pprof_pb.GZIP_MAGIC:
        return True
    # Uncompressed protobuf: first field of a pprof profile is always a
    # length-delimited message (tag byte 0x0A or similar low tag).
    return bool(data) and data[0] in (0x0A, 0x12) and b"{" not in data[:1]


register(Converter(
    name="pprof",
    parse=parse,
    sniff=_sniff,
    extensions=(".pb.gz", ".pprof", ".pb"),
    description="pprof binary protobuf (Go runtime, perf, Cloud Profiler)"))
