"""The pprof converter's object-tree oracle.

:func:`parse_object` converts a pprof payload by replaying every sample
through the per-node object CCT, the way the converter worked before the
columnar core.  :func:`repro.converters.pprof.parse` must produce the
same trees, digests and analysis results: the CCT bench gate
(:mod:`repro.bench.cct`) and the differential tests hold it to that.
"""

from __future__ import annotations

from typing import Dict, List

from ..converters.pprof import _begin, _frame_chains
from ..errors import FormatError, OversizedError
from ..proto import pprof_pb
from .profile_oracle import ObjectProfile, child


def _accumulate_object(message: "pprof_pb.Profile", profile: ObjectProfile,
                       metric_columns: List[int]) -> None:
    """Replay ``message.sample`` through the object CCT."""
    frames_by_location = _frame_chains(message)
    # Real profiles repeat call stacks heavily, so the leaf CCT node for
    # each distinct location-id tuple is resolved once and cached.
    root = profile.root
    leaf_cache: Dict[tuple, object] = {}
    for sample in message.sample:
        key = tuple(sample.location_id)
        node = leaf_cache.get(key)
        if node is None:
            node = root
            # pprof stacks are leaf-first; walk callers-first.
            for location_id in reversed(sample.location_id):
                chain = frames_by_location.get(location_id)
                if chain is None:
                    raise FormatError(
                        "sample references undefined location %d"
                        % location_id)
                for frame in chain:
                    node = child(node, frame)
            leaf_cache[key] = node
        metrics = node.metrics
        for column, value in zip(metric_columns, sample.value):
            metrics[column] = metrics.get(column, 0.0) + value


def parse_object(data: bytes) -> ObjectProfile:
    """Convert a (possibly gzipped) pprof payload through the object CCT."""
    try:
        message = pprof_pb.loads(data)
    except OversizedError:
        raise
    except Exception as exc:
        raise FormatError("not a pprof profile: %s" % exc) from exc

    builder, metric_columns = _begin(message)
    built = builder.build()  # the schema and metadata; its tree is unused
    profile = ObjectProfile(built.schema, built.meta)
    _accumulate_object(message, profile, metric_columns)
    return profile
