"""Outside-in layer tracing: spans around calls into EasyView's modules.

:func:`install` wraps the public functions listed in :data:`TARGETS`
inside a server process before its normal entry point runs (see
``bootstrap.py`` and ``ingest_host.py``).  Every wrapped call records one
span — name, start, end, parent — in memory, and the spans are written
as JSON when the process exits.  The parent travels in a context
variable, which EasyView's worker pool copies into its tasks, so a
transform fanned out by an aggregate is the aggregate's child.

Only calls made O(requests) or O(profiles) times are wrapped; per-node
and per-varint kernels are not.  In-program tracing (``repro.obs``) stays
off.

:func:`layer_metrics` turns a span dump into the per-layer metrics the
harness reports: busy time and call count per layer (minus the wrapped
calls of another layer where the layer is defined that way), ratios,
the share of the timed operations' wall time no span covers, and the
traced-over-untraced slowdown.
"""

from __future__ import annotations

import atexit
import contextvars
import dataclasses
import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

#: (module, attribute path, span name).  Several functions may share a
#: span name; they then count as one layer.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.proto.pprof_pb", "loads_columnar", "proto.pprof_decode"),
    ("repro.proto.easyview_pb", "dumps", "proto.easyview_codec"),
    ("repro.proto.easyview_pb", "loads", "proto.easyview_codec"),
    ("repro.converters.pprof", "parse", "converters.pprof_parse"),
    ("repro.core.digest", "profile_digest", "core.digest"),
    ("repro.core.digest", "viewtree_digest", "core.digest"),
    ("repro.core.serialize", "dumps", "core.serialize"),
    ("repro.engine.engine", "AnalysisEngine.transform", "engine.memoized"),
    ("repro.engine.engine", "AnalysisEngine.layout", "engine.memoized"),
    ("repro.engine.engine", "AnalysisEngine.diff_trees", "engine.memoized"),
    ("repro.engine.engine", "AnalysisEngine.merge_trees", "engine.memoized"),
    ("repro.engine.engine", "AnalysisEngine.aggregate_profiles",
     "engine.memoized"),
    ("repro.engine.engine", "AnalysisEngine.line_attribution",
     "engine.memoized"),
    ("repro.engine.engine", "AnalysisEngine.aggregate_window",
     "engine.memoized"),
    ("repro.analysis.metrics", "compute_inclusive", "analysis.inclusive"),
    ("repro.analysis.transform", "transform", "analysis.transform"),
    ("repro.analysis.viewtree_columnar", "ColumnarViewTree.materialize",
     "analysis.materialize"),
    ("repro.analysis.query", "search", "analysis.search"),
    ("repro.analysis.diff", "diff_trees", "analysis.diff"),
    ("repro.analysis.diff", "summarize", "analysis.summarize"),
    ("repro.analysis.aggregate", "merge_trees", "analysis.aggregate"),
    ("repro.analysis.aggregate", "aggregate_profiles", "analysis.aggregate"),
    ("repro.viz.layout", "layout_profile", "viz.open_layout"),
    ("repro.viz.layout", "layout", "viz.layout"),
    ("repro.ide.annotations", "line_attribution", "ide.attribution"),
    ("repro.ide.annotations", "build_hover", "ide.hover"),
    ("repro.ide.tips", "TipEngine.tips_for", "ide.hover"),
    ("repro.ide.annotations", "build_floating_window", "ide.summary"),
    ("repro.ide.protocol", "parse_message", "ide.json"),
    ("repro.ide.protocol", "Response.to_json", "ide.json"),
    ("repro.serve.dispatch", "Dispatcher.handle", "serve.exec"),
    ("repro.lint.profile_lint", "lint_profile", "lint.profile"),
    ("repro.store.wal", "WriteAheadLog.append", "store.wal_append"),
    ("repro.store.store", "ProfileStore.flush", "store.flush"),
    ("repro.store.store", "ProfileStore.load", "store.load"),
    ("repro.store.store", "ProfileStore.query_window", "store.query_window"),
    ("repro.continuous.collector", "Collector.handle_upload",
     "continuous.upload_server"),
    ("repro.continuous.watch", "RegressionWatch.tick", "continuous.tick"),
)

_parent: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perfbench_parent_span", default=-1)


class Recorder:
    """Spans of one process, kept in memory until exit."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[List[Any]] = []   # [name index, start, end, parent]
        self._lock = threading.Lock()

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        index = self._name_index(name)
        spans, lock = self.spans, self._lock
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [index, 0.0, 0.0, _parent.get()]
            with lock:
                position = len(spans)
                spans.append(record)
            token = _parent.set(position)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                _parent.reset(token)

        return traced

    def dump(self, path: str) -> None:
        payload = {"names": self.names, "spans": self.spans}
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def install(trace_out: str) -> Recorder:
    """Wrap every target and dump the spans to ``trace_out`` at exit.

    Module-level functions are also rebound wherever another ``repro``
    module imported them by name, and in the converter registry, so
    every call path reaches the wrapper.
    """
    recorder = Recorder()
    importlib.import_module("repro.cli")
    replaced: Dict[int, Callable[..., Any]] = {}
    for module_name, path, name in TARGETS:
        owner, attr, original = _resolve(module_name, path)
        wrapped = recorder.wrap(name, original)
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            continue
        replaced[id(original)] = wrapped
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            wrapped = replaced.get(id(value))
            if wrapped is not None and callable(value):
                setattr(module, attr, wrapped)
    from repro.converters import base
    for key, converter in list(base._REGISTRY.items()):
        wrapped = replaced.get(id(converter.parse))
        if wrapped is not None:
            base._REGISTRY[key] = dataclasses.replace(converter,
                                                      parse=wrapped)
    atexit.register(recorder.dump, trace_out)
    return recorder


# -- turning spans into layer metrics -----------------------------------------

@dataclasses.dataclass
class SpanTable:
    """A span dump restricted to the timed phase."""

    names: List[str]
    spans: List[List[Any]]

    @classmethod
    def load(cls, path: str, start: float, end: float) -> "SpanTable":
        with open(path) as handle:
            payload = json.load(handle)
        spans = payload["spans"]
        keep = [span for span in spans
                if span[2] > 0.0 and start <= span[1] and span[2] <= end]
        # Parent pointers index the full dump; remap them to the kept
        # list (a parent outside the window makes the span a root).
        position = {id(span): i for i, span in enumerate(keep)}
        remapped = []
        for span in keep:
            parent = span[3]
            parent_pos = (position.get(id(spans[parent]), -1)
                          if parent >= 0 else -1)
            remapped.append([span[0], span[1], span[2], parent_pos])
        return cls(names=payload["names"], spans=remapped)

    def _ancestor_named(self, span: List[Any], name_index: int) -> bool:
        parent = span[3]
        while parent >= 0:
            above = self.spans[parent]
            if above[0] == name_index:
                return True
            parent = above[3]
        return False

    def busy(self, name: str) -> Tuple[float, int]:
        """(seconds, calls) of ``name``, counting nested calls of the
        same layer once."""
        if name not in self.names:
            return 0.0, 0
        index = self.names.index(name)
        total, calls = 0.0, 0
        for span in self.spans:
            if span[0] == index:
                calls += 1
                if not self._ancestor_named(span, index):
                    total += span[2] - span[1]
        return total, calls

    def child_time(self, name: str, child: str) -> float:
        """Seconds spent in direct ``child`` calls of ``name`` spans."""
        if name not in self.names or child not in self.names:
            return 0.0
        parent_index = self.names.index(name)
        child_index = self.names.index(child)
        return sum(span[2] - span[1] for span in self.spans
                   if span[0] == child_index and span[3] >= 0
                   and self.spans[span[3]][0] == parent_index)

    def covered(self, intervals: Sequence[Tuple[float, float]]) -> float:
        """Seconds of ``intervals`` during which any span was open."""
        busy = merge_intervals((span[1], span[2]) for span in self.spans)
        total = 0.0
        j = 0
        for start, end in merge_intervals(intervals):
            while j < len(busy) and busy[j][1] <= start:
                j += 1
            k = j
            while k < len(busy) and busy[k][0] < end:
                total += min(end, busy[k][1]) - max(start, busy[k][0])
                k += 1
        return total


def merge_intervals(intervals: Iterable[Tuple[float, float]]
                    ) -> List[Tuple[float, float]]:
    """Sorted, disjoint union of ``(start, end)`` intervals."""
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


#: Per-layer ``_ms`` metrics: (metric, span, child spans subtracted, name
#: of the call count).  Busy time counts nested calls of one layer once.
BUSY_METRICS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("proto.pprof_decode_ms", "proto.pprof_decode", (),
     "proto.pprof_decode_calls"),
    ("proto.easyview_codec_ms", "proto.easyview_codec", (),
     "proto.easyview_codec_calls"),
    ("converters.cct_build_ms", "converters.pprof_parse",
     ("proto.pprof_decode",), "converters.cct_build_calls"),
    ("core.digest_ms", "core.digest", (), "core.digest_calls"),
    ("core.serialize_ms", "core.serialize", ("proto.easyview_codec",),
     "core.serialize_calls"),
    ("analysis.inclusive_ms", "analysis.inclusive", (),
     "analysis.inclusive_calls"),
    ("analysis.transform_ms", "analysis.transform", (),
     "analysis.transform_calls"),
    ("analysis.materialize_ms", "analysis.materialize", (),
     "analysis.materialize_count"),
    ("analysis.search_ms", "analysis.search", (), "analysis.search_calls"),
    ("analysis.diff_ms", "analysis.diff", (), "analysis.diff_calls"),
    ("analysis.summarize_ms", "analysis.summarize", (),
     "analysis.summarize_calls"),
    ("analysis.aggregate_ms", "analysis.aggregate", (),
     "analysis.aggregate_calls"),
    ("viz.open_layout_ms", "viz.open_layout", (), "viz.open_layout_calls"),
    ("viz.layout_ms", "viz.layout", (), "viz.layout_calls"),
    ("ide.attribution_ms", "ide.attribution", (), "ide.attribution_calls"),
    ("ide.hover_ms", "ide.hover", (), "ide.hover_calls"),
    ("ide.summary_ms", "ide.summary", (), "ide.summary_calls"),
    ("ide.json_ms", "ide.json", (), "ide.json_calls"),
    ("serve.exec_ms", "serve.exec", (), "serve.exec_calls"),
    ("lint.profile_ms", "lint.profile", (), "lint.profile_calls"),
    ("store.wal_append_ms", "store.wal_append", (), "store.fsyncs"),
    ("store.flush_ms", "store.flush", (), "store.flushes"),
    ("store.load_ms", "store.load", (), "store.load_calls"),
    ("continuous.upload_server_ms", "continuous.upload_server", (),
     "continuous.upload_server_calls"),
    ("continuous.tick_compare_ms", "continuous.tick",
     ("store.query_window",), "continuous.tick_calls"),
)

#: Ratios, counts and times that are not one span's busy time.
DERIVED_METRICS: Tuple[Tuple[str, str], ...] = (
    ("engine.hit_ratio", "ratio"),
    ("engine.key_share", "ratio"),
    ("lint.calls_per_upload", "ratio"),
    ("store.loads_per_tick", "ratio"),
    ("store.window_hit_ratio", "ratio"),
    ("continuous.duplicate_share", "ratio"),
    ("unattributed_share", "ratio"),
    ("trace_overhead_share", "ratio"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(table: SpanTable, ops: Sequence[Tuple[float, float]],
                  facts: Dict[str, float],
                  overhead: float) -> Dict[str, Tuple[float, str]]:
    """All per-layer metrics of one traced run.

    ``ops`` are the timed operations' (start, end) as the client saw
    them; ``facts`` carries what only the workload knows (counts of
    uploads and ticks, engine cache statistics); ``overhead`` is the
    traced run's scaled server CPU time over the untraced run's, minus
    one.
    """
    out: Dict[str, Tuple[float, str]] = {}
    busy: Dict[str, float] = {}
    for metric, span, minus, count in BUSY_METRICS:
        seconds, calls = table.busy(span)
        for child in minus:
            seconds -= table.child_time(span, child)
        busy[metric] = max(0.0, seconds) * 1e3
        out[metric] = (busy[metric], "ms")
        out[count] = (float(calls), "count")
    memoized, _ = table.busy("engine.memoized")
    fresh = facts.get("fresh_uploads", 0.0)
    wall = sum(end - start for start, end in merge_intervals(ops))
    derived = {
        "engine.hit_ratio": facts.get("engine_hit_ratio", 0.0),
        "engine.key_share": _ratio(busy["core.digest_ms"], memoized * 1e3),
        "lint.calls_per_upload": _ratio(out["lint.profile_calls"][0], fresh),
        "store.loads_per_tick": _ratio(out["store.load_calls"][0],
                                       facts.get("ticks", 0.0)),
        "store.window_hit_ratio": facts.get("window_hit_ratio", 0.0),
        "continuous.duplicate_share": facts.get("duplicate_share", 0.0),
        "unattributed_share": 1.0 - _ratio(table.covered(ops), wall),
        "trace_overhead_share": overhead,
    }
    for name, unit in DERIVED_METRICS:
        out[name] = (derived[name], unit)
    return out
