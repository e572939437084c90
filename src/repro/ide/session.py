"""The viewer session: EasyView's extension core.

A :class:`ViewerSession` owns the loaded profiles and their views, serves
``view/*`` requests, and emits ``ide/*`` actions through a transport
callable (the mock IDE, the stdio server, or a test harness).  It is also
the measured object of Fig. 5: :meth:`open` runs the full EasyView open
pipeline — parse, build the CCT, transform, lay out — and records the
end-to-end response time.

Requests run on the views' columnar rows (:mod:`repro.analysis.viewrows`):
no request builds the ``ViewNode`` facade or the object CCT, and a node
reference on the wire is a handle to a (view, row) pair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis import formula as formula_mod
from ..analysis import query as query_mod
from ..analysis import viewrows
from ..analysis.viewtree import ViewNode, ViewTree
from ..core.profile import Profile
from ..engine import AnalysisEngine, get_engine
from ..errors import EasyViewError, FormulaError, ProtocolError
from ..viz.histogram import sparkline, trend_label
from ..viz.layout import FlameLayout
from .actions import Capabilities, CodeLink, FloatingWindow, Hover
from .annotations import (build_decorations, build_hover,
                          build_floating_window)
from . import protocol as pvp

ActionSink = Callable[[str, Dict[str, Any]], None]

SHAPES = ("top_down", "bottom_up", "flat")


@dataclass
class OpenStats:
    """Timing breakdown of one profile open (the Fig. 5 measurement)."""

    parse_seconds: float = 0.0
    analyze_seconds: float = 0.0
    render_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.parse_seconds + self.analyze_seconds + self.render_seconds


class OpenedProfile:
    """One loaded profile, its pinned views, and its node handles."""

    def __init__(self, profile_id: int, profile: Profile) -> None:
        self.id = profile_id
        self.profile = profile
        self.views: Dict[str, ViewTree] = {}
        self.layouts: Dict[str, FlameLayout] = {}   # "shape:metric" keys
        self.tables: Dict[str, object] = {}   # shape -> TreeTable
        self.stats = OpenStats()
        self._refs: Dict[Tuple[str, int], int] = {}
        self._handles: List[Tuple[str, int]] = []

    def node_ref(self, shape: str, row: int) -> int:
        """The wire handle of row ``row`` of the ``shape`` view: integers
        are minted in first-seen order.  A derive changes no rows, so
        handles stay valid across it."""
        key = (shape, int(row))
        ref = self._refs.get(key)
        if ref is None:
            ref = len(self._handles)
            self._handles.append(key)
            self._refs[key] = ref
        return ref

    def handle(self, ref: int) -> Tuple[str, int]:
        """The (shape, row) a wire handle names."""
        if not 0 <= ref < len(self._handles):
            raise ProtocolError("unknown node reference %d" % ref)
        return self._handles[ref]


class ViewerSession:
    """The EasyView viewer: profiles in, views and IDE actions out."""

    def __init__(self, sink: Optional[ActionSink] = None,
                 capabilities: Optional[Capabilities] = None,
                 canvas_width: float = 1200.0,
                 engine: Optional[AnalysisEngine] = None,
                 session_id: str = "local") -> None:
        self._sink = sink or (lambda method, params: None)
        #: Which client this session belongs to ("stdio" for the stdio
        #: transport, "c<N>" for socket connections).  Slow-request log
        #: lines and the ``obs/trace`` payload carry it, so a trace in a
        #: multi-client server is attributable to its session.
        self.session_id = session_id
        self.capabilities = capabilities or Capabilities.full()
        self.canvas_width = canvas_width
        #: All view/hover/code-lens computation routes through the engine;
        #: by default sessions share the process-wide instance, so equal
        #: profiles opened by different sessions share cached work.
        self.engine = engine if engine is not None else get_engine()
        self._profiles: Dict[int, OpenedProfile] = {}
        self._next_id = 1
        #: Profile stores opened through store/* requests, keyed by their
        #: (absolute) root directory so repeated requests share one store.
        self._stores: Dict[str, Any] = {}

    # -- lifecycle -------------------------------------------------------------

    def open(self, source, format: Optional[str] = None,
             shape: str = "top_down") -> OpenedProfile:
        """Open a profile (path or :class:`Profile`) and build its first view.

        This is the measured "response time" operation: parsing, tree
        construction, the first view, and its flame-graph layout all
        happen here, timed per phase.  The layout is the one
        ``view/switchShape`` serves for the shape.
        """
        from ..core.gcguard import no_gc
        stats = OpenStats()
        with no_gc():  # §V-C: no cyclic GC during bulk tree construction
            t0 = time.perf_counter()
            if isinstance(source, Profile):
                profile = source
            else:
                from ..converters import open_profile
                profile = open_profile(source, format=format)
            t1 = time.perf_counter()
            stats.parse_seconds = t1 - t0

            opened = OpenedProfile(self._next_id, profile)
            self._next_id += 1
            self._view(opened, shape)
            t2 = time.perf_counter()
            stats.analyze_seconds = t2 - t1

            self._flame_layout(opened, shape)
            t3 = time.perf_counter()
            stats.render_seconds = t3 - t2
        opened.stats = stats
        self._profiles[opened.id] = opened
        return opened

    def close(self, profile_id: int) -> None:
        """Drop a profile and its cached views."""
        self._profiles.pop(profile_id, None)

    def get(self, profile_id: int) -> OpenedProfile:
        try:
            return self._profiles[profile_id]
        except KeyError:
            raise ProtocolError("no open profile with id %d"
                                % profile_id) from None

    # -- views -------------------------------------------------------------------

    def view(self, profile_id: int, shape: str) -> ViewTree:
        """The (cached) view of one shape for an open profile.

        ``opened.views`` pins the tree object so node handles stay valid
        for the profile's lifetime even if the engine's LRU evicts the
        entry; the engine supplies (and memoizes) the computation.
        """
        return self._view(self.get(profile_id), shape)

    def _view(self, opened: OpenedProfile, shape: str) -> ViewTree:
        if shape not in opened.views:
            opened.views[shape] = self.engine.transform(opened.profile,
                                                        shape)
        return opened.views[shape]

    def tree_table(self, profile_id: int, shape: str):
        """The (cached) tree table for one shape (§VI-A(c))."""
        opened = self.get(profile_id)
        if shape not in opened.tables:
            from ..viz.treetable import TreeTable
            opened.tables[shape] = TreeTable(self.view(profile_id, shape))
        return opened.tables[shape]

    def flame_layout(self, profile_id: int, shape: str,
                     metric: str = "") -> FlameLayout:
        """The (cached) flame-graph layout for one shape."""
        return self._flame_layout(self.get(profile_id), shape, metric)

    def _flame_layout(self, opened: OpenedProfile, shape: str,
                      metric: str = "") -> FlameLayout:
        tree = self._view(opened, shape)
        key = "%s:%s" % (shape, metric)
        if key not in opened.layouts:
            metric_index = tree.schema.index_of(metric) if metric else 0
            opened.layouts[key] = self.engine.layout(
                tree, metric_index=metric_index,
                canvas_width=self.canvas_width)
        return opened.layouts[key]

    def _row(self, opened: OpenedProfile, ref: int
             ) -> Tuple[ViewTree, int]:
        """The pinned view and row a node handle names."""
        shape, row = opened.handle(ref)
        return opened.views[shape], row

    # -- the mandatory action -----------------------------------------------------

    def select(self, profile_id: int, target: Union[int, ViewNode],
               shape: str = "top_down") -> Optional[CodeLink]:
        """Code link: clicking a frame opens its source location (§VI-B).

        ``target`` is a node handle, or a facade node of the ``shape``
        view.  Emits ``ide/openDocument`` when the frame has line mapping;
        returns the link (or None when no mapping is available).
        """
        if isinstance(target, ViewNode):
            tree = self.view(profile_id, shape)
            row = tree.columnar().facade().index(target)
        else:
            tree, row = self._row(self.get(profile_id), target)
        cvt = tree.columnar()
        merged = viewrows.row_frame(cvt, row)
        # Prefer the original context's exact line over the merged frame.
        best = viewrows.best_source_frame(cvt, row)
        frame = best if best is not None and best.file else merged
        if not frame.file or frame.line <= 0:
            return None
        link = CodeLink(file=frame.file, line=frame.line,
                        context=merged.label())
        self._emit(pvp.IDE_OPEN_DOCUMENT, link.to_params())
        return link

    # -- optional actions -----------------------------------------------------------

    def show_hover(self, profile_id: int, shape: str, file: str,
                   line: int) -> Optional[Hover]:
        """Emit the hover for a source line: metrics plus the optimization
        tips the tip engine derived from the domain analyses (§VI-B)."""
        if not self.capabilities.hover:
            return None
        opened = self.get(profile_id)
        tips = self._tip_engine().tips_for(opened.profile, file, line)
        tree = self.view(profile_id, shape)
        hover = build_hover(tree, file, line, tips=tips,
                            attribution=self.engine.line_attribution(tree))
        if hover is not None:
            self._emit(pvp.IDE_HOVER, hover.to_params())
        return hover

    def _tip_engine(self):
        if not hasattr(self, "_tips"):
            from .tips import TipEngine
            self._tips = TipEngine()
        return self._tips

    def show_code_lenses(self, profile_id: int, shape: str,
                         file: Optional[str] = None) -> int:
        """Emit code lenses for a document; returns how many were sent.

        With no ``file``, lenses for every attributed document are built as
        one batch through the engine's worker pool (the whole-workspace
        refresh an IDE triggers after opening a profile).
        """
        if not self.capabilities.code_lens:
            return 0
        tree = self.view(profile_id, shape)
        if file is None:
            per_file = self.engine.code_lenses_batch(
                tree, self.engine.annotated_files(tree))
            lenses = [lens for path in sorted(per_file)
                      for lens in per_file[path]]
        else:
            lenses = self.engine.code_lenses(tree, file=file)
        for lens in lenses:
            self._emit(pvp.IDE_CODE_LENS, lens.to_params())
        return len(lenses)

    def show_summary(self, profile_id: int,
                     shape: str = "top_down") -> FloatingWindow:
        """Emit the whole-profile floating window."""
        window = build_floating_window(self.view(profile_id, shape))
        if self.capabilities.floating_window:
            self._emit(pvp.IDE_FLOATING_WINDOW, window.to_params())
        return window

    def show_decorations(self, profile_id: int, shape: str,
                         file: Optional[str] = None) -> int:
        """Emit color-semantics decorations; returns how many were sent."""
        if not self.capabilities.decorations:
            return 0
        tree = self.view(profile_id, shape)
        decorations = build_decorations(
            tree, file=file,
            attribution=self.engine.line_attribution(tree))
        for decoration in decorations:
            self._emit(pvp.IDE_SET_DECORATIONS, decoration.to_params())
        return len(decorations)

    def derive_metric(self, profile_id: int, shape: str, name: str,
                      formula: str, unit: str = "") -> int:
        """Add a derived metric column to this session's view of a shape.

        The column goes into a tree the session owns: a copy of the
        pinned view sharing its arrays (never its facade), keyed
        H(view key, "derive", ...).  The engine's cached view, which other
        sessions may pin, keeps its schema, arrays and key.  Rows do not
        change, so node handles stay valid.  Returns the column index.
        """
        opened = self.get(profile_id)
        shared = self.view(profile_id, shape)
        own = shared.fork()
        index = formula_mod.derive(own, name, formula, unit=unit)
        for key, tree in list(opened.views.items()):
            if tree is shared:
                opened.views[key] = own
        for table in opened.tables.values():
            if table.tree is shared:
                table.tree = own
        return index

    # -- diagnostics ---------------------------------------------------------------

    def lint(self, profile_id: Optional[int] = None,
             formula: Optional[str] = None,
             callback_source: Optional[str] = None,
             disable: Sequence[str] = ()) -> List[Any]:
        """Run ProfLint and publish the findings to the IDE.

        Lints any combination of: an open profile's structure, a formula
        (checked against that profile's metric names when one is given),
        and callback source text.  The findings go out as one
        ``ide/publishDiagnostics`` notification — the IDE side renders them
        as squiggles — and are also returned to the caller.
        """
        from ..lint import (LintConfig, lint_formula, lint_profile,
                            lint_source, severity_counts, sort_diagnostics)
        config = LintConfig.from_directives(disable)
        diagnostics = []
        metrics = None
        if profile_id is not None:
            opened = self.get(profile_id)
            diagnostics.extend(lint_profile(opened.profile, config=config))
            metrics = opened.profile.schema.names()
        if formula:
            diagnostics.extend(lint_formula(
                formula, metrics=metrics,
                profile_count=max(1, len(self._profiles)), config=config))
        if callback_source:
            diagnostics.extend(lint_source(callback_source, config=config))
        diagnostics = sort_diagnostics(diagnostics)
        self._emit(pvp.IDE_PUBLISH_DIAGNOSTICS, {
            "diagnostics": [d.to_dict() for d in diagnostics],
            "counts": severity_counts(diagnostics),
        })
        return diagnostics

    def selfcheck(self, source: Optional[str] = None,
                  subject: str = "<buffer>",
                  paths: Sequence[str] = (),
                  disable: Sequence[str] = ()) -> List[Any]:
        """Run SelfCheck (EV4xx) and publish findings as IDE squiggles.

        The IDE sends either the text of an open repo-source buffer
        (``source`` + ``subject``) — the usual on-save flow — or a list
        of ``paths`` to sweep.  Findings go out as the same
        ``ide/publishDiagnostics`` notification :meth:`lint` uses, so the
        editor renders concurrency findings on EasyView's own code
        exactly as it renders formula findings on a user's.
        """
        from ..lint import (LintConfig, severity_counts, sort_diagnostics)
        from ..sa import analyze_paths, analyze_source
        config = LintConfig.from_directives(disable)
        diagnostics: List[Any] = []
        if source is not None:
            diagnostics.extend(analyze_source(source, subject,
                                              config=config))
        if paths:
            diagnostics.extend(analyze_paths(list(paths), config=config))
        diagnostics = sort_diagnostics(diagnostics)
        self._emit(pvp.IDE_PUBLISH_DIAGNOSTICS, {
            "diagnostics": [d.to_dict() for d in diagnostics],
            "counts": severity_counts(diagnostics),
        })
        return diagnostics

    # -- export --------------------------------------------------------------------

    def export(self, profile_id: int, format: str,
               shape: str = "top_down", metric: str = "") -> str:
        """Render an open profile to a portable text format.

        Supported formats: ``svg`` (flame graph), ``html`` (full report),
        ``folded`` (collapsed stacks), ``json`` (EasyView JSON), ``text``
        (terminal flame rows).
        """
        opened = self.get(profile_id)
        if format == "folded":
            from ..converters.collapsed import serialize
            return serialize(opened.profile, metric=metric)
        if format == "json":
            from ..core import jsonio
            return jsonio.dumps(opened.profile)
        tree = self.view(profile_id, shape)
        metric_index = tree.schema.index_of(metric) if metric else 0
        if format == "svg":
            from ..viz.svg import render_svg
            return render_svg(self.engine.layout(
                tree, metric_index=metric_index,
                canvas_width=self.canvas_width),
                              metric=tree.schema[metric_index],
                              inverted=True)
        if format == "text":
            from ..viz.terminal import render_flame_text
            return render_flame_text(self.engine.layout(
                tree, metric_index=metric_index))
        if format == "html":
            from ..viz.flamegraph import FlameGraph
            from ..viz.html import HtmlReport
            report = HtmlReport("EasyView export")
            graph = FlameGraph(tree)
            graph.metric_index = metric_index
            report.add_flamegraph(graph)
            return report.render()
        raise ProtocolError("unknown export format %r (svg, html, folded, "
                            "json, text)" % format)

    # -- multi-profile operations ------------------------------------------------

    def open_diff(self, baseline_id: int, treatment_id: int,
                  shape: str = "top_down") -> OpenedProfile:
        """Open a differential view of two loaded profiles as a new entry."""
        base = self.view(baseline_id, shape)
        treat = self.view(treatment_id, shape)
        diff_tree = self.engine.diff_trees(base, treat)
        opened = OpenedProfile(self._next_id, self.get(treatment_id).profile)
        self._next_id += 1
        opened.views[shape] = diff_tree
        self._flame_layout(opened, shape)
        self._profiles[opened.id] = opened
        return opened

    def open_aggregate(self, profile_ids: Sequence[int],
                       shape: str = "top_down") -> OpenedProfile:
        """Open an aggregate view over several loaded profiles."""
        trees = [self.view(pid, shape) for pid in profile_ids]
        merged = self.engine.merge_trees(trees)
        opened = OpenedProfile(self._next_id,
                               self.get(profile_ids[0]).profile)
        self._next_id += 1
        opened.views[shape] = merged
        self._flame_layout(opened, shape)
        self._profiles[opened.id] = opened
        return opened

    # -- the profile store ---------------------------------------------------------

    def store(self, root: str):
        """The :class:`~repro.store.ProfileStore` at ``root`` (cached).

        Every ``store/*`` request names its store directory; the session
        keeps one live instance per directory, all sharing the session's
        engine so query results land in the same cache as
        file-backed views.
        """
        import os
        key = os.path.abspath(root)
        store = self._stores.get(key)
        if store is None:
            from ..store import ProfileStore
            store = ProfileStore(key, engine=self.engine)
            self._stores[key] = store
        return store

    def open_query(self, root: str, query: str,
                   shape: str = "top_down") -> OpenedProfile:
        """Open a store query result exactly like a file-backed profile.

        The merged tree becomes a regular :class:`OpenedProfile`: it gets
        a profile id, node references, layouts, exports — every ``view/*``
        request works on it unchanged.
        """
        result = self.store(root).query(query, shape=shape)
        if result.tree is None:
            raise ProtocolError("query %r matched no records"
                                % result.query.to_text())
        opened = OpenedProfile(self._next_id,
                               self.store(root).load(result.entries[0]))
        self._next_id += 1
        opened.views[result.tree.shape] = result.tree
        # Views index by the *requested* shape too, so view/switchShape and
        # friends resolve it the same way they resolve file-backed views.
        opened.views[shape] = result.tree
        self._flame_layout(opened, shape)
        self._profiles[opened.id] = opened
        return opened

    # -- self-observability ----------------------------------------------------------

    def obs_metrics(self) -> Dict[str, Any]:
        """The ``obs/metrics`` payload: registry + engine + tracer state.

        Supersedes and generalizes ``view/engineStats`` (still served for
        older clients): the engine's cache counters appear here as the
        ``engine`` tenant next to every other instrumented subsystem.
        """
        from .. import obs
        tracer = obs.get_tracer()
        return {
            "metrics": obs.get_registry().snapshot(),
            "engine": self.engine.stats(),
            "tracer": {
                "enabled": tracer.enabled,
                "capacity": tracer.capacity,
                "sampleEvery": tracer.sample_every,
                "spans": len(tracer),
            },
        }

    def obs_trace(self, limit: Optional[int] = None,
                  clear: bool = False) -> Dict[str, Any]:
        """The ``obs/trace`` payload: the span ring as plain data.

        ``limit`` keeps only the newest N spans; ``clear`` empties the
        ring after the snapshot (so a client can poll without re-reading
        old spans).
        """
        from .. import obs
        tracer = obs.get_tracer()
        spans = tracer.spans()
        if limit is not None and limit >= 0:
            spans = spans[-limit:] if limit else []
        if clear:
            tracer.clear()
        return {"enabled": tracer.enabled,
                "sessionId": self.session_id,
                "spans": [span.to_dict() for span in spans]}

    # -- protocol dispatch -----------------------------------------------------------

    def handle(self, request: pvp.Request) -> pvp.Response:
        """Dispatch one ``view/*`` request to the session."""
        try:
            result = self._dispatch(request)
            return pvp.Response.success(request.id, result)
        except (ProtocolError, FormulaError) as exc:
            return pvp.Response.failure(request.id, pvp.INVALID_PARAMS,
                                        str(exc))
        except (TypeError, ValueError, KeyError, AttributeError) as exc:
            # Malformed parameter types (a string profileId, a null list,
            # a boolean where text belongs): the editor gets a parameter
            # error, never a dead session.
            return pvp.Response.failure(
                request.id, pvp.INVALID_PARAMS,
                "malformed parameters for %s: %s" % (request.method, exc))
        except (EasyViewError, OSError) as exc:
            return pvp.Response.failure(request.id, pvp.INTERNAL_ERROR,
                                        str(exc))

    def _dispatch(self, request: pvp.Request) -> Any:
        method = request.method
        params = request.params
        if method == pvp.VIEW_CAPABILITIES:
            self.capabilities = Capabilities.from_dict(
                params.get("capabilities", {}))
            return {"shapes": list(SHAPES),
                    "capabilities": self.capabilities.to_dict()}
        if method == pvp.VIEW_OPEN:
            pvp.require_params(request, "path")
            if not isinstance(params["path"], str):
                raise ProtocolError("path must be a string")
            opened = self.open(params["path"], format=params.get("format"))
            return {"profileId": opened.id,
                    "summary": opened.profile.summary(),
                    "responseSeconds": opened.stats.total_seconds}
        if method == pvp.VIEW_CLOSE:
            pvp.require_params(request, "profileId")
            self.close(int(params["profileId"]))
            return {"closed": True}
        if method == pvp.VIEW_SHAPE:
            pvp.require_params(request, "profileId", "shape")
            shape = params["shape"]
            if shape not in SHAPES:
                raise ProtocolError("unknown shape %r" % shape)
            flame = self.flame_layout(int(params["profileId"]), shape,
                                      params.get("metric", ""))
            return {"shape": shape, "blocks": flame.laid_out_nodes,
                    "depth": flame.max_depth}
        if method == pvp.VIEW_SELECT or method == pvp.VIEW_CLICK:
            pvp.require_params(request, "profileId", "nodeRef")
            opened = self.get(int(params["profileId"]))
            ref = int(params["nodeRef"])
            tree, row = self._row(opened, ref)
            link = self.select(opened.id, ref)
            cvt = tree.columnar()
            schema = tree.schema  # the handle's own view, derived columns too
            result: Dict[str, Any] = {
                "linked": link is not None,
                "metrics": {schema[i].name: v
                            for i, v in viewrows.row_metrics(cvt, row)
                            if i < len(schema)},
            }
            first = viewrows.row_histogram(cvt, row)
            if method == pvp.VIEW_CLICK and first:
                # A click additionally pops the per-profile histogram pane.
                result["histogram"] = {"series": first,
                                       "sparkline": sparkline(first),
                                       "trend": trend_label(first)}
            return result
        if method == pvp.VIEW_SEARCH:
            pvp.require_params(request, "profileId", "pattern")
            opened = self.get(int(params["profileId"]))
            shape = params.get("shape", "top_down")
            tree = self.view(opened.id, shape)
            matches = query_mod.search(tree, params["pattern"],
                                       regex=bool(params.get("regex")))
            coverage = query_mod.match_fraction(tree, matches)
            return {"matches": [opened.node_ref(shape, row)
                                for row in matches.rows.tolist()],
                    "coverage": coverage}
        if method == pvp.VIEW_HOVER:
            pvp.require_params(request, "profileId", "file", "line")
            hover = self.show_hover(int(params["profileId"]),
                                    params.get("shape", "top_down"),
                                    params["file"], int(params["line"]))
            return {"found": hover is not None,
                    "lines": hover.lines if hover else []}
        if method == pvp.VIEW_ZOOM:
            pvp.require_params(request, "profileId", "nodeRef")
            opened = self.get(int(params["profileId"]))
            tree, row = self._row(opened, int(params["nodeRef"]))
            zoomed = self.engine.layout(tree, root=row,
                                        canvas_width=self.canvas_width)
            return {"blocks": zoomed.laid_out_nodes, "depth": zoomed.max_depth}
        if method == pvp.VIEW_SUMMARY:
            pvp.require_params(request, "profileId")
            window = self.show_summary(int(params["profileId"]))
            return {"title": window.title, "body": window.body}
        if method == pvp.VIEW_DIFF:
            pvp.require_params(request, "baselineId", "treatmentId")
            opened = self.open_diff(int(params["baselineId"]),
                                    int(params["treatmentId"]),
                                    params.get("shape", "top_down"))
            from ..analysis.diff import summarize
            return {"profileId": opened.id,
                    "tags": summarize(next(iter(opened.views.values())))}
        if method == pvp.VIEW_AGGREGATE:
            pvp.require_params(request, "profileIds")
            opened = self.open_aggregate(
                [int(pid) for pid in params["profileIds"]],
                params.get("shape", "top_down"))
            return {"profileId": opened.id}
        if method in (pvp.VIEW_TABLE, pvp.VIEW_TABLE_EXPAND):
            pvp.require_params(request, "profileId")
            opened = self.get(int(params["profileId"]))
            shape = params.get("shape", "top_down")
            table = self.tree_table(opened.id, shape)
            if method == pvp.VIEW_TABLE_EXPAND:
                if "nodeRef" in params:
                    tree, row = self._row(opened, int(params["nodeRef"]))
                    if tree is table.tree:  # a row of another view folds nothing
                        table.expand(row)
                elif params.get("hotPath"):
                    table.expand_hot_path()
                else:
                    table.expand_all(max_depth=params.get("maxDepth"))
            rows = table.rows()[:int(params.get("maxRows", 100))]
            return {"rows": [{
                "ref": opened.node_ref(shape, row.row),
                "depth": row.depth,
                "label": row.label(),
                "expanded": row.expanded,
                "values": row.values,
            } for row in rows],
                "columns": [table.tree.schema[c].name
                            for c in table.columns]}
        if method == pvp.VIEW_EXPORT:
            pvp.require_params(request, "profileId", "format")
            return {"content": self.export(int(params["profileId"]),
                                           params["format"],
                                           params.get("shape", "top_down"),
                                           params.get("metric", ""))}
        if method == pvp.VIEW_LINT:
            profile_id = params.get("profileId")
            diagnostics = self.lint(
                profile_id=int(profile_id) if profile_id is not None
                else None,
                formula=params.get("formula"),
                callback_source=params.get("callbackSource"),
                disable=params.get("disable", ()))
            from ..lint import severity_counts
            return {"diagnostics": [d.to_dict() for d in diagnostics],
                    "counts": severity_counts(diagnostics)}
        if method == pvp.VIEW_SELFCHECK:
            diagnostics = self.selfcheck(
                source=params.get("source"),
                subject=params.get("subject", "<buffer>"),
                paths=params.get("paths", ()),
                disable=params.get("disable", ()))
            from ..lint import severity_counts
            return {"diagnostics": [d.to_dict() for d in diagnostics],
                    "counts": severity_counts(diagnostics)}
        if method == pvp.VIEW_DERIVE:
            pvp.require_params(request, "profileId", "name", "formula")
            index = self.derive_metric(int(params["profileId"]),
                                       params.get("shape", "top_down"),
                                       params["name"], params["formula"],
                                       unit=params.get("unit", ""))
            return {"metricIndex": index}
        if method == pvp.VIEW_ENGINE_STATS:
            return self.engine.stats()
        if method == pvp.OBS_METRICS:
            return self.obs_metrics()
        if method == pvp.OBS_TRACE:
            limit = params.get("limit")
            return self.obs_trace(
                limit=int(limit) if limit is not None else None,
                clear=bool(params.get("clear", False)))
        if method == pvp.STORE_INGEST:
            pvp.require_params(request, "store", "path")
            if not isinstance(params["path"], str):
                raise ProtocolError("path must be a string")
            result = self.store(params["store"]).ingest(
                params["path"],
                service=str(params.get("service", "")),
                ptype=str(params.get("type", "cpu")),
                labels={str(k): str(v)
                        for k, v in (params.get("labels") or {}).items()},
                format=params.get("format"))
            return {"seq": result.entry.seq,
                    "timeNanos": result.entry.time_nanos,
                    "assignedTime": result.assigned_time,
                    "diagnostics": [d.to_dict()
                                    for d in result.diagnostics]}
        if method == pvp.STORE_QUERY:
            pvp.require_params(request, "store", "query")
            store = self.store(params["store"])
            entries = store.select(str(params["query"]))
            return {"count": len(entries),
                    "records": [entry.to_dict() for entry in entries]}
        if method == pvp.VIEW_OPEN_QUERY:
            pvp.require_params(request, "store", "query")
            opened = self.open_query(params["store"], str(params["query"]),
                                     params.get("shape", "top_down"))
            tree = next(iter(opened.views.values()))
            return {"profileId": opened.id,
                    "shape": tree.shape,
                    "metrics": tree.schema.names()}
        if method == pvp.WATCH_REPORT:
            pvp.require_params(request, "store", "query")
            from ..continuous.watch import RegressionWatch
            watch = RegressionWatch(
                self.store(params["store"]),
                query=str(params["query"]),
                window=str(params.get("window", "60s")),
                baseline=(str(params["baseline"])
                          if params.get("baseline") else None),
                metric=params.get("metric"),
                shape=str(params.get("shape", "top_down")),
                min_ratio=float(params.get("minRatio", 1.0)),
                top=int(params.get("top", 20)))
            now = params.get("nowNanos")
            report = watch.tick(
                now_nanos=int(now) if now is not None else None)
            return report.to_dict()
        raise ProtocolError("unknown method %r" % method)

    # -- internals -----------------------------------------------------------------

    def _emit(self, method: str, params: Dict[str, Any]) -> None:
        self._sink(method, params)
