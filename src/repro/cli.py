"""The ``easyview`` command-line interface.

Subcommands mirror the viewer's capabilities for headless use:

* ``open``      — render a profile as a flame graph / outline / summary
* ``convert``   — convert any supported format to EasyView's binary format
* ``diff``      — differential view of two profiles
* ``aggregate`` — aggregate view over several profiles
* ``report``    — write a self-contained HTML report
* ``lint``      — static analysis: formulas, callbacks, profile invariants
* ``selfcheck`` — static concurrency/resource analysis of EasyView's own
  source (EV4xx), gated on the checked-in waiver baseline
* ``formats``   — list supported input formats
* ``engine-stats`` — analysis-engine cache counters (cold vs warm)
* ``serve``     — speak the Profile View Protocol over stdio
* ``obs``       — EasyView's own telemetry: trace a nested command and
  export the spans as metrics, JSONL, a Chrome trace, or an EasyView
  profile (the dogfooding pipeline)
* ``agent``/``collector``/``watch`` — the continuous-profiling loop:
  capture on a cadence, ship over HTTP into a ProfStore, and watch the
  stored stream for regressions
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_open(args: argparse.Namespace) -> int:
    from .converters import open_profile
    from .analysis.transform import transform
    from .viz.flamegraph import FlameGraph
    from .viz.terminal import render_summary, render_tree_text

    profile = open_profile(args.path, format=args.format)
    tree = transform(profile, args.shape)
    graph = FlameGraph(tree, metric=args.metric or "")
    if args.outline:
        print(render_tree_text(tree, metric_index=graph.metric_index))
    else:
        print(graph.to_text(width=args.width, color=args.color))
    print()
    print(render_summary(tree, metric_index=graph.metric_index))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from .converters import open_profile
    from .core.serialize import dump

    profile = open_profile(args.input, format=args.format)
    dump(profile, args.output)
    print("wrote %s (%d contexts, metrics: %s)"
          % (args.output, profile.node_count(),
             ", ".join(profile.schema.names())))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from .converters import open_profile
    from .analysis.diff import summarize
    from .engine import get_engine
    from .viz.terminal import render_tree_text

    baseline = open_profile(args.baseline, format=args.format)
    treatment = open_profile(args.treatment, format=args.format)
    tree = get_engine().diff_profiles(baseline, treatment, shape=args.shape)
    print(render_tree_text(tree))
    print()
    tags = summarize(tree)
    print("difference tags:", " ".join(
        "[%s]=%d" % (tag, count) for tag, count in sorted(tags.items())))
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    from .converters import open_profile
    from .engine import get_engine
    from .viz.terminal import render_tree_text

    profiles = [open_profile(path, format=args.format)
                for path in args.paths]
    tree = get_engine().aggregate_profiles(profiles, shape=args.shape)
    print("aggregated %d profiles; showing %s"
          % (len(profiles), tree.schema[0].name))
    print(render_tree_text(tree))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .converters import open_profile
    from .viz.flamegraph import FlameGraph
    from .viz.html import HtmlReport
    from .viz.treetable import TreeTable

    profile = open_profile(args.path, format=args.format)
    if args.interactive:
        from .viz.webview import save_webview
        save_webview(profile, args.output,
                     title="EasyView — %s" % args.path)
        print("wrote %s (interactive)" % args.output)
        return 0
    report = HtmlReport("EasyView report — %s" % args.path)
    for shape in ("top_down", "bottom_up", "flat"):
        graph = getattr(FlameGraph, shape)(profile)
        report.add_heading("%s flame graph" % shape.replace("_", "-"))
        report.add_flamegraph(graph)
    table = TreeTable(FlameGraph.top_down(profile).tree)
    table.expand_hot_path()
    report.add_heading("tree table (hot path expanded)")
    report.add_table(table)
    report.save(args.output)
    print("wrote %s" % args.output)
    return 0


def _cmd_leak(args: argparse.Namespace) -> int:
    from .converters import open_profile
    from .analysis.leak import detect_leaks
    from .viz.histogram import sparkline

    profile = open_profile(args.path, format=args.format)
    verdicts = detect_leaks(profile, args.metric, threshold=args.threshold,
                            min_peak=args.min_peak)
    if not verdicts:
        print("no snapshot series found (metric %r)" % args.metric)
        return 1
    for verdict in verdicts[:args.top]:
        print("%s %s" % (sparkline(verdict.series), verdict.describe()))
    suspicious = sum(v.suspicious for v in verdicts)
    print("\n%d of %d contexts look like potential leaks"
          % (suspicious, len(verdicts)))
    return 0


def _cmd_reuse(args: argparse.Namespace) -> int:
    from .converters import open_profile
    from .viz.flamegraph import CorrelatedView

    profile = open_profile(args.path, format=args.format)
    view = CorrelatedView(profile)
    allocations = view.allocations()
    if not allocations:
        print("no use/reuse pairs recorded in this profile")
        return 1
    view.select_allocation(allocations[0][0])
    uses = view.uses()
    if uses:
        view.select_use(uses[0][0])
    print(view.render_text(top=args.top))
    print()
    for line in view.guidance(top=args.top):
        print("guidance:", line)
    return 0


def _cmd_inefficiencies(args: argparse.Namespace) -> int:
    from .converters import open_profile
    from .analysis import redundancy, sharing

    profile = open_profile(args.path, format=args.format)
    printed = False
    if profile.points and any(p.kind.name == "REDUNDANCY"
                              for p in profile.points):
        print(redundancy.report(profile, top=args.top))
        printed = True
    contention = sharing.report(profile, top=args.top)
    if "no contention" not in contention:
        if printed:
            print()
        print(contention)
        printed = True
    if not printed:
        print("no multi-context inefficiency points recorded")
        return 1
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .converters import open_profile
    from .builder import validate

    profile = open_profile(args.path, format=args.format)
    report = validate(profile)
    for error in report.errors:
        print("error: %s" % error)
    for warning in report.warnings:
        print("warning: %s" % warning)
    if report.ok:
        print("OK: %d contexts, %d points, metrics: %s"
              % (profile.node_count(), len(profile.points),
                 ", ".join(profile.schema.names())))
        return 0
    return 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import (LintConfig, has_errors, lint_formula, lint_path,
                       lint_source, render_json)
    from .viz.terminal import render_diagnostics

    config = LintConfig.from_directives(args.disable or [])
    diagnostics = []
    for path in args.paths:
        diagnostics.extend(lint_path(path, format=args.format,
                                     config=config))
    metrics = None
    if args.paths and args.formula:
        # Formulas are linted against the union of the linted profiles'
        # schemas, so `--formula` next to a profile checks real metric names.
        from .converters import open_profile
        metrics = set()
        for path in args.paths:
            try:
                metrics.update(open_profile(path,
                                            format=args.format).schema.names())
            except Exception:
                pass  # conversion problems already reported by lint_path
    for formula in args.formula or []:
        diagnostics.extend(lint_formula(formula, metrics=metrics,
                                        profile_count=max(1, len(args.paths)),
                                        config=config))
    for path in args.callback or []:
        with open(path, "r", encoding="utf-8") as handle:
            diagnostics.extend(lint_source(handle.read(), subject=path,
                                           config=config))

    if args.json:
        print(render_json(diagnostics))
    else:
        print(render_diagnostics(diagnostics, color=args.color))
    return 1 if has_errors(diagnostics) else 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    """Run SelfCheck (EV4xx) over repo source and gate on the baseline.

    Exit codes (documented in docs/SELFCHECK.md): 0 — no findings beyond
    the baseline; 1 — new findings (or stale waivers); 2 — the analyzer
    itself failed.  ``main()`` maps stray exceptions to 1, so internal
    errors are caught here to honor the contract.
    """
    try:
        from .core.jsonio import dumps_data
        from .lint import LintConfig
        from .sa import Baseline, run_selfcheck
        from .viz.terminal import render_diagnostics

        config = LintConfig.from_directives(args.disable or [])
        baseline = Baseline.load(args.baseline)
        result = run_selfcheck(args.paths or ["src"],
                               baseline=baseline, config=config)

        if args.update_baseline:
            updated = Baseline.from_findings(result.diagnostics,
                                             previous=baseline)
            updated.save(args.baseline)
            print("selfcheck: wrote %d waiver(s) to %s"
                  % (len(updated), args.baseline))
            return 0

        if args.json:
            print(dumps_data(result.to_dict()))
        else:
            if result.new:
                print(render_diagnostics(result.new, color=args.color))
            for waiver in result.stale:
                print("stale waiver: %s %s: %s"
                      % (waiver.rule, waiver.subject, waiver.message))
            print("selfcheck: %d file(s), %d finding(s): %d new, "
                  "%d waived, %d stale waiver(s)"
                  % (result.files, len(result.diagnostics),
                     len(result.new), len(result.waived),
                     len(result.stale)))
        return 0 if result.clean and not result.stale else 1
    except Exception as exc:
        print("easyview selfcheck: internal error: %s" % exc,
              file=sys.stderr)
        return 2


def _cmd_anonymize(args: argparse.Namespace) -> int:
    from .converters import open_profile
    from .analysis.anonymize import anonymize
    from .core.serialize import dump

    profile = open_profile(args.path, format=args.format)
    scrubbed = anonymize(profile, key=args.key,
                         keep_lines=args.keep_lines,
                         keep_modules=args.keep_module)
    dump(scrubbed, args.output)
    print("wrote %s (%d contexts anonymized; values untouched)"
          % (args.output, scrubbed.node_count()))
    return 0


def _cmd_combine(args: argparse.Namespace) -> int:
    from .converters import open_profile
    from .analysis.combine import combine
    from .core.serialize import dump

    profiles = [open_profile(path, format=args.format)
                for path in args.paths]
    merged = combine(profiles)
    dump(merged, args.output)
    print("wrote %s (tools: %s; metrics: %s)"
          % (args.output, merged.meta.tool,
             ", ".join(merged.schema.names())))
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from .converters import open_profile
    from .analysis.timerange import find_phases, range_profile
    from .viz.terminal import render_summary, render_tree_text
    from .viz.timeline import timeline_text
    from .analysis.transform import top_down

    profile = open_profile(args.path, format=args.format)
    text = timeline_text(profile, args.metric, width=args.width)
    if "no snapshot" in text:
        print(text)
        return 1
    print(text)
    if args.window:
        start, _, end = args.window.partition(":")
        sub = range_profile(profile, int(start), int(end),
                            combine=args.combine)
        print()
        print("window %s..%s (%s):" % (start, end, args.combine))
        print(render_summary(top_down(sub)))
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from .study.simulate import render_table, run_study
    from .study.survey import run_survey

    table = run_study(seed=args.seed)
    print("control-group study (group mean task times):")
    print(render_table(table))
    print()
    print("view-effectiveness survey:")
    print(run_survey(seed=args.seed + 2).render())
    return 0


def _cmd_formats(args: argparse.Namespace) -> int:
    from .converters import base

    for name in base.names():
        converter = base.get(name)
        extensions = " ".join(converter.extensions) or "-"
        print("%-16s %-28s %s"
              % (name, extensions, converter.description))
    return 0


def _format_nanos(nanos: int) -> str:
    import datetime
    if nanos <= 0:
        return "-"
    stamp = datetime.datetime.fromtimestamp(nanos / 1e9,
                                            tz=datetime.timezone.utc)
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def _cmd_store_ingest(args: argparse.Namespace) -> int:
    from .store import ProfileStore

    labels = {}
    for item in args.label or []:
        key, _, value = item.partition("=")
        labels[key] = value
    with ProfileStore(args.store) as store:
        for path in args.paths:
            result = store.ingest(path, service=args.service,
                                  ptype=args.type, labels=labels,
                                  format=args.format)
            note = " (stamped at ingest)" if result.assigned_time else ""
            print("ingested %s as #%d service=%s type=%s time=%s%s"
                  % (path, result.entry.seq, args.service, args.type,
                     _format_nanos(result.entry.time_nanos), note))
            for diag in result.diagnostics:
                print("  %s" % diag.format())
        if not args.no_flush:
            address = store.flush()
            if address:
                print("flushed to segment %s" % address)
    return 0


def _cmd_store_query(args: argparse.Namespace) -> int:
    from .store import ProfileStore
    from .viz.flamegraph import FlameGraph
    from .viz.terminal import render_summary

    with ProfileStore(args.store) as store:
        result = store.query(" ".join(args.query), shape=args.shape)
        if result.tree is None:
            print("no records match %r" % result.query.to_text())
            return 1
        print("merged %d records for %r"
              % (result.count, result.query.to_text() or "<all>"))
        graph = FlameGraph(result.tree)
        print(graph.to_text(width=args.width, color=args.color))
        print()
        print(render_summary(result.tree, metric_index=graph.metric_index))
    return 0


def _cmd_store_ls(args: argparse.Namespace) -> int:
    from .store import ProfileStore

    with ProfileStore(args.store) as store:
        entries = store.select(" ".join(args.query))
        for entry in entries:
            labels = " ".join("%s=%s" % kv
                              for kv in sorted(entry.labels.items()))
            print("#%-5d %-16s %-6s %-20s %-10s %s"
                  % (entry.seq, entry.service or "-", entry.ptype,
                     _format_nanos(entry.time_nanos),
                     (entry.segment or "wal")[:10], labels))
        print("%d records" % len(entries))
    return 0


def _cmd_store_compact(args: argparse.Namespace) -> int:
    from .store import ProfileStore

    with ProfileStore(args.store) as store:
        before = store.stats()["segments"]
        address = store.compact(small_records=args.small_records)
        if address is None:
            print("nothing to compact (%d segments)" % before)
            return 0
        after = store.stats()["segments"]
        print("compacted %d segments into %s (%d live)"
              % (before - after + 1, address, after))
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    from .store import ProfileStore
    from .store.query import parse_age

    max_age = parse_age(args.max_age) if args.max_age else None
    with ProfileStore(args.store) as store:
        report = store.gc(max_age_nanos=max_age,
                          max_total_bytes=args.max_bytes)
        print("removed %d segments, swept %d orphans"
              % (len(report["removedSegments"]),
                 len(report["orphansSwept"])))
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    from .store import ProfileStore

    with ProfileStore(args.store) as store:
        stats = store.stats(verify=not args.no_verify)
        if args.json:
            from .core.jsonio import dumps_data
            print(dumps_data(stats))
            return 0 if stats.get("integrity", {}).get("ok", True) else 1
        print("store %s: %d segments (%d bytes), %d records "
              "(%d in WAL), next seq %d"
              % (stats["root"], stats["segments"], stats["segmentBytes"],
                 stats["records"], stats["walRecords"], stats["nextSeq"]))
        window = stats["timeRange"]
        print("time range: %s .. %s"
              % (_format_nanos(window["startNanos"]),
                 _format_nanos(window["endNanos"])))
        for service, count in sorted(stats["services"].items()):
            print("  %-24s %d records" % (service or "-", count))
        if stats["walRecoveredTornBytes"]:
            print("recovered: truncated %d torn WAL bytes on open"
                  % stats["walRecoveredTornBytes"])
        if "integrity" in stats:
            if stats["integrity"]["ok"]:
                print("integrity: all segment content addresses verify")
            else:
                for problem in stats["integrity"]["problems"]:
                    print("integrity: %s" % problem)
                return 1
    return 0


def _run_nested(argv: List[str]) -> int:
    """Dispatch one nested ``easyview`` command line (for ``obs ...``).

    The nested command runs in-process so its spans land in this
    process's ring; its stdout is redirected to stderr so the export
    payload owns stdout.
    """
    import contextlib

    if argv and argv[0] == "--":
        argv = argv[1:]  # argparse.REMAINDER keeps the separator
    if not argv:
        raise SystemExit("obs: give a nested easyview command to trace, "
                         "e.g. `easyview obs export store query prof`")
    args = build_parser().parse_args(argv)
    with contextlib.redirect_stdout(sys.stderr):
        return args.fn(args)


def _format_span_table(spans) -> str:
    from .obs.export import by_name

    lines = ["%-40s %7s %12s %12s %8s" % ("span", "count", "total ms",
                                          "self ms", "errors")]
    for row in by_name(spans):
        lines.append("%-40s %7d %12.3f %12.3f %8d"
                     % (row["name"], row["count"],
                        row["totalNanos"] / 1e6, row["selfNanos"] / 1e6,
                        row["errors"]))
    return "\n".join(lines)


def _obs_snapshot() -> dict:
    """The ``obs metrics`` payload: registry + span summary + tracer."""
    from . import obs
    from .obs.export import by_name

    tracer = obs.get_tracer()
    spans = tracer.spans()
    return {
        "metrics": obs.get_registry().snapshot(),
        "spans": by_name(spans),
        "tracer": {"enabled": tracer.enabled,
                   "capacity": tracer.capacity,
                   "sampleEvery": tracer.sample_every,
                   "spanCount": len(spans)},
    }


def _cmd_obs_metrics(args: argparse.Namespace) -> int:
    from . import obs
    from .core.jsonio import dumps_data

    if args.command:
        obs.configure(enabled=True)
        _run_nested(args.command)
    fmt = "json" if args.json else args.format
    if fmt == "prom":
        # Prometheus text exposition: what a scraper pointed at a file
        # (or the collector's /metrics endpoint) expects.
        sys.stdout.write(obs.registry_prometheus())
        return 0
    snapshot = _obs_snapshot()
    if fmt == "json":
        print(dumps_data(snapshot))
        return 0
    metrics = snapshot["metrics"]
    for name, value in metrics["counters"].items():
        print("%-40s %d" % (name, value))
    for name, value in metrics["gauges"].items():
        print("%-40s %g" % (name, value))
    for name, hist in metrics["histograms"].items():
        print("%-40s n=%d mean=%.6f max=%s"
              % (name, hist["count"], hist["mean"], hist["max"]))
    if snapshot["spans"]:
        print()
        print(_format_span_table(obs.get_tracer().spans()))
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    """Trace a nested command, then export the span ring.

    ``--format easyview`` emits the spans folded into an EasyView
    profile (JSON form, or native binary when ``-o`` ends in ``.ezvw``)
    that every viewer surface — and ``store ingest`` — accepts:

        easyview obs export --format easyview -o self.ezvw.json \\
            store query prof service=api
        easyview open self.ezvw.json
        easyview store ingest prof self.ezvw.json --service easyview
    """
    from . import obs
    from .obs import export as export_mod

    tracer = obs.configure(enabled=True, capacity=args.capacity,
                           sample_every=args.sample_every)
    rc = _run_nested(args.command)
    spans = tracer.spans()
    if not spans:
        print("easyview obs: the traced command recorded no spans",
              file=sys.stderr)
        return 1
    if args.format == "easyview":
        profile = export_mod.to_profile(spans)
        if args.output and args.output.endswith(".ezvw"):
            from .core.serialize import dump
            dump(profile, args.output)
            print("wrote %s (%d spans as %d contexts)"
                  % (args.output, len(spans), profile.node_count()),
                  file=sys.stderr)
            return rc
        from .core import jsonio
        content = jsonio.dumps(profile)
    elif args.format == "chrome":
        import json as json_mod
        content = json_mod.dumps(export_mod.to_chrome_trace(spans),
                                 indent=2)
    else:  # jsonl
        content = export_mod.to_jsonl(spans)
    if args.output:
        from .core.atomicio import atomic_write_text
        atomic_write_text(args.output, content + "\n")
        print("wrote %s (%d spans)" % (args.output, len(spans)),
              file=sys.stderr)
    else:
        print(content)
    return rc


def _cmd_obs_watch(args: argparse.Namespace) -> int:
    """Run a nested command traced, reporting telemetry as it runs.

    Exit status is the nested command's own, even when the watcher is
    interrupted after the command finished; an interrupt that lands
    while the command is still running reports the conventional 130
    (128 + SIGINT).  Either way the watcher thread is joined before
    this function returns — the final span table is printed once, after
    the last writer to the ring has stopped.
    """
    import threading

    from . import obs

    tracer = obs.configure(enabled=True)
    outcome = {}

    def run() -> None:
        try:
            outcome["rc"] = _run_nested(args.command)
        except SystemExit as exc:  # argparse errors and explicit exits
            code = exc.code
            outcome["rc"] = code if isinstance(code, int) else 1
        except BaseException as exc:  # surfaced after the final report
            outcome["error"] = exc

    worker = threading.Thread(target=run, name="easyview-obs-watch",
                              daemon=True)
    worker.start()
    interrupted = False
    try:
        while worker.is_alive():
            worker.join(args.interval)
            spans = tracer.spans()
            top = None
            if spans:
                from .obs.export import by_name
                top = by_name(spans)[0]
            line = "obs: %d spans" % len(spans)
            if top is not None:
                line += " | top %s x%d %.1f ms" % (
                    top["name"], top["count"], top["totalNanos"] / 1e6)
            print(line, file=sys.stderr)
    except KeyboardInterrupt:
        interrupted = True
        print("obs: interrupted; waiting for the traced command",
              file=sys.stderr)
    # Join even on interrupt: the in-process command cannot be killed,
    # only outwaited (briefly) — a still-running command after the grace
    # period is reported rather than silently abandoned mid-table.  A
    # second Ctrl-C landing in this grace join must not turn into a
    # traceback either.
    try:
        worker.join(timeout=max(args.interval, 1.0))
    except KeyboardInterrupt:
        interrupted = True
    if worker.is_alive():
        print("obs: traced command still running; span table may be "
              "partial", file=sys.stderr)
    print(_format_span_table(tracer.spans()))
    error = outcome.get("error")
    if error is not None:
        raise error
    if "rc" in outcome:
        return int(outcome["rc"])
    return 130 if interrupted else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.port is not None:
        from .serve.server import ServeConfig, run_server

        run_server(ServeConfig(host=args.host, port=args.port,
                               max_pending=args.max_pending,
                               max_session_queue=args.max_session_queue,
                               workers=args.workers))
        return 0
    from .ide.server import StdioServer

    StdioServer().serve_forever()
    return 0


def _parse_labels(pairs: List[str]) -> dict:
    labels = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit("labels are k=v, got %r" % pair)
        labels[key] = value
    return labels


def _cmd_agent_run(args: argparse.Namespace) -> int:
    """Capture on a cadence and ship to a collector (spooling outages)."""
    from .continuous import (CaptureAgent, DiskSpool, MachineSource,
                             RetryPolicy)
    from .continuous.agent import HTTPShipper, SamplerSource

    if args.self_profile:
        # Dogfooding source: sample this very process running a nested
        # easyview command each tick.
        source = SamplerSource(lambda: _run_nested(list(args.self_profile)))
    else:
        source = MachineSource(args.scenario,
                               **_typed_params(args.scenario_arg))
    agent = CaptureAgent(
        source, HTTPShipper(args.collector, timeout=args.timeout),
        service=args.service, host=args.host, ptype=args.type,
        labels=_parse_labels(args.label),
        cadence_seconds=args.cadence,
        spool=DiskSpool(args.spool) if args.spool else None,
        retry=RetryPolicy(max_attempts=args.max_attempts))
    results = []
    try:
        if args.ticks:
            results = agent.run(args.ticks)
        else:
            while True:  # cadence loop until interrupted
                results.append(agent.tick())
                agent.sleep(agent.cadence_seconds)
    except KeyboardInterrupt:
        print("agent: interrupted", file=sys.stderr)
    shipped = sum(1 for r in results if r is not None)
    print("agent: %d tick(s), %d shipped, %d spooled"
          % (len(results), shipped,
             len(agent.spool) if agent.spool else 0), file=sys.stderr)
    return 0 if shipped == len(results) else 1


def _typed_params(pairs: List[str]) -> dict:
    """``k=v`` scenario args with ints/floats/bools recognized."""
    params = {}
    for key, value in _parse_labels(pairs).items():
        if value.lower() in ("true", "false"):
            params[key] = value.lower() == "true"
            continue
        for cast in (int, float):
            try:
                params[key] = cast(value)
                break
            except ValueError:
                continue
        else:
            params[key] = value
    return params


def _cmd_collector(args: argparse.Namespace) -> int:
    """Serve the upload endpoint over one ProfStore until interrupted."""
    import signal
    import threading

    from .continuous import Collector
    from .store import ProfileStore

    store = ProfileStore(args.store)
    collector = Collector(store, host=args.host, port=args.port,
                          max_pending=args.max_pending,
                          max_service_queue=args.max_service_queue,
                          max_body_bytes=args.max_body_bytes)
    collector.start()
    print("collector: listening on %s (store %s)"
          % (collector.url, store.root), file=sys.stderr)
    # Ctrl-C raises KeyboardInterrupt; SIGTERM (what a supervisor — or a
    # CI `kill` against a backgrounded daemon, which starts with SIGINT
    # ignored — sends) must take the same drain-then-flush exit path.
    stopping = threading.Event()
    try:
        signal.signal(signal.SIGTERM, lambda signum, frame: stopping.set())
    except ValueError:  # not the main thread (tests)
        pass
    try:
        while not stopping.wait(1.0):
            pass
        print("collector: draining", file=sys.stderr)
        collector.drain()
    except KeyboardInterrupt:
        print("collector: draining", file=sys.stderr)
        collector.drain()
    finally:
        collector.stop()
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """Windowed regression watch over a stored capture stream."""
    from .continuous.watch import RegressionWatch
    from .store import ProfileStore

    store = ProfileStore(args.store)
    watch = RegressionWatch(
        store, query=" ".join(args.query), window=args.window,
        baseline=args.baseline, metric=args.metric, shape=args.shape,
        min_ratio=args.min_ratio, top=args.top)
    if args.now is not None:
        watch.clock = lambda: args.now
    last = {}

    def report_out(report) -> None:
        last["report"] = report
        if args.json != "-":
            print(report.render())

    try:
        if args.ticks:
            watch.run(args.ticks, interval_seconds=args.interval,
                      on_report=report_out)
        else:
            import time
            while True:  # scheduled mode: tick until interrupted
                report_out(watch.tick())
                if args.interval > 0:
                    time.sleep(args.interval)
    except KeyboardInterrupt:
        print("watch: interrupted", file=sys.stderr)
    report = last.get("report")
    if report is None:
        return 1
    if args.json == "-":
        print(report.to_json())
    elif args.json:
        from .core.atomicio import atomic_write_text
        atomic_write_text(args.json, report.to_json() + "\n")
        print("watch: wrote %s" % args.json, file=sys.stderr)
    if args.fail_on_regression and report.has_regressions:
        return 2
    return 0


def _cmd_engine_stats(args: argparse.Namespace) -> int:
    """Report the shared engine's cache counters.

    With profile paths, first exercises the engine — transform + layout per
    profile, plus a diff of the first two and an aggregate over all of them
    when several are given — twice over, so the report shows the cold
    (miss) and warm (hit) cost side by side.
    """
    import time

    from .engine import get_engine

    engine = get_engine()
    if args.paths:
        from .converters import open_profile

        profiles = [open_profile(path, format=args.format)
                    for path in args.paths]

        def workload() -> None:
            for profile in profiles:
                tree = engine.transform(profile, args.shape)
                engine.layout(tree)
            if len(profiles) >= 2:
                engine.diff_profiles(profiles[0], profiles[1],
                                     shape=args.shape)
                engine.aggregate_profiles(profiles, shape=args.shape)

        t0 = time.perf_counter()
        workload()
        t1 = time.perf_counter()
        workload()
        t2 = time.perf_counter()
        if not args.json:
            print("cold pass: %.1f ms" % ((t1 - t0) * 1e3))
            print("warm pass: %.1f ms" % ((t2 - t1) * 1e3))

    stats = engine.stats()
    if args.json:
        from .core.jsonio import dumps_data
        if args.paths:
            stats["passes"] = {"coldSeconds": t1 - t0,
                               "warmSeconds": t2 - t1}
        print(dumps_data(stats))
        return 0
    print("cache: %d/%d entries, %d hits, %d misses, %d evictions, "
          "%d bypasses (hit rate %.1f%%)"
          % (stats["size"], stats["capacity"], stats["hits"],
             stats["misses"], stats["evictions"], stats["bypasses"],
             100.0 * stats["hitRate"]))
    for operation, counts in stats["operations"].items():
        print("  %-12s %d hits / %d misses"
              % (operation, counts["hits"], counts["misses"]))
    pool = stats["pool"]
    print("pool: %d workers, %d parallel batches, %d inline batches"
          % (pool["maxWorkers"], pool["parallelBatches"],
             pool["inlineBatches"]))
    return 0


def _cmd_bench_codec(args: argparse.Namespace) -> int:
    """Run the codec fast-path benchmark (same harness as CI)."""
    from .bench.codec import (CodecMismatch, FULL_TIERS, QUICK_TIERS,
                              format_report, run_codec_bench, write_report)

    tiers = QUICK_TIERS if args.quick else FULL_TIERS
    try:
        report = run_codec_bench(tiers, repeats=args.repeats)
    except CodecMismatch as exc:
        print("easyview: codec mismatch: %s" % exc, file=sys.stderr)
        return 2
    if args.out:
        write_report(report, args.out)
    if args.json:
        from .core.jsonio import dumps_data
        print(dumps_data(report))
    else:
        print(format_report(report))
        if args.out:
            print("report written to %s" % args.out)
    return 0


def _cmd_bench_cct(args: argparse.Namespace) -> int:
    """Run the columnar CCT benchmark (same harness as CI)."""
    from .bench.cct import (FULL_TIERS, OracleMismatch, QUICK_TIERS,
                            format_report, run_cct_bench, write_report)

    tiers = QUICK_TIERS if args.quick else FULL_TIERS
    try:
        report = run_cct_bench(tiers, repeats=args.repeats)
    except OracleMismatch as exc:
        print("easyview: columnar oracle mismatch: %s" % exc,
              file=sys.stderr)
        return 2
    if args.out:
        write_report(report, args.out)
    if args.json:
        from .core.jsonio import dumps_data
        print(dumps_data(report))
    else:
        print(format_report(report))
        if args.out:
            print("report written to %s" % args.out)
    return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    """Run the multi-client serving benchmark (same harness as CI)."""
    from .bench.serve import (FULL_TIERS, QUICK_TIERS, ServeMismatch,
                              format_report, run_serve_bench, write_report)

    tiers = QUICK_TIERS if args.quick else FULL_TIERS
    try:
        report = run_serve_bench(tiers)
    except ServeMismatch as exc:
        print("easyview: serve mismatch: %s" % exc, file=sys.stderr)
        return 2
    if args.out:
        write_report(report, args.out)
    if args.json:
        from .core.jsonio import dumps_data
        print(dumps_data(report))
    else:
        print(format_report(report))
        if args.out:
            print("report written to %s" % args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="easyview",
        description="EasyView: performance profiles, anywhere")
    sub = parser.add_subparsers(dest="command", required=True)

    p_open = sub.add_parser("open", help="render a profile")
    p_open.add_argument("path")
    p_open.add_argument("--format", default=None)
    p_open.add_argument("--shape", default="top_down",
                        choices=["top_down", "bottom_up", "flat"])
    p_open.add_argument("--metric", default=None)
    p_open.add_argument("--width", type=int, default=100)
    p_open.add_argument("--color", action="store_true")
    p_open.add_argument("--outline", action="store_true",
                        help="indented outline instead of flame rows")
    p_open.set_defaults(fn=_cmd_open)

    p_convert = sub.add_parser("convert",
                               help="convert to EasyView binary format")
    p_convert.add_argument("input")
    p_convert.add_argument("output")
    p_convert.add_argument("--format", default=None)
    p_convert.set_defaults(fn=_cmd_convert)

    p_diff = sub.add_parser("diff", help="differential view of two profiles")
    p_diff.add_argument("baseline")
    p_diff.add_argument("treatment")
    p_diff.add_argument("--format", default=None)
    p_diff.add_argument("--shape", default="top_down",
                        choices=["top_down", "bottom_up", "flat"])
    p_diff.set_defaults(fn=_cmd_diff)

    p_agg = sub.add_parser("aggregate",
                           help="aggregate view over several profiles")
    p_agg.add_argument("paths", nargs="+")
    p_agg.add_argument("--format", default=None)
    p_agg.add_argument("--shape", default="top_down",
                       choices=["top_down", "bottom_up", "flat"])
    p_agg.set_defaults(fn=_cmd_aggregate)

    p_report = sub.add_parser("report", help="write an HTML report")
    p_report.add_argument("path")
    p_report.add_argument("-o", "--output", default="easyview-report.html")
    p_report.add_argument("--format", default=None)
    p_report.add_argument("--interactive", action="store_true",
                          help="self-contained interactive viewer instead "
                               "of a static report")
    p_report.set_defaults(fn=_cmd_report)

    p_leak = sub.add_parser("leak",
                            help="memory-leak verdicts from snapshots")
    p_leak.add_argument("path")
    p_leak.add_argument("--format", default=None)
    p_leak.add_argument("--metric", default="inuse_bytes")
    p_leak.add_argument("--threshold", type=float, default=0.6)
    p_leak.add_argument("--min-peak", type=float, default=0.0,
                        dest="min_peak")
    p_leak.add_argument("--top", type=int, default=10)
    p_leak.set_defaults(fn=_cmd_leak)

    p_reuse = sub.add_parser("reuse",
                             help="correlated use/reuse analysis")
    p_reuse.add_argument("path")
    p_reuse.add_argument("--format", default=None)
    p_reuse.add_argument("--top", type=int, default=5)
    p_reuse.set_defaults(fn=_cmd_reuse)

    p_ineff = sub.add_parser("inefficiencies",
                             help="redundancy and contention reports")
    p_ineff.add_argument("path")
    p_ineff.add_argument("--format", default=None)
    p_ineff.add_argument("--top", type=int, default=10)
    p_ineff.set_defaults(fn=_cmd_inefficiencies)

    p_validate = sub.add_parser("validate",
                                help="structural validation report")
    p_validate.add_argument("path")
    p_validate.add_argument("--format", default=None)
    p_validate.set_defaults(fn=_cmd_validate)

    p_lint = sub.add_parser("lint",
                            help="static analysis: formulas, callbacks, "
                                 "profile invariants")
    p_lint.add_argument("paths", nargs="*",
                        help="profile files to lint")
    p_lint.add_argument("--format", default=None)
    p_lint.add_argument("--formula", action="append", default=[],
                        help="formula text to lint (repeatable)")
    p_lint.add_argument("--callback", action="append", default=[],
                        help="callback source file to lint (repeatable)")
    p_lint.add_argument("--disable", action="append", default=[],
                        help="rule directive, e.g. EV104=off or "
                             "EV305=warning (repeatable)")
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable report")
    p_lint.add_argument("--color", action="store_true")
    p_lint.set_defaults(fn=_cmd_lint)

    p_selfcheck = sub.add_parser(
        "selfcheck",
        help="static concurrency/resource analysis of EasyView's own "
             "source (EV4xx), gated on the checked-in baseline")
    p_selfcheck.add_argument("paths", nargs="*",
                             help="files/directories to analyze "
                                  "(default: src)")
    p_selfcheck.add_argument("--baseline", default="SELFCHECK_BASELINE.json",
                             help="waiver file (default: "
                                  "SELFCHECK_BASELINE.json)")
    p_selfcheck.add_argument("--update-baseline", action="store_true",
                             help="rewrite the baseline from current "
                                  "findings (keeps justifications, stamps "
                                  "new entries UNREVIEWED)")
    p_selfcheck.add_argument("--disable", action="append", default=[],
                             help="disable a rule or family, e.g. EV412, "
                                  "EV4xx=off, selfcheck=hint (repeatable)")
    p_selfcheck.add_argument("--json", action="store_true",
                             help="machine-readable report")
    p_selfcheck.add_argument("--color", action="store_true")
    p_selfcheck.set_defaults(fn=_cmd_selfcheck)

    p_anon = sub.add_parser("anonymize",
                            help="scrub names for safe sharing")
    p_anon.add_argument("path")
    p_anon.add_argument("-o", "--output", default="anonymized.ezvw")
    p_anon.add_argument("--key", required=True,
                        help="pseudonym key (same key keeps profiles "
                             "diffable)")
    p_anon.add_argument("--keep-lines", action="store_true",
                        dest="keep_lines")
    p_anon.add_argument("--keep-module", action="append", default=[],
                        help="module name to leave readable (repeatable)")
    p_anon.add_argument("--format", default=None)
    p_anon.set_defaults(fn=_cmd_anonymize)

    p_combine = sub.add_parser("combine",
                               help="merge profiles from different tools")
    p_combine.add_argument("paths", nargs="+")
    p_combine.add_argument("-o", "--output", default="combined.ezvw")
    p_combine.add_argument("--format", default=None)
    p_combine.set_defaults(fn=_cmd_combine)

    p_timeline = sub.add_parser("timeline",
                                help="snapshot-series timeline strip")
    p_timeline.add_argument("path")
    p_timeline.add_argument("--format", default=None)
    p_timeline.add_argument("--metric", default="inuse_bytes")
    p_timeline.add_argument("--width", type=int, default=60)
    p_timeline.add_argument("--window", default=None,
                            help="START:END snapshot range to summarize")
    p_timeline.add_argument("--combine", default="mean",
                            choices=["mean", "sum", "last"])
    p_timeline.set_defaults(fn=_cmd_timeline)

    p_study = sub.add_parser("study",
                             help="replay the §VII-D study simulation")
    p_study.add_argument("--seed", type=int, default=2024)
    p_study.set_defaults(fn=_cmd_study)

    p_formats = sub.add_parser("formats", help="list supported formats")
    p_formats.set_defaults(fn=_cmd_formats)

    p_engine = sub.add_parser(
        "engine-stats",
        help="analysis-engine cache counters (optionally exercising the "
             "engine on the given profiles, cold then warm)")
    p_engine.add_argument("paths", nargs="*")
    p_engine.add_argument("--format", default=None)
    p_engine.add_argument("--shape", default="top_down",
                          choices=["top_down", "bottom_up", "flat"])
    p_engine.add_argument("--json", action="store_true",
                          help="machine-readable snapshot")
    p_engine.set_defaults(fn=_cmd_engine_stats)

    p_obs = sub.add_parser(
        "obs",
        help="self-profiling: trace easyview's own execution")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_o_metrics = obs_sub.add_parser(
        "metrics",
        help="metric snapshot (optionally tracing a nested command)")
    p_o_metrics.add_argument("--format", default="text",
                             choices=["text", "json", "prom"],
                             help="text: human table; json: full snapshot; "
                                  "prom: Prometheus text exposition")
    p_o_metrics.add_argument("--json", action="store_true",
                             help="shorthand for --format json")
    p_o_metrics.add_argument("command", nargs=argparse.REMAINDER,
                             help="nested easyview command to run traced")
    p_o_metrics.set_defaults(fn=_cmd_obs_metrics)

    p_o_export = obs_sub.add_parser(
        "export",
        help="trace a nested command, export its spans")
    p_o_export.add_argument("--format", default="easyview",
                            choices=["easyview", "chrome", "jsonl"],
                            help="easyview: CCT profile of the traced "
                                 "run; chrome: Trace Event JSON; jsonl: "
                                 "one span per line")
    p_o_export.add_argument("-o", "--output", default=None,
                            help="output file (default stdout; .ezvw "
                                 "writes native binary)")
    p_o_export.add_argument("--capacity", type=int, default=None,
                            help="span ring capacity")
    p_o_export.add_argument("--sample-every", type=int, default=None,
                            dest="sample_every",
                            help="keep every Nth trace (1 = all)")
    p_o_export.add_argument("command", nargs=argparse.REMAINDER,
                            help="nested easyview command to run traced")
    p_o_export.set_defaults(fn=_cmd_obs_export)

    p_o_watch = obs_sub.add_parser(
        "watch",
        help="run a nested command traced, reporting live telemetry")
    p_o_watch.add_argument("--interval", type=float, default=2.0,
                           help="seconds between progress lines")
    p_o_watch.add_argument("command", nargs=argparse.REMAINDER,
                           help="nested easyview command to run traced")
    p_o_watch.set_defaults(fn=_cmd_obs_watch)

    p_store = sub.add_parser("store",
                             help="persistent profile repository (ProfStore)")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    p_s_ingest = store_sub.add_parser(
        "ingest", help="ingest profiles into the store")
    p_s_ingest.add_argument("store", help="store root directory")
    p_s_ingest.add_argument("paths", nargs="+")
    p_s_ingest.add_argument("--service", required=True)
    p_s_ingest.add_argument("--type", default="cpu")
    p_s_ingest.add_argument("--format", default=None)
    p_s_ingest.add_argument("--label", action="append", default=[],
                            help="k=v ingest label (repeatable)")
    p_s_ingest.add_argument("--no-flush", action="store_true",
                            dest="no_flush",
                            help="leave records in the WAL (no segment)")
    p_s_ingest.set_defaults(fn=_cmd_store_ingest)

    p_s_query = store_sub.add_parser(
        "query", help="merge-on-read view over matching records")
    p_s_query.add_argument("store")
    p_s_query.add_argument("query", nargs="*",
                           help="terms like service=api type=cpu since=6h")
    p_s_query.add_argument("--shape", default="top_down",
                           choices=["top_down", "bottom_up", "flat"])
    p_s_query.add_argument("--width", type=int, default=100)
    p_s_query.add_argument("--color", action="store_true")
    p_s_query.set_defaults(fn=_cmd_store_query)

    p_s_ls = store_sub.add_parser(
        "ls", help="list matching records without merging")
    p_s_ls.add_argument("store")
    p_s_ls.add_argument("query", nargs="*")
    p_s_ls.set_defaults(fn=_cmd_store_ls)

    p_s_compact = store_sub.add_parser(
        "compact", help="merge small segments into one")
    p_s_compact.add_argument("store")
    p_s_compact.add_argument("--small-records", type=int, default=32,
                             dest="small_records",
                             help="segments with at most this many records "
                                  "are compaction candidates")
    p_s_compact.set_defaults(fn=_cmd_store_compact)

    p_s_gc = store_sub.add_parser(
        "gc", help="apply retention: drop old segments")
    p_s_gc.add_argument("store")
    p_s_gc.add_argument("--max-age", default=None, dest="max_age",
                        help="drop segments wholly older than this "
                             "(e.g. 7d, 12h)")
    p_s_gc.add_argument("--max-bytes", type=int, default=None,
                        dest="max_bytes",
                        help="drop oldest segments while the store "
                             "exceeds this byte budget")
    p_s_gc.set_defaults(fn=_cmd_store_gc)

    p_s_stats = store_sub.add_parser(
        "stats", help="store counters + segment integrity re-hash")
    p_s_stats.add_argument("store")
    p_s_stats.add_argument("--no-verify", action="store_true",
                           dest="no_verify",
                           help="skip re-hashing segment content addresses")
    p_s_stats.add_argument("--json", action="store_true",
                           help="machine-readable snapshot")
    p_s_stats.set_defaults(fn=_cmd_store_stats)

    p_serve = sub.add_parser(
        "serve", help="Profile View Protocol server (stdio or socket)")
    p_serve.add_argument("--port", type=int, default=None,
                         help="serve many clients on a TCP socket "
                              "(0 = ephemeral); default is stdio")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address for --port (default loopback)")
    p_serve.add_argument("--max-pending", type=int, default=1024,
                         help="global admission cap on queued+running "
                              "requests")
    p_serve.add_argument("--max-session-queue", type=int, default=16,
                         help="per-session request queue depth")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="dispatch pool width (default: engine sizing)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_agent = sub.add_parser(
        "agent", help="continuous-profiling capture agent")
    agent_sub = p_agent.add_subparsers(dest="agent_command", required=True)
    p_a_run = agent_sub.add_parser(
        "run", help="capture on a cadence and ship to a collector")
    p_a_run.add_argument("--collector", required=True,
                         help="collector base URL, e.g. http://host:9120")
    p_a_run.add_argument("--service", required=True,
                         help="service label stamped on every capture")
    p_a_run.add_argument("--host", default="",
                         help="host label (default: this hostname)")
    p_a_run.add_argument("--type", default="cpu",
                         help="profile type label")
    p_a_run.add_argument("--scenario", default="checkout",
                         help="ProgramMachine workload to capture "
                              "(see repro.profilers.workloads.SCENARIOS)")
    p_a_run.add_argument("--scenario-arg", action="append", default=[],
                         dest="scenario_arg",
                         help="k=v builder argument (repeatable)")
    p_a_run.add_argument("--self-profile", nargs=argparse.REMAINDER,
                         default=None, dest="self_profile",
                         help="instead of a scenario: sample this process "
                              "running the given nested easyview command "
                              "each tick")
    p_a_run.add_argument("--cadence", type=float, default=1.0,
                         help="seconds between captures")
    p_a_run.add_argument("--ticks", type=int, default=0,
                         help="stop after N captures (0 = run forever)")
    p_a_run.add_argument("--spool", default=None,
                         help="directory for captures that outlive "
                              "collector outages")
    p_a_run.add_argument("--max-attempts", type=int, default=4,
                         dest="max_attempts",
                         help="ship attempts per capture before spooling")
    p_a_run.add_argument("--timeout", type=float, default=5.0,
                         help="per-request HTTP timeout, seconds")
    p_a_run.add_argument("--label", action="append", default=[],
                         help="k=v capture label (repeatable)")
    p_a_run.set_defaults(fn=_cmd_agent_run)

    p_collector = sub.add_parser(
        "collector",
        help="HTTP collector: agent uploads into a ProfStore")
    p_collector.add_argument("--store", required=True,
                             help="store root directory")
    p_collector.add_argument("--port", type=int, default=9120,
                             help="listen port (0 = ephemeral)")
    p_collector.add_argument("--host", default="127.0.0.1",
                             help="bind address (default loopback)")
    p_collector.add_argument("--max-pending", type=int, default=32,
                             dest="max_pending",
                             help="global cap on in-flight uploads")
    p_collector.add_argument("--max-service-queue", type=int, default=8,
                             dest="max_service_queue",
                             help="per-service in-flight cap")
    p_collector.add_argument("--max-body-bytes", type=int,
                             default=8 * 1024 * 1024, dest="max_body_bytes",
                             help="largest accepted upload body")
    p_collector.set_defaults(fn=_cmd_collector)

    p_watch = sub.add_parser(
        "watch",
        help="scheduled regression watch over a stored capture stream")
    p_watch.add_argument("--store", required=True,
                         help="store root directory")
    p_watch.add_argument("query", nargs="*",
                         help="stream selector, e.g. service=api type=cpu")
    p_watch.add_argument("--window", default="60s",
                         help="current-window length (e.g. 30s, 5m)")
    p_watch.add_argument("--baseline", default=None,
                         help="baseline-window length (default: --window)")
    p_watch.add_argument("--metric", default=None,
                         help="metric to rank on (default: first :mean)")
    p_watch.add_argument("--shape", default="top_down",
                         choices=["top_down", "bottom_up", "flat"])
    p_watch.add_argument("--min-ratio", type=float, default=1.0,
                         dest="min_ratio",
                         help="report only current/baseline >= this")
    p_watch.add_argument("--top", type=int, default=20,
                         help="entries per report section")
    p_watch.add_argument("--now", type=int, default=None,
                         help="evaluate windows against this nanosecond "
                              "timestamp instead of the wall clock "
                              "(reproducible reports)")
    p_watch.add_argument("--ticks", type=int, default=1,
                         help="comparisons to run (1 = one-shot, "
                              "0 = until interrupted)")
    p_watch.add_argument("--interval", type=float, default=30.0,
                         help="seconds between comparisons")
    p_watch.add_argument("--json", default=None,
                         help="write the final report as JSON here "
                              "('-' for stdout, replacing the text form)")
    p_watch.add_argument("--fail-on-regression", action="store_true",
                         dest="fail_on_regression",
                         help="exit 2 when the final report has "
                              "regressions (CI gating)")
    p_watch.set_defaults(fn=_cmd_watch)

    p_bench = sub.add_parser("bench", help="run built-in benchmarks")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_b_codec = bench_sub.add_parser(
        "codec", help="wire codec fast path vs reference codec")
    p_b_codec.add_argument("--json", action="store_true",
                           help="print the full report as JSON")
    p_b_codec.add_argument("--quick", action="store_true",
                           help="small+medium tiers only (skip large)")
    p_b_codec.add_argument("--repeats", type=int, default=3,
                           help="best-of-N repetitions per measurement")
    p_b_codec.add_argument("--out", metavar="PATH",
                           help="also write the JSON report to PATH")
    p_b_codec.set_defaults(fn=_cmd_bench_codec)
    p_b_cct = bench_sub.add_parser(
        "cct", help="columnar CCT core vs per-node object tree")
    p_b_cct.add_argument("--json", action="store_true",
                         help="print the full report as JSON")
    p_b_cct.add_argument("--quick", action="store_true",
                         help="small+medium tiers only (skip large)")
    p_b_cct.add_argument("--repeats", type=int, default=3,
                         help="best-of-N repetitions per measurement")
    p_b_cct.add_argument("--out", metavar="PATH",
                         help="also write the JSON report to PATH")
    p_b_cct.set_defaults(fn=_cmd_bench_cct)
    p_b_serve = bench_sub.add_parser(
        "serve", help="concurrent socket serving vs single-client stdio")
    p_b_serve.add_argument("--json", action="store_true",
                           help="print the full report as JSON")
    p_b_serve.add_argument("--quick", action="store_true",
                           help="1/16/64 sessions only (skip the 1024 tier)")
    p_b_serve.add_argument("--out", metavar="PATH",
                           help="also write the JSON report to PATH")
    p_b_serve.set_defaults(fn=_cmd_bench_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # surface errors as exit status, not traceback
        print("easyview: error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
