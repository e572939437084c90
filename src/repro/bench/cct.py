"""Columnar CCT benchmark: struct-of-arrays core vs the object tree.

One harness, two front ends: ``benchmarks/test_cct_columnar.py`` runs it
under pytest and CI, and ``easyview bench cct`` runs it from the command
line.  Both emit the same ``BENCH_cct.json`` report.

For each corpus tier the harness measures the cold profile open (raw
pprof bytes to a queryable CCT) through the columnar fast path
(:func:`repro.converters.pprof.parse`) against the per-node object path
(:func:`~repro.bench.pprof_oracle.parse_object`), with a per-phase
breakdown of the columnar open (wire decode vs CCT build).  On top of
the open it measures the whole columnar *view pipeline* against the
object oracle (:mod:`repro.bench.view_oracle`: transforms, merges,
diffs, layouts and digests that walk ``ViewNode`` objects on trees
without arrays) — warm profile, cold view: every timed call builds a
fresh view tree, but the profile it reads is already open, so the
numbers isolate the operation instead of re-paying the parse (which the
pre-columnar-view harness mistakenly folded into ``view_columnar``).
Covered per tier: top-down, bottom-up, and flat builds, N-profile
aggregation, differential profiles, flame-graph layout, digests, and raw
traversal throughput over the columnar kernels.

Every run gates on correctness first: the two representations must
produce equal profile digests, structurally identical materialized
trees (child order included), equal view-tree digests on *every* shape
plus the derived, aggregate and diff trees and the hygiene operations
(prune, collapse, truncate, filter) of the top-down view, and matching
flame-graph rectangles, or :class:`OracleMismatch` is raised — the benchmark refuses to report
numbers for a fast path that drifted, and for a reference side that
carries arrays (it would compare the fast path with itself).

Documented targets on the large tier (see ``docs/PERFORMANCE.md``):
columnar cold open >= 3x, top-down view build >= 1.5x.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, List, Optional

from ..analysis import viewrows
from ..analysis.aggregate import aggregate_profiles, merge_trees
from ..analysis.diff import diff_profiles, diff_trees, summarize
from ..analysis.formula import derive
from ..analysis.prune import collapse_recursion, prune, truncate_depth
from ..analysis.query import filter_by_name
from ..analysis.transform import bottom_up, flat, top_down
from ..core.atomicio import atomic_write_text
from ..core.cct_columnar import ColumnarCCT
from ..core.digest import profile_digest, viewtree_digest
from ..profilers.corpus import generate_bytes, tier
from ..viz.layout import layout
from . import profile_oracle, view_oracle
from .pprof_oracle import parse_object
from .profile_oracle import ObjectProfile

#: Tier sets: quick keeps CI under a few seconds, full adds the tier the
#: cold-open target is defined on.
QUICK_TIERS = ("small", "medium")
FULL_TIERS = ("small", "medium", "large")

#: Documented cold-open target on the large tier (columnar vs object).
COLD_OPEN_TARGET_SPEEDUP = 3.0

#: Documented top-down view-build target on the large tier.
VIEW_BUILD_TARGET_SPEEDUP = 1.5

DEFAULT_REPORT = "BENCH_cct.json"


class OracleMismatch(AssertionError):
    """The columnar representation disagreed with the object tree."""


def _interleaved_best(fns: Dict[str, object],
                      repeats: int) -> Dict[str, float]:
    """Best-of-N wall time per function, repetitions interleaved.

    Interleaving spreads machine-load noise evenly across the competing
    implementations instead of letting a load spike land entirely on
    whichever ran last, so the min/min speedup ratios stay comparable.
    """
    best = {name: float("inf") for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            if elapsed < best[name]:
                best[name] = elapsed
    return best


def _assert_trees_equal(name: str, a, b) -> None:
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x.frame != y.frame:
            raise OracleMismatch(
                "tier %r: frame mismatch (%r vs %r)"
                % (name, x.frame, y.frame))
        if x.metrics != y.metrics:
            raise OracleMismatch(
                "tier %r: metric mismatch at %s" % (name, x.frame.label()))
        if list(x.children) != list(y.children):
            raise OracleMismatch(
                "tier %r: child order mismatch at %s"
                % (name, x.frame.label()))
        stack.extend(zip(x.children.values(), y.children.values()))


def _assert_view_digests(name: str, label: str, fast_tree, ref_tree) -> None:
    if not isinstance(ref_tree, view_oracle.ObjectTree):
        raise OracleMismatch(
            "tier %r: the reference %s carries arrays" % (name, label))
    if viewtree_digest(fast_tree) != view_oracle.digest(ref_tree):
        raise OracleMismatch(
            "tier %r: %s view trees differ (columnar vs object)"
            % (name, label))


def _assert_layouts_equal(name: str, fast_layout, ref_layout) -> None:
    if (fast_layout.laid_out_nodes != ref_layout.laid_out_nodes
            or fast_layout.skipped_nodes != ref_layout.skipped_nodes
            or fast_layout.max_depth != ref_layout.max_depth):
        raise OracleMismatch(
            "tier %r: layout summary differs (columnar vs object)" % name)
    for ours, theirs in zip(fast_layout.rects, ref_layout.rects):
        # x sums sibling widths in a different float association (grouped
        # prefix sums vs a serial cursor) — rounding-equal, not bitwise.
        if (ours.node.frame != theirs.node.frame
                or ours.depth != theirs.depth
                or ours.width != theirs.width
                or abs(ours.x - theirs.x) > 1e-6 * max(1.0, abs(theirs.x))):
            raise OracleMismatch(
                "tier %r: layout rects differ (columnar vs object)" % name)


#: Derived before the aggregate/diff checks, so the gate covers the
#: column-wise formula path and the compare path on derived views.
_GATE_FORMULA = "if(`{0}` > 0, `{0}` / (`{0}` + 1), `{0}` % 7) ^ 0.5"


def _check_equality(name: str, fast, ref, fast_other, other) -> None:
    """The oracle gate: digests, trees, views, ops, and rects must agree."""
    if not (isinstance(ref, ObjectProfile)
            and isinstance(other, ObjectProfile)):
        raise OracleMismatch(
            "tier %r: a reference profile carries arrays" % name)
    if profile_digest(fast) != profile_oracle.digest(ref):
        raise OracleMismatch(
            "tier %r: profile digests differ (columnar vs object)" % name)
    _assert_trees_equal(name, fast.root, ref.root)

    fast_views = {}
    ref_views = {}
    for label, build in (("top_down", top_down), ("bottom_up", bottom_up),
                         ("flat", flat)):
        fast_views[label] = build(fast)
        ref_views[label] = view_oracle.transform(ref, label)
        _assert_view_digests(name, label, fast_views[label],
                             ref_views[label])
    fast_second = top_down(fast_other)
    ref_second = view_oracle.top_down(other)
    source = _GATE_FORMULA.format(fast.schema.names()[0])
    for tree in (fast_views["top_down"], fast_second):
        derive(tree, "gate_derived", source)
    for tree in (ref_views["top_down"], ref_second):
        view_oracle.derive(tree, "gate_derived", source)
    _assert_view_digests(name, "derived", fast_views["top_down"],
                         ref_views["top_down"])
    fast_views["aggregate"] = merge_trees(
        [fast_views["top_down"], fast_second])
    ref_views["aggregate"] = view_oracle.merge_trees(
        [ref_views["top_down"], ref_second])
    _assert_view_digests(name, "aggregate", fast_views["aggregate"],
                         ref_views["aggregate"])
    fast_views["diff"] = diff_trees(fast_views["top_down"], fast_second)
    ref_views["diff"] = view_oracle.diff_trees(ref_views["top_down"],
                                               ref_second)
    _assert_view_digests(name, "diff", fast_views["diff"],
                         ref_views["diff"])
    if (list(summarize(fast_views["diff"]).items())
            != list(view_oracle.summarize(ref_views["diff"]).items())):
        raise OracleMismatch(
            "tier %r: diff tag counts differ (columnar vs object)" % name)
    _assert_layouts_equal(name, layout(fast_views["top_down"]),
                          view_oracle.layout(ref_views["top_down"]))
    _check_hygiene(name, fast_views["top_down"], ref_views["top_down"])


def _check_hygiene(name: str, fast_tree, ref_tree) -> None:
    """The §V-A(a) kernels on a view against the oracle's node walks:
    prune (once and twice), collapse, truncate, and a filter on the name
    of the view's hottest context."""
    cvt = fast_tree.columnar()
    hottest = int(viewrows.top_rows(cvt, 0, 1, False)[0])
    pattern = viewrows.row_frame(cvt, hottest).name
    checks = (
        ("prune", lambda: prune(fast_tree),
         lambda: view_oracle.prune(ref_tree)),
        ("prune of a pruned tree",
         lambda: prune(prune(fast_tree), min_fraction=0.05),
         lambda: view_oracle.prune(view_oracle.prune(ref_tree),
                                   min_fraction=0.05)),
        ("collapse_recursion", lambda: collapse_recursion(fast_tree),
         lambda: view_oracle.collapse_recursion(ref_tree)),
        ("truncate_depth", lambda: truncate_depth(fast_tree, 3),
         lambda: view_oracle.truncate_depth(ref_tree, 3)),
        ("filter_by_name", lambda: filter_by_name(fast_tree, pattern),
         lambda: view_oracle.filter_by_name(ref_tree, pattern)),
    )
    for label, ours, theirs in checks:
        _assert_view_digests(name, label, ours(), theirs())


def bench_tier(name: str, repeats: int = 3) -> Dict[str, object]:
    """Benchmark one corpus tier; raises :class:`OracleMismatch` on drift."""
    from ..converters import pprof as pprof_converter
    from ..proto import pprof_pb

    raw = generate_bytes(tier(name), compress=False)
    mb = len(raw) / 1e6

    fast = pprof_converter.parse(raw)
    ref = parse_object(raw)
    columnar = fast.columnar()
    fast_other = pprof_converter.parse(raw)
    other = parse_object(raw)
    # The gate also warms every profile-level cache (inclusive values,
    # traversal kernels), so the view timings below measure the operation,
    # not first-touch cache fills on one side only.
    _check_equality(name, fast, ref, fast_other, other)
    n_nodes = ref.node_count()

    times = _interleaved_best({
        "wire_decode": lambda: pprof_pb.loads_columnar(raw),
        "open_columnar": lambda: pprof_converter.parse(raw),
        "open_object": lambda: parse_object(raw),
        "digest_columnar": lambda: profile_digest(
            pprof_converter.parse(raw)),
        "digest_object": lambda: profile_oracle.digest(ref),
    }, repeats)

    # Warm profile, cold view: every call builds a fresh view tree off an
    # already-open profile — symmetric on both sides.
    view_times = _interleaved_best({
        "top_down_columnar": lambda: top_down(fast),
        "top_down_object": lambda: view_oracle.top_down(ref),
        "bottom_up_columnar": lambda: bottom_up(fast),
        "bottom_up_object": lambda: view_oracle.bottom_up(ref),
        "flat_columnar": lambda: flat(fast),
        "flat_object": lambda: view_oracle.flat(ref),
        "aggregate_columnar": lambda: aggregate_profiles(
            [fast, fast_other]),
        "aggregate_object": lambda: view_oracle.merge_trees(
            [view_oracle.top_down(ref), view_oracle.top_down(other)]),
        "diff_columnar": lambda: diff_profiles(fast, fast_other),
        "diff_object": lambda: view_oracle.diff_trees(
            view_oracle.top_down(ref), view_oracle.top_down(other)),
    }, repeats)

    # Layout on warm view trees: the columnar side emits rect geometry
    # without materializing a single ViewNode.
    fast_view = top_down(fast)
    ref_view = view_oracle.top_down(ref)
    layout_times = _interleaved_best({
        "layout_columnar": lambda: layout(fast_view),
        "layout_object": lambda: view_oracle.layout(ref_view),
    }, repeats)

    # Rewrap the arrays per call so lazily-cached kernels (pre-order,
    # subtree sizes, inclusive) are recomputed, not replayed.
    def fresh() -> ColumnarCCT:
        return ColumnarCCT(parent=columnar.parent,
                           frame_id=columnar.frame_id,
                           depth=columnar.depth,
                           values=columnar.values,
                           present=columnar.present,
                           frames=columnar.frames)

    kernel_times = _interleaved_best({
        "preorder_columnar": lambda: fresh().preorder_ids(),
        "preorder_object": lambda: sum(1 for _ in ref.root.walk()),
        "inclusive_columnar": lambda: fresh().inclusive(),
    }, repeats)

    def versus(key: str) -> Dict[str, float]:
        obj = view_times["%s_object" % key]
        col = view_times["%s_columnar" % key]
        return {"object_s": round(obj, 4), "columnar_s": round(col, 4),
                "speedup": round(obj / col, 2)}

    cold_columnar = times["open_columnar"]
    cold_object = times["open_object"]
    return {
        "raw_bytes": len(raw),
        "nodes": n_nodes,
        "cold_open": {
            # raw pprof bytes -> queryable CCT, i.e. what the IDE pays
            # between click and first query.
            "object_s": round(cold_object, 4),
            "columnar_s": round(cold_columnar, 4),
            "speedup": round(cold_object / cold_columnar, 2),
            "columnar_mb_s": round(mb / cold_columnar, 1),
            "phases": {
                "wire_decode_s": round(times["wire_decode"], 4),
                "cct_build_s": round(
                    max(cold_columnar - times["wire_decode"], 0.0), 4),
            },
        },
        "digest": {
            "object_s": round(times["digest_object"], 4),
            # Includes a fresh parse (digest consumes a cold profile).
            "columnar_s": round(times["digest_columnar"], 4),
        },
        "view_build": versus("top_down"),
        "bottom_up_build": versus("bottom_up"),
        "flat_build": versus("flat"),
        "aggregate": versus("aggregate"),
        "diff": versus("diff"),
        "layout": {
            "object_s": round(layout_times["layout_object"], 4),
            "columnar_s": round(layout_times["layout_columnar"], 4),
            "speedup": round(layout_times["layout_object"]
                             / layout_times["layout_columnar"], 2),
        },
        "equality": {
            "digest_equal": True,
            "trees_identical": True,
            "views_identical": True,
            "layouts_identical": True,
        },
        "throughput": {
            "preorder_object_mnodes_s": round(
                n_nodes / kernel_times["preorder_object"] / 1e6, 2),
            "preorder_columnar_mnodes_s": round(
                n_nodes / kernel_times["preorder_columnar"] / 1e6, 2),
            "inclusive_columnar_s": round(
                kernel_times["inclusive_columnar"], 4),
            # Back-compat keys for the pre-columnar-view reports: the
            # object-path aggregate/diff wall times.
            "diff_s": round(view_times["diff_object"], 4),
            "aggregate_s": round(view_times["aggregate_object"], 4),
        },
    }


def run_cct_bench(tiers: Optional[Iterable[str]] = None,
                  repeats: int = 3) -> Dict[str, object]:
    """Run the columnar CCT benchmark and return the full report dict."""
    names: List[str] = list(tiers if tiers is not None else FULL_TIERS)
    report: Dict[str, object] = {
        "benchmark": "cct-columnar",
        "target_cold_open_speedup_large": COLD_OPEN_TARGET_SPEEDUP,
        "target_view_build_speedup_large": VIEW_BUILD_TARGET_SPEEDUP,
        "tiers": {name: bench_tier(name, repeats=repeats)
                  for name in names},
    }
    return report


def write_report(report: Dict[str, object],
                 path: str = DEFAULT_REPORT) -> str:
    atomic_write_text(path,
                      json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def format_report(report: Dict[str, object]) -> str:
    """Human-readable summary table for the CLI."""
    lines = ["columnar CCT vs object tree  (best-of-N wall time)"]
    header = "%-8s %10s %9s %9s %9s %9s %9s %9s %9s" % (
        "tier", "nodes", "open", "view", "botup", "flat", "aggr",
        "diff", "layout")
    lines.append(header)
    for name, entry in report["tiers"].items():
        lines.append(
            "%-8s %10d %8.2fx %8.2fx %8.2fx %8.2fx %8.2fx %8.2fx %8.2fx"
            % (name, entry["nodes"], entry["cold_open"]["speedup"],
               entry["view_build"]["speedup"],
               entry["bottom_up_build"]["speedup"],
               entry["flat_build"]["speedup"],
               entry["aggregate"]["speedup"], entry["diff"]["speedup"],
               entry["layout"]["speedup"]))
    lines.append("(columnar speedup over the object path, min-of-N each)")
    if "large" in report["tiers"]:
        large = report["tiers"]["large"]
        lines.append("large-tier cold open speedup %.2fx (target >= %.1fx)"
                     % (large["cold_open"]["speedup"],
                        report["target_cold_open_speedup_large"]))
        lines.append("large-tier view build speedup %.2fx (target >= %.1fx)"
                     % (large["view_build"]["speedup"],
                        report["target_view_build_speedup_large"]))
    return "\n".join(lines)
