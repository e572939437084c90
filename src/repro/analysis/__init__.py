"""EasyView's data analysis engine: traversal, metric computation, tree
transformations, multi-profile aggregation and differencing, derived-metric
formulas, customization hooks, search, leak detection, and reuse analysis."""

from .aggregate import (aggregate_profiles, merge_trees, snapshot_series,
                        snapshot_totals)
from .anonymize import anonymize, mapping_for
from .callbacks import Customization
from .combine import combine
from .diff import (add_delta_column, diff_profiles, diff_trees, summarize,
                   TAG_ADDED, TAG_DELETED, TAG_GREW, TAG_SAME, TAG_SHRANK)
from .formula import derive, evaluate_str, parse as parse_formula
from .leak import LeakVerdict, detect_leaks, suspicious_contexts
from .metrics import (check_inclusive_invariant, compute_inclusive,
                      inclusive_value, totals)
from .prune import collapse_recursion, hot_path, prune, truncate_depth
from .query import filter_by_name, filter_tree, match_fraction, search
from .pane import PaneResult, ProgrammingPane
from .presets import PRESETS, Preset, applicable_presets, apply_all, apply_preset
from .redundancy import (RedundancyPair, redundancy_fraction,
                         redundancy_pairs, redundancy_points)
from .reuse import (ReusePair, allocations_with_reuse, fusion_candidates,
                    reuse_points, reuses_of, uses_of)
from .scaling import (ScalingVerdict, fit_exponent, scaling_losses,
                      scaling_report, scaling_tree)
from .sharing import (AccessPair, access_pairs, contention_by_object,
                      sharing_points)
from .threads import (aggregate_threads, imbalance, is_threaded,
                      split_by_thread, thread_roots, thread_totals)
from .timerange import (activity_series, find_phases, range_diff,
                        range_profile)
from .transform import bottom_up, flat, top_down, transform
from .traversal import (Order, VisitAction, ancestors, bfs, common_ancestor,
                        iterate, postorder, preorder, visit)
from .viewtree import ViewNode, ViewTree

__all__ = [
    "aggregate_profiles", "merge_trees", "snapshot_series", "snapshot_totals",
    "anonymize", "mapping_for", "Customization", "combine", "add_delta_column", "diff_profiles", "diff_trees",
    "summarize", "TAG_ADDED", "TAG_DELETED", "TAG_GREW", "TAG_SAME",
    "TAG_SHRANK", "derive", "evaluate_str", "parse_formula", "LeakVerdict",
    "detect_leaks", "suspicious_contexts", "check_inclusive_invariant",
    "compute_inclusive", "inclusive_value", "totals", "collapse_recursion",
    "hot_path", "prune", "truncate_depth", "filter_by_name", "filter_tree",
    "match_fraction", "search", "ReusePair", "allocations_with_reuse",
    "fusion_candidates", "reuse_points", "reuses_of", "uses_of",
    "PRESETS", "Preset", "applicable_presets", "apply_all", "apply_preset",
    "RedundancyPair", "redundancy_fraction", "redundancy_pairs",
    "redundancy_points", "AccessPair", "access_pairs",
    "contention_by_object", "sharing_points", "PaneResult",
    "ProgrammingPane", "aggregate_threads", "imbalance", "is_threaded",
    "split_by_thread", "thread_roots", "thread_totals",
    "activity_series", "find_phases", "range_diff", "range_profile",
    "ScalingVerdict", "fit_exponent", "scaling_losses", "scaling_report",
    "scaling_tree",
    "bottom_up",
    "flat", "top_down", "transform", "Order", "VisitAction", "ancestors",
    "bfs", "common_ancestor", "iterate", "postorder", "preorder", "visit",
    "ViewNode", "ViewTree",
]
