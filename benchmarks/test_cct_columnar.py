"""Columnar CCT bench — struct-of-arrays core vs the per-node object tree.

Runs the shared harness in :mod:`repro.bench.cct` over the corpus tiers,
writes ``BENCH_cct.json`` at the repo root, and enforces three things:

* **Correctness always**: on every tier the columnar path must produce
  the same profile digest, a structurally identical materialized tree,
  equal view-tree digests on every shape plus the aggregate and diff
  trees, and matching flame-graph rectangles (the harness raises
  :class:`repro.bench.cct.OracleMismatch` if not).
* **The cold-open target when it is measurable**: >= 3x the object-path
  cold open on the large tier, asserted only when the large tier is
  enabled (``EASYVIEW_BENCH_LARGE`` != 0).
* **The view-build target when it is measurable**: the columnar top-down
  build >= 1.5x the object transform on the large tier, same gating.

CI runs this in quick mode (small + medium) and uploads the report as an
artifact; run locally with the large tier for the headline numbers.
"""

from __future__ import annotations

import os

from repro.bench.cct import (COLD_OPEN_TARGET_SPEEDUP, QUICK_TIERS,
                             VIEW_BUILD_TARGET_SPEEDUP, run_cct_bench,
                             write_report)

REPORT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_cct.json")


def test_cct_columnar(corpus):
    large_enabled = "large" in corpus
    tiers = list(QUICK_TIERS) + (["large"] if large_enabled else [])
    report = run_cct_bench(tiers, repeats=3)
    path = write_report(report, os.path.normpath(REPORT_PATH))

    for name in tiers:
        entry = report["tiers"][name]
        assert entry["equality"]["digest_equal"]
        assert entry["equality"]["trees_identical"]
        assert entry["equality"]["views_identical"]
        assert entry["equality"]["layouts_identical"]
        assert entry["cold_open"]["columnar_s"] > 0

    if large_enabled:
        speedup = report["tiers"]["large"]["cold_open"]["speedup"]
        assert speedup >= COLD_OPEN_TARGET_SPEEDUP, (
            "large-tier cold-open speedup %.2fx below the %.1fx target; "
            "see %s" % (speedup, COLD_OPEN_TARGET_SPEEDUP, path))
        view = report["tiers"]["large"]["view_build"]["speedup"]
        assert view >= VIEW_BUILD_TARGET_SPEEDUP, (
            "large-tier view-build speedup %.2fx below the %.1fx target; "
            "see %s" % (view, VIEW_BUILD_TARGET_SPEEDUP, path))
