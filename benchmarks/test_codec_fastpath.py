"""Codec fast-path bench — fastwire decode/encode vs the reference codec.

Runs the shared harness in :mod:`repro.bench.codec` over the corpus
tiers, writes ``BENCH_codec.json`` at the repo root, and enforces two
things:

* **Correctness always**: on every tier the fast path must decode to an
  object equal to the reference codec's and re-encode byte-identically,
  and the columnar ``.ezvw`` codec must write the per-node oracle's bytes
  and load them to the oracle's profile digest (the harness raises
  :class:`repro.bench.codec.CodecMismatch` if not).
* **The decode target when it is measurable**: >= 3x reference decode
  throughput on the large tier, asserted only when the large tier is
  enabled (``EASYVIEW_BENCH_LARGE`` != 0).

CI runs this in quick mode (small + medium) and uploads the report as an
artifact; run locally with the large tier for the headline number.
"""

from __future__ import annotations

import os

from repro.bench.codec import (DECODE_TARGET_SPEEDUP, QUICK_TIERS,
                               run_codec_bench, write_report)

REPORT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_codec.json")


def test_codec_fastpath(corpus):
    large_enabled = "large" in corpus
    tiers = list(QUICK_TIERS) + (["large"] if large_enabled else [])
    report = run_codec_bench(tiers, repeats=3)
    path = write_report(report, os.path.normpath(REPORT_PATH))

    for name in tiers:
        entry = report["tiers"][name]
        assert entry["equality"]["objects_equal"]
        assert entry["equality"]["bytes_identical"]
        assert entry["ezvw"]["equality"] == {"bytes_identical": True,
                                             "digests_equal": True}
        assert entry["decode"]["fastpath_s"] > 0

    if large_enabled:
        speedup = report["tiers"]["large"]["decode"]["speedup"]
        assert speedup >= DECODE_TARGET_SPEEDUP, (
            "large-tier decode speedup %.2fx below the %.1fx target; "
            "see %s" % (speedup, DECODE_TARGET_SPEEDUP, path))
