"""Figure 5 — response time to open a profile: EasyView vs PProf vs GoLand.

The paper opens real PProf profiles from ~1 MB to ~1 GB with three viewers
and reports end-to-end response time; EasyView wins at every size and the
gap widens with profile size.  We reproduce the comparison on synthetic
pprof corpora (tiers stand in for the paper's size range, scaled to a
laptop benchmark budget).

Shape criteria: EasyView < PProf < GoLand — strictly — at medium and above,
and EasyView's advantage over the slowest baseline grows with size.
"""

from __future__ import annotations

import pytest

from repro.baselines import (EasyViewViewer, GoLandViewer, PProfViewer,
                             measure)

VIEWERS = {
    "easyview": EasyViewViewer,
    "pprof": PProfViewer,
    "goland": GoLandViewer,
}


@pytest.mark.parametrize("viewer_name", list(VIEWERS))
def test_open_small(benchmark, viewer_name, small_bytes):
    """Per-viewer open time on the small tier (the paper's ~1 MB point)."""
    viewer = VIEWERS[viewer_name]()
    result = benchmark.pedantic(viewer.open_profile, args=(small_bytes,),
                                rounds=3, iterations=1)
    benchmark.extra_info["blocks"] = result.blocks
    benchmark.extra_info["nodes"] = result.nodes


@pytest.mark.parametrize("viewer_name", list(VIEWERS))
def test_open_medium(benchmark, viewer_name, medium_bytes):
    """Per-viewer open time on the medium tier (~100 MB point)."""
    viewer = VIEWERS[viewer_name]()
    result = benchmark.pedantic(viewer.open_profile, args=(medium_bytes,),
                                rounds=2, iterations=1)
    benchmark.extra_info["blocks"] = result.blocks


def test_fig5_shape(benchmark, corpus):
    """The full figure: all viewers × all tiers, with shape assertions.

    Prints the regenerated figure rows and records them in extra_info.
    """
    def run_comparison():
        table = {}
        for tier_name, data in corpus.items():
            # Round-robin min-of-3: the viewers take turns, so a burst of
            # machine load slows one run of each instead of every run of
            # one, and the minimum per viewer drops it.
            viewers = {name: cls() for name, cls in VIEWERS.items()}
            best = {name: float("inf") for name in VIEWERS}
            for _ in range(3):
                for viewer_name, viewer in viewers.items():
                    seconds = measure(viewer, data).seconds
                    best[viewer_name] = min(best[viewer_name], seconds)
            table[tier_name] = best
        return table

    table = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    print("\nFigure 5 — response time (seconds), lower is better")
    print("%-8s %10s %10s %10s" % ("size", "easyview", "pprof", "goland"))
    for tier_name, row in table.items():
        print("%-8s %10.3f %10.3f %10.3f"
              % (tier_name, row["easyview"], row["pprof"], row["goland"]))
        benchmark.extra_info[tier_name] = {k: round(v, 4)
                                           for k, v in row.items()}

    # Shape: EasyView wins from the medium tier up (tiny profiles are
    # dominated by constant costs, like the paper's 1 MB point where all
    # three viewers are fast).
    sized = [name for name in ("medium", "large") if name in table]
    for tier_name in sized:
        row = table[tier_name]
        assert row["easyview"] < row["pprof"], (tier_name, row)
        assert row["easyview"] < row["goland"], (tier_name, row)
    # Shape: the gap to the slowest baseline does not shrink with size
    # (it widens in a quiet run; allow 15% timer noise so the assertion
    # checks the trend, not the scheduler).
    if len(sized) == 2:
        gaps = [max(table[t].values()) / table[t]["easyview"]
                for t in sized]
        assert gaps[1] > gaps[0] * 0.85, gaps
