"""CI smoke: the whole continuous loop over real HTTP, in one process.

An agent captures a checkout service on a cadence (three healthy ticks,
then a deploy that slows ``parse_payload`` 4x), ships to a collector
over HTTP, the collector ingests into a throwaway store, and the watch
diffs the two windows and names the slowed frame.  When
``EASYVIEW_SMOKE_OUT`` is set the watch report is written there so the
CI job can upload it as an artifact.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.continuous import CaptureAgent, Collector, DiskSpool, RegressionWatch
from repro.continuous.agent import HTTPShipper, RetryPolicy
from repro.profilers.workloads import checkout_service_profile
from repro.store import ProfileStore

pytestmark = pytest.mark.continuous_smoke

SECOND = 10 ** 9


class SlowdownSource:
    """Three healthy captures, then the regression ships to prod.

    Advances the shared fake clock one second per capture so the
    envelopes land in two clean, adjacent time windows.
    """

    def __init__(self, clock):
        self.clock = clock
        self.ticks = 0

    def __call__(self):
        slow = self.ticks >= 3
        profile = checkout_service_profile(slow=slow, scale=3,
                                           seed=50 + self.ticks % 3)
        self.ticks += 1
        self.clock["now"] += 1.0
        return profile


def counter_value(name):
    instrument = obs.get_registry().get(name)
    return instrument.value if instrument is not None else 0


def test_continuous_loop_end_to_end(tmp_path):
    clock = {"now": 0.0}
    before = {name: counter_value(name)
              for name in ("continuous.agent.shipped",
                           "continuous.collector.uploads",
                           "continuous.watch.ticks")}

    store = ProfileStore(str(tmp_path / "store"), clock=lambda: 7 * SECOND)
    with Collector(store, port=0) as collector:
        agent = CaptureAgent(
            SlowdownSource(clock),
            HTTPShipper(collector.url, timeout=5.0),
            service="checkout", host="smoke",
            spool=DiskSpool(str(tmp_path / "spool")),
            retry=RetryPolicy(max_attempts=3, base_delay=0.01),
            clock=lambda: clock["now"], sleep=lambda s: None)
        results = agent.run(6)

    assert all(r and r["status"] == "stored" for r in results), results
    assert len(store.select("service=checkout")) == 6

    watch = RegressionWatch(store, query="service=checkout type=cpu",
                            window="3s", baseline="3s")
    # The watch ranks on the diff rows: a tick builds no ViewNode facade
    # and no object CCT.
    builds = ("analysis.view_materializations", "core.cct_materializations")
    before_tick = [counter_value(name) for name in builds]
    report = watch.tick(now_nanos=6 * SECOND)
    assert [counter_value(name) for name in builds] == before_tick

    assert report.current_captures == 3
    assert report.baseline_captures == 3
    assert report.has_regressions
    top = report.regressions[0]
    assert top.path.endswith("parse_payload")
    assert top.ratio == pytest.approx(4.0, rel=1e-6)

    # Every stage of the loop left a pulse in the process metrics.
    assert counter_value("continuous.agent.shipped") \
        >= before["continuous.agent.shipped"] + 6
    assert counter_value("continuous.collector.uploads") \
        >= before["continuous.collector.uploads"] + 6
    assert counter_value("continuous.watch.ticks") \
        >= before["continuous.watch.ticks"] + 1

    out_path = os.environ.get("EASYVIEW_SMOKE_OUT")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(report.to_json())
        with open(out_path) as fh:
            assert json.load(fh)["regressions"]
