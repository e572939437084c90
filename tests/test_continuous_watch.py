"""The regression watch: windowed diffs, ranking, golden report, PVP."""

from __future__ import annotations

import gc
import json
import os

import pytest

from repro.continuous.watch import RegressionWatch
from repro.profilers.workloads import checkout_service_profile
from repro.store import ProfileStore

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "watch_golden.json")

SECOND = 10 ** 9


def ingest_capture(store, slow, t_seconds, seed, service="checkout"):
    profile = checkout_service_profile(slow=slow, scale=3, seed=seed)
    profile.meta.time_nanos = t_seconds * SECOND
    return store.ingest(profile, service=service)


@pytest.fixture
def store(tmp_path):
    return ProfileStore(str(tmp_path / "store"), clock=lambda: SECOND)


@pytest.fixture
def regressed_store(store):
    """Three fast captures, then the same three seeds slowed 4x."""
    for i, (slow, t) in enumerate([(False, 1), (False, 2), (False, 3),
                                   (True, 4), (True, 5), (True, 6)]):
        ingest_capture(store, slow=slow, t_seconds=t, seed=50 + i % 3)
    return store


class TestWindowedQuery:
    def test_query_window_matches_plain_query(self, regressed_store):
        plain = regressed_store.query("service=checkout until=3000000000")
        windowed = regressed_store.query_window(
            "service=checkout until=3000000000")
        assert [e.seq for e in plain.entries] \
            == [e.seq for e in windowed.entries]
        assert plain.digest() == windowed.digest()

    def test_empty_window_has_no_tree(self, store):
        result = store.query_window("service=nobody")
        assert result.tree is None
        assert result.entries == []

    def test_repeat_window_skips_profile_loads(self, regressed_store):
        loads = {"n": 0}
        original = regressed_store.load

        def counting_load(entry):
            loads["n"] += 1
            return original(entry)

        regressed_store.load = counting_load
        regressed_store.query_window("service=checkout")
        cold = loads["n"]
        assert cold > 0
        regressed_store.query_window("service=checkout")
        assert loads["n"] == cold  # warm window: zero loads

    def test_window_key_tracks_membership(self, regressed_store):
        entries = regressed_store.select("service=checkout")
        key_all = regressed_store.window_key(entries)
        assert key_all == regressed_store.window_key(list(reversed(entries)))
        assert key_all != regressed_store.window_key(entries[:-1])

    def test_new_ingest_changes_the_window(self, regressed_store):
        before = regressed_store.query_window("service=checkout")
        ingest_capture(regressed_store, slow=True, t_seconds=7, seed=99)
        after = regressed_store.query_window("service=checkout")
        assert len(after.entries) == len(before.entries) + 1
        assert after.digest() != before.digest()


class TestRegressionRanking:
    def tick(self, store, now=6):
        watch = RegressionWatch(store, query="service=checkout type=cpu",
                                window="3s", baseline="3s")
        return watch.tick(now_nanos=now * SECOND)

    def test_injected_slowdown_ranks_its_frame_first(self, regressed_store):
        report = self.tick(regressed_store)
        assert report.current_captures == 3
        assert report.baseline_captures == 3
        assert report.has_regressions
        top = report.regressions[0]
        assert top.path == "main > handle_request > parse_payload"
        assert top.ratio == pytest.approx(4.0, rel=1e-6)
        # Ancestors grew just as much inclusively but explain nothing:
        # self-delta attribution must keep them out of the top slot.
        paths = [r.path for r in report.regressions]
        assert "main" not in paths[:1]

    def test_no_change_windows_report_empty(self, store):
        for i, t in enumerate([1, 2, 3]):
            ingest_capture(store, slow=False, t_seconds=t, seed=50 + i)
        for i, t in enumerate([4, 5, 6]):
            ingest_capture(store, slow=False, t_seconds=t, seed=50 + i)
        report = self.tick(store)
        assert report.current_captures == 3
        assert not report.regressions
        assert not report.improvements
        assert set(report.tags) == {"="}

    def test_empty_baseline_window_is_not_a_regression(self, store):
        for i, t in enumerate([4, 5, 6]):
            ingest_capture(store, slow=True, t_seconds=t, seed=50 + i)
        report = self.tick(store)
        assert report.baseline_captures == 0
        assert not report.regressions

    def test_recovery_shows_as_improvement(self, store):
        # Slow baseline window, fast current window: the fix landed.
        for i, t in enumerate([1, 2, 3]):
            ingest_capture(store, slow=True, t_seconds=t, seed=50 + i)
        for i, t in enumerate([4, 5, 6]):
            ingest_capture(store, slow=False, t_seconds=t, seed=50 + i)
        report = self.tick(store)
        assert not report.regressions
        assert report.improvements
        assert report.improvements[0].path \
            == "main > handle_request > parse_payload"
        assert report.improvements[0].self_delta < 0

    def test_tick_runs_with_the_cyclic_collector_off(self, regressed_store,
                                                      monkeypatch):
        """The windows and their diff are built with collection off, so
        no collection promotes them; every tick turns it back on."""
        from repro.continuous import watch as watch_module
        seen = []

        def spying(step):
            def spy(*args, **kwargs):
                seen.append(gc.isenabled())
                return step(*args, **kwargs)
            return spy

        monkeypatch.setattr(regressed_store, "query_window",
                            spying(regressed_store.query_window))
        monkeypatch.setattr(watch_module, "diff_trees",
                            spying(watch_module.diff_trees))
        assert self.tick(regressed_store).has_regressions
        assert seen == [False, False, False] and gc.isenabled()

        def unreadable(*args, **kwargs):
            raise OSError("segment unreadable")

        monkeypatch.setattr(regressed_store, "query_window", unreadable)
        with pytest.raises(OSError):
            self.tick(regressed_store)
        assert gc.isenabled()

    def test_min_ratio_filters_small_growth(self, regressed_store):
        watch = RegressionWatch(regressed_store,
                                query="service=checkout type=cpu",
                                window="3s", baseline="3s",
                                min_ratio=10.0)
        report = watch.tick(now_nanos=6 * SECOND)
        assert not report.regressions  # 4x < 10x floor

    def test_report_renders_for_terminals(self, regressed_store):
        text = self.tick(regressed_store).render()
        assert "parse_payload" in text
        assert "x4.0" in text

    def test_scheduled_run_emits_per_tick(self, regressed_store):
        naps = []
        watch = RegressionWatch(regressed_store,
                                query="service=checkout type=cpu",
                                window="100s", baseline="100s",
                                clock=lambda: 6 * SECOND)
        seen = []
        watch.run(3, interval_seconds=2.5, sleep=naps.append,
                  on_report=lambda r: seen.append(r))
        assert len(seen) == 3
        assert naps == [2.5, 2.5]


class TestGoldenReport:
    def test_report_matches_golden_snapshot(self, regressed_store):
        report = RegressionWatch(
            regressed_store, query="service=checkout type=cpu",
            window="3s", baseline="3s").tick(now_nanos=6 * SECOND)
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        assert report.to_dict() == golden

    def test_report_is_stable_across_repeats(self, regressed_store):
        watch = RegressionWatch(regressed_store,
                                query="service=checkout type=cpu",
                                window="3s", baseline="3s")
        first = watch.tick(now_nanos=6 * SECOND)
        second = watch.tick(now_nanos=6 * SECOND)
        assert first.to_json() == second.to_json()


class TestWatchOverPVP:
    def test_watch_report_request(self, tmp_path):
        from repro.ide.mock_ide import MockIDE

        root = str(tmp_path / "store")
        store = ProfileStore(root, clock=lambda: SECOND)
        for i, (slow, t) in enumerate([(False, 1), (False, 2), (False, 3),
                                       (True, 4), (True, 5), (True, 6)]):
            ingest_capture(store, slow=slow, t_seconds=t, seed=50 + i % 3)
        store.flush()

        ide = MockIDE()
        result = ide.request("watch/report", store=root,
                             query="service=checkout type=cpu",
                             window="3s", baseline="3s",
                             nowNanos=6 * SECOND)
        assert result["currentCaptures"] == 3
        assert result["regressions"][0]["path"] \
            == "main > handle_request > parse_payload"

    def test_watch_report_requires_params(self):
        from repro.errors import ProtocolError
        from repro.ide.mock_ide import MockIDE

        with pytest.raises(ProtocolError):
            MockIDE().request("watch/report", store="/tmp/x")


class TestWatchCLI:
    def run_cli(self, argv, capsys):
        from repro.cli import main
        rc = main(argv)
        out = capsys.readouterr()
        return rc, out.out, out.err

    def test_one_shot_report_with_json_and_exit_code(self, tmp_path,
                                                     capsys):
        root = str(tmp_path / "store")
        store = ProfileStore(root, clock=lambda: 7 * SECOND)
        for i, (slow, t) in enumerate([(False, 1), (False, 2), (False, 3),
                                       (True, 4), (True, 5), (True, 6)]):
            ingest_capture(store, slow=slow, t_seconds=t, seed=50 + i % 3)
        store.flush()

        out_path = str(tmp_path / "report.json")
        rc, out, err = self.run_cli(
            ["watch", "--store", root, "service=checkout",
             "--window", "4s", "--baseline", "4s",
             "--now", str(7 * SECOND),
             "--json", out_path, "--fail-on-regression"], capsys)
        assert rc == 2  # regression present → CI-gating exit code
        assert "parse_payload" in out
        with open(out_path) as fh:
            report = json.load(fh)
        assert report["regressions"][0]["path"].endswith("parse_payload")

    def test_clean_stream_exits_zero(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        store = ProfileStore(root, clock=lambda: 7 * SECOND)
        for i, t in enumerate([1, 2, 3, 4, 5, 6]):
            ingest_capture(store, slow=False, t_seconds=t, seed=50 + i % 3)
        store.flush()
        rc, out, _ = self.run_cli(
            ["watch", "--store", root, "service=checkout",
             "--window", "4s", "--baseline", "4s",
             "--now", str(7 * SECOND),
             "--fail-on-regression"], capsys)
        assert rc == 0
        assert "no change" in out
