"""The regression watch: windowed diffs, ranking, golden report, PVP."""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.bench import view_oracle
from repro.continuous import watch as watch_module
from repro.continuous.watch import RegressionWatch, rank_regressions
from repro.converters import parse_bytes
from repro.core.frame import ROOT_FRAME, FrameKind, intern_frame
from repro.core.metric import Aggregation, Metric, MetricSchema
from repro.errors import EasyViewError
from repro.profilers.corpus import generate, tier
from repro.profilers.workloads import checkout_service_profile
from repro.proto import pprof_pb
from repro.store import ProfileStore

from .twins import facade_only, with_arrays

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


# -- the row ranking against the node-by-node oracle ---------------------------

def exact(entries):
    """Every field of every entry, floats by ``repr`` (so -0.0 and 0.0
    differ), in section order."""
    return [tuple(repr(value) for value in dataclasses.astuple(entry))
            for entry in entries]


def assert_ranked_as_oracle(diff, index, **options):
    """The row kernel's sections equal the oracle's on the diff's facade."""
    got = rank_regressions(diff, index, **options)
    want = view_oracle.rank_regressions(facade_only(diff), index, **options)
    assert exact(got[0]) == exact(want[0])
    assert exact(got[1]) == exact(want[1])
    return got


def keep_diffs(patch):
    """The list of every diff tree the watch builds from here on."""
    diffs = []
    original = watch_module.diff_trees

    def keep(*args, **kwargs):
        diffs.append(original(*args, **kwargs))
        return diffs[-1]

    patch.setattr(watch_module, "diff_trees", keep)
    return diffs


def tick_against_oracle(watch, now, monkeypatch):
    """One tick, with its report checked against the oracle run on the
    facade of the diff the tick built."""
    with monkeypatch.context() as patch:
        diffs = keep_diffs(patch)
        report = watch.tick(now_nanos=now)
    if not diffs:
        assert (report.regressions, report.improvements, report.tags) \
            == ([], [], {})
        return report
    diff, = diffs
    tree = facade_only(diff)
    regressions, improvements = view_oracle.rank_regressions(
        tree, diff.schema.index_of(report.metric), watch.min_self_delta,
        watch.min_ratio, watch.top)
    assert exact(report.regressions) == exact(regressions)
    assert exact(report.improvements) == exact(improvements)
    assert list(report.tags.items()) \
        == list(view_oracle.summarize(tree).items())
    return report


@pytest.fixture(scope="module")
def service_stream(tmp_path_factory):
    """32 small-tier captures of one service, one per second: a
    16-capture baseline window, then 16 captures in which every path
    through a sixth of the leaves runs 3x slower."""
    base = generate(dataclasses.replace(tier("small"), seed=7))
    paths = sorted({tuple(sample.location_id) for sample in base.sample})
    store = ProfileStore(str(tmp_path_factory.mktemp("stream") / "store"),
                         clock=lambda: SECOND)
    for index in range(32):
        rng = random.Random("stream/%d" % index)
        message = pprof_pb.Profile()
        for name in ("sample_type", "period_type", "period", "mapping",
                     "function", "location", "string_table",
                     "duration_nanos"):
            setattr(message, name, getattr(base, name))
        samples = []
        for _ in range(len(base.sample)):
            path = list(rng.choice(paths))
            cpu = int(rng.paretovariate(1.5) * base.period)
            if index >= 16 and path[0] % 6 == 0:
                cpu *= 3
            samples.append(pprof_pb.Sample(
                location_id=path, value=[cpu, max(cpu // base.period, 1)]))
        message.sample = samples
        message.time_nanos = (index + 1) * SECOND
        store.ingest(parse_bytes(pprof_pb.dumps(message), format="pprof"),
                     service="svc")
    return store


def stream_watch(store, shape="top_down", **options):
    return RegressionWatch(store, query="service=svc", window="16s",
                           baseline="16s", shape=shape, **options)


#: Option sets for the stream's diffs: the defaults, sections cut to
#: nothing, cut short and not cut at all, and each filter on uncut
#: sections.
OPTIONS = [{}, {"top": 0}, {"top": 3}, {"top": 100_000},
           {"min_ratio": 1.4, "top": 100_000},
           {"min_self_delta": 4e7, "top": 100_000},
           {"min_ratio": 0.5, "min_self_delta": 1e6, "top": 100_000}]


_tree_names = st.sampled_from(["main", "work", "parse"])
_tree_files = st.sampled_from(["a.py", "b.py"])
# Few values, some of which do not add associatively: ties at every cut,
# and sums whose order shows.
_tree_values = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1.0, 2.0, 3.0,
                                1e16])


@st.composite
def _diff_trees(draw):
    """A hand-made one-metric diff tree: random shape, values and tags,
    same-named siblings and the occasional ROOT-kind frame below the
    root."""
    schema = MetricSchema()
    schema.add(Metric(name="cpu", unit="ns", aggregation=Aggregation.SUM))
    tree = view_oracle.ObjectTree(schema, "diff:top_down")
    nodes = [tree.root]
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        parent = nodes[draw(st.integers(min_value=0,
                                        max_value=len(nodes) - 1))]
        frame = ROOT_FRAME if draw(st.integers(0, 9)) == 0 else \
            intern_frame(draw(_tree_names), file=draw(_tree_files),
                         kind=FrameKind.FUNCTION)
        node = parent.child(frame)
        if draw(st.booleans()):
            node.inclusive[0] = draw(_tree_values)
        if draw(st.booleans()):
            node.baseline[0] = draw(_tree_values)
        node.tag = draw(st.sampled_from(["A", "D", "+", "-", "="]))
        nodes.append(node)
    return tree


def same_named_siblings():
    """``main`` with ``parse`` and two ``work`` frames (a.py, then b.py),
    each 2.0 slower; ``main`` itself explains nothing."""
    schema = MetricSchema()
    schema.add(Metric(name="cpu", unit="ns", aggregation=Aggregation.SUM))
    tree = view_oracle.ObjectTree(schema, "diff:top_down")
    main = tree.root.child(intern_frame("main", file="m.py"))
    main.baseline[0], main.inclusive[0], main.tag = 5.0, 11.0, "+"
    for name, file, before in (("parse", "p.py", 1.0),
                               ("work", "a.py", 1.0),
                               ("work", "b.py", 2.0)):
        node = main.child(intern_frame(name, file=file))
        node.baseline[0], node.inclusive[0], node.tag = \
            before, before + 2.0, "+"
    return tree


class TestRankingMatchesOracle:
    """The row ranking equals the node-by-node oracle exactly: every
    unrounded field, the section order and the tags."""

    def test_golden_store(self, regressed_store, monkeypatch):
        watch = RegressionWatch(regressed_store,
                                query="service=checkout type=cpu",
                                window="3s", baseline="3s")
        report = tick_against_oracle(watch, 6 * SECOND, monkeypatch)
        assert report.regressions

    @pytest.mark.parametrize("shape", ["top_down", "bottom_up", "flat"])
    def test_service_stream_windows(self, service_stream, shape,
                                    monkeypatch):
        report = tick_against_oracle(stream_watch(service_stream, shape),
                                     32 * SECOND, monkeypatch)
        assert report.current_captures == report.baseline_captures == 16
        assert len(report.regressions) == len(report.improvements) == 20

    @pytest.mark.parametrize("shape", ["top_down", "bottom_up", "flat"])
    def test_service_stream_options(self, service_stream, shape,
                                    monkeypatch):
        diffs = keep_diffs(monkeypatch)
        report = stream_watch(service_stream, shape).tick(
            now_nanos=32 * SECOND)
        diff, = diffs
        index = diff.schema.index_of(report.metric)
        sizes = []
        for options in OPTIONS:
            regressions, improvements = assert_ranked_as_oracle(
                diff, index, **options)
            sizes.append((len(regressions), len(improvements)))
        # Each option set changed what was reported.
        assert len(set(sizes)) == len(OPTIONS)

    def test_options_reach_the_tick(self, service_stream, monkeypatch):
        report = tick_against_oracle(
            stream_watch(service_stream, min_ratio=1.4, min_self_delta=4e7,
                         top=7), 32 * SECOND, monkeypatch)
        assert len(report.regressions) == len(report.improvements) == 7
        assert min(r.ratio for r in report.regressions) >= 1.4

    def test_walk_order_breaks_a_tie_of_self_delta_and_path(self):
        tree = same_named_siblings()
        diff = with_arrays(tree)
        regressions, improvements = assert_ranked_as_oracle(diff, 0)
        # Equal self deltas rank by path; the two "main > work" entries
        # then rank in walk order, which meets the later sibling first.
        assert [(r.path, r.baseline) for r in regressions] == [
            ("main > parse", 1.0), ("main > work", 2.0),
            ("main > work", 1.0)]
        assert improvements == []
        for top in range(5):
            got, _ = assert_ranked_as_oracle(diff, 0, top=top)
            assert got == regressions[:top]

    @given(_diff_trees(), st.sampled_from([0.0, 0.15, 1.0]),
           st.sampled_from([0.5, 1.0, 1.5]), st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_random_diff_trees(self, tree, min_self_delta, min_ratio, top):
        assert_ranked_as_oracle(with_arrays(tree), 0,
                                min_self_delta=min_self_delta,
                                min_ratio=min_ratio, top=top)

    def test_empty_windows(self, store, monkeypatch):
        watch = RegressionWatch(store, query="service=checkout type=cpu",
                                window="3s", baseline="3s")
        report = tick_against_oracle(watch, 6 * SECOND, monkeypatch)
        assert report.current_captures == report.baseline_captures == 0
        for i, t in enumerate([4, 5, 6]):
            ingest_capture(store, slow=True, t_seconds=t, seed=50 + i)
        report = tick_against_oracle(watch, 6 * SECOND, monkeypatch)
        assert (report.current_captures, report.baseline_captures) == (3, 0)
        schema = MetricSchema()
        schema.add(Metric(name="cpu", unit="ns"))
        root_only = with_arrays(view_oracle.ObjectTree(schema,
                                                       "diff:top_down"))
        assert assert_ranked_as_oracle(root_only, 0) == ([], [])

    def test_a_tick_builds_no_facade(self, regressed_store):
        registry = obs.get_registry()
        builds = ("analysis.view_materializations",
                  "core.cct_materializations")
        before = [registry.counter(name).value for name in builds]
        watch = RegressionWatch(regressed_store,
                                query="service=checkout type=cpu",
                                window="3s", baseline="3s")
        for _ in range(2):
            assert watch.tick(now_nanos=6 * SECOND).has_regressions
        assert [registry.counter(name).value for name in builds] == before


class TestTop:
    def test_negative_top_is_refused(self, store):
        with pytest.raises(EasyViewError, match="top"):
            RegressionWatch(store, query="service=checkout", top=-1)

    def test_top_zero_reports_empty_sections(self, regressed_store):
        report = RegressionWatch(
            regressed_store, query="service=checkout type=cpu",
            window="3s", baseline="3s", top=0).tick(now_nanos=6 * SECOND)
        assert report.regressions == [] and report.improvements == []
        assert report.tags == {"+": 3, "=": 3}


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

    def test_negative_top_fails_the_request(self, tmp_path):
        from repro.errors import ProtocolError
        from repro.ide.mock_ide import MockIDE

        with pytest.raises(ProtocolError, match="top must be 0 or more"):
            MockIDE().request("watch/report", store=str(tmp_path / "store"),
                              query="service=checkout", top=-1)


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

    def test_negative_top_exits_one(self, tmp_path, capsys):
        rc, out, err = self.run_cli(
            ["watch", "--store", str(tmp_path / "store"), "service=checkout",
             "--top", "-1"], capsys)
        assert rc == 1
        assert out == ""
        assert "top must be 0 or more" in err

    def test_ticks_zero_runs_until_interrupted(self, tmp_path, capsys,
                                               monkeypatch):
        root = str(tmp_path / "store")
        store = ProfileStore(root, clock=lambda: 7 * SECOND)
        for i, (slow, t) in enumerate([(False, 1), (False, 2), (False, 3),
                                       (True, 4), (True, 5), (True, 6)]):
            ingest_capture(store, slow=slow, t_seconds=t, seed=50 + i % 3)
        store.flush()
        naps = []

        def sleep(seconds):
            naps.append(seconds)
            if len(naps) == 2:
                raise KeyboardInterrupt

        monkeypatch.setattr(time, "sleep", sleep)
        out_path = str(tmp_path / "report.json")
        rc, out, err = self.run_cli(
            ["watch", "--store", root, "service=checkout",
             "--window", "4s", "--baseline", "4s",
             "--now", str(7 * SECOND), "--ticks", "0", "--interval", "5",
             "--json", out_path, "--fail-on-regression"], capsys)
        assert naps == [5.0, 5.0]
        assert out.count("watch service=checkout") == 2  # one per tick
        assert "interrupted" in err
        assert rc == 2  # the last report's regressions
        with open(out_path) as fh:
            report = json.load(fh)
        assert report["regressions"][0]["path"].endswith("parse_payload")
