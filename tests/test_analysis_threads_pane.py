"""Tests for per-thread operations and the programming pane."""

import pytest

from repro import ProfileBuilder
from repro.analysis.pane import ProgrammingPane
from repro.analysis.threads import (aggregate_threads, imbalance,
                                    is_threaded, split_by_thread,
                                    thread_roots, thread_totals)
from repro.analysis.transform import top_down
from repro.converters import parse_bytes
from repro.core.frame import FrameKind, intern_frame
from repro.errors import AnalysisError


def threaded_profile():
    builder = ProfileBuilder(tool="t")
    cpu = builder.metric("cpu", unit="nanoseconds")

    def thread(name):
        return intern_frame(name, kind=FrameKind.THREAD)

    builder.sample([thread("worker-0"), ("serve", "s.c", 1),
                    ("handle", "s.c", 9)], {cpu: 600})
    builder.sample([thread("worker-0"), ("serve", "s.c", 1),
                    ("log", "s.c", 20)], {cpu: 100})
    builder.sample([thread("worker-1"), ("serve", "s.c", 1),
                    ("handle", "s.c", 9)], {cpu: 300})
    return builder.build()


class TestThreads:
    def test_thread_roots_found(self):
        profile = threaded_profile()
        names = {n.frame.name for n in thread_roots(profile)}
        assert names == {"worker-0", "worker-1"}
        assert is_threaded(profile)

    def test_unthreaded_profile(self, simple_profile):
        assert not is_threaded(simple_profile)
        with pytest.raises(AnalysisError):
            split_by_thread(simple_profile)

    def test_threads_under_process_context(self):
        # Austin layout: process → thread → frames.
        builder = ProfileBuilder()
        cpu = builder.metric("cpu")
        builder.sample([intern_frame("process 9", kind=FrameKind.THREAD),
                        intern_frame("thread 1", kind=FrameKind.THREAD),
                        ("f", "x.c", 1)], {cpu: 5})
        roots = thread_roots(builder.build())
        # A THREAD context with THREAD children is the process: its
        # children are the threads.
        assert {n.frame.name for n in roots} == {"thread 1"}

    def test_austin_threads_split_under_their_process(self):
        profile = parse_bytes(b"P100;T1 300\nP100;T2 200\n",
                              format="austin")
        metric = profile.schema.names()[0]
        assert thread_totals(profile, metric) == {"thread 1": 300.0,
                                                  "thread 2": 200.0}
        assert imbalance(profile, metric) == pytest.approx(1.2)
        assert set(split_by_thread(profile)) == {"thread 1", "thread 2"}

    def test_same_named_threads_are_keyed_by_their_path(self):
        builder = ProfileBuilder()
        cpu = builder.metric("cpu")
        main = intern_frame("main-thread", kind=FrameKind.THREAD)
        builder.sample([("proc-1",), main, ("work",)], {cpu: 10})
        builder.sample([("proc-2",), main, ("work",)], {cpu: 30})
        profile = builder.build()
        parts = split_by_thread(profile)
        assert {key: part.total("cpu") for key, part in parts.items()} == {
            "proc-1 > main-thread": 10.0, "proc-2 > main-thread": 30.0}
        assert imbalance(profile, "cpu") == pytest.approx(1.5)

    def test_split_reroots_subtrees(self):
        parts = split_by_thread(threaded_profile())
        assert set(parts) == {"worker-0", "worker-1"}
        w0 = parts["worker-0"]
        assert w0.total("cpu") == 700.0
        handle = w0.find_by_name("handle")[0]
        assert [f.name for f in handle.call_path()] == ["serve", "handle"]
        assert w0.meta.attributes["thread"] == "worker-0"

    def test_split_profiles_are_independent(self):
        parts = split_by_thread(threaded_profile())
        parts["worker-0"].find_by_name("serve")[0].metrics[0] = 0.0
        assert parts["worker-1"].total("cpu") == 300.0

    def test_totals_and_imbalance(self):
        profile = threaded_profile()
        totals = thread_totals(profile, "cpu")
        assert totals == {"worker-0": 700.0, "worker-1": 300.0}
        # mean = 500, max = 700 → 1.4.
        assert imbalance(profile, "cpu") == pytest.approx(1.4)

    def test_balanced_imbalance_is_one(self):
        builder = ProfileBuilder()
        cpu = builder.metric("cpu")
        for name in ("t0", "t1"):
            builder.sample([intern_frame(name, kind=FrameKind.THREAD),
                            ("f", "x.c", 1)], {cpu: 50})
        assert imbalance(builder.build(), "cpu") == pytest.approx(1.0)

    def test_aggregate_threads_histograms(self):
        tree = aggregate_threads(threaded_profile())
        handle = tree.find_by_name("handle")[0]
        assert sorted(handle.histogram[0]) == [300.0, 600.0]
        assert handle.inclusive[tree.schema.index_of("cpu:sum")] == 900.0

    def test_speedscope_multithread_integration(self):
        import json
        from repro.converters import parse_bytes
        payload = {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": [{"name": "main"}, {"name": "work"}]},
            "profiles": [
                {"type": "sampled", "name": "t0", "unit": "none",
                 "samples": [[0, 1]], "weights": [10]},
                {"type": "sampled", "name": "t1", "unit": "none",
                 "samples": [[0, 1]], "weights": [30]},
            ],
        }
        profile = parse_bytes(json.dumps(payload).encode())
        assert is_threaded(profile)
        assert imbalance(profile, "weight") == pytest.approx(1.5)


class TestProgrammingPane:
    def test_emit_and_metric_access(self, simple_profile):
        pane = ProgrammingPane(top_down(simple_profile))
        result = pane.run(
            "for n in find('work'):\n"
            "    emit('work cpu', value(n, 'cpu'))\n")
        assert result.output == ["work cpu 900.0"]

    def test_print_is_captured(self, simple_profile):
        pane = ProgrammingPane(top_down(simple_profile))
        result = pane.run("print('total', total('cpu'))")
        assert result.output == ["total 1000.0"]

    def test_derive_through_pane(self, simple_profile):
        tree = top_down(simple_profile)
        result = ProgrammingPane(tree).run(
            "derive('cpu_ms', 'cpu / 1000000', unit='milliseconds')")
        assert result.derived == ["cpu_ms"]
        assert "cpu_ms" in tree.schema

    def test_elide_hook_recorded_and_applied(self, simple_profile):
        pane = ProgrammingPane(top_down(simple_profile))
        result = pane.run(
            "elide(lambda node: node.frame.name == 'idle')")
        tree = top_down(simple_profile,
                        customization=result.customization)
        assert not tree.find_by_name("idle")

    def test_result_variable(self, simple_profile):
        pane = ProgrammingPane(top_down(simple_profile))
        outcome = pane.run(
            "result = sorted(n.frame.name for n in nodes() "
            "if exclusive(n, 'cpu') > 0)")
        assert outcome.result == ["idle", "inner", "work"]

    @pytest.mark.parametrize("script", [
        "import os",
        "().__class__",
        "open('/etc/passwd')",
        "eval('1')",
        "exec('pass')",
        "getattr(tree, 'schema')",
    ])
    def test_banned_constructs_rejected(self, script, simple_profile):
        pane = ProgrammingPane(top_down(simple_profile))
        with pytest.raises(AnalysisError, match="may not use"):
            pane.run(script)

    def test_runtime_errors_wrapped(self, simple_profile):
        pane = ProgrammingPane(top_down(simple_profile))
        with pytest.raises(AnalysisError, match="ZeroDivisionError"):
            pane.run("x = 1 / 0")

    def test_search_exposed(self, simple_profile):
        pane = ProgrammingPane(top_down(simple_profile))
        result = pane.run("emit(len(search('i')))")
        assert result.output == ["3"]   # main, inner, idle
