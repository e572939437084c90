"""The cyclic collector around PVP requests, seen from the servers.

Both transports run handlers through ``serve.dispatch.Dispatcher`` under
CPython's default collector, which only the bulk builds' ``no_gc`` guard
switches off, and which feeds the ``runtime.gc_seconds`` histogram.
"""

from __future__ import annotations

import asyncio
import gc
import io
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro import obs
from repro.bench.serve import make_profile, stdio_reference_digest
from repro.core.serialize import dump
from repro.ide import protocol as pvp
from repro.ide.server import StdioServer
from repro.serve import (PVPServer, ServeConfig, analyst_script, run_load,
                         sequential_script)
from repro.serve.dispatch import Dispatcher

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def request_line(request_id, method, **params):
    return json.dumps({"jsonrpc": "2.0", "id": request_id,
                       "method": method, "params": params})


class RecordingOut(io.StringIO):
    """Stdout that notes the collector state as each response is written,
    i.e. right after the request that produced it finished."""

    def __init__(self):
        super().__init__()
        self.enabled = []

    def write(self, text):
        if "id" in json.loads(text):
            self.enabled.append(gc.isenabled())
        return super().write(text)


@pytest.fixture
def profile_path(tmp_path, simple_profile):
    path = str(tmp_path / "p.ezvw")
    dump(simple_profile, path)
    return path


class TestCollectorAroundRequests:
    def test_on_after_every_outcome(self, profile_path):
        out = RecordingOut()
        lines = [
            request_line(1, "view/open", path=profile_path),  # nested no_gc
            request_line(2, "view/open", path=5),             # bad params
            request_line(3, "view/summary", profileId=1),     # will crash
            request_line(4, "view/summary", profileId=1),
        ]
        server = StdioServer(stdin=io.StringIO("\n".join(lines) + "\n"),
                             stdout=out, log=io.StringIO())
        handle = server.session.handle

        def spy(message):
            if message.id == 3:
                raise RuntimeError("boom")
            return handle(message)

        server.session.handle = spy
        server.serve_forever()
        responses = [payload for payload in map(
            json.loads, out.getvalue().splitlines()) if "id" in payload]
        assert "result" in responses[0] and "result" in responses[3]
        assert responses[1]["error"]["code"] == pvp.INVALID_PARAMS
        assert responses[2]["error"]["code"] == pvp.INTERNAL_ERROR
        assert out.enabled == [True] * 4

    def test_disabled_collector_stays_off_and_nothing_freezes(
            self, profile_path):
        gc.disable()
        try:
            out = RecordingOut()
            StdioServer(stdin=io.StringIO(
                request_line(1, "view/open", path=profile_path) + "\n"),
                stdout=out, log=io.StringIO()).serve_forever()
            assert out.enabled == [False]
            assert not gc.isenabled()
            assert gc.get_freeze_count() == 0
        finally:
            gc.enable()


BOUNDED_SCRIPT = textwrap.dedent("""
    import gc, io, json, os, sys
    from repro.ide.server import StdioServer
    from repro.profilers.corpus import generate_bytes, tier

    path = os.path.join(sys.argv[1], "small.pb.gz")
    with open(path, "wb") as handle:
        handle.write(generate_bytes(tier("small")))

    counts = []

    class Probe(io.StringIO):
        def write(self, text):
            if '"id"' in text:
                counts.append(len(gc.get_objects()) + gc.get_freeze_count())
            return super().write(text)

    def line(request_id, method, **params):
        return json.dumps({"jsonrpc": "2.0", "id": request_id,
                           "method": method, "params": params})

    lines = []
    for index in range(1, 21):
        lines.append(line(index, "view/open", path=path))
        lines.append(line(100 + index, "view/switchShape",
                          profileId=index, shape="bottom_up"))
        lines.append(line(200 + index, "view/close", profileId=index))
    StdioServer(stdin=io.StringIO("\\n".join(lines) + "\\n"),
                stdout=Probe(), log=io.StringIO()).serve_forever()
    print(json.dumps(counts))
""")


class TestBoundedMemory:
    def test_open_close_cycles_stay_bounded(self, tmp_path):
        # A fresh interpreter: the test process's own heap would hide 20
        # small profiles' worth of garbage.
        proc = subprocess.run(
            [sys.executable, "-c", BOUNDED_SCRIPT, str(tmp_path)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout)
        assert len(counts) == 60
        one_open = counts[0]
        # Closing a profile lets the collector reclaim everything it
        # pinned, so the heap stays near one open's live set plus one
        # request's temporaries however many files were opened.
        assert max(counts) < 3 * one_open, (one_open, counts)


class TestCollectorMetrics:
    def test_a_collecting_request_moves_the_histogram(self):
        class Collecting:
            session_id = "gc"

            def handle(self, message):
                gc.collect()
                return pvp.Response.success(message.id, {})

        log = io.StringIO()
        dispatcher = Dispatcher(Collecting(), slow_seconds=0.0, log=log)
        histogram = obs.get_registry().get("runtime.gc_seconds")
        before = histogram.count
        response = dispatcher.handle(pvp.Request(method="view/summary",
                                                 id=1, params={}))
        assert response.ok
        assert histogram.count > before
        entry = json.loads(log.getvalue().splitlines()[-1])
        assert entry["gcSeconds"] > 0

    def test_obs_metrics_and_prometheus_show_gc_seconds(self):
        out = io.StringIO()
        StdioServer(stdin=io.StringIO(request_line(1, "obs/metrics") + "\n"),
                    stdout=out, log=io.StringIO()).serve_forever()
        metrics = json.loads(out.getvalue())["result"]["metrics"]
        assert "runtime.gc_seconds" in metrics["histograms"]
        text = obs.registry_prometheus()
        assert "# TYPE runtime_gc_seconds histogram" in text
        assert 'runtime_gc_seconds_bucket{le="+Inf"}' in text


class TestConcurrentStress:
    def test_overlapping_sessions_leave_the_collector_on(self, tmp_path):
        path = make_profile(str(tmp_path))
        script = sequential_script(analyst_script(max_steps=4))
        reference = stdio_reference_digest(path, script)
        sessions = (os.cpu_count() or 1) + 2

        async def main():
            server = PVPServer(ServeConfig(max_session_queue=64),
                               log=io.StringIO())
            await server.start()
            try:
                return await asyncio.wait_for(
                    run_load("127.0.0.1", server.port, sessions, path,
                             script=script), timeout=120)
            finally:
                await server.drain()
                await server.stop()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = asyncio.run(main())
        finally:
            sys.setswitchinterval(interval)
        assert report.errors == 0
        assert report.sessions == sessions
        assert set(report.digests) == {reference}
        assert gc.isenabled()
