"""Tests for the JSON-format converters: Chrome, speedscope, pyinstrument,
Scalene, Cloud Profiler — and the HPCToolkit XML converter."""

import json

import pytest

from repro.converters import parse_bytes
from repro.converters.chrome import parse as parse_chrome
from repro.converters.cloudprofiler import parse as parse_cloud, wrap
from repro.converters.hpctoolkit import parse as parse_hpct
from repro.converters.pyinstrument import parse as parse_pyinstrument
from repro.converters.scalene import parse as parse_scalene
from repro.converters.speedscope import parse as parse_speedscope
from repro.errors import FormatError
from repro.proto import pprof_pb


def as_bytes(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


class TestChrome:
    def cpuprofile(self):
        return {
            "nodes": [
                {"id": 1, "callFrame": {"functionName": "(root)",
                                        "url": "", "lineNumber": -1},
                 "children": [2]},
                {"id": 2, "callFrame": {"functionName": "main",
                                        "url": "http://x/app.js",
                                        "lineNumber": 9},
                 "children": [3]},
                {"id": 3, "callFrame": {"functionName": "work",
                                        "url": "http://x/app.js",
                                        "lineNumber": 20}},
            ],
            "samples": [3, 3, 2],
            "timeDeltas": [100, 120, 80],
            "startTime": 1000,
        }

    def test_samples_with_deltas(self):
        profile = parse_chrome(as_bytes(self.cpuprofile()))
        assert profile.total("samples") == 3
        assert profile.total("cpu_time") == (100 + 120 + 80) * 1000

    def test_root_frame_elided(self):
        profile = parse_chrome(as_bytes(self.cpuprofile()))
        assert not profile.find_by_name("(root)")
        work = profile.find_by_name("work")[0]
        assert [f.name for f in work.call_path()] == ["main", "work"]

    def test_v8_lines_converted_to_one_based(self):
        profile = parse_chrome(as_bytes(self.cpuprofile()))
        assert profile.find_by_name("main")[0].frame.line == 10

    def test_hit_counts_fallback(self):
        payload = self.cpuprofile()
        del payload["samples"], payload["timeDeltas"]
        payload["nodes"][2]["hitCount"] = 5
        profile = parse_chrome(as_bytes(payload))
        assert profile.total("samples") == 5

    def test_unknown_sample_node_rejected(self):
        payload = self.cpuprofile()
        payload["samples"] = [99]
        with pytest.raises(FormatError):
            parse_chrome(as_bytes(payload))

    def test_non_json_rejected(self):
        with pytest.raises(FormatError):
            parse_chrome(b"\x00\x01")


class TestSpeedscope:
    def sampled(self):
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": [{"name": "main"},
                                  {"name": "work", "file": "a.py",
                                   "line": 3}]},
            "profiles": [{"type": "sampled", "name": "t0",
                          "unit": "milliseconds",
                          "samples": [[0], [0, 1], [0, 1]],
                          "weights": [1, 2, 3]}],
        }

    def test_sampled_profile(self):
        profile = parse_speedscope(as_bytes(self.sampled()))
        assert profile.total("weight") == 6
        work = profile.find_by_name("work")[0]
        assert work.exclusive(0) == 5
        assert work.frame.file == "a.py"

    def test_evented_profile(self):
        payload = {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": [{"name": "main"}, {"name": "f"}]},
            "profiles": [{"type": "evented", "name": "t0", "unit": "none",
                          "startValue": 0,
                          "events": [
                              {"type": "O", "frame": 0, "at": 0},
                              {"type": "O", "frame": 1, "at": 2},
                              {"type": "C", "frame": 1, "at": 7},
                              {"type": "C", "frame": 0, "at": 10},
                          ]}],
        }
        profile = parse_speedscope(as_bytes(payload))
        f = profile.find_by_name("f")[0]
        assert f.exclusive(0) == 5          # open 2 → close 7
        main = profile.find_by_name("main")[0]
        assert main.exclusive(0) == 5       # 0→2 plus 7→10

    def test_multiple_profiles_get_thread_contexts(self):
        payload = self.sampled()
        payload["profiles"].append(dict(payload["profiles"][0], name="t1"))
        profile = parse_speedscope(as_bytes(payload))
        threads = {n.frame.name for n in profile.root.children.values()}
        assert threads == {"t0", "t1"}

    def test_mismatched_close_rejected(self):
        payload = {
            "$schema": "speedscope", "shared": {"frames": [{"name": "a"},
                                                           {"name": "b"}]},
            "profiles": [{"type": "evented", "events": [
                {"type": "O", "frame": 0, "at": 0},
                {"type": "C", "frame": 1, "at": 1}]}],
        }
        with pytest.raises(FormatError, match="mismatched"):
            parse_speedscope(as_bytes(payload))

    def test_unclosed_frames_rejected(self):
        payload = {
            "$schema": "speedscope", "shared": {"frames": [{"name": "a"}]},
            "profiles": [{"type": "evented", "events": [
                {"type": "O", "frame": 0, "at": 0}]}],
        }
        with pytest.raises(FormatError, match="open frames"):
            parse_speedscope(as_bytes(payload))

    def test_missing_schema_rejected(self):
        with pytest.raises(FormatError):
            parse_speedscope(b"{}")

    @pytest.mark.parametrize("index", [-1, -2, 2, True, 1.0, "1", None])
    def test_sample_frame_index_out_of_table_rejected(self, index):
        payload = self.sampled()
        payload["profiles"][0]["samples"] = [[0, index]]
        payload["profiles"][0]["weights"] = [5]
        with pytest.raises(FormatError, match="unknown frame"):
            parse_bytes(as_bytes(payload), format="speedscope")

    def test_open_event_without_frame_rejected(self):
        # Without the check the missing index defaulted to -1 and opened
        # the last frame of the table.
        payload = {
            "$schema": "speedscope",
            "shared": {"frames": [{"name": "main"}, {"name": "work"}]},
            "profiles": [{"type": "evented", "events": [
                {"type": "O", "at": 0}, {"type": "C", "at": 2}]}],
        }
        with pytest.raises(FormatError, match="unknown frame"):
            parse_bytes(as_bytes(payload), format="speedscope")


class TestPyinstrument:
    def test_self_time_attribution(self):
        payload = {"duration": 1.5, "root_frame": {
            "function": "main", "file_path": "m.py", "line_no": 1,
            "time": 1.5,
            "children": [{"function": "work", "file_path": "m.py",
                          "line_no": 9, "time": 1.0, "children": []}]}}
        profile = parse_pyinstrument(as_bytes(payload))
        main = profile.find_by_name("main")[0]
        assert main.exclusive(0) == pytest.approx(0.5e9)
        work = profile.find_by_name("work")[0]
        assert work.exclusive(0) == pytest.approx(1.0e9)
        assert profile.meta.duration_nanos == int(1.5e9)

    def test_missing_root_rejected(self):
        with pytest.raises(FormatError):
            parse_pyinstrument(b"{}")


class TestScalene:
    def test_line_granular_metrics(self):
        payload = {"elapsed_time_sec": 2.0, "files": {"app.py": {"lines": [
            {"lineno": 10, "function": "hot", "n_cpu_percent_python": 50.0,
             "n_cpu_percent_c": 10.0, "n_sys_percent": 5.0,
             "n_peak_mb": 12.0, "n_copy_mb_s": 1.0}]}}}
        profile = parse_scalene(as_bytes(payload))
        assert profile.total("cpu_python") == pytest.approx(1e9)
        assert profile.total("cpu_native") == pytest.approx(0.2e9)
        assert profile.total("memory_peak") == 12 * 1024 * 1024
        line = profile.find_by_name("line 10")[0]
        assert line.parent.frame.name == "hot"

    def test_zero_lines_skipped(self):
        payload = {"elapsed_time_sec": 1.0, "files": {"a.py": {"lines": [
            {"lineno": 1, "function": "f"}]}}}
        profile = parse_scalene(as_bytes(payload))
        assert profile.node_count() == 1  # nothing but the root

    def test_missing_files_rejected(self):
        with pytest.raises(FormatError):
            parse_scalene(b"{}")


class TestCloudProfiler:
    def test_envelope_unwrapped(self, small_pprof_bytes):
        envelope = wrap(small_pprof_bytes, profile_type="HEAP",
                        project_id="acme", target="api-server")
        profile = parse_cloud(envelope)
        assert profile.meta.tool == "cloud-profiler"
        assert profile.meta.attributes["profileType"] == "HEAP"
        assert profile.meta.attributes["target"] == "api-server"
        assert profile.node_count() > 100

    def test_missing_bytes_rejected(self):
        with pytest.raises(FormatError, match="profileBytes"):
            parse_cloud(b'{"profileType": "CPU"}')

    def test_bad_base64_rejected(self):
        with pytest.raises(FormatError, match="base64"):
            parse_cloud(b'{"profileBytes": "!!!not-base64!!!"}')


class TestHPCToolkit:
    XML = b"""<?xml version="1.0"?>
<HPCToolkitExperiment>
<SecCallPathProfile><SecHeader>
<MetricTable><Metric i="0" n="CPUTIME (usec):Sum (I)"/></MetricTable>
<FileTable><File i="1" n="lulesh.cc"/></FileTable>
<ProcedureTable><Procedure i="2" n="main"/><Procedure i="3" n="compute"/>
</ProcedureTable>
<LoadModuleTable><LoadModule i="4" n="/usr/bin/lulesh"/></LoadModuleTable>
</SecHeader>
<SecCallPathProfileData>
<PF n="2" f="1" l="10" lm="4"><M n="0" v="100"/>
 <C l="12"><PF n="3" f="1" l="30" lm="4"><M n="0" v="900"/>
   <L l="33"><S l="34"><M n="0" v="500"/></S></L>
 </PF></C>
</PF>
</SecCallPathProfileData></SecCallPathProfile></HPCToolkitExperiment>"""

    def test_procedure_frames(self):
        profile = parse_hpct(self.XML)
        compute = profile.find_by_name("compute")[0]
        assert [f.name for f in compute.call_path()] == ["main", "compute"]
        assert compute.frame.module == "lulesh"

    def test_loop_and_statement_scopes(self):
        from repro.core.frame import FrameKind
        profile = parse_hpct(self.XML)
        loops = [n for n in profile.nodes()
                 if n.frame.kind is FrameKind.LOOP]
        statements = [n for n in profile.nodes()
                      if n.frame.kind is FrameKind.INSTRUCTION]
        assert len(loops) == 1 and len(statements) == 1
        assert statements[0].exclusive(0) == 500.0

    def test_total(self):
        profile = parse_hpct(self.XML)
        assert profile.total("CPUTIME (usec):Sum (I)") == 1500.0

    def test_wrong_root_rejected(self):
        with pytest.raises(FormatError):
            parse_hpct(b"<NotAnExperiment/>")

    def test_no_metrics_rejected(self):
        with pytest.raises(FormatError):
            parse_hpct(b"<HPCToolkitExperiment><SecCallPathProfileData/>"
                       b"</HPCToolkitExperiment>")
