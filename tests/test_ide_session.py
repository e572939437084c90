"""End-to-end tests for the viewer session through the mock IDE.

Every interaction goes through real JSON-RPC serialization (the MockIDE
round-trips each message), so these tests cover the protocol, the session,
and the IDE actions together.
"""

import pytest

from repro.core.serialize import dump
from repro.errors import ProtocolError
from repro.ide.actions import Capabilities
from repro.ide.mock_ide import MockIDE
from repro.ide.protocol import (IDE_CODE_LENS, IDE_FLOATING_WINDOW,
                                IDE_HOVER, IDE_OPEN_DOCUMENT,
                                IDE_SET_DECORATIONS)


@pytest.fixture
def ide(simple_profile):
    workspace = {"app.c": "\n".join("line %d" % i for i in range(1, 101))}
    mock = MockIDE(workspace=workspace)
    opened = mock.session.open(simple_profile)
    mock.profile_id = opened.id
    return mock


class TestOpen:
    def test_open_reports_summary_and_latency(self, tmp_path,
                                              simple_profile):
        path = str(tmp_path / "p.ezvw")
        dump(simple_profile, path)
        ide = MockIDE()
        result = ide.request("view/open", path=path)
        assert result["summary"]["contexts"] == simple_profile.node_count()
        assert result["responseSeconds"] >= 0

    def test_open_missing_file_is_protocol_error(self):
        ide = MockIDE()
        with pytest.raises(ProtocolError):
            ide.request("view/open", path="/does/not/exist.pb.gz")

    def test_close(self, ide):
        assert ide.request("view/close",
                           profileId=ide.profile_id) == {"closed": True}
        with pytest.raises(ProtocolError):
            ide.request("view/summary", profileId=ide.profile_id)


class TestShapes:
    def test_switch_shapes(self, ide):
        for shape in ("top_down", "bottom_up", "flat"):
            result = ide.request("view/switchShape",
                                 profileId=ide.profile_id, shape=shape)
            assert result["blocks"] > 0

    def test_unknown_shape_rejected(self, ide):
        with pytest.raises(ProtocolError):
            ide.request("view/switchShape", profileId=ide.profile_id,
                        shape="diagonal")


class TestCodeLink:
    def test_select_opens_document_at_line(self, ide):
        tree = ide.session.view(ide.profile_id, "top_down")
        opened = ide.session.get(ide.profile_id)
        work = tree.find_by_name("work")[0]
        result = ide.request("view/select", profileId=ide.profile_id,
                             nodeRef=opened.node_ref(work))
        assert result["linked"]
        assert ide.state.open_file == "app.c"
        assert ide.state.cursor_line == 42
        assert ("app.c", 42) in ide.state.highlighted
        assert ide.document_exists("app.c")

    def test_select_without_mapping_returns_unlinked(self, ide):
        from repro import ProfileBuilder
        builder = ProfileBuilder()
        builder.metric("m")
        builder.sample(["nameless"], {0: 1.0})
        opened = ide.session.open(builder.build())
        tree = ide.session.view(opened.id, "top_down")
        node = tree.find_by_name("nameless")[0]
        result = ide.request("view/select", profileId=opened.id,
                             nodeRef=opened.node_ref(node))
        assert not result["linked"]

    def test_select_reports_metrics(self, ide):
        tree = ide.session.view(ide.profile_id, "top_down")
        opened = ide.session.get(ide.profile_id)
        work = tree.find_by_name("work")[0]
        result = ide.request("view/select", profileId=ide.profile_id,
                             nodeRef=opened.node_ref(work))
        assert result["metrics"]["cpu"] == 900.0

    def test_bad_node_ref_rejected(self, ide):
        with pytest.raises(ProtocolError):
            ide.request("view/select", profileId=ide.profile_id,
                        nodeRef=99999)


class TestSearchZoomSummary:
    def test_search_returns_refs_and_coverage(self, ide):
        result = ide.request("view/search", profileId=ide.profile_id,
                             pattern="work")
        assert len(result["matches"]) == 1
        assert result["coverage"] == pytest.approx(0.9)

    def test_zoom(self, ide):
        opened = ide.session.get(ide.profile_id)
        tree = ide.session.view(ide.profile_id, "top_down")
        work = tree.find_by_name("work")[0]
        result = ide.request("view/zoom", profileId=ide.profile_id,
                             nodeRef=opened.node_ref(work))
        assert result["blocks"] == 2   # work + inner

    def test_summary_emits_floating_window(self, ide):
        result = ide.request("view/summary", profileId=ide.profile_id)
        assert "Hottest contexts" in result["body"]
        assert ide.actions_of(IDE_FLOATING_WINDOW)

    def test_hover_request(self, ide):
        result = ide.request("view/hover", profileId=ide.profile_id,
                             file="app.c", line=42)
        assert result["found"]
        assert ide.actions_of(IDE_HOVER)


class TestOptionalActions:
    def test_code_lenses_emitted(self, ide):
        count = ide.session.show_code_lenses(ide.profile_id, "top_down",
                                             file="app.c")
        assert count == 3   # work, inner, idle (main has no exclusive cost)
        assert len(ide.actions_of(IDE_CODE_LENS)) == 3

    def test_decorations_emitted(self, ide):
        count = ide.session.show_decorations(ide.profile_id, "top_down")
        assert count == 3
        assert len(ide.actions_of(IDE_SET_DECORATIONS)) == 3

    def test_minimal_capabilities_suppress_optional_actions(
            self, simple_profile):
        ide = MockIDE(capabilities=Capabilities.minimal())
        opened = ide.session.open(simple_profile)
        assert ide.session.show_code_lenses(opened.id, "top_down") == 0
        assert ide.session.show_decorations(opened.id, "top_down") == 0
        assert ide.session.show_hover(opened.id, "top_down", "app.c",
                                      42) is None
        # The mandatory code link still works.
        tree = ide.session.view(opened.id, "top_down")
        work = tree.find_by_name("work")[0]
        assert ide.session.select(opened.id, work) is not None
        assert ide.actions_of(IDE_OPEN_DOCUMENT)

    def test_capability_negotiation(self, ide):
        result = ide.request("view/capabilities",
                             capabilities={"hover": True})
        assert result["capabilities"]["hover"]
        assert not result["capabilities"]["codeLens"]
        assert set(result["shapes"]) == {"top_down", "bottom_up", "flat"}


class TestMultiProfileRequests:
    def test_diff_request(self, simple_profile, spark_pair):
        rdd, sql = spark_pair
        ide = MockIDE()
        base_id = ide.session.open(rdd).id
        treat_id = ide.session.open(sql).id
        result = ide.request("view/diff", baselineId=base_id,
                             treatmentId=treat_id)
        assert result["tags"].get("A") and result["tags"].get("D")

    def test_aggregate_request(self, simple_profile):
        ide = MockIDE()
        a = ide.session.open(simple_profile).id
        b = ide.session.open(simple_profile).id
        result = ide.request("view/aggregate", profileIds=[a, b])
        merged = ide.session.view(result["profileId"], "top_down")
        work = merged.find_by_name("work")[0]
        assert work.inclusive[merged.schema.index_of("cpu:sum")] == 1800.0

    def test_click_returns_histogram(self, simple_profile):
        ide = MockIDE()
        a = ide.session.open(simple_profile).id
        b = ide.session.open(simple_profile).id
        result = ide.request("view/aggregate", profileIds=[a, b])
        merged_id = result["profileId"]
        merged = ide.session.view(merged_id, "top_down")
        opened = ide.session.get(merged_id)
        work = merged.find_by_name("work")[0]
        clicked = ide.request("view/click", profileId=merged_id,
                              nodeRef=opened.node_ref(work))
        assert clicked["histogram"]["series"] == [900.0, 900.0]
        assert len(clicked["histogram"]["sparkline"]) == 2

    def test_derive_metric_request(self, ide):
        result = ide.request("view/deriveMetric", profileId=ide.profile_id,
                             name="cpu_us", formula="cpu / 1000")
        tree = ide.session.view(ide.profile_id, "top_down")
        assert tree.schema[result["metricIndex"]].name == "cpu_us"

    def test_bad_formula_is_clean_error(self, ide):
        with pytest.raises(ProtocolError, match="failed"):
            ide.request("view/deriveMetric", profileId=ide.profile_id,
                        name="x", formula="cpu +")

    @pytest.mark.parametrize("formula", ["cpu / nosuch", "frob(cpu)",
                                         "max(cpu)", "cpu +"])
    def test_formula_error_is_invalid_params_and_changes_nothing(
            self, ide, formula):
        from repro.ide import protocol as pvp
        response = ide.session.handle(pvp.Request(
            method="view/deriveMetric", id=1,
            params={"profileId": ide.profile_id, "name": "x",
                    "formula": formula}))
        assert response.error["code"] == pvp.INVALID_PARAMS
        result = ide.request("view/deriveMetric", profileId=ide.profile_id,
                             name="cpu_us", formula="cpu / 1000")
        assert result["metricIndex"] == 2  # cpu, alloc, then cpu_us

    def test_derive_on_columnar_view_keeps_arrays_and_node_refs(
            self, tmp_path):
        from repro.profilers.corpus import generate_bytes, tier
        path = tmp_path / "small.pb.gz"
        path.write_bytes(generate_bytes(tier("small")))
        ide = MockIDE()
        profile_id = ide.open_profile(str(path))
        rows = ide.request("view/tableExpand", profileId=profile_id,
                           hotPath=True)["rows"]
        tree = ide.session.view(profile_id, "top_down")
        ref = rows[0]["ref"]
        node = ide.session.get(profile_id).node_by_ref(ref)
        index = ide.request("view/deriveMetric", profileId=profile_id,
                            name="per_sample",
                            formula="cpu / samples")["metricIndex"]
        assert tree.columnar() is not None
        assert ide.session.get(profile_id).node_by_ref(ref) is node
        samples = node.inclusive[tree.schema.index_of("samples")]
        assert node.inclusive[index] == (
            node.inclusive[tree.schema.index_of("cpu")] / samples
            if samples else 0.0)
        row = ide.request("view/table", profileId=profile_id)["rows"][0]
        assert row["values"][index] == node.inclusive[index]

    def test_table_lists_derived_column(self, ide):
        before = ide.request("view/table", profileId=ide.profile_id)
        assert before["columns"] == ["cpu", "alloc"]
        ide.request("view/deriveMetric", profileId=ide.profile_id,
                    name="cpu_us", formula="cpu / 1000")
        after = ide.request("view/table", profileId=ide.profile_id)
        assert after["columns"] == ["cpu", "alloc", "cpu_us"]
        work = next(row for row in after["rows"] if "main" in row["label"])
        assert work["values"][2] == pytest.approx(work["values"][0] / 1000)


class TestEngineStats:
    def test_engine_stats_request(self, ide):
        from repro.engine import AnalysisEngine
        # Give the session a private engine so counters are deterministic.
        ide.session.engine = AnalysisEngine()
        profile = ide.session.get(ide.profile_id).profile
        # Opening the same profile twice shares the memoized transform and
        # layout: the second open is all cache hits.
        ide.session.open(profile, shape="bottom_up")
        ide.session.open(profile, shape="bottom_up")
        stats = ide.request("view/engineStats")
        assert set(stats) >= {"hits", "misses", "evictions", "bypasses",
                              "hitRate", "operations", "size", "capacity",
                              "pool"}
        assert stats["hits"] >= 2       # transform + layout on reopen
        assert stats["misses"] >= 2
        assert stats["operations"]["transform"]["hits"] >= 1

    def test_hover_twice_hits_attribution_cache(self, ide):
        from repro.engine import AnalysisEngine
        ide.session.engine = AnalysisEngine()
        ide.request("view/hover", profileId=ide.profile_id,
                    file="app.c", line=42)
        before = ide.request("view/engineStats")
        ide.request("view/hover", profileId=ide.profile_id,
                    file="app.c", line=42)
        after = ide.request("view/engineStats")
        assert after["operations"]["annotation"]["hits"] \
            > before["operations"]["annotation"].get("hits", 0)


class TestServer:
    def test_stdio_server_round_trip(self, tmp_path, simple_profile):
        import io
        import json
        from repro.ide.server import StdioServer

        path = str(tmp_path / "p.ezvw")
        dump(simple_profile, path)
        requests = "\n".join([
            json.dumps({"jsonrpc": "2.0", "id": 1, "method": "view/open",
                        "params": {"path": path}}),
            json.dumps({"jsonrpc": "2.0", "id": 2, "method": "view/summary",
                        "params": {"profileId": 1}}),
            "garbage that is not json",
            json.dumps({"jsonrpc": "2.0", "id": 3, "method": "shutdown",
                        "params": {}}),
        ]) + "\n"
        stdout = io.StringIO()
        server = StdioServer(stdin=io.StringIO(requests), stdout=stdout)
        handled = server.serve_forever()
        assert handled == 4
        lines = [json.loads(line) for line in
                 stdout.getvalue().strip().splitlines()]
        by_id = {msg.get("id"): msg for msg in lines if "id" in msg}
        assert by_id[1]["result"]["profileId"] == 1
        assert "Hottest" in by_id[2]["result"]["body"]
        assert by_id[None]["error"]["code"] == -32700
        assert by_id[3]["result"] == {"ok": True}
        # The summary triggered an ide/* notification on the stream too.
        notifications = [msg for msg in lines if msg.get("method")]
        assert any(msg["method"] == "ide/showFloatingWindow"
                   for msg in notifications)


class TestTableRequests:
    def test_table_initial_rows(self, ide):
        result = ide.request("view/table", profileId=ide.profile_id)
        assert result["columns"] == ["cpu", "alloc"]
        assert [row["label"] for row in result["rows"]] == ["main"]
        assert not result["rows"][0]["expanded"] or True

    def test_table_expand_node(self, ide):
        result = ide.request("view/table", profileId=ide.profile_id)
        main_ref = result["rows"][0]["ref"]
        result = ide.request("view/tableExpand", profileId=ide.profile_id,
                             nodeRef=main_ref)
        labels = [row["label"] for row in result["rows"]]
        assert labels == ["main", "work", "idle"]
        depths = [row["depth"] for row in result["rows"]]
        assert depths == [0, 1, 1]

    def test_table_expand_hot_path(self, ide):
        result = ide.request("view/tableExpand", profileId=ide.profile_id,
                             hotPath=True)
        labels = [row["label"] for row in result["rows"]]
        assert "inner" in labels

    def test_table_expand_all_with_limit(self, ide):
        result = ide.request("view/tableExpand", profileId=ide.profile_id,
                             maxRows=2)
        assert len(result["rows"]) == 2

    def test_table_values_are_inclusive(self, ide):
        result = ide.request("view/tableExpand", profileId=ide.profile_id,
                             hotPath=True)
        by_label = {row["label"]: row["values"] for row in result["rows"]}
        assert by_label["work"][0] == 900.0


class TestExport:
    @pytest.mark.parametrize("format,needle", [
        ("svg", "<svg"),
        ("html", "<!DOCTYPE html>"),
        ("folded", "main;work;inner"),
        ("json", '"easyview-json"'),
        ("text", "main"),
    ])
    def test_export_formats(self, ide, format, needle):
        result = ide.request("view/export", profileId=ide.profile_id,
                             format=format)
        assert needle in result["content"]

    def test_export_json_round_trips(self, ide):
        from repro.core import jsonio
        content = ide.request("view/export", profileId=ide.profile_id,
                              format="json")["content"]
        back = jsonio.loads(content)
        assert back.total("cpu") == 1000.0

    def test_unknown_format_rejected(self, ide):
        with pytest.raises(ProtocolError):
            ide.request("view/export", profileId=ide.profile_id,
                        format="pdf")
