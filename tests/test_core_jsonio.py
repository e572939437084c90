"""Tests for the JSON profile form."""

import json

import pytest

from repro import ProfileBuilder
from repro.core import jsonio
from repro.core.monitor import PointKind
from repro.errors import FormatError


class TestRoundTrip:
    def test_simple_profile(self, simple_profile):
        back = jsonio.loads(jsonio.dumps(simple_profile))
        assert back.node_count() == simple_profile.node_count()
        assert back.total("cpu") == simple_profile.total("cpu")
        assert back.meta.tool == "test"

    def test_frame_attribution(self, simple_profile):
        back = jsonio.loads(jsonio.dumps(simple_profile))
        work = back.find_by_name("work")[0]
        assert work.frame.file == "app.c" and work.frame.line == 42

    def test_points_survive(self):
        builder = ProfileBuilder(tool="t")
        mem = builder.metric("inuse", unit="bytes")
        builder.snapshot(2, [("main",), ("alloc",)], {mem: 64.0})
        builder.pair_point(PointKind.DATA_RACE,
                           [["main", "a"], ["main", "b"]], {mem: 1.0})
        back = jsonio.loads(jsonio.dumps(builder.build()))
        kinds = {p.kind for p in back.points}
        assert kinds == {PointKind.ALLOCATION, PointKind.DATA_RACE}
        assert back.snapshot_sequences() == [2]

    def test_metadata_survives(self):
        builder = ProfileBuilder(tool="x", time_nanos=99,
                                 duration_nanos=500)
        builder.metric("m")
        builder.attribute("host", "dev01")
        back = jsonio.loads(jsonio.dumps(builder.build()))
        assert back.meta.time_nanos == 99
        assert back.meta.attributes == {"host": "dev01"}

    def test_document_is_plain_json(self, simple_profile):
        payload = json.loads(jsonio.dumps(simple_profile))
        assert payload["format"] == "easyview-json"
        assert payload["nodes"][0]["kind"] == "root"
        assert all("id" in node for node in payload["nodes"])


class TestErrors:
    def test_wrong_format_marker(self):
        with pytest.raises(FormatError, match="not an easyview-json"):
            jsonio.loads('{"format": "something-else", "version": 1}')

    def test_wrong_version(self):
        with pytest.raises(FormatError, match="version"):
            jsonio.loads('{"format": "easyview-json", "version": 99}')

    def test_invalid_json(self):
        with pytest.raises(FormatError, match="invalid JSON"):
            jsonio.loads("{nope")

    def test_non_object(self):
        with pytest.raises(FormatError, match="object"):
            jsonio.loads("[1, 2]")

    def test_dangling_parent(self):
        with pytest.raises(FormatError, match="undefined parent"):
            jsonio.loads(json.dumps({
                "format": "easyview-json", "version": 1, "metrics": [],
                "nodes": [{"id": 5, "parent": 99, "kind": "function",
                           "name": "f"}],
            }))

    def test_dangling_point_context(self):
        with pytest.raises(FormatError, match="undefined node"):
            jsonio.loads(json.dumps({
                "format": "easyview-json", "version": 1, "metrics": [],
                "nodes": [{"id": 0, "parent": None, "kind": "root",
                           "name": "<root>"}],
                "points": [{"kind": "plain", "contexts": [42],
                            "values": {}, "sequence": 0}],
            }))


def test_dumping_a_profile_without_points_builds_no_object_tree():
    """``to_dict`` walks the arrays, as the ``.ezvw`` encoder does."""
    from repro.converters import parse_bytes
    from repro.obs import get_registry
    from repro.profilers.corpus import generate_bytes, tier

    def builds():
        counters = get_registry().snapshot()["counters"]
        return [counters["core.cct_materializations"],
                counters["core.cct_folds"]]

    profile = parse_bytes(generate_bytes(tier("small"), compress=False),
                          format="pprof")
    before = builds()
    text = jsonio.dumps(profile)
    assert builds() == before
    assert jsonio.loads(text).node_count() == profile.node_count()
