"""Tests for the EasyView Protocol Buffer schema and file framing."""

import pytest

from repro.proto import easyview_pb as pb
from repro.proto.fastwire import WireError


def build_message() -> pb.ProfileMessage:
    msg = pb.ProfileMessage(string_table=["", "tool", "cpu", "ns", "main",
                                          "app.c", "mod"])
    msg.tool = 1
    msg.metrics.append(pb.MetricDescriptor(name=2, unit=3,
                                           aggregation=pb.AGG_SUM))
    msg.nodes.append(pb.ContextNode(id=0, parent_id=0, kind=pb.CONTEXT_ROOT))
    msg.nodes.append(pb.ContextNode(id=1, parent_id=0,
                                    kind=pb.CONTEXT_FUNCTION, name=4,
                                    file=5, line=12, module=6,
                                    address=0x400000))
    msg.points.append(pb.MonitoringPoint(
        context_id=[1],
        values=[pb.MetricValue(metric_id=0, value=123.5)],
        kind=pb.POINT_PLAIN))
    msg.points.append(pb.MonitoringPoint(
        context_id=[1, 1, 1],
        values=[pb.MetricValue(metric_id=0, value=7.0)],
        kind=pb.POINT_USE_REUSE, sequence=0))
    msg.time_nanos = 99
    msg.duration_nanos = 500
    return msg


class TestMessageRoundTrip:
    def test_full_roundtrip(self):
        original = build_message()
        parsed = pb.ProfileMessage.parse(original.serialize())
        assert parsed.string_table == original.string_table
        assert parsed.tool == 1
        assert parsed.nodes[0].kind == pb.CONTEXT_ROOT
        assert parsed.nodes[1].line == 12
        assert parsed.nodes[1].address == 0x400000
        assert parsed.points[0].values[0].value == 123.5
        assert parsed.points[1].context_id == [1, 1, 1]
        assert parsed.points[1].kind == pb.POINT_USE_REUSE
        assert parsed.duration_nanos == 500

    def test_root_kind_survives_zero_default(self):
        # CONTEXT_ROOT is enum value 0, which proto3 drops from the wire;
        # decode must still yield ROOT, not the FUNCTION dataclass default.
        node = pb.ContextNode(id=0, parent_id=0, kind=pb.CONTEXT_ROOT)
        assert pb.ContextNode.parse(node.serialize()).kind == pb.CONTEXT_ROOT

    def test_negative_metric_values(self):
        point = pb.MonitoringPoint(
            context_id=[1], values=[pb.MetricValue(metric_id=0, value=-2.5)])
        parsed = pb.MonitoringPoint.parse(point.serialize())
        assert parsed.values[0].value == -2.5

    def test_negative_zero_metric_value_survives(self):
        # -0.0 is not the proto3 double default; its sign bit must survive
        # a full serialize/parse round trip.
        import math
        point = pb.MonitoringPoint(
            context_id=[1], values=[pb.MetricValue(metric_id=0, value=-0.0)])
        parsed = pb.MonitoringPoint.parse(point.serialize())
        assert math.copysign(1.0, parsed.values[0].value) == -1.0


class TestFileFraming:
    def test_dumps_magic(self):
        data = pb.dumps(build_message())
        assert data[:4] == pb.FORMAT_MAGIC
        assert data[4] == pb.FORMAT_VERSION

    def test_loads_roundtrip(self):
        original = build_message()
        parsed = pb.loads(pb.dumps(original))
        assert parsed.string_table == original.string_table

    def test_bad_magic_rejected(self):
        with pytest.raises(WireError):
            pb.loads(b"NOPE" + b"\x01\x00")

    def test_bad_version_rejected(self):
        data = bytearray(pb.dumps(build_message()))
        data[4] = 99
        with pytest.raises(WireError):
            pb.loads(bytes(data))

    def test_truncated_body_rejected(self):
        data = pb.dumps(build_message())
        with pytest.raises(WireError):
            pb.loads(data[:len(data) // 2])
