"""The store on the columnar codec: streamed flushes, load keys, labels,
one lint per upload, and no object trees on the ingest path."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import zlib

import pytest

from repro.bench import ezvw_oracle as oracle
from repro.continuous import Collector
from repro.continuous.envelope import CaptureEnvelope
from repro.converters import pprof
from repro.core import serialize
from repro.core.digest import profile_digest
from repro.core.keys import SOURCE
from repro.errors import StoreError
from repro.lint import profile_lint
from repro.obs import get_registry
from repro.profilers.corpus import generate_bytes, tier
from repro.profilers.workloads import checkout_service_profile, spark_profile
from repro.proto.fastwire import Writer, encode_varint
from repro.store import ProfileStore
from repro.store.segment import (SEGMENT_END, SEGMENT_MAGIC, build_segment,
                                 parse_segment, write_segment)
from repro.store.wal import _HEADER, RECORD_MAGIC, WalRecord, WriteAheadLog

_SMALL = dataclasses.replace(tier("small"), name="pin", functions=60,
                             samples=200, max_depth=12)


def _blobs():
    return [serialize.dumps(pprof.parse(generate_bytes(_SMALL,
                                                       compress=False))),
            serialize.dumps(spark_profile("rdd"))]


def _records():
    blobs = _blobs()
    return [WalRecord(service="api", ptype="cpu", labels={"zone": "a"},
                      time_nanos=1_700_000_000_000_000_000 + i,
                      duration_nanos=10_000_000_000, blob=blobs[i % 2],
                      seq=i)
            for i in range(3)]


class TestFlush:
    def test_address_of_fixed_records_is_pinned(self):
        """The address a flush of these records had before the codec
        ran on arrays: same blobs, same segment bytes."""
        assert ([hashlib.blake2b(blob, digest_size=16).hexdigest()
                 for blob in _blobs()]
                == ["d1a8469f4880f8673a9af38b4354c274",
                    "131bf98e5bca9faaa18ef88bc5e5d6f4"])
        data, segment = build_segment(_records(), created_nanos=42)
        assert segment.address == "e8cf3cedf6a3195a1dca1e05515c45c8"
        assert len(data) == segment.size_bytes == 18209

    def test_build_matches_the_per_node_oracle(self):
        records = _records()
        assert (build_segment(records, created_nanos=7)[0]
                == oracle.build_segment(records, created_nanos=7)[0])

    def test_remap_interns_in_first_use_order(self):
        """String tables whose order is not first-use order, duplicate
        entries and out-of-range indices remap as field-by-field remapping
        does: the shared table and the segment bytes equal the oracle's."""
        def blob(strings, node_names, metric_name, tool):
            writer = Writer().varint(1, tool)
            for text in strings:
                writer.message(2, text.encode())
            writer.message(3, Writer().varint(1, metric_name).getvalue())
            writer.message(4, Writer().getvalue())  # the root
            for wire_id, name in enumerate(node_names, 1):
                writer.message(4, Writer().varint(1, wire_id)
                               .varint(3, 1).varint(4, name)
                               .varint(5, name + 1).getvalue())
            body = writer.getvalue()
            return b"EZVW\x01" + encode_varint(len(body)) + body

        blobs = [blob(["", "zeta", "main", "work", "main"], [4, 9, 2], 3, 1),
                 blob(["x", "work", "alpha"], [2, 1], 0, 7)]
        records = [WalRecord(service="api", blob=b, seq=i)
                   for i, b in enumerate(blobs)]
        data, segment = build_segment(records)
        expected, oracle_segment = oracle.build_segment(records)
        assert data == expected
        assert segment.strings == oracle_segment.strings

    def test_streamed_file_is_the_built_bytes(self, tmp_path):
        records = _records()
        segment = write_segment(str(tmp_path), records, created_nanos=42)
        data, built = build_segment(records, created_nanos=42)
        assert os.listdir(str(tmp_path)) == [segment.address + ".seg"]
        with open(segment.path, "rb") as handle:
            assert handle.read() == data
        assert segment.address == built.address
        assert segment.size_bytes == built.size_bytes
        assert parse_segment(data, segment.path, verify=True).address \
            == segment.address

    def test_failed_flush_leaves_no_file(self, tmp_path):
        records = _records() + [WalRecord(service="api", blob=b"EZVW\x01\x05",
                                          seq=9)]
        with pytest.raises(StoreError):
            write_segment(str(tmp_path), records)
        assert os.listdir(str(tmp_path)) == []

    def test_flush_of_a_stamped_record_keeps_its_profile(self, tmp_path):
        store = ProfileStore(str(tmp_path / "store"), fsync=False)
        store.ingest(pprof.parse(generate_bytes(_SMALL, compress=False)),
                     service="api")
        (before,) = store.select("")
        digest = profile_digest(store.load(before))
        store.flush()
        (after,) = store.select("")
        assert after.segment is not None
        assert profile_digest(store.load(after)) == digest


def test_codec_and_store_build_no_object_tree(tmp_path):
    """Dump, load, store loads and a flush of 3 records stay on arrays."""
    counter = get_registry().counter("core.cct_materializations")
    raw = generate_bytes(_SMALL, compress=False)
    before = counter.value
    data = serialize.dumps(pprof.parse(raw))
    serialize.loads(data)
    root = str(tmp_path / "store")
    os.makedirs(root)
    with WriteAheadLog(os.path.join(root, "wal.log"), fsync=False) as wal:
        for seq in range(3):
            wal.append(WalRecord(service="api", time_nanos=1 + seq,
                                 blob=data, seq=seq))
    store = ProfileStore(root, fsync=False)
    store.load(store.select("")[0])
    assert store.flush()
    store.load(store.select("")[0])
    assert counter.value == before


class TestLoadKeys:
    def test_keys_follow_the_record_not_the_content(self, tmp_path):
        store = ProfileStore(str(tmp_path / "store"), fsync=False)
        raw = generate_bytes(_SMALL, compress=False)
        store.ingest(pprof.parse(raw), service="api")
        (entry,) = store.select("")
        wal = store.load(entry)
        store.flush()
        store.ingest(spark_profile("rdd"), service="other")
        store.flush()
        flushed = store.load(store.select("service=api")[0])
        assert store.compact(small_records=16)
        compacted = store.load(store.select("service=api")[0])
        keys = [p.cache_key() for p in (wal, flushed, compacted)]
        assert all(key.startswith(SOURCE) for key in keys)
        assert len(set(keys)) == 3
        digests = {profile_digest(p) for p in (wal, flushed, compacted)}
        assert len(digests) == 1

    def test_equal_seqs_in_two_stores_never_share_a_key(self, tmp_path):
        raw = generate_bytes(_SMALL, compress=False)
        stores = [ProfileStore(str(tmp_path / name), fsync=False)
                  for name in ("a", "b")]
        stores[0].ingest(pprof.parse(raw), service="api")
        stores[1].ingest(spark_profile("rdd"), service="api")
        keys = []
        for store in stores:
            (entry,) = store.select("")
            keys.append(store.load(entry).cache_key())
            store.flush()
            (entry,) = store.select("")
            keys.append(store.load(entry).cache_key())
        seqs = [entry.seq for store in stores for entry in store.select("")]
        assert len(seqs) == 2 and seqs[0] == seqs[1]
        assert len(set(keys)) == 4

    def test_window_aggregate_digests_no_profile(self, tmp_path,
                                                 monkeypatch):
        from repro.core import digest
        calls = []
        original = digest.profile_digest
        monkeypatch.setattr(digest, "profile_digest",
                            lambda p: calls.append(p) or original(p))
        monkeypatch.setattr("repro.core.profile.profile_digest",
                            digest.profile_digest)
        store = ProfileStore(str(tmp_path / "store"), fsync=False,
                             flush_records=3)
        for seed in (1, 2, 3, 4):
            store.ingest(checkout_service_profile(scale=2, seed=seed),
                         service="api")
        result = store.query_window("service=api")
        assert result.count == 4
        assert calls == []


class TestLabels:
    def _append(self, path: str, labels_text: str) -> None:
        payload = (Writer().string(1, "api").string(3, labels_text)
                   .bytes(6, b"x").varint(7, 1).getvalue())
        with open(path, "ab") as handle:
            handle.write(_HEADER.pack(RECORD_MAGIC, len(payload),
                                      zlib.crc32(payload)) + payload)

    @pytest.mark.parametrize("labels", ["[1, 2]", '{"zone": 1}', '"a"'])
    def test_wal_record_with_bad_labels_is_a_torn_tail(self, tmp_path,
                                                       labels):
        root = str(tmp_path / "store")
        ProfileStore(root, fsync=False).close()
        self._append(os.path.join(root, "wal.log"), labels)
        store = ProfileStore(root, fsync=False)
        assert store.select("") == []
        assert store.stats()["walRecoveredTornBytes"] > 0

    @pytest.mark.parametrize("labels", ["[1, 2]", '{"zone": 1}'])
    def test_segment_with_bad_labels_is_a_store_error(self, labels):
        meta = Writer().string(1, "api").string(3, labels).getvalue()
        footer = Writer().message(1, b"").message(2, meta).getvalue()
        data = (SEGMENT_MAGIC + footer + len(footer).to_bytes(8, "little")
                + SEGMENT_END)
        with pytest.raises(StoreError):
            parse_segment(data)

    def test_string_labels_still_round_trip(self, tmp_path):
        record = WalRecord(service="api", labels={"zone": "a"}, blob=b"x",
                           seq=1)
        assert WalRecord.from_payload(record.payload()).labels == \
            {"zone": "a"}


class TestOneLintPerUpload:
    def _collector(self, tmp_path):
        return Collector(ProfileStore(str(tmp_path / "store"), fsync=False))

    def _count_lints(self, monkeypatch):
        calls = []
        original = profile_lint.lint_profile

        def counted(*args, **kwargs):
            calls.append(kwargs.get("subject"))
            return original(*args, **kwargs)

        monkeypatch.setattr("repro.lint.lint_profile", counted)
        return calls

    def test_stored_upload_is_linted_once(self, tmp_path, monkeypatch):
        calls = self._count_lints(monkeypatch)
        profile = checkout_service_profile(scale=3)
        env = CaptureEnvelope(service="checkout", host="h1", ptype="cpu",
                              seq=4, blob=serialize.dumps(profile))
        collector = self._collector(tmp_path)
        status, payload = collector.handle_upload(env.to_headers(),
                                                  env.blob)
        assert status == 200 and payload["status"] == "stored"
        assert calls == ["checkout/h1#4"]
        # The warnings are the ingest lint's rule ids and messages: here
        # EV312, as the stampless capture had no envelope time either.
        expected = [(d.rule, d.message) for d in original_lint(profile)
                    if d.severity.name != "ERROR"]
        assert [(w["ruleId"], w["message"])
                for w in payload["warnings"]] == expected
        assert "EV312" in {rule for rule, _ in expected}

    def test_lint_error_stores_nothing(self, tmp_path, monkeypatch):
        from repro import ProfileBuilder
        calls = self._count_lints(monkeypatch)
        builder = ProfileBuilder(tool="test")
        cpu = builder.metric("cpu", unit="nanoseconds")
        builder.sample([("main", "a.c", 1)], {cpu: float("nan")})
        env = CaptureEnvelope(service="checkout", host="h1", ptype="cpu",
                              seq=0, time_nanos=999,
                              blob=serialize.dumps(builder.build()))
        collector = self._collector(tmp_path)
        status, payload = collector.handle_upload(env.to_headers(),
                                                  env.blob)
        assert status == 422
        assert len(calls) == 1
        assert not collector.store.select("")


def original_lint(profile):
    return profile_lint.lint_profile(profile, require_time=True)


def test_labels_json_is_canonical():
    record = WalRecord(labels={"b": "2", "a": "1"})
    payload = record.payload()
    assert json.dumps({"a": "1", "b": "2"}).encode() in payload
