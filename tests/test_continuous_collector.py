"""The HTTP collector: admission, lint gating, dedup, failure modes."""

from __future__ import annotations

import gc
import json
import math
import urllib.error
import urllib.request

import pytest

from repro import ProfileBuilder
from repro.continuous import CaptureAgent, Collector, DiskSpool, MachineSource
from repro.continuous.agent import HTTPShipper, RetryPolicy, ShipError
from repro.continuous.envelope import CaptureEnvelope
from repro.core.serialize import dumps as serialize_profile
from repro.profilers.workloads import checkout_service_profile
from repro.store import ProfileStore


@pytest.fixture
def store(tmp_path):
    clock = {"now": 1_000_000_000_000}
    s = ProfileStore(str(tmp_path / "store"),
                     clock=lambda: clock["now"])
    s.test_clock = clock  # tests advance this to separate captures
    return s


def checkout_envelope(seq=0, seed=43, slow=False, time_nanos=999,
                      service="checkout"):
    profile = checkout_service_profile(slow=slow, scale=3, seed=seed)
    return CaptureEnvelope(service=service, host="h1", ptype="cpu",
                           seq=seq, blob=serialize_profile(profile),
                           time_nanos=time_nanos)


class TestUploadHandling:
    def test_upload_is_stored_with_identity_labels(self, store):
        collector = Collector(store)
        status, payload = collector.handle_upload(
            checkout_envelope().to_headers(), checkout_envelope().blob)
        assert status == 200
        assert payload["status"] == "stored"
        (entry,) = store.select("service=checkout")
        assert entry.labels["host"] == "h1"
        assert entry.labels["digest"] == payload["digest"]
        # The envelope's capture time, not the ingest time, is indexed.
        assert entry.time_nanos == 999

    def test_duplicate_digest_stores_once(self, store):
        collector = Collector(store)
        env = checkout_envelope()
        first = collector.handle_upload(env.to_headers(), env.blob)
        second = collector.handle_upload(env.to_headers(), env.blob)
        assert first[0] == 200 and first[1]["status"] == "stored"
        assert second[0] == 200 and second[1]["status"] == "duplicate"
        assert len(store.select("")) == 1

    def test_dedup_set_primes_from_the_store_on_restart(self, store):
        env = checkout_envelope()
        Collector(store).handle_upload(env.to_headers(), env.blob)
        store.flush()
        # A fresh collector over the same store must not re-admit.
        reborn = Collector(store)
        status, payload = reborn.handle_upload(env.to_headers(), env.blob)
        assert payload["status"] == "duplicate"
        assert len(store.select("")) == 1

    def test_oversized_body_rejected_413(self, store):
        collector = Collector(store, max_body_bytes=64)
        env = checkout_envelope()
        status, payload = collector.handle_upload(env.to_headers(),
                                                  env.blob)
        assert status == 413
        assert payload["error"]["code"] == "oversized"
        assert not store.select("")

    def test_inflation_bomb_rejected_413(self, store, monkeypatch):
        import gzip
        from repro.proto import pprof_pb
        monkeypatch.setattr(pprof_pb, "MAX_INFLATED_BYTES", 1 << 20)
        collector = Collector(store)
        bomb = CaptureEnvelope(service="checkout", host="h1", ptype="cpu",
                               seq=0, format="pprof",
                               blob=gzip.compress(bytes(8 << 20)))
        assert len(bomb.blob) < collector.max_body_bytes
        rejected = collector.health()["rejected"]
        status, payload = collector.handle_upload(bomb.to_headers(),
                                                  bomb.blob)
        assert status == 413
        assert payload["error"]["code"] == "oversized"
        assert collector.health()["rejected"] == rejected + 1
        assert not store.select("")

    def test_missing_headers_rejected_400(self, store):
        status, payload = Collector(store).handle_upload(
            {}, b"some-bytes")
        assert status == 400
        assert payload["error"]["code"] == "malformed"

    def test_unparseable_blob_rejected_400(self, store):
        garbage = CaptureEnvelope(service="checkout", host="h1",
                                  ptype="cpu", seq=0,
                                  blob=b"\x00garbage-not-a-profile")
        status, payload = Collector(store).handle_upload(
            garbage.to_headers(), garbage.blob)
        assert status == 400
        assert "unparseable" in payload["error"]["message"]
        assert not store.select("")

    def test_rejected_digest_can_be_retried_after_fix(self, store):
        """A rejected upload must not poison the dedup set."""
        collector = Collector(store, max_body_bytes=10 ** 6)
        garbage = CaptureEnvelope(service="checkout", host="h1",
                                  ptype="cpu", seq=0, blob=b"\x00nope")
        assert collector.handle_upload(garbage.to_headers(),
                                       garbage.blob)[0] == 400
        good = checkout_envelope()
        assert collector.handle_upload(good.to_headers(),
                                       good.blob)[0] == 200

    def test_lint_errors_rejected_422_with_diagnostics(self, store):
        builder = ProfileBuilder(tool="test")
        cpu = builder.metric("cpu", unit="nanoseconds")
        builder.sample([("main", "a.c", 1)], {cpu: math.nan})
        env = CaptureEnvelope(service="checkout", host="h1", ptype="cpu",
                              seq=0, time_nanos=999,
                              blob=serialize_profile(builder.build()))
        status, payload = Collector(store).handle_upload(env.to_headers(),
                                                         env.blob)
        assert status == 422
        assert payload["error"]["code"] == "lint"
        rules = {d["ruleId"] for d in payload["error"]["diagnostics"]}
        assert "EV303" in rules
        assert not store.select("")

    def test_stampless_profile_accepted_with_envelope_time(self, store):
        profile = checkout_service_profile(scale=3)
        assert profile.meta.time_nanos == 0
        env = CaptureEnvelope(service="checkout", host="h1", ptype="cpu",
                              seq=0, time_nanos=777_000,
                              blob=serialize_profile(profile))
        status, payload = Collector(store).handle_upload(env.to_headers(),
                                                         env.blob)
        assert status == 200
        (entry,) = store.select("")
        assert entry.time_nanos == 777_000

    def test_upload_runs_with_the_cyclic_collector_off(self, store,
                                                        monkeypatch):
        """Lint and store run with collection off, like the parse before
        them, so no collection promotes the parsed profile; every outcome
        turns collection back on."""
        seen = []

        def spying(step):
            def spy(*args, **kwargs):
                seen.append(gc.isenabled())
                return step(*args, **kwargs)
            return spy

        monkeypatch.setattr(store, "lint", spying(store.lint))
        monkeypatch.setattr(store, "ingest", spying(store.ingest))
        collector = Collector(store)
        env = checkout_envelope()
        assert collector.handle_upload(env.to_headers(), env.blob)[0] == 200
        assert seen == [False, False] and gc.isenabled()

        garbage = CaptureEnvelope(service="checkout", host="h1",
                                  ptype="cpu", seq=1, blob=b"\x00nope")
        assert collector.handle_upload(garbage.to_headers(),
                                       garbage.blob)[0] == 400
        assert gc.isenabled()

        def full(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(store, "ingest", full)
        other = checkout_envelope(seq=2, seed=44)
        with pytest.raises(OSError):
            collector.handle_upload(other.to_headers(), other.blob)
        assert gc.isenabled()


class TestAdmission:
    def test_server_full_denies_429_with_retry_hint(self, store):
        collector = Collector(store, max_pending=1, retry_after_ms=75)
        assert collector.admission.try_admit(source="elsewhere") is None
        env = checkout_envelope()
        status, payload = collector.handle_upload(env.to_headers(),
                                                  env.blob)
        assert status == 429
        assert payload["error"]["reason"] == "server"
        assert payload["error"]["retryAfterMs"] == 75
        collector.admission.release(source="elsewhere")

    def test_flooding_service_denied_by_name(self, store):
        collector = Collector(store, max_pending=10, max_service_queue=1)
        assert collector.admission.try_admit(source="checkout") is None
        env = checkout_envelope()
        status, payload = collector.handle_upload(env.to_headers(),
                                                  env.blob)
        assert status == 429
        assert payload["error"]["reason"] == "service"
        # Another service is unaffected by checkout's backlog.
        other = checkout_envelope(service="billing")
        assert collector.handle_upload(other.to_headers(),
                                       other.blob)[0] == 200
        collector.admission.release(source="checkout")

    def test_draining_denies_503(self, store):
        collector = Collector(store)
        collector.drain()
        env = checkout_envelope()
        status, payload = collector.handle_upload(env.to_headers(),
                                                  env.blob)
        assert status == 503
        assert payload["error"]["reason"] == "draining"


class TestHTTPEndToEnd:
    def test_agent_ships_over_real_http(self, store, tmp_path):
        with Collector(store, port=0) as collector:
            agent = CaptureAgent(
                MachineSource("checkout", scale=3),
                HTTPShipper(collector.url, timeout=5.0),
                service="checkout", host="h1",
                spool=DiskSpool(str(tmp_path / "spool")),
                retry=RetryPolicy(max_attempts=2, base_delay=0.01),
                sleep=lambda s: None)
            results = agent.run(3)
        assert all(r and r["status"] == "stored" for r in results)
        assert len(store.select("service=checkout")) == 3

    def test_healthz_reports_counters(self, store):
        with Collector(store, port=0) as collector:
            env = checkout_envelope()
            collector.handle_upload(env.to_headers(), env.blob)
            body = urllib.request.urlopen(
                collector.url + "/healthz", timeout=5).read()
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["uploads"] >= 1
        assert health["store"]["records"] >= 1

    def test_metrics_endpoint_serves_prometheus_text(self, store):
        with Collector(store, port=0) as collector:
            env = checkout_envelope()
            collector.handle_upload(env.to_headers(), env.blob)
            response = urllib.request.urlopen(
                collector.url + "/metrics", timeout=5)
            body = response.read().decode()
            content_type = response.headers["Content-Type"]
        assert "text/plain" in content_type
        assert "continuous_collector_uploads_total" in body
        assert "# TYPE continuous_collector_ingest_seconds histogram" \
            in body

    def test_unknown_path_404(self, store):
        with Collector(store, port=0) as collector:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(collector.url + "/nope", timeout=5)
            assert excinfo.value.code == 404

    def test_denial_sets_retry_after_header(self, store):
        with Collector(store, port=0,
                       retry_after_ms=60) as collector:
            collector.drain()
            shipper = HTTPShipper(collector.url, timeout=5.0)
            with pytest.raises(ShipError) as excinfo:
                shipper(checkout_envelope())
        assert excinfo.value.retryable
        assert excinfo.value.retry_after_ms == 60

    def test_oversized_declared_body_refused_from_headers(self, store):
        with Collector(store, port=0, max_body_bytes=32) as collector:
            shipper = HTTPShipper(collector.url, timeout=5.0)
            with pytest.raises(ShipError) as excinfo:
                shipper(checkout_envelope())
        assert not excinfo.value.retryable
        assert "oversized" in str(excinfo.value)

    def test_spool_replay_after_outage_over_http(self, store, tmp_path):
        spool = DiskSpool(str(tmp_path / "spool"))
        dead = HTTPShipper("http://127.0.0.1:1", timeout=0.2)
        agent = CaptureAgent(
            MachineSource("checkout", scale=3), dead,
            service="checkout", host="h1", spool=spool,
            retry=RetryPolicy(max_attempts=2, base_delay=0.001),
            sleep=lambda s: None)
        agent.run(2)
        assert len(spool) == 2

        with Collector(store, port=0) as collector:
            agent.shipper = HTTPShipper(collector.url, timeout=5.0)
            agent.tick()
        # Both spooled captures plus the fresh one landed.
        assert len(store.select("service=checkout")) == 3
        assert len(spool) == 0
