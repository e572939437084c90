"""The collector: an HTTP ingest front for a :class:`ProfileStore`.

``http.server`` (threaded) is deliberately boring — one process, no
framework, stdlib only — because the interesting discipline all lives
in reused layers:

* **admission** — the same
  :class:`~repro.serve.admission.AdmissionController` the PVP socket
  server runs, with per-*service* source tracking.  A full server maps
  to HTTP 429, a flooding service to 429 with reason ``service``, a
  draining collector to 503; every denial carries ``Retry-After-Ms``
  so agents back off by the server's clock, not their own guess.
* **linting** — uploads run once through the store's ingest lint
  (:meth:`~repro.store.ProfileStore.lint`, ``require_time=True``: the
  EV312 gate): stampless captures are *accepted* with a warning (the
  store indexes them at ingest time, per EV312's contract), while
  rule errors (NaN metrics, structural damage) are rejected with 422
  and the diagnostics in the body.
* **dedup** — content digests (see :mod:`.envelope`).  The seen-set is
  primed from the store's own index at startup (every record carries
  its ``digest`` ingest label), so restarts do not re-admit bytes the
  store already holds.
* **storage** — accepted captures go through
  :meth:`~repro.store.ProfileStore.ingest` as the lint returned them
  (no second lint); the WAL batches them into immutable segments at
  the store's own ``flush_records`` cadence.

Bodies over ``max_body_bytes``, and pprof bodies under it that would
inflate past the decoder's budget
(:data:`~repro.proto.pprof_pb.MAX_INFLATED_BYTES`), get 413.

Endpoints: ``POST /upload``, ``GET /healthz`` (JSON counters),
``GET /metrics`` (Prometheus text — satellite of this PR).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Set, Tuple

from ..core.gcguard import no_gc
from ..errors import OversizedError
from ..lint import has_errors
from ..obs import get_registry, get_tracer, registry_prometheus
from ..serve.admission import AdmissionController, Denial
from .envelope import CaptureEnvelope, EnvelopeError

_tracer = get_tracer()

#: Default cap on one upload's body, in bytes.  Far above any profile the
#: workloads produce, far below what a misbehaving client could stream.
DEFAULT_MAX_BODY = 8 * 1024 * 1024


class Collector:
    """Threaded HTTP ingest front over one ProfileStore."""

    def __init__(self, store: Any, host: str = "127.0.0.1", port: int = 0,
                 max_pending: int = 32, max_service_queue: int = 8,
                 retry_after_ms: int = 50,
                 max_body_bytes: int = DEFAULT_MAX_BODY) -> None:
        self.store = store
        self.max_body_bytes = max_body_bytes
        self.admission = AdmissionController(
            max_pending=max_pending, max_source_queue=max_service_queue,
            retry_after_ms=retry_after_ms, source_reason="service")

        registry = get_registry()
        self._uploads = registry.counter(
            "continuous.collector.uploads", "captures accepted and stored")
        self._duplicates = registry.counter(
            "continuous.collector.duplicates",
            "uploads dropped as already-stored content")
        self._rejected = registry.counter(
            "continuous.collector.rejected",
            "uploads refused as malformed, oversized, or lint-invalid")
        self._denied = registry.counter(
            "continuous.collector.denied",
            "uploads refused by admission control")
        self._pending_gauge = registry.gauge(
            "continuous.collector.pending", "uploads currently in flight")
        self._ingest_seconds = registry.histogram(
            "continuous.collector.ingest_seconds",
            description="parse+lint+store latency of accepted uploads")

        self._lock = threading.Lock()
        self._seen: Set[str] = set()
        self._prime_seen()

        handler = _make_handler(self)
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # -- dedup -------------------------------------------------------------

    def _prime_seen(self) -> None:
        """Load every stored record's content digest into the seen-set."""
        try:
            entries = self.store.select("")
        except Exception:
            return
        with self._lock:
            for entry in entries:
                digest = entry.labels.get("digest")
                if digest:
                    self._seen.add(digest)

    def _mark_seen(self, digest: str) -> bool:
        """True when ``digest`` is new (and now claimed by this upload)."""
        with self._lock:
            if digest in self._seen:
                return False
            self._seen.add(digest)
            return True

    def _unmark(self, digest: str) -> None:
        with self._lock:
            self._seen.discard(digest)

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return "http://%s:%d" % (host, port)

    def start(self) -> "Collector":
        thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="easyview-collector", daemon=True)
        with self._lock:
            self._thread = thread
        thread.start()
        return self

    def drain(self) -> None:
        """Refuse new uploads; in-flight ones finish normally."""
        self.admission.start_drain()

    def stop(self, flush: bool = True) -> None:
        self._server.shutdown()
        with self._lock:  # claim the thread once; join it outside the lock
            thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)
        self._server.server_close()
        if flush:
            self.store.flush()

    def __enter__(self) -> "Collector":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- request handling --------------------------------------------------

    def handle_upload(self, headers: Any,
                      body: bytes) -> Tuple[int, Dict[str, Any]]:
        """Process one POST /upload; returns (status, JSON body).

        Order matters and is cheapest-first: admission (headers only) →
        size → envelope validation → dedup (digest only) → parse → lint
        → store.  A flood of duplicates or garbage never costs a parse.
        """
        service = headers.get("X-Easyview-Service", "") or "<unknown>"
        denial = self.admission.try_admit(source=service)
        if denial is not None:
            self._denied.inc()
            return self._denial_response(denial)
        self._pending_gauge.inc()
        try:
            # The parsed profile lives only for this call.  Collections that
            # the lint and store steps trigger would promote it into the
            # oldest generation and bring on a full collection of the heap
            # every few uploads; with collection off it is freed before
            # any collection sees it.
            with _tracer.span("continuous.collector.upload",
                              service=service) as span, no_gc():
                status, payload = self._admit_upload(headers, body, span)
            return status, payload
        finally:
            self._pending_gauge.dec()
            self.admission.release(source=service)

    def _denial_response(self, denial: Denial) -> Tuple[int, Dict[str, Any]]:
        status = 503 if denial.reason == "draining" else 429
        return status, {"error": {"code": "denied",
                                  "message": "admission refused",
                                  **denial.to_dict()}}

    def _admit_upload(self, headers: Any, body: bytes,
                      span: Any) -> Tuple[int, Dict[str, Any]]:
        if len(body) > self.max_body_bytes:
            self._rejected.inc()
            return 413, {"error": {
                "code": "oversized",
                "message": "body is %d bytes; the cap is %d"
                           % (len(body), self.max_body_bytes)}}
        try:
            envelope = CaptureEnvelope.from_headers(headers, body)
        except EnvelopeError as exc:
            self._rejected.inc()
            return 400, {"error": {"code": "malformed", "message": str(exc)}}
        if span is not None:
            span.set("digest", envelope.digest)

        if not self._mark_seen(envelope.digest):
            self._duplicates.inc()
            return 200, {"status": "duplicate", "digest": envelope.digest}

        started = self.store.clock()
        try:
            from ..converters import parse_bytes
            try:
                profile = parse_bytes(envelope.blob, format=envelope.format)
            except OversizedError as exc:
                # Under the body cap, but inflating past the budget.
                self._rejected.inc()
                self._unmark(envelope.digest)
                return 413, {"error": {"code": "oversized",
                                       "message": str(exc)}}
            except Exception as exc:
                self._rejected.inc()
                self._unmark(envelope.digest)
                return 400, {"error": {
                    "code": "malformed",
                    "message": "unparseable %s profile: %s"
                               % (envelope.format, exc)}}

            # The agent stamps capture time on the envelope; a profile
            # whose own metadata lacks a timestamp inherits it here, so
            # the store's time index reflects *capture* time even when
            # spool replay lands the upload much later.  (EV312 then has
            # nothing to warn about.)
            if profile.meta.time_nanos <= 0 and envelope.time_nanos > 0:
                profile.meta.time_nanos = envelope.time_nanos

            # One lint per upload: its verdict gates the store, and the
            # store logs the linted profile without linting it again.
            linted = self.store.lint(
                profile, subject="%s/%s#%d" % (envelope.service,
                                               envelope.host, envelope.seq))
            if has_errors(linted.diagnostics):
                self._rejected.inc()
                self._unmark(envelope.digest)
                return 422, {"error": {
                    "code": "lint",
                    "message": "profile failed lint",
                    "diagnostics": [d.to_dict() for d in linted.diagnostics
                                    if d.severity.name == "ERROR"]}}

            result = self.store.ingest(
                linted, service=envelope.service, ptype=envelope.ptype,
                labels=envelope.store_labels())
        except Exception:
            self._unmark(envelope.digest)
            raise
        self._uploads.inc()
        self._ingest_seconds.observe(
            max(0.0, (self.store.clock() - started) / 1e9))
        return 200, {
            "status": "stored",
            "digest": envelope.digest,
            "seq": result.entry.seq,
            "timeNanos": result.entry.time_nanos,
            "assignedTime": result.assigned_time,
            "warnings": [d.to_dict() for d in result.diagnostics
                         if d.severity.name != "ERROR"],
        }

    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.admission.draining else "ok",
            "pending": self.admission.pending,
            "uploads": self._uploads.value,
            "duplicates": self._duplicates.value,
            "rejected": self._rejected.value,
            "denied": self._denied.value,
            "store": {"root": self.store.root,
                      "records": len(self.store.select(""))},
        }


def _make_handler(collector: Collector) -> type:
    """The BaseHTTPRequestHandler subclass bound to one collector."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "easyview-collector"

        # http.server logs every request to stderr by default; the
        # collector's telemetry lives in repro.obs instead.
        def log_message(self, format: str, *args: Any) -> None:
            pass

        def _send_json(self, status: int, payload: Dict[str, Any],
                       extra_headers: Optional[Dict[str, str]] = None
                       ) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (extra_headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self) -> None:
            if self.path != "/upload":
                self._send_json(404, {"error": {"code": "not_found",
                                                "message": self.path}})
                return
            length = int(self.headers.get("Content-Length", "0") or 0)
            if length > collector.max_body_bytes:
                # Refuse before reading: answer 413 from the header alone
                # and drop the connection rather than swallow the body.
                self.close_connection = True
                collector._rejected.inc()
                self._send_json(413, {"error": {
                    "code": "oversized",
                    "message": "declared %d bytes; the cap is %d"
                               % (length, collector.max_body_bytes)}})
                return
            body = self.rfile.read(length)
            status, payload = collector.handle_upload(self.headers, body)
            extra = {}
            error = payload.get("error", {})
            if "retryAfterMs" in error:
                extra["Retry-After-Ms"] = str(error["retryAfterMs"])
            self._send_json(status, payload, extra)

        def do_GET(self) -> None:
            if self.path == "/healthz":
                self._send_json(200, collector.health())
            elif self.path == "/metrics":
                body = registry_prometheus().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type",
                                 "text/plain; version=0.0.4")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            else:
                self._send_json(404, {"error": {"code": "not_found",
                                                "message": self.path}})

    return Handler
