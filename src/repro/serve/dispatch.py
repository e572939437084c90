"""Transport-shared PVP request handling: parse, dispatch, error-map.

Both transports — the single-client stdio server
(:mod:`repro.ide.server`) and the concurrent socket server
(:mod:`repro.serve.server`) — speak the same newline-delimited JSON-RPC
and must answer the same inputs with byte-identical responses.  This
module is that shared half:

* the **line layer** — :func:`parse_line` plus the canonical error
  responses for oversized and undecodable input, so both transports
  produce the exact same ``PARSE_ERROR`` / ``INVALID_REQUEST`` bytes;
* the **dispatcher** — :class:`Dispatcher` wraps one
  :class:`~repro.ide.session.ViewerSession` and executes one request
  under a tracer span with latency accounting, the
  crashed-handler-to-``INTERNAL_ERROR`` mapping, and structured
  slow-request logging carrying the trace id, the session id and the
  collector seconds (so a slow interaction in a thousand-session server
  is attributable);
* the **supersession map** — :func:`supersede_key` names which requests
  describe the *same pane* such that a newer one makes a queued older
  one worthless (the socket transport answers the older one with
  ``CANCELLED``; stdio, which never queues, ignores it).

The transports keep only what genuinely differs: blocking reads on
stdin vs asyncio streams, and one-at-a-time vs queued-and-pooled
execution.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, IO, Optional, Tuple

from ..errors import ProtocolError
from ..obs import get_registry, get_tracer, watch_collector
from ..ide.protocol import (INTERNAL_ERROR, INVALID_REQUEST, PARSE_ERROR,
                            Request, Response, parse_message)
from ..ide import protocol as pvp

#: Upper bound on one request line.  An editor never legitimately sends
#: requests this large; anything bigger is a broken or hostile peer, and
#: reading it unbounded would balloon the server's memory.
MAX_LINE_BYTES = 10 * 1024 * 1024

#: A request slower than this gets a structured log line on stderr
#: carrying its trace id (overridable via ``EASYVIEW_SLOW_MS``).
DEFAULT_SLOW_SECONDS = 0.5


def env_slow_seconds() -> float:
    try:
        return float(os.environ.get("EASYVIEW_SLOW_MS", "")) / 1e3
    except ValueError:
        return DEFAULT_SLOW_SECONDS


# -- the line layer ----------------------------------------------------------

def oversized_response(max_line_bytes: int) -> Response:
    """The canonical answer to a line longer than the transport bound."""
    return Response.failure(None, PARSE_ERROR,
                            "request exceeds %d bytes" % max_line_bytes)


def undecodable_response() -> Response:
    """The canonical answer to bytes that are not UTF-8."""
    return Response.failure(None, PARSE_ERROR, "request is not valid UTF-8")


def parse_line(line: str) -> Tuple[Optional[Request], Optional[Response]]:
    """One stripped request line → ``(request, error_response)``.

    Exactly one of the pair is non-None — except for a blank line, which
    returns ``(None, None)`` and is skipped by both transports.  Error
    responses here are the ones the stdio server has always produced, so
    the two transports stay byte-identical on bad input.
    """
    line = line.strip()
    if not line:
        return None, None
    try:
        message = parse_message(line)
    except ProtocolError as exc:
        return None, Response.failure(None, PARSE_ERROR, str(exc))
    if not isinstance(message, Request):
        return None, Response.failure(None, INVALID_REQUEST,
                                      "expected a request")
    return message, None


# -- supersession ------------------------------------------------------------

#: Requests describing a *pane* whose newest version makes queued older
#: versions worthless: the params listed identify the pane, everything
#: else (the hover line, the search pattern, the zoom node) is the
#: volatile part a newer request replaces.  Mutating requests
#: (``view/open``, ``view/deriveMetric``, ``view/tableExpand``, ...)
#: are deliberately absent — every one of them must run.
SUPERSEDABLE = {
    pvp.VIEW_SHAPE: ("profileId",),
    pvp.VIEW_ZOOM: ("profileId", "shape"),
    pvp.VIEW_HOVER: ("profileId", "shape"),
    pvp.VIEW_SEARCH: ("profileId", "shape"),
    pvp.VIEW_TABLE: ("profileId", "shape"),
    pvp.VIEW_SUMMARY: ("profileId",),
}


def supersede_key(request: Request) -> Optional[Tuple[str, ...]]:
    """The pane identity a request renders, or None if not supersedable.

    Two requests with equal keys target the same pane; when both sit in
    one session's queue only the newer can matter, so the older is
    answered ``CANCELLED`` without ever running.  Notifications are
    never superseded (there is no response to cancel them with).
    """
    names = SUPERSEDABLE.get(request.method)
    if names is None or request.is_notification:
        return None
    return (request.method,) + tuple(
        str(request.params.get(name)) for name in names)


# -- the dispatcher ----------------------------------------------------------

class Dispatcher:
    """Execute PVP requests for one session, transport-independently.

    Robustness contract (shared by every transport): *no* exception from
    a request handler escapes — a handler crash becomes a JSON-RPC
    ``INTERNAL_ERROR`` response carrying the trace id, and the server
    keeps serving.  Every request is counted, timed into the
    ``server.request_seconds`` histogram, and tracked by the
    ``server.inflight`` gauge; requests slower than ``slow_seconds``
    emit one structured JSON log line with the trace id, the session id
    and the seconds cyclic collections stalled it, so a slow interaction
    can be joined to its spans and attributed to its client.

    Handlers run under CPython's default cyclic collector; only the
    bulk tree builds inside them switch it off
    (:func:`~repro.core.gcguard.no_gc`).  Constructing a dispatcher
    installs the ``runtime.gc_seconds`` collector hook (once per
    process).

    Thread-safety: :meth:`handle` touches only the wrapped session, the
    (lock-protected) obs instruments, and the log stream; the socket
    server runs it on worker threads, one at a time per session.
    """

    def __init__(self, session: Any,
                 slow_seconds: Optional[float] = None,
                 log: Optional[IO[str]] = None) -> None:
        self.session = session
        self.slow_seconds = (slow_seconds if slow_seconds is not None
                             else env_slow_seconds())
        self._log = log if log is not None else sys.stderr
        registry = get_registry()
        self._requests = registry.counter(
            "server.requests", "PVP requests handled")
        self._errors = registry.counter(
            "server.errors", "PVP requests answered with an error")
        self._crashes = registry.counter(
            "server.handler_crashes",
            "unexpected exceptions inside a request handler")
        self._slow = registry.counter(
            "server.slow_requests", "requests over the slow threshold")
        self._inflight = registry.gauge(
            "server.inflight", "requests currently being handled")
        self._latency = registry.histogram(
            "server.request_seconds", description="per-request latency")
        self._gc_clock = watch_collector()

    @property
    def session_id(self) -> str:
        return getattr(self.session, "session_id", "local")

    def handle(self, message: Request) -> Response:
        """Handle one request under a span, with latency accounting."""
        tracer = get_tracer()
        self._requests.inc()
        self._inflight.inc()
        gc_before = self._gc_clock.seconds
        started = time.perf_counter()
        trace_id = None
        try:
            with tracer.span("server.request",
                             method=message.method,
                             session=self.session_id) as span:
                if span is not None:
                    trace_id = span.trace_id
                try:
                    response = self.session.handle(message)
                except Exception as exc:  # the handler crashed: answer,
                    self._crashes.inc()   # don't die
                    if span is not None:
                        span.set("crashed", type(exc).__name__)
                    detail = "internal error handling %s: %s" % (
                        message.method, exc)
                    if trace_id is not None:
                        detail += " (trace %s)" % trace_id
                    response = Response.failure(message.id, INTERNAL_ERROR,
                                                detail)
                if span is not None:
                    span.set("ok", response.ok)
        finally:
            elapsed = time.perf_counter() - started
            gc_seconds = self._gc_clock.seconds - gc_before
            self._inflight.dec()
            self._latency.observe(elapsed)
        if not response.ok:
            self._errors.inc()
        if elapsed >= self.slow_seconds:
            self._slow.inc()
            self._log_slow(message, elapsed, gc_seconds, trace_id,
                           response.ok)
        return response

    def _log_slow(self, message: Request, elapsed: float, gc_seconds: float,
                  trace_id: Optional[str], ok: bool) -> None:
        try:
            self._log.write(json.dumps({
                "event": "slow_request",
                "method": message.method,
                "seconds": round(elapsed, 6),
                # Collections stop every thread, so this counts passes
                # that other requests' allocations started, too.
                "gcSeconds": round(gc_seconds, 6),
                "traceId": trace_id,
                "sessionId": self.session_id,
                "ok": ok,
            }, sort_keys=True) + "\n")
            self._log.flush()
        except (OSError, ValueError):
            pass  # logging must never take the server down
