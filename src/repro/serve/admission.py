"""Transport-independent admission control.

The discipline PR 8 proved out on the socket transport — a global cap on
queued+running work, a per-source queue bound, and a fast structured
denial carrying a retry hint — is not socket-specific.  This module
factors it into one :class:`AdmissionController` shared by:

* :class:`repro.serve.server.PVPServer` — one source per connected
  session, denials mapped to JSON-RPC ``DENIED`` (-32801);
* :class:`repro.continuous.collector.Collector` — one source per
  uploading service, denials mapped to HTTP 429 / 503.

The controller is lock-protected so it works both on the asyncio event
loop (where the lock is uncontended) and across the threaded HTTP
front's handler threads.  It counts *admissions*: a successful
:meth:`try_admit` increments the pending total and the source's depth;
every admitted unit must eventually be returned through
:meth:`release`, whatever its fate (executed, cancelled, failed).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

#: Denial reasons, shared wire-visible vocabulary across transports.
REASON_SERVER = "server"        # global pending cap reached
REASON_SOURCE = "session"       # per-source queue depth reached
REASON_DRAINING = "draining"    # shutdown in progress


@dataclass
class Denial:
    """Why a unit of work was refused, plus the client's retry hint."""

    reason: str
    retry_after_ms: int

    def to_dict(self) -> Dict[str, int]:
        return {"retryAfterMs": self.retry_after_ms, "reason": self.reason}


class AdmissionController:
    """Global + per-source admission caps with structured denials.

    ``source_reason`` names the per-source cap in denials: the PVP
    transport calls its sources "session" (the wire contract tests pin);
    the HTTP collector overrides it with "service".
    """

    def __init__(self, max_pending: int, max_source_queue: int,
                 retry_after_ms: int = 50,
                 source_reason: str = REASON_SOURCE) -> None:
        self.max_pending = max_pending
        self.max_source_queue = max_source_queue
        self.retry_after_ms = retry_after_ms
        self.source_reason = source_reason
        self._lock = threading.Lock()
        self._pending = 0
        self._per_source: Dict[str, int] = {}
        self._draining = False

    # -- admission ---------------------------------------------------------

    def try_admit(self, source: Optional[str] = None,
                  queued: Optional[int] = None) -> Optional[Denial]:
        """Admit one unit of work, or say why not.

        Returns ``None`` on admission (the counters are already bumped —
        pair with :meth:`release`) or a :class:`Denial` naming the first
        violated constraint: draining beats the global cap beats the
        per-source cap, mirroring the socket server's historical order.

        The per-source depth is either tracked here (pass ``source`` and
        release with the same name — the collector's style) or owned by
        the caller (pass ``queued`` explicitly — the socket server's
        style, whose per-session queues deliberately exclude the running
        request from the bound).
        """
        with self._lock:
            if self._draining:
                return Denial(REASON_DRAINING, self.retry_after_ms)
            if self._pending >= self.max_pending:
                return Denial(REASON_SERVER, self.retry_after_ms)
            if queued is not None:
                depth = queued
            else:
                depth = self._per_source.get(source, 0) if source else 0
            if depth >= self.max_source_queue and (source is not None
                                                   or queued is not None):
                return Denial(self.source_reason, self.retry_after_ms)
            self._pending += 1
            if source is not None:
                self._per_source[source] = \
                    self._per_source.get(source, 0) + 1
            return None

    def release(self, source: Optional[str] = None) -> None:
        """Return one previously admitted unit."""
        with self._lock:
            self._pending -= 1
            if source is not None:
                depth = self._per_source.get(source, 0) - 1
                if depth > 0:
                    self._per_source[source] = depth
                else:
                    self._per_source.pop(source, None)

    # -- lifecycle ---------------------------------------------------------

    def start_drain(self) -> None:
        """Refuse all future admissions (existing work keeps running)."""
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    @draining.setter
    def draining(self, value: bool) -> None:
        with self._lock:
            self._draining = bool(value)

    @property
    def pending(self) -> int:
        """Units admitted and not yet released."""
        with self._lock:
            return self._pending
