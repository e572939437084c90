"""The tracing half of ``repro.obs``: nested spans over ``contextvars``.

A *span* is one timed operation — an engine transform, a WAL append, a
PVP request — with a name, attributes, a monotonic-clock duration, and a
position in a tree: spans opened while another span is active become its
children, and the root of each tree names a *trace*.  The current span
lives in a :class:`contextvars.ContextVar`, so nesting follows the
logical flow of control rather than the call stack of any one thread;
the engine's :class:`~repro.engine.parallel.WorkerPool` copies the
submitting context into its workers, so a span opened inside a pooled
task attaches to the span that submitted the batch.

Finished spans land in a bounded ring buffer.  When the ring is full the
*oldest* span is dropped and the ``obs.spans_dropped`` counter
increments — tracing never grows without bound and never blocks the
traced code.  Sampling is decided at the *root*: an unsampled root turns
its whole subtree into no-ops, keeping the decision consistent across a
trace.

When the tracer is disabled (the default), :meth:`Tracer.span` returns a
shared null context manager after a single attribute check — the hot
paths stay instrumented at all times and the overhead budget
(< 5 % on the engine benchmark, asserted in
``benchmarks/test_obs_overhead.py``) is paid only when tracing is on.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, TypeVar

from .metrics import MetricsRegistry

F = TypeVar("F", bound=Callable[..., Any])

#: Default ring capacity: generous enough for a full store smoke run,
#: small enough that an always-on tracer stays a few MB.
DEFAULT_CAPACITY = 4096

_ids = itertools.count(1)


def _next_id() -> str:
    return "%x" % next(_ids)


class Span:
    """One finished (or in-flight) timed operation."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attributes",
                 "start_wall_ns", "start_mono_ns", "duration_ns",
                 "thread_name", "error")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: Optional[str],
                 attributes: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes: Dict[str, Any] = attributes or {}
        self.start_wall_ns = 0
        self.start_mono_ns = 0
        self.duration_ns = 0
        self.thread_name = ""
        #: The exception type name when the span body raised, else "".
        self.error = ""

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "traceId": self.trace_id,
            "spanId": self.span_id,
            "parentId": self.parent_id,
            "startWallNanos": self.start_wall_ns,
            "durationNanos": self.duration_ns,
            "thread": self.thread_name,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.error:
            payload["error"] = self.error
        return payload

    def __repr__(self) -> str:
        return "Span(%r, %.3f ms)" % (self.name, self.duration_ns / 1e6)


class _NullSpanContext:
    """The shared do-nothing context manager for a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass


_NULL_CONTEXT = _NullSpanContext()

#: Sentinel stored as the "current span" under an unsampled root, so the
#: whole subtree skips recording without re-rolling the sampling decision.
_UNSAMPLED = object()


class _SpanContext:
    """The live context manager handed out by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span", "_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._token: Optional[contextvars.Token] = None

    def set(self, key: str, value: Any) -> None:
        self.span.set(key, value)

    def __enter__(self) -> Span:
        self._token = self._tracer._current.set(self.span)
        self.span.start_wall_ns = time.time_ns()
        self.span.start_mono_ns = time.monotonic_ns()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.duration_ns = (time.monotonic_ns()
                                 - self.span.start_mono_ns)
        if exc_type is not None:
            self.span.error = exc_type.__name__
        self.span.thread_name = threading.current_thread().name
        if self._token is not None:
            self._tracer._current.reset(self._token)
        self._tracer._record(self.span)
        return False


class _UnsampledContext:
    """Marks the subtree unsampled, then restores the previous current."""

    __slots__ = ("_tracer", "_token")

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer
        self._token: Optional[contextvars.Token] = None

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> None:
        self._token = self._tracer._current.set(_UNSAMPLED)
        return None

    def __exit__(self, *exc_info: object) -> bool:
        if self._token is not None:
            self._tracer._current.reset(self._token)
        return False


class Tracer:
    """Nested-span tracer with a bounded ring of finished spans."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 sample_every: int = 1, enabled: bool = False,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.enabled = enabled
        self.capacity = capacity
        #: Keep every Nth trace (1 = all).  The decision is made when a
        #: *root* span opens and inherited by its descendants, so traces
        #: are always complete or absent, never ragged.
        self.sample_every = sample_every
        self._current: "contextvars.ContextVar[Any]" = \
            contextvars.ContextVar("easyview-obs-span", default=None)
        self._ring: Deque[Span] = deque()
        self._lock = threading.Lock()
        self._roots_seen = 0
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._dropped = self.registry.counter(
            "obs.spans_dropped", "spans evicted from the full ring")
        self._recorded = self.registry.counter(
            "obs.spans_recorded", "spans appended to the ring")

    # -- span creation -----------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """A context manager timing one operation.

        Usage::

            with tracer.span("store.ingest", service=service) as span:
                ...
                span.set("seq", record.seq)

        Disabled tracer: returns a shared null context after one attribute
        check.  Unsampled trace: returns a null-like context that keeps
        the subtree unsampled.
        """
        if not self.enabled:
            return _NULL_CONTEXT
        parent = self._current.get()
        if parent is _UNSAMPLED:
            return _NULL_CONTEXT
        if parent is None:
            # Root span: roll the sampling decision for the whole trace.
            with self._lock:
                self._roots_seen += 1
                sampled = (self._roots_seen - 1) % self.sample_every == 0
            if not sampled:
                return _UnsampledContext(self)
            trace_id = _next_id()
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(name, trace_id=trace_id, span_id=_next_id(),
                    parent_id=parent_id, attributes=attributes or None)
        return _SpanContext(self, span)

    def trace(self, name: Optional[str] = None) -> Callable[[F], F]:
        """Decorator form: ``@tracer.trace("engine.transform")``."""
        def decorate(fn: F) -> F:
            span_name = name or fn.__qualname__
            import functools

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(span_name):
                    return fn(*args, **kwargs)
            return wrapper  # type: ignore[return-value]
        return decorate

    # -- context introspection --------------------------------------------

    def current_span(self) -> Optional[Span]:
        """The innermost live span on this logical context, if any."""
        current = self._current.get()
        return current if isinstance(current, Span) else None

    def current_trace_id(self) -> Optional[str]:
        span = self.current_span()
        return span.trace_id if span is not None else None

    # -- the ring ----------------------------------------------------------

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._ring) >= self.capacity:
                self._ring.popleft()
                self._dropped.inc()
            self._ring.append(span)
        self._recorded.inc()

    def spans(self) -> List[Span]:
        """A snapshot of the ring, oldest first."""
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def clear(self) -> None:
        """Empty the ring (counters survive)."""
        with self._lock:
            self._ring.clear()

    # -- configuration -----------------------------------------------------

    def configure(self, enabled: Optional[bool] = None,
                  capacity: Optional[int] = None,
                  sample_every: Optional[int] = None) -> "Tracer":
        """Adjust settings in place; shrinking the capacity drops oldest."""
        if enabled is not None:
            self.enabled = enabled
        if sample_every is not None:
            if sample_every < 1:
                raise ValueError("sample_every must be >= 1")
            # span() reads this under the lock when rolling a root's
            # sampling decision; write it under the same lock.
            with self._lock:
                self.sample_every = sample_every
        if capacity is not None:
            if capacity < 1:
                raise ValueError("ring capacity must be positive")
            with self._lock:
                self.capacity = capacity
                while len(self._ring) > capacity:
                    self._ring.popleft()
                    self._dropped.inc()
        return self


def env_enabled(environ: Optional[Dict[str, str]] = None) -> bool:
    """Whether ``EASYVIEW_OBS`` asks for tracing (``1``/``true``/``on``)."""
    env = os.environ if environ is None else environ
    return env.get("EASYVIEW_OBS", "").strip().lower() in (
        "1", "true", "on", "yes")
