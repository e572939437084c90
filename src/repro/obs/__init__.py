"""``repro.obs``: EasyView's self-profiling telemetry layer.

The paper's pitch is that profiles should live where developers already
work; this package closes the loop by instrumenting EasyView *itself* —
the analysis engine, the ProfStore, the converters, and the PVP server —
and rendering the resulting traces as EasyView flame graphs in the tool
itself (the same dogfooding hpctoolkit and pprof practice on their own
infrastructures).

Three process-wide singletons, lazily created:

* :func:`get_registry` — the :class:`~repro.obs.metrics.MetricsRegistry`
  holding every named counter/gauge/histogram (the PVP server's request
  metrics, the tracer's drop counter, ...).
* :func:`get_tracer` — the :class:`~repro.obs.tracer.Tracer` whose span
  ring the exporters drain.  Disabled by default; enabled by
  ``EASYVIEW_OBS=1`` in the environment, :func:`configure`, or the
  ``easyview obs`` subcommands.
* :func:`watch_collector` — the :class:`~repro.obs.runtime.CollectorClock`
  ``gc.callbacks`` hook timing cyclic collections into
  ``runtime.gc_seconds``; installed by the PVP servers, never at import.

The instrumented subsystems call :func:`get_tracer` once at import (or
first use) and wrap their hot paths in ``tracer.span(...)``; with the
tracer disabled that is a single attribute check per call, which is what
keeps the disabled overhead under the 5 % budget asserted in
``benchmarks/test_obs_overhead.py``.
"""

from __future__ import annotations

import gc
import threading
from typing import Optional

from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      DEFAULT_BUCKETS)
from .prom import registry_prometheus, to_prometheus
from .runtime import CollectorClock
from .tracer import Span, Tracer, env_enabled

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS",
    "Span", "Tracer", "configure", "get_registry", "get_tracer",
    "trace_span", "watch_collector", "env_enabled", "registry_prometheus",
    "to_prometheus",
]

_lock = threading.Lock()
_registry: Optional[MetricsRegistry] = None
_tracer: Optional[Tracer] = None
_collector_clock: Optional[CollectorClock] = None


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    global _registry
    if _registry is None:
        with _lock:
            if _registry is None:
                _registry = MetricsRegistry()
    return _registry


def get_tracer() -> Tracer:
    """The process-wide tracer (enabled iff ``EASYVIEW_OBS`` asks)."""
    global _tracer
    if _tracer is None:
        registry = get_registry()
        with _lock:
            if _tracer is None:
                _tracer = Tracer(enabled=env_enabled(), registry=registry)
    return _tracer


def watch_collector() -> CollectorClock:
    """The process-wide :class:`CollectorClock`, installed into
    ``gc.callbacks`` on first call (each PVP request dispatcher calls it
    as it is created, so importing this package changes nothing)."""
    global _collector_clock
    if _collector_clock is None:
        histogram = get_registry().histogram(
            "runtime.gc_seconds",
            description="cyclic garbage collection passes, all generations")
        with _lock:
            if _collector_clock is None:
                _collector_clock = CollectorClock(histogram)
                gc.callbacks.append(_collector_clock)
    return _collector_clock


def configure(enabled: Optional[bool] = None,
              capacity: Optional[int] = None,
              sample_every: Optional[int] = None) -> Tracer:
    """Adjust the process-wide tracer; returns it for chaining."""
    return get_tracer().configure(enabled=enabled, capacity=capacity,
                                  sample_every=sample_every)


def trace_span(name: str, **attributes):
    """Shorthand for ``get_tracer().span(name, **attributes)``."""
    return get_tracer().span(name, **attributes)
