"""The metrics half of ``repro.obs``: counters, gauges, and histograms.

Three primitive types cover everything the subsystems count:

* :class:`Counter` — a monotonically increasing total (requests served,
  cache hits, spans dropped).  Increments are lock-protected: a bare
  ``self.value += n`` is a read-modify-write that loses updates under the
  engine's worker pool, which is exactly the race this class exists to
  close (the old ``engine.CacheStats`` counters had it).
* :class:`Gauge` — a value that goes up *and* down (in-flight requests,
  WAL occupancy).
* :class:`Histogram` — fixed-bucket latency/size distributions with a
  cumulative-count snapshot (the Prometheus bucket convention: each
  bucket counts observations ``<= upper_bound``, plus ``+Inf``).

A :class:`MetricsRegistry` names and owns instruments; ``snapshot()``
returns plain JSON-ready data for ``easyview obs metrics``, the PVP
``obs/metrics`` request, and tests.  Instruments are cheap enough to sit
on hot paths — one lock acquisition per update — and creation is
idempotent per name, so callers just ask the registry every time or keep
a reference, whichever reads better.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

#: Default histogram boundaries, in seconds: tuned for request latencies
#: from "cache hit" (tens of microseconds) to "cold multi-profile merge"
#: (seconds).  Callers measuring other units pass their own boundaries.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class Counter:
    """A thread-safe, monotonically increasing counter."""

    __slots__ = ("name", "description", "_value", "_lock")

    def __init__(self, name: str = "", description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> int:
        """Atomically add ``amount`` (must be >= 0); returns the new total."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount
            return self._value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def __repr__(self) -> str:
        return "Counter(%r, %d)" % (self.name, self.value)


class Gauge:
    """A thread-safe value that moves both directions."""

    __slots__ = ("name", "description", "_value", "_lock")

    def __init__(self, name: str = "", description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> float:
        with self._lock:
            self._value += amount
            return self._value

    def dec(self, amount: float = 1.0) -> float:
        return self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        self.set(0.0)

    def __repr__(self) -> str:
        return "Gauge(%r, %g)" % (self.name, self.value)


class Histogram:
    """A fixed-bucket distribution (cumulative bucket counts + sum)."""

    __slots__ = ("name", "description", "buckets", "_counts", "_sum",
                 "_count", "_min", "_max", "_lock")

    def __init__(self, name: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS,
                 description: str = "") -> None:
        if not buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        bounds = tuple(sorted(float(b) for b in buckets))
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self.name = name
        self.description = description
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # final slot is +Inf
        self._sum = 0.0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        # Reentrant: ``runtime.gc_seconds`` is observed from a gc callback,
        # which can fire at any container allocation — including those
        # ``to_dict`` and ``reset`` make while holding this lock.
        self._lock = threading.RLock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        # One acquisition: sum and count must come from the same moment.
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0
            self._min = None
            self._max = None

    def to_dict(self) -> Dict[str, Any]:
        # Copy first, then build: a reentrant observation can only land
        # while the copy is allocated, never between the fields read.
        with self._lock:
            counts = list(self._counts)
            total = self._sum
            count = self._count
            low = self._min
            high = self._max
        cumulative = 0
        buckets: List[Dict[str, Any]] = []
        for bound, in_bucket in zip(self.buckets, counts):
            cumulative += in_bucket
            buckets.append({"le": bound, "count": cumulative})
        buckets.append({"le": "+Inf", "count": cumulative + counts[-1]})
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": low,
            "max": high,
            "buckets": buckets,
        }

    def __repr__(self) -> str:
        return "Histogram(%r, n=%d)" % (self.name, self.count)


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named instruments plus a JSON-ready snapshot of all of them.

    Creation is get-or-create by name; asking for an existing name with a
    different instrument type is a programming error and raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(self, name: str, kind: type,
                       factory) -> Instrument:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    "metric %r is a %s, not a %s"
                    % (name, type(instrument).__name__, kind.__name__))
            return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(
            name, Counter, lambda: Counter(name, description))

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(
            name, Gauge, lambda: Gauge(name, description))

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  description: str = "") -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, buckets, description))

    def get(self, name: str) -> Optional[Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def reset(self) -> None:
        """Zero every instrument (the instruments themselves survive)."""
        with self._lock:
            for instrument in self._instruments.values():
                instrument.reset()

    def snapshot(self) -> Dict[str, Any]:
        """All instruments as plain data, grouped by type, names sorted."""
        with self._lock:
            instruments = dict(self._instruments)
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for name in sorted(instruments):
            instrument = instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            else:
                histograms[name] = instrument.to_dict()
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}
