"""Runtime telemetry: time spent in CPython's cyclic garbage collector.

Collector passes run inside whatever call allocated the object that
tripped a threshold, so no span accounts for them.  A ``gc.callbacks``
hook brackets every collection of every generation instead: each pass is
observed into the ``runtime.gc_seconds`` histogram and added to a running
total, which a request handler reads before and after a request to learn
how long collections stalled it.
"""

from __future__ import annotations

import time
from typing import Dict

from .metrics import Histogram


class CollectorClock:
    """A ``gc.callbacks`` hook timing every cyclic collection.

    The interpreter runs one collection at a time and calls the hook on
    the collecting thread, so :attr:`seconds` has a single writer.  The
    hook can fire at any container allocation in any thread, so it takes
    no lock but the histogram's, which is reentrant.
    """

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._clock = time.perf_counter
        self._started = 0.0
        #: Seconds spent in collections since the hook was installed.
        self.seconds = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        now = self._clock()
        if phase == "start":
            self._started = now
            return
        elapsed = now - self._started
        self.seconds += elapsed
        self._histogram.observe(elapsed)
