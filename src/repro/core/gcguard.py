"""Manual memory-management guards (§V-C).

The paper: "EASYVIEW manages the memory manually to avoid frequent
invocation of garbage collectors."  In CPython the analogous lever is the
cyclic garbage collector: building a million-node CCT allocates millions of
young container objects, and generational collections triggered mid-build
re-traverse them repeatedly for nothing (profile trees are acyclic by
construction — children/parent links are the only cycles).

Two guards pull that lever:

* :func:`no_gc` disables collection for the duration of a bulk build and
  restores the previous state afterwards; measured on the Fig. 5 corpus it
  roughly halves profile-open time at the large end.
* :class:`RequestCollector` extends it to whole server requests.  A
  request that starts with nothing else in flight runs with the collector
  off; when the in-flight count returns to zero, ``gc.freeze()`` moves
  the survivors — the session's pinned profiles and views — out of the
  collector's generations, so later full collections stop rescanning
  them.  CPython starts a full collection whenever the long-lived heap
  has grown by 25%, and without freezing each such pass walks every
  open profile again.
"""

from __future__ import annotations

import contextlib
import gc
import threading
from typing import Iterator, Optional, Tuple


@contextlib.contextmanager
def no_gc() -> Iterator[None]:
    """Disable cyclic GC inside the block; restore the prior state after.

    Nesting is safe: the guard only re-enables collection if it was enabled
    on entry.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _collections() -> int:
    """Collections of any generation run so far in this process."""
    return sum(stat["collections"] for stat in gc.get_stats())


class RequestCollector:
    """The cyclic collector's policy around server requests.

    The collector is per process, so one instance serves the whole
    process (:data:`REQUEST_COLLECTOR`) and keeps one lock-guarded
    in-flight count:

    * a request that starts alone turns the collector off (unless
      something else already did) and turns it back on when it ends,
      even if other requests are still running — so the collector is
      never off for longer than one request that started alone;
    * a request that starts while another is in flight leaves the
      collector as it finds it;
    * when the count returns to zero with the collector under this
      policy, the survivors are frozen.  A collector disabled from
      outside stays off and nothing is frozen.

    Frozen garbage (closed profiles, evicted engine entries, dropped
    facades) is reclaimed by a whole-heap pass — ``gc.unfreeze()``,
    ``gc.collect()``, then freeze again — once the objects frozen since
    the last pass exceed the number that pass kept.  Frozen garbage
    therefore never exceeds the live heap, and since the heap at least
    doubles between passes, each object is traversed O(1) times over its
    life.  That is the only collection the policy runs: a request's
    survivors are pinned state, and collecting them on every request
    costs time and frees nothing.

    Counting is O(1) per request.  ``gc.get_count()[0]`` read just
    before ``gc.freeze()`` (which zeroes it) is the net number of
    container objects allocated since the last freeze while the
    collector was off — an upper bound on what the freeze adds, since
    containers the interpreter leaves untracked (dicts of plain numbers)
    count too.  Where the collector ran meanwhile — between requests, or
    a request overlapping the one that turned it off — each collection
    reset that count after at most one threshold's worth of
    allocations, so those are added as a bound as well.  The exact
    count, ``gc.get_freeze_count()``, walks the whole frozen list; only
    the reclaim pass, which has just walked the heap, and the process's
    first freeze, which records the baseline, pay for it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight = 0
        self._kept: Optional[int] = None   # None until the first freeze
        self._frozen_since_pass = 0
        self._collections = _collections()

    @property
    def inflight(self) -> int:
        """Requests currently inside :meth:`request`."""
        with self._lock:
            return self._inflight

    @property
    def frozen_objects(self) -> int:
        """Objects this policy has frozen, by its own count: what the last
        whole-heap pass kept plus the estimate frozen since."""
        with self._lock:
            return (self._kept or 0) + self._frozen_since_pass

    @contextlib.contextmanager
    def request(self) -> Iterator[None]:
        """Run one request under the policy."""
        with self._lock:
            self._inflight += 1
            paused = self._inflight == 1 and gc.isenabled()
            if paused:
                gc.disable()
        try:
            yield
        finally:
            with self._lock:
                self._inflight -= 1
                try:
                    if self._inflight == 0 and (paused or gc.isenabled()):
                        young = _collections() - self._collections
                        since = (self._frozen_since_pass + gc.get_count()[0]
                                 + young * gc.get_threshold()[0])
                        self._kept, self._frozen_since_pass = _freeze(
                            self._kept, since)
                        self._collections = _collections()
                finally:
                    if paused:
                        gc.enable()


def _freeze(kept: Optional[int], since: int) -> Tuple[int, int]:
    """Freeze the survivors, reclaiming first when the ``since`` objects
    frozen since the last whole-heap pass exceed the ``kept`` it left;
    returns the new ``(kept, since)``."""
    if kept is None:
        # The first freeze: the interpreter's own collections have kept
        # this heap until now, so there is no frozen garbage to reclaim,
        # only a baseline to record.
        gc.freeze()
        return gc.get_freeze_count(), 0
    if since > kept:
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        return gc.get_freeze_count(), 0
    gc.freeze()
    return kept, since


#: The process's one request collector (the collector it governs is
#: process-wide too).
REQUEST_COLLECTOR = RequestCollector()
