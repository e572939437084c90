"""Manual memory-management guard (§V-C).

The paper: "EASYVIEW manages the memory manually to avoid frequent
invocation of garbage collectors."  In CPython the analogous lever is the
cyclic garbage collector: building a million-node CCT allocates millions of
young container objects, and generational collections triggered mid-build
re-traverse them repeatedly for nothing (profile trees are acyclic by
construction — children/parent links are the only cycles).

:func:`no_gc` pulls that lever: it disables collection for the duration
of a bulk build and restores the previous state afterwards; measured on
the Fig. 5 corpus it roughly halves profile-open time at the large end.
The collector's uploads (parse to store) and the regression watch's
ticks (window queries to report) run under it too: what they build is
garbage once they return.  Everything else, PVP server requests
included, runs under CPython's default collector.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator


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
