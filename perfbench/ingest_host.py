"""The ingest side of ``ingest_watch``: a collector and a regression
watch on one store, in one process (runs with ``src`` on its path).

Usage::

    python perfbench/ingest_host.py STORE SERVICE WINDOW_NANOS WARM_NOW \\
        TRACE_OUT|-

Set-up reopens the store (index and WAL replay) with the program's
default flush policy, primes the collector's dedup set from it, binds
the HTTP endpoint and runs one warm-up tick at ``WARM_NOW``, then
prints ``READY <port>``.  Commands on stdin, one per
line, each answered with one JSON line:

* ``tick NOW`` — one ``RegressionWatch.tick(now_nanos=NOW)``;
* ``window NOW`` — the seqs and tree digest of the current window that
  ends at ``NOW`` (the correctness gate; never timed);
* ``stats`` — the store engine's cache statistics;
* ``quit`` — stop the collector and exit.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List


def main(argv: List[str]) -> int:
    store_dir, service, window, warm_now, trace_out = argv
    if trace_out != "-":
        import tracing
        tracing.install(trace_out)
    from repro.continuous.collector import Collector
    from repro.continuous.watch import RegressionWatch
    from repro.store import ProfileStore
    from repro.store.query import parse_query

    store = ProfileStore(store_dir)
    collector = Collector(store, port=0).start()
    query = "service=%s" % service
    watch = RegressionWatch(store, query=query, window="%ss" % (
        int(window) // 1_000_000_000))
    watch.tick(now_nanos=int(warm_now))
    print("READY %d" % collector.address[1], flush=True)

    def window_of(now: int) -> Dict[str, Any]:
        selected = parse_query(query, now_nanos=now)
        selected.since_nanos = now - watch.window_nanos + 1
        selected.until_nanos = now
        result = store.query_window(selected, shape=watch.shape)
        return {"seqs": [entry.seq for entry in result.entries],
                "digest": result.digest()}

    try:
        for line in sys.stdin:
            words = line.split()
            if not words:
                continue
            if words[0] == "tick":
                report = watch.tick(now_nanos=int(words[1]))
                reply = {"current": report.current_captures,
                         "baseline": report.baseline_captures,
                         "regressions": len(report.regressions)}
            elif words[0] == "window":
                reply = window_of(int(words[1]))
            elif words[0] == "stats":
                reply = store.engine.stats()
            elif words[0] == "quit":
                break
            else:
                reply = {"error": "unknown command %r" % words[0]}
            print(json.dumps(reply), flush=True)
    finally:
        collector.stop(flush=False)
        store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
