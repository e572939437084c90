"""``ingest_watch``: a capture agent's closed loop into the collector, with
a regression watch ticking on the same store.

The store starts with history — one flushed segment plus half a
segment of records still in the WAL, sized by the program's default
flush policy — which set-up reopens.  Uploads are distinct
small-tier captures of one service with synthetic, evenly spaced
capture times; every ``resend_every``-th upload re-sends an earlier
capture, as an agent retry would.  After every ``tick_every`` fresh
captures the watch ticks at the newest capture time, so its current
window holds exactly those captures and its baseline window is the
previous tick's current window.  The number of uploads is fixed by
``--seconds``, so ticks and the segment flush happen at the same uploads
in every run of a seed.

This is the only workload that writes and reads back through the store:
lint gate, native serialize, WAL append with fsync and the segment flush
on the way in; the window query, segment loads and the windowed
aggregate on the way out.

As in ``ide_session``, each operation is timed as wall time and as the
host process's CPU time (all its threads) while it ran; the metrics are
the CPU times, each scaled by the :class:`common.Calibration` samples
taken around it.  Time a request waits for ``fsync`` is not CPU time:
the fsync count is a per-layer metric, and the wall times are printed
on stderr.
"""

from __future__ import annotations

import http.client
import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import (CONFIG, WORK, BenchError, Calibration, Mismatch,
                    bench_script, cpu_seconds, filesystem_of, median, now,
                    percentile, run_program, source_digest, spawn, stop)
import reference

NAME = "ingest_watch"

#: One operation's cost: (wall, host CPU, index of the calibration sample
#: taken just before it); milliseconds, or seconds for a set-up.
Timing = Tuple[float, float, int]


class Host:
    """The collector-and-watch process and its command pipe."""

    def __init__(self, manifest: Dict[str, Any], log: str,
                 trace_out: Optional[str]) -> None:
        started = now()
        self.proc = spawn([bench_script("ingest_host.py"), manifest["store"],
                           manifest["service"],
                           str(manifest["window_nanos"]),
                           str(manifest["history"][-1][2]),
                           trace_out or "-"], log)
        line = self.proc.stdout.readline().decode("utf-8").split()
        if len(line) != 2 or line[0] != "READY":
            stop(self.proc)
            raise BenchError("the ingest host did not start (see %s)" % log)
        self.port = int(line[1])
        self.setup = (now() - started, cpu_seconds(self.proc.pid))

    def cpu(self) -> float:
        return cpu_seconds(self.proc.pid)

    def command(self, text: str) -> Dict[str, Any]:
        self.proc.stdin.write(text.encode("utf-8") + b"\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the ingest host exited during %r" % text)
        return json.loads(reply)

    def close(self) -> float:
        self.proc.stdin.write(b"quit\n")
        self.proc.stdin.flush()
        return stop(self.proc)


def fresh_count(seconds: float) -> int:
    config = CONFIG["workloads"][NAME]
    per_tick = config["tick_every"]
    return per_tick * max(2, int(round(seconds * config["fresh_per_second"]
                                       / per_tick)))


def _upload(conn: http.client.HTTPConnection, body: bytes,
            headers: Dict[str, str]) -> Tuple[int, Dict[str, Any], float]:
    started = now()
    conn.request("POST", "/upload", body=body, headers=headers)
    response = conn.getresponse()
    data = response.read()
    elapsed = now() - started
    try:
        payload = json.loads(data)
    except ValueError:
        payload = {}
    return response.status, payload, elapsed


def _window_hits(before: Dict[str, Any],
                 after: Dict[str, Any]) -> Tuple[int, int]:
    """(hits, misses) of the engine's windowed-aggregate cache between
    two ``stats`` snapshots."""
    counts = [snapshot["operations"].get("window",
                                         {"hits": 0, "misses": 0})
              for snapshot in (before, after)]
    return (counts[1]["hits"] - counts[0]["hits"],
            counts[1]["misses"] - counts[0]["misses"])


def run(seed: int, seconds: float, workdir: str, trace_out: Optional[str],
        verified: Any = None) -> Dict[str, Any]:
    """One pass.  ``verified`` holds the checked window digests of an
    earlier pass of the same seed; when given, the windows are compared
    with them instead of with a fresh reference aggregate."""
    config = CONFIG["workloads"][NAME]
    manifest = json.loads(run_program(
        [bench_script("inputs.py"), "ingest", str(seed),
         str(fresh_count(seconds)), workdir,
         os.path.join(WORK, "history-" + source_digest())]))
    log = os.path.join(workdir, "host.log")
    uploads = manifest["uploads"]
    bodies = []
    for upload in uploads:
        with open(upload["path"], "rb") as handle:
            bodies.append(handle.read())
    source = {seq: path for seq, path, _ in manifest["history"]}

    calibration = Calibration(NAME)
    setups: List[Timing] = []
    for _ in range(config["setup_repeats"] - 1):
        index = calibration.sample()
        host = Host(manifest, log, None)
        setups.append(host.setup + (index,))
        host.close()
    index = calibration.sample()
    host = Host(manifest, log, trace_out)
    setups.append(host.setup + (index,))
    upload_ms: List[Timing] = []
    tick_ms: List[Timing] = []
    ticks: List[int] = []
    ops: List[Tuple[float, float]] = []
    failed = stored = duplicates = 0
    try:
        before = host.command("stats")
        conn = http.client.HTTPConnection("127.0.0.1", host.port,
                                          timeout=config["http_timeout_s"])
        phase_start = now()
        for upload, body in zip(uploads, bodies):
            index = calibration.sample()
            cpu = host.cpu()
            start = now()
            status, payload, took = _upload(conn, body, upload["headers"])
            cpu = host.cpu() - cpu
            ops.append((start, start + took))
            upload_ms.append((took * 1e3, cpu * 1e3, index))
            want = "duplicate" if upload["resend"] else "stored"
            if status != 200 or payload.get("status") != want:
                failed += 1
                continue
            if upload["resend"]:
                duplicates += 1
                continue
            stored += 1
            source[payload["seq"]] = upload["path"]
            if stored % config["tick_every"] == 0:
                index = calibration.sample()
                cpu = host.cpu()
                start = now()
                report = host.command("tick %d" % upload["time"])
                took = now() - start
                cpu = host.cpu() - cpu
                ops.append((start, start + took))
                tick_ms.append((took * 1e3, cpu * 1e3, index))
                ticks.append(upload["time"])
                if report.get("current") != config["tick_every"] or \
                        report.get("baseline") != config["tick_every"]:
                    raise Mismatch("tick at %d compared %s current and %s "
                                   "baseline captures, expected %d each"
                                   % (upload["time"], report.get("current"),
                                      report.get("baseline"),
                                      config["tick_every"]))
        phase_end = now()
        calibration.sample()
        conn.close()
        after = host.command("stats")
        windows = [host.command("window %d" % at)
                   for at in [ticks[0] - manifest["window_nanos"]] + ticks]
    finally:
        rss = host.close()

    checks = []
    for window in windows:
        missing = [seq for seq in window["seqs"] if seq not in source]
        if missing or len(window["seqs"]) != config["tick_every"]:
            raise Mismatch("window holds seqs %s; unknown: %s"
                           % (window["seqs"], missing))
        checks.append({"digest": window["digest"],
                       "paths": [source[seq] for seq in window["seqs"]]})
    digests = [check["digest"] for check in checks]
    if verified is None:
        reference.check_windows(workdir, checks)
    elif digests != verified:
        raise Mismatch("window digests differ from the checked pass")

    def scaled(took: Timing) -> float:
        return took[1] * calibration.scale(took[2])

    metrics = _summary(upload_ms, tick_ms, stored + duplicates, scaled)
    wall = _summary(upload_ms, tick_ms, stored + duplicates,
                    lambda took: took[0])
    hits, misses = _window_hits(before, after)
    lookups = after["hits"] + after["misses"] - before["hits"] \
        - before["misses"]
    return {
        "attempted": len(uploads) + len(ticks),
        "failed": failed,
        "setup_s": median([scaled(took) for took in setups]),
        "rss_mb": rss,
        "metrics": metrics,
        "detail": {"filesystem": filesystem_of(manifest["store"]),
                   "fsync": True,
                   "flush_records": manifest["flush_records"],
                   "kernel_ms": calibration.kernel_ms(),
                   "wall": dict({name: value for name, (value, _)
                                 in wall.items()},
                                setup_s=median([took[0]
                                                for took in setups]))},
        "phase": (phase_start, phase_end),
        "ops": ops,
        "op_cpu_s": sum(map(scaled, upload_ms + tick_ms)) / 1e3,
        "facts": {
            "fresh_uploads": float(stored),
            "ticks": float(len(ticks)),
            "duplicate_share": duplicates / len(uploads),
            "engine_hit_ratio": (after["hits"] - before["hits"]) / lookups,
            "window_hit_ratio": hits / (hits + misses),
        },
        "verified": digests,
    }


def _summary(upload_ms: List[Timing], tick_ms: List[Timing],
             acknowledged: int,
             cost: Callable[[Timing], float]) -> Dict[str, Tuple[float, str]]:
    """The metrics, each operation read by ``cost``."""
    uploads = [cost(timing) for timing in upload_ms]
    config = CONFIG["workloads"][NAME]
    return {
        "op_ms": (median(uploads), "ms"),
        "tail_ms": (percentile(uploads, config["tail_percentile"]), "ms"),
        "task_ms": (median([cost(timing) for timing in tick_ms]), "ms"),
        "rate_per_s": (acknowledged * 1e3 / sum(uploads), "1/s"),
    }
