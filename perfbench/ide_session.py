"""``ide_session``: one analyst in a closed loop over the stdio PVP server.

The analyst opens a seeded stream of distinct medium-tier pprof files
through one pipe to ``easyview serve`` and runs the same explore script
on each, ending with ``view/deriveMetric`` on the default (top-down)
view.  After the last file it compares that file with the one before
(``view/diff``) and aggregates the two (``view/aggregate``), once per
run: on derived views both take seconds, and once per file they would
crowd the opens and explores out of a run.  Placed last, their burst of
allocation cannot shift where the full cyclic collections of the later
explores fall, which a comparison after the second file did from seed to
seed.
Every profile is new content, so decoding, CCT build, transforms,
facade materialization, annotations and layout do the work; transport,
queueing and the store do none.

Each request is timed twice: wall time as the analyst sees it, and the
server's CPU time (all its threads) while the request ran.  With one
request in flight the server does nothing else, so the CPU time is the
request's cost; the reported metrics are those CPU times, each scaled
to the reference host speed by the :class:`common.Calibration` samples
taken around it.  Wall times are printed on stderr.

The number of files is fixed by ``--seconds`` (``profile_seconds`` of
open and explore work per file, calibrated on the seed commit), never
by the clock, so every run of a seed sends the same requests.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import (CONFIG, BenchError, Calibration, bench_script,
                    cpu_seconds, median, now, run_program, server_args, spawn,
                    stop)
import reference

NAME = "ide_session"


class StdioClient:
    """JSON-RPC over the server's stdin/stdout, one request at a time."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.proc = proc
        self.next_id = 0
        self.sent: List[str] = []
        self.received: List[str] = []

    def request(self, method: str,
                params: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
        self.next_id += 1
        request_id = self.next_id
        line = json.dumps({"jsonrpc": "2.0", "id": request_id,
                           "method": method, "params": params},
                          sort_keys=True)
        self.sent.append(line)
        started = now()
        self.proc.stdin.write(line.encode("utf-8") + b"\n")
        self.proc.stdin.flush()
        while True:
            raw = self.proc.stdout.readline()
            if not raw:
                raise BenchError("the stdio server closed its pipe during %s"
                                 % method)
            elapsed = now() - started
            text = raw.decode("utf-8").rstrip("\n")
            self.received.append(text)
            payload = json.loads(text)
            if "method" in payload:       # an ide/* notification
                continue
            if payload.get("id") != request_id:
                raise BenchError("response id %r, expected %d"
                                 % (payload.get("id"), request_id))
            return payload, elapsed


def _ready(trace_out: Optional[str], log: str
           ) -> Tuple[subprocess.Popen, StdioClient, Tuple[float, float]]:
    """Start the stdio server; set-up ends at its first answer.  Returns
    the set-up's (wall, server CPU) seconds."""
    started = now()
    proc = spawn(server_args(trace_out, ["serve"]), log)
    client = StdioClient(proc)
    try:
        response, _ = client.request("view/engineStats", {})
        if "result" not in response:
            raise BenchError("engineStats failed: %s" % response)
        took = (now() - started, cpu_seconds(proc.pid))
    except BaseException:
        stop(proc)
        raise
    return proc, client, took


def _result(response: Dict[str, Any], method: str) -> Dict[str, Any]:
    if "result" not in response:
        raise BenchError("%s failed: %s" % (method, response.get("error")))
    return response["result"]


#: One request's cost: (wall, server CPU, index of the calibration sample
#: taken just before it); milliseconds, or seconds for a set-up.
Timing = Tuple[float, float, int]
#: How a summary reads a Timing: its wall time, or its scaled CPU time.
Cost = Callable[[Timing], float]


class Session:
    """The analyst's script against one running server."""

    def __init__(self, client: StdioClient,
                 calibration: Calibration) -> None:
        self.client = client
        self.calibration = calibration
        self.pid = client.proc.pid
        self.config = CONFIG["workloads"][NAME]
        self.open: List[Timing] = []
        self.explore: List[List[Timing]] = []   # per file, its requests
        self.compared: List[Timing] = []
        self.requests = 0
        self.ops: List[Tuple[float, float]] = []   # timed request intervals
        self.ids: List[int] = []

    def _call(self, method: str,
              params: Dict[str, Any]) -> Tuple[Dict[str, Any], Timing]:
        index = self.calibration.sample()
        cpu = cpu_seconds(self.pid)
        start = now()
        response, elapsed = self.client.request(method, params)
        cpu = cpu_seconds(self.pid) - cpu
        self.ops.append((start, start + elapsed))
        self.requests += 1
        return _result(response, method), (elapsed * 1e3, cpu * 1e3, index)

    def profile(self, entry: Dict[str, Any]) -> None:
        result, took = self._call("view/open", {"path": entry["path"]})
        self.open.append(took)
        pid = result["profileId"]
        self.ids.append(pid)
        explore: List[Timing] = []

        def step(method: str, params: Dict[str, Any]) -> Dict[str, Any]:
            out, took = self._call(method, dict(params, profileId=pid))
            explore.append(took)
            return out

        for shape in ("bottom_up", "flat", "top_down"):
            step("view/switchShape", {"shape": shape})
        for path, line in entry["hovers"]:
            found = step("view/hover", {"file": path, "line": line})
            if not found["found"]:
                raise BenchError("no hover for attributed line %s:%d"
                                 % (path, line))
        matches = step("view/search",
                       {"pattern": self.config["search_pattern"]})["matches"]
        if not matches:
            raise BenchError("search found nothing to zoom into")
        step("view/zoom", {"nodeRef": matches[0]})
        step("view/tableExpand", {"hotPath": True, "maxRows": 20})
        step("view/click", {"nodeRef": matches[0]})
        step("view/summary", {})
        derive = self.config["derive"]
        step("view/deriveMetric", {"name": derive["name"],
                                   "formula": derive["formula"]})
        self.explore.append(explore)

    def compare(self) -> None:
        """Diff the last file against the one before it and aggregate
        the two."""
        before, last = self.ids[-2:]
        _, diff = self._call("view/diff", {"baselineId": before,
                                           "treatmentId": last})
        _, aggregate = self._call("view/aggregate",
                                  {"profileIds": [before, last]})
        self.compared = [diff, aggregate]

    def per_file(self, cost: Cost) -> Dict[str, List[float]]:
        """Each file's open, explore total and slowest explore request."""
        return {"open_ms": [cost(took) for took in self.open],
                "explore_ms": [sum(map(cost, script))
                               for script in self.explore],
                "slowest_ms": [max(map(cost, script))
                               for script in self.explore]}

    def summary(self, cost: Cost) -> Dict[str, Any]:
        """The metrics, each request read by ``cost``."""
        files = self.per_file(cost)
        compared = sum(map(cost, self.compared))
        # Whether a full cyclic collection lands in a file's slowest
        # request flips that request between two levels, so the tail
        # is the mean over files, which moves by a fraction of the gap
        # where a median of a few would jump across it.
        return {
            "op_ms": median(files["open_ms"]),
            "tail_ms": statistics.mean(files["slowest_ms"]),
            "task_ms": median(files["explore_ms"]),
            "rate_per_s": len(self.open) * 1e3 / (sum(files["open_ms"])
                                                  + sum(files["explore_ms"])
                                                  + compared),
            "compare_ms": compared,
        }


def profile_count(seconds: float) -> int:
    config = CONFIG["workloads"][NAME]
    return max(config["min_profiles"],
               int(round(seconds / config["profile_seconds"])))


def run(seed: int, seconds: float, workdir: str, trace_out: Optional[str],
        verified: Any = None) -> Dict[str, Any]:
    """One pass.  ``verified`` is the checked transcript of an earlier
    pass of the same seed; when given, the responses are compared with
    it instead of with a fresh reference replay."""
    config = CONFIG["workloads"][NAME]
    manifest = json.loads(run_program(
        [bench_script("inputs.py"), "ide", str(seed),
         str(profile_count(seconds)), workdir]))
    log = os.path.join(workdir, "server.log")

    calibration = Calibration(NAME)
    setups: List[Timing] = []
    for _ in range(config["setup_repeats"] - 1):
        index = calibration.sample()
        proc, client, took = _ready(None, log)
        setups.append(took + (index,))
        client.request("shutdown", {})
        stop(proc)
    index = calibration.sample()
    proc, client, took = _ready(trace_out, log)
    setups.append(took + (index,))
    session = Session(client, calibration)
    try:
        phase_start = now()
        for entry in manifest["profiles"]:
            session.profile(entry)
        session.compare()
        phase_end = now()
        calibration.sample()
        stats = client.request("view/engineStats", {})[0]["result"]
        client.request("shutdown", {})
        if trace_out is None:
            # Nothing is left to measure or write: skip tearing down a
            # heap of open profiles.  A traced server writes its spans
            # at exit.
            proc.kill()
    finally:
        rss = stop(proc)

    reference.check_stdio(workdir, client.sent, client.received, verified)

    def scaled(took: Timing) -> float:
        return took[1] * calibration.scale(took[2])

    metrics = session.summary(scaled)
    wall = session.summary(lambda took: took[0])
    units = {"op_ms": "ms", "tail_ms": "ms", "task_ms": "ms",
             "rate_per_s": "1/s"}
    requests = session.open + session.compared + [
        took for script in session.explore for took in script]
    return {
        "attempted": session.requests,
        "failed": 0,
        "setup_s": median([scaled(took) for took in setups]),
        "rss_mb": rss,
        "metrics": {name: (metrics[name], unit)
                    for name, unit in units.items()},
        "detail": {"compare_ms": metrics["compare_ms"],
                   "kernel_ms": calibration.kernel_ms(),
                   "per_file": session.per_file(scaled),
                   "wall": dict(wall, setup_s=median([took[0]
                                                      for took in setups]))},
        "phase": (phase_start, phase_end),
        "ops": session.ops,
        "op_cpu_s": sum(map(scaled, requests)) / 1e3,
        "facts": {"engine_hit_ratio": float(stats["hitRate"])},
        "verified": client.received,
    }
