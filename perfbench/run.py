"""Run one workload of EasyView's request-path benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``ide_session`` and ``ingest_watch`` (see their modules and
``config.json``).  Inputs come from ``--seed`` alone;
``--seconds`` fixes how much work one run does.  After the timed phase
every run checks the program's responses against a single-client
reference; on a mismatch it prints no numbers and exits 3, on any other
failure 1.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured with tracing off: the server's CPU time per
operation, scaled to a reference host speed (``common.Calibration``).
Stderr repeats them under each workload's own names (``metric_names`` in
``config.json``) next to the wall times.  With ``--trace 1`` they are
the per-layer ones: the workload runs untraced, then again with the
layer wrappers installed in the server process, and the traced run's
spans are attributed to layers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from typing import Any, Dict

import common
import ide_session
import ingest_watch
import tracing

WORKLOADS = {
    ide_session.NAME: ide_session,
    ingest_watch.NAME: ingest_watch,
}


def _pass(name: str, seed: int, seconds: float,
          verified: Any = None) -> Dict[str, Any]:
    """One pass of a workload; traced when ``verified`` (the checked
    outputs of an untraced pass of the same seed) is given."""
    workdir = common.run_dir(name, seed)
    traced = verified is not None
    try:
        trace_out = os.path.join(workdir, "spans.json") if traced else None
        out = WORKLOADS[name].run(seed, seconds, workdir, trace_out,
                                  verified)
        if traced:
            out["spans"] = tracing.SpanTable.load(trace_out, *out["phase"])
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(name: str, seed: int, seconds: float,
            trace: bool) -> Dict[str, Any]:
    first = _pass(name, seed, seconds)
    if not trace:
        metrics = {"setup_s": (first["setup_s"], "s"),
                   "rss_mb": (first["rss_mb"], "MB")}
        metrics.update(first["metrics"])
        out = first
        names = common.CONFIG["workloads"][name]["metric_names"]
        detail = {names.get(metric, metric): value
                  for metric, (value, _) in metrics.items()}
        detail.update(first.get("detail", {}))
        print("%s: %s" % (name, json.dumps(detail, sort_keys=True)),
              file=sys.stderr)
    else:
        out = _pass(name, seed, seconds, verified=first["verified"])
        metrics = tracing.layer_metrics(
            out["spans"], out["ops"], out["facts"],
            overhead=out["op_cpu_s"] / first["op_cpu_s"] - 1.0)
        print("%s: %s" % (name, json.dumps(out["facts"], sort_keys=True)),
              file=sys.stderr)
    return {"correct": True,
            "attempted": int(out["attempted"]),
            "failed": int(out["failed"]),
            "metrics": {metric: {"value": value, "unit": unit}
                        for metric, (value, unit) in metrics.items()}}


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_program()
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except common.Mismatch as exc:
        print("perfbench: correctness check failed: %s" % exc,
              file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        print("perfbench: run failed; no numbers reported", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
