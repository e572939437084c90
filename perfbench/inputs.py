"""Seeded input generation for the workloads (runs with ``src`` on its
path).

Usage::

    python perfbench/inputs.py ide SEED COUNT OUTDIR
    python perfbench/inputs.py ingest SEED FRESH OUTDIR HISTORY_CACHE

Each prints a JSON manifest on stdout.  The same seed always yields the
same files; nothing here is timed.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import os
import random
import shutil
import sys
from typing import Any, Dict, List

from common import CONFIG

from repro.continuous.envelope import CaptureEnvelope
from repro.profilers.corpus import generate, tier
from repro.proto import pprof_pb
from repro.store.store import DEFAULT_FLUSH_RECORDS


def _hover_lines(message: pprof_pb.Profile, count: int) -> List[List[Any]]:
    """The source lines with the most leaf cpu: what an analyst hovers."""
    flat: Dict[int, int] = collections.Counter()
    for sample in message.sample:
        flat[sample.location_id[0]] += sample.value[0]
    locations = {location.id: location for location in message.location}
    functions = {function.id: function for function in message.function}
    lines = []
    for location_id, _ in sorted(flat.items(),
                                 key=lambda item: (-item[1], item[0])):
        line = locations[location_id].line[0]
        function = functions[line.function_id]
        target = [message.string_table[function.filename], line.line]
        if target not in lines:
            lines.append(target)
        if len(lines) == count:
            break
    return lines


def ide_inputs(seed: int, count: int, outdir: str) -> Dict[str, Any]:
    """``count`` distinct medium-tier pprof files, gzipped on disk.

    Every file has its own generator seed, so no function names, call
    paths or values are shared between files.
    """
    config = CONFIG["workloads"]["ide_session"]
    spec = tier(config["tier"])
    profiles = []
    for index in range(count):
        message = generate(dataclasses.replace(
            spec, seed=seed * 1000 + index))
        path = os.path.join(outdir, "profile-%d.pb.gz" % index)
        with open(path, "wb") as handle:
            handle.write(pprof_pb.dumps(message))
        profiles.append({"path": path,
                         "hovers": _hover_lines(message,
                                                config["hover_lines"])})
    return {"profiles": profiles}


class CaptureStream:
    """Small-tier captures of one service: a fixed set of functions and
    call paths, with each capture drawing its own samples.

    Captures of one service share their code structure, so a watch
    window merges into one service-sized tree; every capture has its own
    sample values, so no two captures are equal bytes.
    """

    def __init__(self) -> None:
        config = CONFIG["workloads"]["ingest_watch"]
        spec = dataclasses.replace(tier(config["tier"]),
                                   seed=config["service_seed"])
        self.base = generate(spec)
        self.paths = sorted({tuple(sample.location_id)
                             for sample in self.base.sample})
        self.samples = len(self.base.sample)
        self.interval = config["capture_interval_s"] * 1_000_000_000
        self.service = config["service"]

    def time_of(self, index: int) -> int:
        return self.base.time_nanos + index * self.interval

    def capture(self, seed: int, index: int) -> bytes:
        rng = random.Random("%d/%d" % (seed, index))
        message = pprof_pb.Profile()
        for name in ("sample_type", "period_type", "period", "mapping",
                     "function", "location", "string_table",
                     "duration_nanos"):
            setattr(message, name, getattr(self.base, name))
        period = self.base.period
        samples = []
        for _ in range(self.samples):
            cpu = int(rng.paretovariate(1.5) * period)
            samples.append(pprof_pb.Sample(
                location_id=list(rng.choice(self.paths)),
                value=[cpu, max(cpu // period, 1)]))
        message.sample = samples
        # The collector keeps a profile's own stamp over the envelope's,
        # so the capture time goes into the profile itself.
        message.time_nanos = self.time_of(index)
        return pprof_pb.dumps(message)

    def envelope(self, blob: bytes, index: int) -> CaptureEnvelope:
        return CaptureEnvelope(service=self.service, host="bench-agent",
                               ptype="cpu", seq=index, blob=blob,
                               format="pprof", time_nanos=self.time_of(index))


def _history_store(stream: CaptureStream, cache: str) -> Dict[str, Any]:
    """The pre-populated store: one flushed segment plus half a segment
    of records still in the WAL, sized by the program's flush policy.

    Seed-independent, so it is built once per checkout and version of
    the program (``cache`` is keyed on the sources) and copied into
    every run.
    """
    config = CONFIG["workloads"]["ingest_watch"]
    manifest_path = os.path.join(cache, "history.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as handle:
            return json.load(handle)
    from repro.converters import parse_bytes
    from repro.store import ProfileStore
    staging = "%s.partial-%d" % (cache, os.getpid())
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(os.path.join(staging, "captures"))
    total = DEFAULT_FLUSH_RECORDS + DEFAULT_FLUSH_RECORDS // 2
    store = ProfileStore(os.path.join(staging, "store"))
    seqs = []
    for index in range(total):
        blob = stream.capture(config["history_seed"], index)
        path = os.path.join(staging, "captures", "h%d.pb.gz" % index)
        with open(path, "wb") as handle:
            handle.write(blob)
        result = store.ingest(parse_bytes(blob, format="pprof"),
                              service=stream.service, ptype="cpu",
                              labels=stream.envelope(blob, index)
                              .store_labels())
        seqs.append([result.entry.seq,
                     os.path.join(cache, "captures", "h%d.pb.gz" % index),
                     stream.time_of(index)])
    store.close()
    manifest = {"store": os.path.join(cache, "store"), "records": seqs,
                "count": total}
    with open(os.path.join(staging, "history.json"), "w") as handle:
        json.dump(manifest, handle)
    shutil.rmtree(cache, ignore_errors=True)
    os.rename(staging, cache)
    return manifest


def ingest_inputs(seed: int, fresh: int, outdir: str,
                  cache: str) -> Dict[str, Any]:
    config = CONFIG["workloads"]["ingest_watch"]
    stream = CaptureStream()
    history = _history_store(stream, cache)
    shutil.copytree(history["store"], os.path.join(outdir, "store"))
    rng = random.Random(seed)
    uploads = []
    sent: List[int] = []
    first = history["count"]
    for index in range(first, first + fresh):
        blob = stream.capture(seed, index)
        path = os.path.join(outdir, "c%d.pb.gz" % index)
        with open(path, "wb") as handle:
            handle.write(blob)
        entry = {"path": path,
                 "headers": stream.envelope(blob, index).to_headers(),
                 "index": index, "time": stream.time_of(index),
                 "resend": False}
        uploads.append(entry)
        sent.append(len(uploads) - 1)
        if len(sent) % config["resend_every"] == 0:
            # An agent retry: the same bytes again, after a lost reply.
            uploads.append(dict(uploads[rng.choice(sent)], resend=True))
    return {"store": os.path.join(outdir, "store"),
            "history": history["records"],
            "window_nanos": config["tick_every"] * stream.interval,
            "service": stream.service, "uploads": uploads,
            "flush_records": DEFAULT_FLUSH_RECORDS}


def main(argv: List[str]) -> int:
    kind = argv[0]
    if kind == "ide":
        manifest = ide_inputs(int(argv[1]), int(argv[2]), argv[3])
    elif kind == "ingest":
        manifest = ingest_inputs(int(argv[1]), int(argv[2]), argv[3],
                                 argv[4])
    else:
        raise SystemExit("unknown input kind %r" % kind)
    json.dump(manifest, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
