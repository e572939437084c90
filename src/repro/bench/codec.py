"""Codec fast-path benchmark: fastwire vs the preserved reference codec.

One harness, two front ends: ``benchmarks/test_codec_fastpath.py`` runs it
under pytest and CI, and ``easyview bench codec`` runs it from the command
line.  Both emit the same ``BENCH_codec.json`` report.

For each corpus tier the harness measures raw pprof decode and encode
throughput for the fastwire path (:mod:`repro.proto.pprof_pb`) against the
pre-change codec preserved as :mod:`repro.proto.reference`, and EasyView's
own ``.ezvw`` dump and load of the tier's capture on the columnar codec
(:mod:`repro.core.serialize`) against the per-node oracle
(:mod:`repro.bench.ezvw_oracle`).  The cold profile open (raw bytes to a
calling-context tree) is timed by the CCT bench (:mod:`repro.bench.cct`),
with a phase split.  Every run also gates on correctness: the pprof
codecs must produce equal decoded objects and byte-identical serialized
output, and the ``.ezvw`` codecs byte-identical files that load to equal
profile digests, or :class:`CodecMismatch` is raised.

The documented target is fast-path decode >= 3x the reference codec on
the large tier (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, List, Optional

from ..core.atomicio import atomic_write_text
from ..obs import get_registry
from ..profilers.corpus import generate_bytes, tier
from ..proto import reference
from ..proto.fastwire import packed_stats
from ..proto.pprof_pb import Profile

#: Tier sets: quick keeps CI under a few seconds, full adds the tier the
#: decode target is defined on.
QUICK_TIERS = ("small", "medium")
FULL_TIERS = ("small", "medium", "large")

#: Documented decode target on the large tier (fastpath vs reference).
DECODE_TARGET_SPEEDUP = 3.0

DEFAULT_REPORT = "BENCH_codec.json"


class CodecMismatch(AssertionError):
    """The fast path disagreed with the reference codec."""


def _interleaved_best(fns: Dict[str, object],
                      repeats: int) -> Dict[str, float]:
    """Best-of-N wall time per function, repetitions interleaved.

    Interleaving spreads machine-load noise evenly across the competing
    codecs instead of letting a load spike land entirely on whichever
    ran last, so the min/min speedup ratios stay comparable.
    """
    best = {name: float("inf") for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            if elapsed < best[name]:
                best[name] = elapsed
    return best


def _check_equality(name: str, raw: bytes, fast: Profile,
                    ref: Profile) -> None:
    if fast != ref:
        raise CodecMismatch(
            "decoded objects differ on tier %r (fastwire vs reference)"
            % name)
    fast_bytes = fast.serialize()
    ref_bytes = reference.serialize_pprof(ref)
    if fast_bytes != ref_bytes:
        raise CodecMismatch(
            "serialized bytes differ on tier %r (fastwire vs reference)"
            % name)
    if fast_bytes != raw:
        raise CodecMismatch(
            "re-encoded bytes differ from the corpus input on tier %r"
            % name)


def bench_tier(name: str, repeats: int = 3) -> Dict[str, object]:
    """Benchmark one corpus tier; raises :class:`CodecMismatch` on drift."""
    raw = generate_bytes(tier(name), compress=False)
    mb = len(raw) / 1e6

    fast = Profile.parse(raw)
    ref = reference.parse_pprof(raw)
    _check_equality(name, raw, fast, ref)

    times = _interleaved_best({
        "decode_fast": lambda: Profile.parse(raw),
        "decode_ref": lambda: reference.parse_pprof(raw),
        "encode_fast": fast.serialize,
        "encode_ref": lambda: reference.serialize_pprof(ref),
    }, repeats)
    decode_fast = times["decode_fast"]
    decode_ref = times["decode_ref"]
    encode_fast = times["encode_fast"]
    encode_ref = times["encode_ref"]

    return {
        "raw_bytes": len(raw),
        "ezvw": bench_ezvw(name, raw, repeats),
        "decode": {
            "reference_s": round(decode_ref, 4),
            "fastpath_s": round(decode_fast, 4),
            "speedup": round(decode_ref / decode_fast, 2),
            "fastpath_mb_s": round(mb / decode_fast, 1),
        },
        "encode": {
            "reference_s": round(encode_ref, 4),
            "fastpath_s": round(encode_fast, 4),
            "speedup": round(encode_ref / encode_fast, 2),
            "fastpath_mb_s": round(mb / encode_fast, 1),
        },
        "equality": {"objects_equal": True, "bytes_identical": True},
    }


def bench_ezvw(name: str, raw: bytes, repeats: int = 3) -> Dict[str, object]:
    """``.ezvw`` dump and load of one tier's capture, columnar codec vs
    the per-node oracle; raises :class:`CodecMismatch` on drift."""
    from ..converters import pprof as pprof_converter
    from ..core import serialize
    from ..core.digest import profile_digest
    from . import ezvw_oracle

    profile = pprof_converter.parse(raw)
    data = serialize.dumps(profile)
    if data != ezvw_oracle.dumps(pprof_converter.parse(raw)):
        raise CodecMismatch(
            ".ezvw bytes differ on tier %r (columnar vs per-node oracle)"
            % name)
    if (profile_digest(serialize.loads(data))
            != profile_digest(ezvw_oracle.loads(data))):
        raise CodecMismatch(
            ".ezvw profiles differ on tier %r (columnar vs per-node oracle)"
            % name)
    times = _interleaved_best({
        "dump": lambda: serialize.dumps(profile),
        "dump_oracle": lambda: ezvw_oracle.dumps(profile),
        "load": lambda: serialize.loads(data),
        "load_oracle": lambda: ezvw_oracle.loads(data),
    }, repeats)
    return {
        "bytes": len(data),
        "dump": {"oracle_s": round(times["dump_oracle"], 4),
                 "columnar_s": round(times["dump"], 4),
                 "speedup": round(times["dump_oracle"] / times["dump"], 2)},
        "load": {"oracle_s": round(times["load_oracle"], 4),
                 "columnar_s": round(times["load"], 4),
                 "speedup": round(times["load_oracle"] / times["load"], 2)},
        "equality": {"bytes_identical": True, "digests_equal": True},
    }


def run_codec_bench(tiers: Optional[Iterable[str]] = None,
                    repeats: int = 3) -> Dict[str, object]:
    """Run the codec benchmark and return the full report dict."""
    registry = get_registry()
    calls_before = registry.counter(
        "codec.pprof.parse_calls", "pprof messages parsed via fastwire").value
    names: List[str] = list(tiers if tiers is not None else FULL_TIERS)
    report_tiers = {name: bench_tier(name, repeats=repeats)
                    for name in names}
    calls_after = registry.counter(
        "codec.pprof.parse_calls", "pprof messages parsed via fastwire").value
    report: Dict[str, object] = {
        "benchmark": "codec-fastpath",
        "target_decode_speedup_large": DECODE_TARGET_SPEEDUP,
        "kernels": packed_stats(),
        "fastwire_parse_calls": calls_after - calls_before,
        "tiers": report_tiers,
    }
    return report


def write_report(report: Dict[str, object],
                 path: str = DEFAULT_REPORT) -> str:
    atomic_write_text(path,
                      json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def format_report(report: Dict[str, object]) -> str:
    """Human-readable summary table for the CLI."""
    lines = ["codec fast path vs reference  (best-of-N wall time)"]
    header = "%-8s %10s %14s %14s %9s" % (
        "tier", "size", "decode MB/s", "encode MB/s", "speedup")
    lines.append(header)
    for name, entry in report["tiers"].items():
        decode = entry["decode"]
        encode = entry["encode"]
        lines.append("%-8s %9.1fM %14.1f %14.1f %8.2fx" % (
            name, entry["raw_bytes"] / 1e6, decode["fastpath_mb_s"],
            encode["fastpath_mb_s"], decode["speedup"]))
    lines.append(".ezvw columnar vs per-node oracle  (best-of-N wall time)")
    lines.append("%-8s %10s %10s %10s" % ("tier", "dump ms", "load ms",
                                          "speedup"))
    for name, entry in report["tiers"].items():
        ezvw = entry["ezvw"]
        lines.append("%-8s %10.1f %10.1f %9.1fx" % (
            name, ezvw["dump"]["columnar_s"] * 1e3,
            ezvw["load"]["columnar_s"] * 1e3, ezvw["load"]["speedup"]))
    if "large" in report["tiers"]:
        speedup = report["tiers"]["large"]["decode"]["speedup"]
        lines.append("large-tier decode speedup %.2fx (target >= %.1fx)"
                     % (speedup, report["target_decode_speedup_large"]))
    return "\n".join(lines)
