"""Plumbing shared by the workloads: paths, program processes, statistics.

The harness itself imports only the standard library and numpy (for
its calibration kernel).  Everything that needs EasyView — input
generation, the servers under test, the reference computations — runs
in a child process with ``src`` on its path, so the harness never
competes with the program for memory and a checkout without the
sources fails before any number is measured.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from typing import Any, Dict, List, Optional, Sequence

import numpy

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
SRC = os.path.join(REPO, "src")
#: Scratch space inside the checkout: per-run directories plus the
#: seed-independent caches (ignored by git).
WORK = os.path.join(REPO, ".perfbench_work")

with open(os.path.join(BENCH_DIR, "config.json")) as _handle:
    CONFIG: Dict[str, Any] = json.load(_handle)


class BenchError(Exception):
    """The run cannot produce trustworthy numbers; nothing is printed."""


class Mismatch(BenchError):
    """The program's output disagreed with its reference."""


def require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        raise BenchError("no EasyView sources under %s" % SRC)


def program_env() -> Dict[str, str]:
    """Environment for every EasyView child process.

    A fixed hash seed keeps set iteration order equal between the server
    under test and its reference process; in-program tracing and
    slow-request logging stay at their defaults.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.pop("EASYVIEW_OBS", None)
    env.pop("EASYVIEW_SLOW_MS", None)
    return env


def bench_script(name: str) -> str:
    return os.path.join(BENCH_DIR, name)


def run_program(args: Sequence[str], timeout: float = 170.0) -> bytes:
    """Run one EasyView child to completion and return its stdout."""
    proc = subprocess.run([sys.executable] + list(args),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=program_env(), cwd=REPO, timeout=timeout)
    if proc.returncode != 0:
        tail = proc.stderr.decode("utf-8", "replace")[-2000:]
        raise BenchError("%s exited %d: %s"
                         % (" ".join(args[:2]), proc.returncode, tail))
    return proc.stdout


def spawn(args: Sequence[str], stderr_path: str,
          stdin: Any = subprocess.PIPE,
          stdout: Any = subprocess.PIPE) -> subprocess.Popen:
    """Start a long-lived EasyView child (stderr goes to a log file)."""
    with open(stderr_path, "ab") as log:
        return subprocess.Popen([sys.executable] + list(args), stdin=stdin,
                                stdout=stdout, stderr=log,
                                env=program_env(), cwd=REPO)


def server_args(trace_out: Optional[str],
                cli_args: Sequence[str]) -> List[str]:
    """Arguments that start ``easyview <cli_args>``, traced or not."""
    if trace_out:
        return [bench_script("bootstrap.py"), trace_out] + list(cli_args)
    return ["-m", "repro.cli"] + list(cli_args)


def _reap(proc: subprocess.Popen, timeout: float) -> Optional[float]:
    """Wait up to ``timeout`` for the child; its peak RSS in MB, or None
    if it is still running."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024.0
        if time.monotonic() >= deadline:
            return None
        time.sleep(0.01)


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> float:
    """Let a child exit (stdin closed), kill it if it will not, reap it,
    and return its peak resident memory in MB (0 if already reaped)."""
    peak = 0.0
    if proc.returncode is None:
        if proc.stdin is not None:
            try:
                proc.stdin.close()
            except OSError:
                pass
        for signal_child in (None, proc.terminate, proc.kill):
            if signal_child is not None:
                signal_child()
            reaped = _reap(proc, timeout if signal_child is None else 10.0)
            if reaped is not None:
                peak = reaped
                break
        else:
            raise BenchError("child %d would not exit" % proc.pid)
    if proc.stdout is not None:
        proc.stdout.close()
    return peak


def cpu_seconds(pid: int) -> float:
    """CPU time of every live thread of process ``pid``.

    Read from each thread's ``schedstat`` (nanoseconds, and with
    paravirtual steal accounting it excludes time the host ran someone
    else), so an operation's CPU cost repeats where its wall time, on a
    shared virtual machine, does not.
    """
    total = 0
    task_dir = "/proc/%d/task" % pid
    for tid in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, tid, "schedstat")) as handle:
                total += int(handle.read().split()[0])
        except (OSError, ValueError, IndexError):
            pass                          # the thread exited meanwhile
    if not total:
        raise BenchError("no per-thread CPU accounting in /proc/%d" % pid)
    return total / 1e9


_CALIBRATION_DOC = zlib.compress(json.dumps(
    [{"name": "frame%d" % i, "value": i * 7, "children": [i, i + 1]}
     for i in range(1500)]).encode("utf-8"))


def _interpreter_part(calibration: "Calibration") -> int:
    """Dict, list and string churn, a keyed sort, zlib and json."""
    table: Dict[str, int] = {}
    for i in range(10000):
        key = "k%d" % (i % 997)
        table[key] = table.get(key, 0) + i
    ranked = sorted(table.items(), key=lambda item: item[1])
    nodes = [[i, i * 2, str(i)] for i in range(10000)]
    text = json.dumps(json.loads(zlib.decompress(_CALIBRATION_DOC)),
                      sort_keys=True)
    return len(ranked) + len(nodes) + len(text)


def _array_part(calibration: "Calibration") -> int:
    """A stable argsort, a gather, a bincount and a cumsum."""
    order = numpy.argsort(calibration.array, kind="stable")
    counts = numpy.bincount(calibration.array.take(order) & 0xFFFF)
    return int(numpy.cumsum(counts)[-1])


def _heap_part(calibration: "Calibration") -> int:
    """Small-object allocation and a full cyclic collection, which walks
    every long-lived object of the process, ``calibration.heap`` too."""
    fresh = [{"name": "f%d" % i, "value": i, "children": [i, i + 1]}
             for i in range(10000)]
    gc.collect()
    return len(fresh)


#: The calibration kernel's parts; a workload's ``calibration.parts`` in
#: ``config.json`` names the ones that resemble its work.
KERNEL_PARTS = {"interp": _interpreter_part, "arrays": _array_part,
                "heap": _heap_part}


class Calibration:
    """How fast this host runs a workload's kind of work right now.

    On a shared virtual machine the CPU time of one computation moves
    with what the neighbours run, by up to half within minutes on a
    2-vCPU VM, and sometimes between two requests.  The harness runs a
    fixed kernel before every timed operation and once after the last,
    never during one, and scales each operation's time by
    ``reference_ms / median kernel time`` over the :data:`WINDOW` samples
    on either side of it, so operations made while the host is fast or
    slow read closer to the reference speed.  How far a computation's
    time swings depends on its kind of work, so the kernel is made of
    the parts that resemble the workload's: ide_session (numpy columns,
    materialized trees, collections over a large heap) uses all three
    of :data:`KERNEL_PARTS`; ingest_watch (pure-interpreter codecs and
    lint over small captures) the interpreter part alone, which the
    mixed kernel over-corrected.  The kernel runs no EasyView code, so
    a change to the program moves the scaled times and leaves the scale
    alone.
    """

    WINDOW = 3

    def __init__(self, workload: str) -> None:
        config = CONFIG["workloads"][workload]["calibration"]
        self.parts = [KERNEL_PARTS[name] for name in config["parts"]]
        self.reference_ms: float = config["reference_ms"]
        self.samples: List[float] = []
        self.array = (numpy.random.default_rng(0).integers(0, 1 << 20,
                                                           100_000)
                      if _array_part in self.parts else None)
        #: Long-lived containers, so the heap part's collection walks a
        #: heap larger than the caches, as the program's collections do.
        self.heap = ([(i, str(i), [i]) for i in range(60_000)]
                     if _heap_part in self.parts else [])

    def sample(self) -> int:
        """Run the kernel once; return the sample's index, which names
        the operation that follows it."""
        started = time.thread_time()
        for part in self.parts:
            part(self)
        self.samples.append(time.thread_time() - started)
        return len(self.samples) - 1

    def kernel_ms(self) -> float:
        return median(self.samples) * 1e3

    def scale(self, index: int) -> float:
        """Multiply the time of the operation that followed sample
        ``index`` by this."""
        window = self.samples[max(0, index - self.WINDOW):
                              index + self.WINDOW + 2]
        return self.reference_ms / (median(window) * 1e3)


def source_digest() -> str:
    """Digest of the program's sources, to key caches of its outputs."""
    digest = hashlib.blake2b(digest_size=16)
    for root, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def run_dir(workload: str, seed: int) -> str:
    path = os.path.join(WORK, "run-%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def filesystem_of(path: str) -> str:
    """The filesystem type holding ``path`` (recorded, never measured)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[4]
                fstype = fields[fields.index("-") + 1]
                inside = (path == mount
                          or path.startswith(mount.rstrip("/") + "/"))
                if inside and len(mount) >= len(best):
                    best, kind = mount, fstype
    except (OSError, ValueError, IndexError):
        pass
    return kind


# -- statistics --------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("no samples to summarize")
    return statistics.median(values)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("no samples to summarize")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: The system-wide monotonic clock; server processes read the same one,
#: so their span timestamps line up with the harness's.
now = time.perf_counter
