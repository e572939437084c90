"""The correctness gate: single-client references, computed after the
timed phase.

The harness calls :func:`check_stdio` and :func:`check_windows`; each
writes what the run saw to a file and runs this module as a child
process with ``src`` on its path::

    python perfbench/reference.py stdio TRANSCRIPT
    python perfbench/reference.py windows TICKS

``stdio`` replays the session's requests through an in-process
``StdioServer`` (the single-client reference) and compares the responses
request by request, and the notifications as one digest, after
``serve.loadgen.canonical_line`` masks volatile keys.  ``windows``
aggregates each watch window's source captures with
``aggregate_profiles`` and compares tree digests with the store's.

Setting ``PERFBENCH_CORRUPT_REFERENCE=1`` damages every reference digest;
the smoke test uses it to prove that a mismatch fails the run.
"""

from __future__ import annotations

import gc
import io
import json
import os
import sys
from typing import Any, Dict, List, Optional

from common import BenchError, Mismatch, bench_script, run_program

_SHUTDOWN = ('{"id": 999999999, "jsonrpc": "2.0", "method": "shutdown", '
             '"params": {}}')


def _corrupt() -> bool:
    return os.environ.get("PERFBENCH_CORRUPT_REFERENCE") == "1"


def _verdict(workdir: str, kind: str,
             payload: Dict[str, Any]) -> Dict[str, Any]:
    path = os.path.join(workdir, "%s-check.json" % kind)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    verdict = json.loads(run_program([bench_script("reference.py"), kind,
                                      path]))
    if verdict["mismatches"]:
        raise Mismatch("%d of %d %s results differ from the reference; "
                       "first: %s" % (len(verdict["mismatches"]),
                                      verdict["checked"], kind,
                                      verdict["mismatches"][0]))
    if not verdict["checked"]:
        raise BenchError("the %s reference checked nothing" % kind)
    return verdict


def check_stdio(workdir: str, sent: List[str], received: List[str],
                expected: Optional[List[str]] = None) -> Dict[str, Any]:
    """Check one stdio session's ``received`` lines.  ``expected``, when
    given, is what an earlier, already checked pass of the same ``sent``
    requests received; otherwise the requests are replayed."""
    return _verdict(workdir, "stdio", {"sent": sent, "received": received,
                                       "expected": expected})


def check_windows(workdir: str, ticks: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Ticks are ``{"digest", "paths"}``: the store's window digest and
    the source capture files in the store's merge order."""
    return _verdict(workdir, "windows", {"ticks": ticks})


# -- the child side ----------------------------------------------------------

def _split(lines: List[str]):
    from repro.serve.loadgen import canonical_line
    responses: Dict[Any, str] = {}
    notes: List[str] = []
    for line in lines:
        if not line.strip():
            continue
        payload = json.loads(line)
        if "method" in payload:
            notes.append(canonical_line(payload))
        else:
            responses[payload.get("id")] = canonical_line(payload)
    return responses, notes


def stdio_reference(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.ide.server import StdioServer
    from repro.serve.loadgen import digest_lines
    if payload["expected"] is not None:
        expected, expected_notes = _split(payload["expected"])
    else:
        out = io.StringIO()
        StdioServer(stdin=io.StringIO("\n".join(payload["sent"] + [_SHUTDOWN])
                                      + "\n"),
                    stdout=out, log=io.StringIO()).serve_forever()
        expected, expected_notes = _split(out.getvalue().splitlines())
    expected.pop(999999999, None)
    seen, seen_notes = _split(payload["received"])
    mismatches: List[str] = []
    for request_id, line in sorted(expected.items(),
                                   key=lambda item: str(item[0])):
        if _corrupt():
            line += " "
        if seen.get(request_id) != line:
            mismatches.append("request %s" % request_id)
    want = digest_lines(expected_notes)
    if _corrupt():
        want = "0" * len(want)
    if digest_lines(seen_notes) != want:
        mismatches.append("notifications (%d vs %d)"
                          % (len(seen_notes), len(expected_notes)))
    return {"checked": len(expected), "mismatches": mismatches}


def windows_reference(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.analysis.aggregate import aggregate_profiles
    from repro.converters import parse_bytes
    from repro.core.digest import viewtree_digest
    parsed: Dict[str, Any] = {}

    def load(path: str):
        if path not in parsed:
            with open(path, "rb") as handle:
                parsed[path] = parse_bytes(handle.read(), format="pprof")
        return parsed[path]

    mismatches: List[str] = []
    for number, tick in enumerate(payload["ticks"]):
        tree = aggregate_profiles([load(path) for path in tick["paths"]],
                                  shape="top_down")
        want = viewtree_digest(tree)
        if _corrupt():
            want = "0" * len(want)
        if tick["digest"] != want:
            mismatches.append("window %d (%d captures)"
                              % (number, len(tick["paths"])))
    return {"checked": len(payload["ticks"]), "mismatches": mismatches}


def main(argv: List[str]) -> int:
    # The reference is never timed: rarer cyclic collections over a
    # frozen import-time heap make it cheaper and change no response.
    gc.freeze()
    gc.set_threshold(50_000, 20, 20)
    with open(argv[1]) as handle:
        payload = json.load(handle)
    if argv[0] == "stdio":
        verdict = stdio_reference(payload)
    elif argv[0] == "windows":
        verdict = windows_reference(payload)
    else:
        raise SystemExit("unknown reference %r" % argv[0])
    json.dump(verdict, sys.stdout)
    sys.stdout.flush()
    # Skip tearing down the replayed profiles' heap: nothing is left to
    # write, and freeing it object by object takes seconds.
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
