"""Golden PVP transcript: the analyst script's responses, pinned.

The serve smoke test, the serve bench and the benchmark's reference
each compare a run with an in-process replay of the *same* code, so a
change that moves every response at once passes all three.  This test
compares with a transcript recorded once and kept in
``tests/data/pvp_transcript.golden``: the explore script of an analyst
(open, three shape switches, three hovers, search, zoom, hot-path table,
click, summary, derived metric) over two generated small-tier pprof
files, then a diff and an aggregate of the two, through the stdio
server.  Each output line is canonicalized with
``serve.loadgen.canonical_line`` (volatile keys such as timings are
masked) before the line-by-line comparison.

To re-record after an intended protocol change::

    PYTHONPATH=src python tests/test_pvp_transcript.py
"""

import collections
import dataclasses
import io
import json
import os
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "pvp_transcript.golden")
SEEDS = (11, 12)


def _hover_lines(message, count=3):
    """The source lines with the most leaf cpu."""
    flat = collections.Counter()
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


def _requests(directory):
    from repro.profilers.corpus import generate, tier
    from repro.proto import pprof_pb
    requests = []

    def send(method, params):
        requests.append({"jsonrpc": "2.0", "id": len(requests) + 1,
                         "method": method, "params": params})

    for number, seed in enumerate(SEEDS):
        message = generate(dataclasses.replace(tier("small"), seed=seed))
        path = os.path.join(directory, "profile-%d.pb.gz" % number)
        with open(path, "wb") as handle:
            handle.write(pprof_pb.dumps(message))
        pid = number + 1
        send("view/open", {"path": path})
        for shape in ("bottom_up", "flat", "top_down"):
            send("view/switchShape", {"profileId": pid, "shape": shape})
        for file, line in _hover_lines(message):
            send("view/hover", {"profileId": pid, "file": file,
                                "line": line})
        send("view/search", {"profileId": pid, "pattern": "Handle"})
        # The first match of the search above is node reference 0.
        send("view/zoom", {"profileId": pid, "nodeRef": 0})
        send("view/tableExpand", {"profileId": pid, "hotPath": True,
                                  "maxRows": 20})
        send("view/click", {"profileId": pid, "nodeRef": 0})
        send("view/summary", {"profileId": pid})
        send("view/deriveMetric", {"profileId": pid,
                                   "name": "cpu_per_sample",
                                   "formula": "cpu / samples"})
    send("view/diff", {"baselineId": 1, "treatmentId": 2})
    send("view/aggregate", {"profileIds": [1, 2]})
    send("shutdown", {})
    return requests


def transcript(directory):
    """The canonical output lines of one scripted stdio session."""
    from repro.engine import AnalysisEngine
    from repro.ide.server import StdioServer
    from repro.serve.loadgen import canonical_line
    stdin = io.StringIO("".join(json.dumps(request, sort_keys=True) + "\n"
                                for request in _requests(directory)))
    stdout = io.StringIO()
    server = StdioServer(stdin=stdin, stdout=stdout, log=io.StringIO())
    # A private engine: no cached result of another test is reused.
    server.session.engine = AnalysisEngine()
    server.serve_forever()
    return [canonical_line(json.loads(line))
            for line in stdout.getvalue().splitlines() if line.strip()]


def test_transcript_matches_golden(tmp_path):
    with open(GOLDEN) as handle:
        golden = handle.read().splitlines()
    lines = transcript(str(tmp_path))
    assert len(lines) == len(golden)
    for number, (got, want) in enumerate(zip(lines, golden)):
        assert got == want, "line %d differs" % number


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        recorded = transcript(scratch)
    with open(GOLDEN, "w") as out:
        out.write("\n".join(recorded) + "\n")
    print("wrote %d lines to %s" % (len(recorded), GOLDEN), file=sys.stderr)
