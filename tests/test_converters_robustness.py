"""Robustness: converters must fail *cleanly* on malformed input.

A viewer gets fed whatever the user drops on it; every converter must
either produce a profile or raise :class:`FormatError` — never a random
exception type, never a hang, never a partially-corrupt profile.
"""

import dataclasses
import json
import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from repro.builder import validate
from repro.converters import base, names, parse_bytes
from repro.errors import EasyViewError, FormatError


ALL_FORMATS = sorted(names())


class TestGarbageBytes:
    @pytest.mark.parametrize("format_name", ALL_FORMATS)
    @pytest.mark.parametrize("payload", [
        b"",
        b"\x00" * 64,
        b"\xff\xfe garbage \x00\x01",
        b"{\"unrelated\": true}",
        b"<xml><but-not-a-profile/></xml>",
        b"just some words\nand another line\n",
    ])
    def test_clean_failure_or_profile(self, format_name, payload):
        converter = base.get(format_name)
        try:
            profile = converter.parse(payload)
        except EasyViewError:
            return  # FormatError and friends are the contract
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            pytest.fail("%s leaked %s: %s"
                        % (format_name, type(exc).__name__, exc))
        # If it parsed, the result must be structurally valid.
        assert validate(profile).ok

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=256))
    def test_autodetect_fuzz(self, payload):
        try:
            profile = parse_bytes(payload)
        except EasyViewError:
            return
        assert validate(profile).ok

    @settings(max_examples=40, deadline=None)
    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-999, 999),
                  st.text(max_size=8)),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.sampled_from(
                ["nodes", "samples", "profiles", "files", "root_frame",
                 "traceEvents", "ph", "name", "id", "children", "$schema",
                 "shared", "frames", "time", "lines"]),
                children, max_size=4)),
        max_leaves=12))
    def test_json_structure_fuzz(self, document):
        """Random JSON with profile-ish keys never crashes a converter."""
        payload = json.dumps(document).encode()
        for format_name in ("chrome", "speedscope", "pyinstrument",
                            "scalene", "chrome-trace", "cloud-profiler",
                            "easyview-json"):
            converter = base.get(format_name)
            try:
                converter.parse(payload)
            except EasyViewError:
                pass
            except (ValueError, KeyError, IndexError, TypeError,
                    AttributeError) as exc:
                pytest.fail("%s leaked %s on %r"
                            % (format_name, type(exc).__name__, document))


class TestTruncation:
    def test_truncated_pprof_fails_cleanly(self, small_pprof_bytes):
        for cut in (1, 10, len(small_pprof_bytes) // 2):
            with pytest.raises(EasyViewError):
                parse_bytes(small_pprof_bytes[:cut], format="pprof")

    def test_bitflipped_pprof_fails_cleanly_or_parses(self,
                                                      small_pprof_bytes):
        corrupted = bytearray(small_pprof_bytes)
        corrupted[len(corrupted) // 3] ^= 0xFF
        try:
            profile = parse_bytes(bytes(corrupted), format="pprof")
        except EasyViewError:
            return
        assert profile.node_count() >= 1


# -- fail-closed parsing under a wall-time bound -----------------------------

#: The wall-time bound on one parse of a small input.
PARSE_SECONDS = 2.0


class ParseTimeout(BaseException):
    """Raised by the alarm; a ``BaseException`` so that no ``except
    Exception`` inside a converter can turn a hang into a clean error."""


def bounded(parse, data: bytes, seconds: float = PARSE_SECONDS):
    """``parse(data)``, failing the test if it runs past ``seconds``."""
    def expire(signum, frame):
        raise ParseTimeout()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return parse(data)
    except ParseTimeout:
        pytest.fail("parse ran past %.1f s on %r" % (seconds, data[:200]))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def as_json(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


def cyclic_cpuprofile(size: int) -> bytes:
    """Chrome nodes 1..size whose ``children`` close a cycle."""
    return as_json({"nodes": [
        {"id": node, "callFrame": {"functionName": "f%d" % node},
         "children": [node % size + 1]} for node in range(1, size + 1)]})


class TestCyclicCpuprofile:
    @pytest.mark.parametrize("size", [1, 2])
    def test_cycle_is_format_error(self, size):
        for parse in (base.get("chrome").parse,
                      lambda data: parse_bytes(data, format="chrome"),
                      parse_bytes):
            with pytest.raises(FormatError, match="cycle"):
                bounded(parse, cyclic_cpuprofile(size))

    @pytest.mark.parametrize("size", [1, 2])
    def test_collector_answers_400(self, tmp_path, size):
        from repro.continuous import Collector
        from repro.continuous.envelope import CaptureEnvelope
        from repro.store import ProfileStore

        envelope = CaptureEnvelope(service="web", host="h1", ptype="cpu",
                                   seq=0, format="chrome",
                                   blob=cyclic_cpuprofile(size))
        with ProfileStore(str(tmp_path / "store")) as store:
            collector = Collector(store)
            status, payload = bounded(
                lambda blob: collector.handle_upload(envelope.to_headers(),
                                                     blob), envelope.blob)
            assert status == 400
            assert payload["error"]["code"] == "malformed"
            assert not store.select("")


def _valid_inputs():
    """One small valid payload per registered converter."""
    from repro.converters.cloudprofiler import wrap
    from repro.core import jsonio, serialize
    from repro.profilers.corpus import generate_bytes, tier

    spec = dataclasses.replace(tier("small"), name="mutation", functions=20,
                               samples=40, max_depth=6)
    pprof_bytes = generate_bytes(spec)
    profile = parse_bytes(pprof_bytes, format="pprof")
    return {
        "easyview": serialize.dumps(profile),
        "easyview-json": jsonio.dumps(profile).encode("utf-8"),
        "pprof": pprof_bytes,
        "cloud-profiler": wrap(pprof_bytes),
        "speedscope": as_json({
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": [{"name": "main"},
                                  {"name": "work", "file": "a.py",
                                   "line": 3}]},
            "profiles": [
                {"type": "sampled", "name": "t0", "unit": "milliseconds",
                 "samples": [[0], [0, 1], [0, 1]], "weights": [1, 2, 3]},
                {"type": "evented", "name": "t1", "unit": "milliseconds",
                 "startValue": 0,
                 "events": [{"type": "O", "frame": 0, "at": 0},
                            {"type": "O", "frame": 1, "at": 2},
                            {"type": "C", "frame": 1, "at": 7},
                            {"type": "C", "frame": 0, "at": 10}]}]}),
        "chrome": as_json({
            "nodes": [
                {"id": 1, "callFrame": {"functionName": "(root)", "url": "",
                                        "lineNumber": -1}, "children": [2]},
                {"id": 2, "callFrame": {"functionName": "main",
                                        "url": "http://x/app.js",
                                        "lineNumber": 9}, "children": [3]},
                {"id": 3, "callFrame": {"functionName": "work",
                                        "url": "http://x/app.js",
                                        "lineNumber": 20}, "hitCount": 2}],
            "samples": [3, 3, 2], "timeDeltas": [100, 120, 80],
            "startTime": 1000}),
        "chrome-trace": as_json({"traceEvents": [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 2,
             "args": {"name": "MainThread"}},
            {"ph": "B", "name": "main", "pid": 1, "tid": 2, "ts": 0,
             "args": {"file": "a.py", "line": 3}},
            {"ph": "X", "name": "inner", "pid": 1, "tid": 2, "ts": 150,
             "dur": 200},
            {"ph": "E", "pid": 1, "tid": 2, "ts": 1000}]}),
        "pyinstrument": as_json({"duration": 1.5, "root_frame": {
            "function": "main", "file_path": "m.py", "line_no": 1,
            "time": 1.5, "children": [
                {"function": "work", "file_path": "m.py", "line_no": 9,
                 "time": 1.0, "children": []}]}}),
        "scalene": as_json({"elapsed_time_sec": 2.0, "files": {"app.py": {
            "lines": [{"lineno": 10, "function": "hot",
                       "n_cpu_percent_python": 50.0,
                       "n_cpu_percent_c": 10.0, "n_sys_percent": 5.0,
                       "n_peak_mb": 12.0, "n_copy_mb_s": 1.0}]}}}),
        "hpctoolkit": b"""<?xml version="1.0"?>
<HPCToolkitExperiment>
<SecCallPathProfile><SecHeader>
<MetricTable><Metric i="0" n="CPUTIME (usec):Sum (I)"/></MetricTable>
<FileTable><File i="1" n="lulesh.cc"/></FileTable>
<ProcedureTable><Procedure i="2" n="main"/><Procedure i="3" n="compute"/>
</ProcedureTable>
<LoadModuleTable><LoadModule i="4" n="/usr/bin/lulesh"/></LoadModuleTable>
</SecHeader>
<SecCallPathProfileData>
<PF n="2" f="1" l="10" lm="4"><M n="0" v="100"/>
 <C l="12"><PF n="3" f="1" l="30" lm="4"><M n="0" v="900"/>
   <L l="33"><S l="34"><M n="0" v="500"/></S></L>
 </PF></C>
</PF>
</SecCallPathProfileData></SecCallPathProfile></HPCToolkitExperiment>""",
        "gprof": (
            b"Flat profile:\n\n"
            b"Each sample counts as 0.01 seconds.\n"
            b"  %   cumulative   self              self     total\n"
            b" time   seconds   seconds    calls  ms/call  ms/call  name\n"
            b" 60.00      0.06     0.06     100     0.60     0.60  hot\n"
            b" 40.00      0.10     0.04      10     4.00     4.00  warm\n"
            b"\n"
            b"Call graph\n\n"
            b"index % time    self  children    called     name\n"
            b"                0.06    0.00     100/100         main [2]\n"
            b"[1]     60.0    0.06    0.00     100         hot [1]\n"
            b"-----------------------------------------------\n"),
        "callgrind": (
            b"# callgrind format\nversion: 1\nevents: Ir Dr\n\n"
            b"ob=(1) /usr/bin/app\nfl=(1) app.c\nfn=(1) main\n"
            b"10 100 20\n+2 50 5\ncfn=(2) compute\ncalls=3 20\n"
            b"12 900 80\n\nfn=(2)\nfl=(1)\n0x20 800 70\n* 100 10\n"),
        "tau": (b"3 templated_functions_MULTI_TIME\n"
                b"# Name Calls Subrs Excl Incl ProfileCalls\n"
                b'"main" 1 2 1000 5000 0\n'
                b'"main => compute" 10 5 3000 4000 0\n'
                b'"main => compute => kernel [{k.c} {3,1}-{9,1}]"'
                b" 50 0 1000 1000 0\n"),
        "perf": (b"prog 1234 100.5: 250000 cycles:\n"
                 b"\tffffffff81a0 do_syscall_64 ([kernel.kallsyms])\n"
                 b"\t000055d2b31 compute+0x1f (/usr/bin/prog)\n"
                 b"\t000055d2a10 main+0x40 (/usr/bin/prog)\n\n"
                 b"prog 1234 100.6: 250000 cycles:\n"
                 b"\t000055d2b31 compute+0x1f (/usr/bin/prog)\n"),
        "austin": (b"P4242;T0x7f1;app.py:main:10;app.py:work:40 642\n"
                   b"P4242;T0x7f2;app.py:main:10;app.py:idle:70 100\n"),
        "collapsed": (b"main;work 10\nmain;work;app.py:inner:12 5\n"
                      b"main;`libc`write 2\n"),
    }


#: What a type-swap puts in place of one JSON value.
SWAPS = (None, True, 0, -1, 1.5, 1e308, "s", "", [], {}, [0], {"s": 1})

#: Bytes a mutation writes where a number or a delimiter was.
TOKENS = b"x.e-+0 \n;:=()[]{}\",<>/"


def _json_slots(document, out):
    """Every (container, key) holding a value, depth first."""
    items = (document.items() if isinstance(document, dict)
             else enumerate(document) if isinstance(document, list) else ())
    for key, value in items:
        out.append((document, key))
        _json_slots(value, out)
    return out


def mutants(data: bytes, count: int, seed: int):
    """``count`` seeded mutants of ``data``: random bytes, format tokens,
    truncation, a duplicated slice and, for JSON, type-swapped values."""
    rng = random.Random(seed)
    try:
        json.loads(data)
        is_json = True
    except ValueError:
        is_json = False
    for _ in range(count):
        kind = rng.randrange(5 if is_json else 4)
        mutant = bytearray(data)
        if kind == 0:
            for _ in range(rng.randint(1, 4)):
                mutant[rng.randrange(len(mutant))] = rng.randrange(256)
        elif kind == 1:
            for _ in range(rng.randint(1, 2)):
                mutant[rng.randrange(len(mutant))] = rng.choice(TOKENS)
        elif kind == 2:
            del mutant[rng.randrange(len(mutant)):]
        elif kind == 3:
            start = rng.randrange(len(mutant))
            piece = mutant[start:start + rng.randint(1, 64)]
            at = rng.randrange(len(mutant))
            mutant[at:at] = piece
        else:
            document = json.loads(data)
            container, key = rng.choice(_json_slots(document, []))
            container[key] = rng.choice(SWAPS)
            mutant = bytearray(as_json(document))
        yield bytes(mutant)


@pytest.fixture(scope="module")
def valid_inputs():
    return _valid_inputs()


class TestSeededMutations:
    def test_every_converter_has_a_valid_input(self, valid_inputs):
        assert sorted(valid_inputs) == ALL_FORMATS
        for format_name, data in valid_inputs.items():
            profile = parse_bytes(data, format=format_name)
            assert profile.node_count() > 1, format_name

    @pytest.mark.parametrize("format_name", ALL_FORMATS)
    def test_only_easyview_errors_escape(self, valid_inputs, format_name):
        escaped = []
        for mutant in mutants(valid_inputs[format_name], 150, seed=19):
            try:
                bounded(lambda data: parse_bytes(data, format=format_name),
                        mutant)
            except EasyViewError:
                pass
            except Exception as exc:  # noqa: BLE001 - the point of the test
                escaped.append("%s: %s" % (type(exc).__name__, exc))
        assert escaped == []


_HPCTOOLKIT = (b'<HPCToolkitExperiment><SecCallPathProfile><SecHeader>'
               b'<MetricTable><Metric i="0" n="cpu"/></MetricTable>'
               b'</SecHeader><SecCallPathProfileData>'
               b'<PF n="main" l="%s"><M n="0" v="%s"/></PF>'
               b'</SecCallPathProfileData></SecCallPathProfile>'
               b'</HPCToolkitExperiment>')

#: The JSON converters, which all reach Python's recursive JSON decoder.
JSON_FORMATS = ["chrome", "chrome-trace", "cloud-profiler", "easyview-json",
                "pyinstrument", "scalene", "speedscope"]

#: Inputs that each raised a builtin exception out of a converter.
LEAKS = [
    ("chrome", as_json({"nodes": [
        {"id": 1, "callFrame": {"lineNumber": None}}]})),
    ("chrome", as_json({"nodes": [{"id": 1, "callFrame": {"url": 5}}]})),
    ("chrome-trace", as_json({"traceEvents": [
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
         "args": "s"}]})),
    ("speedscope", as_json({"$schema": "speedscope", "profiles": 1.5})),
    ("speedscope", as_json({
        "$schema": "speedscope", "shared": {"frames": [{"name": "a"}]},
        "profiles": [{"type": "sampled", "samples": [0]}]})),
    ("scalene", as_json({"elapsed_time_sec": "s", "files": {}})),
    ("callgrind", b"events: Ir\nfn=main\ncalls=x 1\n1 5\n"),
    ("tau", b'1 TIME\n"main" 1e 0 1 1 0\n'),
    ("hpctoolkit", _HPCTOOLKIT % (b"x", b"1")),
    ("hpctoolkit", _HPCTOOLKIT % (b"1", b"x")),
] + [(name, b"[" * 200_000 + b"]" * 200_000) for name in JSON_FORMATS]


@pytest.mark.parametrize("format_name,data", LEAKS,
                         ids=["%s-%d" % (name, index) for index, (name, _)
                              in enumerate(LEAKS)])
def test_builtin_exceptions_become_format_errors(format_name, data):
    for parse in (base.get(format_name).parse,
                  lambda payload: parse_bytes(payload, format=format_name)):
        with pytest.raises(FormatError, match=format_name):
            bounded(parse, data)


# -- the store and spool readers -------------------------------------------

def _reader_inputs():
    """A small valid segment, WAL file and spool record."""
    from repro.continuous.envelope import CaptureEnvelope
    from repro.core import serialize
    from repro.profilers.corpus import generate_bytes, tier
    from repro.store.segment import build_segment
    from repro.store.wal import WalRecord

    blobs = []
    for seed in (5, 6):
        spec = dataclasses.replace(tier("small"), name="reader", seed=seed,
                                   functions=12, samples=20, max_depth=5)
        blobs.append(serialize.dumps(parse_bytes(generate_bytes(spec),
                                                 format="pprof")))
    records = [WalRecord(service="api", ptype="cpu", labels={"zone": "a"},
                         time_nanos=1_700_000_000_000_000_000 + seq,
                         duration_nanos=10, blob=blob, seq=seq)
               for seq, blob in enumerate(blobs, 1)]
    segment, _ = build_segment(records)
    spool = CaptureEnvelope(service="api", host="h1", ptype="cpu", seq=3,
                            blob=blobs[0], labels={"zone": "a"}).to_bytes()
    return {"segment": segment,
            "wal": b"".join(record.encode() for record in records),
            "spool": spool}


def _readers(directory):
    """Reader name → a function that reads one input through it."""
    from repro.continuous.envelope import CaptureEnvelope
    from repro.store import wal
    from repro.store.segment import load_profile, parse_segment

    def read_segment(data):
        path = str(directory / "mutant.seg")
        with open(path, "wb") as handle:
            handle.write(data)
        segment = parse_segment(data, path)
        return [load_profile(segment, meta) for meta in segment.records]

    return {"segment": read_segment, "wal": wal.scan,
            "spool": CaptureEnvelope.from_bytes}


@pytest.fixture(scope="module")
def reader_inputs():
    return _reader_inputs()


class TestReaderMutations:
    """The seeded mutants above, fed to the segment, WAL and spool
    readers: each reads its valid input, and only ``EasyViewError``
    escapes any mutant."""

    @pytest.mark.parametrize("reader", ["segment", "wal", "spool"])
    def test_valid_input_reads(self, reader_inputs, tmp_path, reader):
        assert _readers(tmp_path)[reader](reader_inputs[reader])

    @pytest.mark.parametrize("reader", ["segment", "wal", "spool"])
    def test_only_easyview_errors_escape(self, reader_inputs, tmp_path,
                                         reader):
        read = _readers(tmp_path)[reader]
        escaped = []
        for mutant in mutants(reader_inputs[reader], 150, seed=19):
            try:
                bounded(read, mutant)
            except EasyViewError:
                pass
            except Exception as exc:  # noqa: BLE001 - the point of the test
                escaped.append("%s: %s" % (type(exc).__name__, exc))
        assert escaped == []

    @pytest.mark.parametrize("reader", ["segment", "wal", "spool"])
    def test_deeply_nested_labels(self, tmp_path, reader):
        """Label JSON nested past the parser's limit is a typed error
        (a torn tail for the WAL), not a ``RecursionError``."""
        import zlib

        from repro.continuous.envelope import SPOOL_MAGIC
        from repro.proto.fastwire import Writer
        from repro.store import segment, wal

        deep = "[" * 200_000 + "]" * 200_000
        fields = Writer()
        fields.string(1, "api")
        fields.string(3, deep)
        fields = fields.getvalue()
        if reader == "segment":
            footer = Writer()
            footer.message(2, fields)
            footer = footer.getvalue()
            data = (segment.SEGMENT_MAGIC + footer
                    + segment._FOOTER_LEN.pack(len(footer))
                    + segment.SEGMENT_END)
        elif reader == "wal":
            data = wal._HEADER.pack(wal.RECORD_MAGIC, len(fields),
                                    zlib.crc32(fields)) + fields
        else:
            data = SPOOL_MAGIC + b" " + deep.encode() + b"\nblob"
        try:
            result = bounded(_readers(tmp_path)[reader], data)
        except EasyViewError:
            return
        assert reader == "wal" and result == ([], 0)

    def test_deeply_nested_label_header(self):
        from repro.continuous.envelope import (HEADER_LABELS, HEADER_SERVICE,
                                               CaptureEnvelope)
        headers = {HEADER_SERVICE: "api",
                   HEADER_LABELS: "[" * 5000 + "]" * 5000}
        with pytest.raises(EasyViewError):
            CaptureEnvelope.from_headers(headers, b"blob")
