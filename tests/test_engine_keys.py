"""Engine cache keys: source keys for parsed profiles, derivation keys for
engine results, the content-digest fallback, and the mutation stamp that
decides between them."""

from __future__ import annotations

import dataclasses
import io
import json
import sys
import threading

import pytest

from repro import ProfileBuilder
from repro.analysis.aggregate import merge_trees
from repro.analysis.callbacks import Customization
from repro.analysis.diff import add_delta_column
from repro.analysis.formula import derive
from repro.analysis.transform import transform
from repro.converters import parse_bytes
from repro.core import cct_columnar, digest, serialize
from repro.core import profile as profile_module
from repro.core.cct import CCT
from repro.core.cct_columnar import ColumnarCCT
from repro.core.digest import viewtree_digest
from repro.core.frame import Frame, intern_frame
from repro.core.keys import CONTENT, DERIVED, SOURCE
from repro.core.metric import Metric
from repro.core.monitor import MonitoringPoint
from repro.core.profile import Profile, ProfileMeta
from repro.engine import AnalysisEngine
from repro.ide.server import StdioServer
from repro.profilers import corpus
from repro.serve.dispatch import parse_line

from .twins import object_only


def _small_bytes(seed: int = 1234) -> bytes:
    return corpus.generate_bytes(
        dataclasses.replace(corpus.tier("small"), seed=seed))


@pytest.fixture(scope="module")
def small():
    return _small_bytes()


@pytest.fixture(scope="module")
def other():
    return _small_bytes(seed=77)


@pytest.fixture
def digest_calls(monkeypatch):
    """Count calls of the content digests wherever they were imported."""
    calls = []
    originals = {id(digest.profile_digest): digest.profile_digest,
                 id(digest.viewtree_digest): digest.viewtree_digest}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {key: counted(fn) for key, fn in originals.items()}
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and value is originals[id(value)]:
                monkeypatch.setattr(module, attr, wrappers[id(value)])
    return calls


def _request(req_id, method, **params):
    return json.dumps({"jsonrpc": "2.0", "id": req_id, "method": method,
                       "params": params})


class TestRequestPath:
    def test_pvp_request_path_digests_nothing(self, tmp_path, small, other,
                                              digest_calls):
        paths = []
        for name, data in (("a.pb.gz", small), ("b.pb.gz", other)):
            path = tmp_path / name
            path.write_bytes(data)
            paths.append(str(path))
        server = StdioServer(stdin=io.StringIO(""), stdout=io.StringIO())
        responses = []

        def call(method, **params):
            # One request the way serve_forever handles a line.
            message, error = parse_line(
                _request(len(responses) + 1, method, **params))
            assert error is None
            reply = json.loads(server.dispatcher.handle(message).to_json())
            assert "error" not in reply, reply
            responses.append(reply)
            return reply["result"]

        ids = []
        for path in paths:
            pid = call("view/open", path=path)["profileId"]
            ids.append(pid)
            for shape in ("bottom_up", "flat", "top_down"):
                call("view/switchShape", profileId=pid, shape=shape)
            call("view/hover", profileId=pid, file="x.go", line=1)
            call("view/search", profileId=pid, pattern="Handle")
            call("view/summary", profileId=pid)
            call("view/deriveMetric", profileId=pid, name="twice",
                 formula="cpu * 2")
        call("view/diff", baselineId=ids[0], treatmentId=ids[1])
        call("view/aggregate", profileIds=ids)
        assert digest_calls == []

    def test_object_format_keeps_its_source_key(self, tmp_path,
                                                digest_calls):
        """A collapsed file parses into an object CCT; the session folds
        it into arrays, which must not cost a content digest."""
        path = tmp_path / "stacks.folded"
        path.write_text("main;work;inner 7\nmain;work 2\nmain;idle 1\n")
        server = StdioServer(stdin=io.StringIO(""), stdout=io.StringIO())
        message, error = parse_line(_request(1, "view/open", path=str(path)))
        assert error is None
        reply = json.loads(server.dispatcher.handle(message).to_json())
        assert "error" not in reply, reply
        profile = server.session.get(reply["result"]["profileId"]).profile
        assert profile.columnar() is not None
        assert profile.cache_key().startswith(SOURCE)
        assert digest_calls == []


def _late_frames():
    return [Frame(name="main", file="m.c", line=1),
            Frame(name="late", file="late.c", line=9)]


def _valued(value: float):
    builder = ProfileBuilder(tool="t")
    cpu = builder.metric("cpu")
    builder.sample([("main", "m.c", 1)], {cpu: 1.0})
    builder.sample([("main", "m.c", 1), ("work", "w.c", 2)], {cpu: value})
    return builder.build()


#: Every mutation the stamp must see, applied to a parsed profile.
MUTATIONS = {
    "add_sample": lambda p, other: p.add_sample(_late_frames(), {0: 5.0}),
    "add_metric": lambda p, other: p.add_metric(Metric("extra")),
    "add_point": lambda p, other: p.add_point(
        MonitoringPoint(contexts=[p.root], values={0: 1.0})),
    "attach_columnar": lambda p, other: p.attach_columnar(
        parse_bytes(other).columnar()),
    "cct_setter": lambda p, other: setattr(p, "cct", parse_bytes(other).cct),
}


class TestStamp:
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_stamp_covers_each_mutation(self, mutation, small, other):
        engine = AnalysisEngine()
        profile = parse_bytes(small)
        cached = engine.transform(profile, "top_down")
        assert profile.cache_key().startswith(SOURCE)
        MUTATIONS[mutation](profile, other)
        fresh = engine.transform(profile, "top_down")
        assert fresh is not cached
        assert profile.cache_key().startswith(CONTENT)
        oracle = parse_bytes(small)
        MUTATIONS[mutation](oracle, other)
        assert viewtree_digest(fresh) == viewtree_digest(
            transform(oracle, "top_down"))

    def test_materializing_the_object_tree_keeps_the_source_key(self,
                                                                small):
        from repro.analysis.metrics import compute_inclusive
        profile = parse_bytes(small)
        key = profile.cache_key()
        compute_inclusive(profile)  # to_cct under the hood
        assert profile._cct is not None
        assert profile.cache_key() == key

    def test_in_process_profile_digested_once_per_mutation(self,
                                                            digest_calls):
        profile = _valued(1.0)
        engine = AnalysisEngine()
        for _ in range(3):
            engine.transform(profile, "top_down")
            engine.transform(profile, "flat")
        assert digest_calls == ["profile_digest"]
        profile.add_sample(_late_frames(), {0: 2.0})
        engine.transform(profile, "top_down")
        engine.transform(profile, "top_down")
        assert digest_calls == ["profile_digest"] * 2

    def test_address_reuse_serves_nothing_stale(self):
        # A cached tree pins the snapshot it was computed from, so a
        # freed snapshot's key can only be served through an entry some
        # content-equal twin put there.  Each step caches a twin first,
        # which the subject then hits, leaving the subject's snapshot
        # pinned by nothing else; the subject then frees it and
        # allocates the next one, which CPython tends to place at the
        # freed address.  A stamp of ids would match there and serve the
        # twin of the step before.
        data = serialize.dumps(_valued(0.0))
        engine = AnalysisEngine()
        engine.transform(parse_bytes(data, format="easyview"), "top_down")
        profile = parse_bytes(data, format="easyview")
        assert engine.transform(profile, "top_down").total(0) == 1.0
        for step in range(1, 40):
            engine.transform(_valued(float(step)), "top_down")
            arrays = _valued(float(step)).columnar(build=True)
            profile.cct = CCT()    # frees the previous snapshot
            profile.attach_columnar(ColumnarCCT(
                arrays.parent, arrays.frame_id, arrays.depth,
                arrays.values, arrays.present, arrays.frames))
            tree = engine.transform(profile, "top_down")
            assert tree.total(0) == 1.0 + step

    def test_concurrent_keying_agrees(self):
        # Pool workers and socket sessions key shared objects at once;
        # the memos are written without a lock, so every writer must
        # store the same value.
        engine = AnalysisEngine()
        profile = _valued(3.0)
        outside = transform(_valued(3.0), "flat")
        keys = []
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work():
                for _ in range(50):
                    tree = engine.transform(profile, "top_down")
                    keys.append((profile.cache_key(), tree.cache_key(),
                                 outside.cache_key()))
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(old_interval)
        assert len(keys) == 8 * 50
        assert len(set(keys)) == 1
        assert keys[0][2] == CONTENT + viewtree_digest(outside)

    def test_concurrent_folds_keep_the_source_key(self, digest_calls):
        # The per-profile transforms of an aggregate run on pool workers;
        # each folds the object-only profile into arrays, and a key read
        # half-way through a fold must not see the new snapshot under
        # the old stamp (it would fall back to a content digest).
        data = "".join("main;w%d;leaf%d %d\n" % (i % 7, i % 13, i + 1)
                       for i in range(300)).encode()
        expected = viewtree_digest(merge_trees(
            [transform(parse_bytes(data, format="collapsed"), "top_down")]
            * 8))

        def edited():
            """The collapsed parse of ``data``, built through the edit
            API (an object tree only) and keyed by those bytes."""
            profile = Profile(meta=ProfileMeta(tool="collapsed"))
            samples = profile.add_metric(Metric("samples", unit="count"))
            for i in range(300):
                profile.add_sample(
                    [intern_frame(name) for name in
                     ("main", "w%d" % (i % 7), "leaf%d" % (i % 13))],
                    {samples: float(i + 1)})
            profile.set_source("collapsed", data)
            return profile

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                profile = edited()
                assert profile.columnar() is None
                key = profile.cache_key()
                assert key.startswith(SOURCE)
                engine = AnalysisEngine(max_workers=8)
                merged = engine.aggregate_profiles([profile] * 8)
                assert profile.cache_key() == key
                assert profile.columnar() is not None
                cvt = merged.columnar()
                series = cvt.hist[cvt.hist_present]
                assert (series == series[:, :1]).all()  # eight equal trees
                assert viewtree_digest(merged) == expected
        finally:
            sys.setswitchinterval(old_interval)
        assert digest_calls == []

    def test_fold_and_digest_run_outside_the_lock(self, monkeypatch):
        # The lock covers only a fold's publish and the key reads, so a
        # long fold or digest of one profile stalls no other key read.
        held = []

        def watched(fn):
            def wrapper(*args):
                held.append(profile_module._FOLD_LOCK.locked())
                return fn(*args)
            return wrapper

        monkeypatch.setattr(profile_module, "profile_digest",
                            watched(profile_module.profile_digest))
        monkeypatch.setattr(cct_columnar, "from_cct",
                            watched(cct_columnar.from_cct))
        profile = object_only(_valued(1.0))
        key = profile.cache_key()
        assert profile.columnar(build=True) is not None
        assert profile.cache_key() == key
        assert held == [False, False]


class TestRekeying:
    def test_same_formula_same_base_equal_keys(self, small, other):
        e1, e2 = AnalysisEngine(), AnalysisEngine()
        t1 = e1.transform(parse_bytes(small), "top_down")
        t2 = e2.transform(parse_bytes(small), "top_down")
        t3 = e2.transform(parse_bytes(other), "top_down")
        assert t1.cache_key() == t2.cache_key()
        base_key = t1.cache_key()
        assert base_key.startswith(DERIVED)
        for tree in (t1, t2, t3):
            derive(tree, "twice", "cpu * 2")
        assert t1.cache_key() == t2.cache_key() != base_key
        assert t3.cache_key() != t1.cache_key()   # a different base
        t4 = e1.transform(parse_bytes(small), "top_down")
        derive(t4, "twice", "cpu * 3")            # a different formula
        assert t4.cache_key() != t1.cache_key()
        assert t4.cache_key().startswith(DERIVED)

    def test_add_delta_column_rekeys(self, small, other):
        engine = AnalysisEngine()
        diff = engine.diff_profiles(parse_bytes(small), parse_bytes(other))
        before = diff.cache_key()
        layout = engine.layout(diff)
        add_delta_column(diff, 0)
        assert diff.cache_key() != before
        assert diff.cache_key().startswith(DERIVED)
        assert engine.layout(diff) is not layout

    def test_customization_finish_falls_back_to_content(self, small):
        engine = AnalysisEngine()
        tree = engine.transform(parse_bytes(small), "top_down")
        assert tree.cache_key().startswith(DERIVED)
        Customization().derive(Metric("one"),
                               lambda node, env: 1.0).finish(tree)
        assert tree.cache_key() == CONTENT + viewtree_digest(tree)

    def test_tree_built_outside_engine_digested_once(self, small,
                                                     digest_calls):
        tree = transform(parse_bytes(small), "top_down")
        engine = AnalysisEngine()
        engine.layout(tree)
        engine.line_attribution(tree)
        engine.layout(tree, canvas_width=300.0)
        assert digest_calls == ["viewtree_digest"]


class TestProvenance:
    def test_same_bytes_opened_twice_share_one_tree(self, small,
                                                    digest_calls):
        engine = AnalysisEngine()
        first = engine.transform(parse_bytes(small), "top_down")
        assert engine.transform(parse_bytes(small), "top_down") is first
        assert digest_calls == []

    def test_round_trip_gets_its_own_entry(self, small):
        engine = AnalysisEngine()
        pprof = parse_bytes(small)
        ezvw = parse_bytes(serialize.dumps(parse_bytes(small)),
                           format="easyview")
        t1 = engine.transform(pprof, "top_down")
        t2 = engine.transform(ezvw, "top_down")
        assert t1 is not t2
        assert engine.stats()["operations"]["transform"]["misses"] == 2
        assert viewtree_digest(t1) == viewtree_digest(t2)
