"""The viewer session on view rows: no facade builds, per-session derived
columns, and node handles that name their own view.

* The analyst script an IDE sends (open, shape switches, hovers, search,
  zoom, hot-path table, click, summary, derived metric, then a diff and
  an aggregate) builds neither an object CCT nor a ``ViewNode`` facade;
  the two ``repro.obs`` counters of those builds stay where they were.
* ``view/deriveMetric`` adds its column to a tree the deriving session
  owns: another session pinning the same engine-cached view keeps its
  schema, arrays, table columns and cache key.
* ``view/select`` / ``view/click`` report the metrics of the handle's
  own view, derived columns included.
* A store query over records with snapshot or pair points (which decode
  into object CCTs) opens as a view on arrays, so every ``view/*``
  request works on it.
"""

import dataclasses

import pytest

from repro import obs
from repro.core import cct_columnar  # noqa: F401 (registers its counter)
from repro.core import serialize
from repro.engine import AnalysisEngine
from repro.ide import protocol as pvp
from repro.ide.mock_ide import MockIDE
from repro.ide.session import ViewerSession
from repro.profilers.corpus import generate, tier
from repro.profilers.workloads import grpc_client_profile, lulesh_reuse_profile
from repro.proto import pprof_pb


def _write(directory, seed):
    message = generate(dataclasses.replace(tier("small"), seed=seed))
    path = str(directory / ("profile-%d.pb.gz" % seed))
    with open(path, "wb") as handle:
        handle.write(pprof_pb.dumps(message))
    flat = {}
    for sample in message.sample:
        flat[sample.location_id[0]] = (flat.get(sample.location_id[0], 0)
                                       + sample.value[0])
    locations = {location.id: location for location in message.location}
    functions = {function.id: function for function in message.function}
    hovers = []
    for location_id in sorted(flat, key=lambda key: (-flat[key], key))[:3]:
        line = locations[location_id].line[0]
        hovers.append((message.string_table[
            functions[line.function_id].filename], line.line))
    return path, hovers


BUILDS = ("core.cct_materializations", "analysis.view_materializations")


def _builds(snapshot):
    return [snapshot["counters"][name] for name in BUILDS]


def test_analyst_script_builds_no_object_tree(tmp_path):
    before = _builds(obs.get_registry().snapshot())
    ide = MockIDE()
    ide.session.engine = AnalysisEngine()
    ids = []
    for seed in (21, 22):
        path, hovers = _write(tmp_path, seed)
        pid = ide.open_profile(path)
        ids.append(pid)
        for shape in ("bottom_up", "flat", "top_down"):
            ide.request("view/switchShape", profileId=pid, shape=shape)
        for file, line in hovers:
            assert ide.request("view/hover", profileId=pid, file=file,
                               line=line)["found"]
        matches = ide.request("view/search", profileId=pid,
                              pattern="Handle")["matches"]
        assert matches
        ide.request("view/zoom", profileId=pid, nodeRef=matches[0])
        ide.request("view/tableExpand", profileId=pid, hotPath=True,
                    maxRows=20)
        ide.request("view/click", profileId=pid, nodeRef=matches[0])
        ide.request("view/summary", profileId=pid)
        ide.request("view/deriveMetric", profileId=pid,
                    name="cpu_per_sample", formula="cpu / samples")
    ide.request("view/diff", baselineId=ids[0], treatmentId=ids[1])
    ide.request("view/aggregate", profileIds=ids)
    # The counters are production telemetry: obs/metrics serves them.
    assert _builds(ide.request("obs/metrics")["metrics"]) == before


def _call(session, method, **params):
    response = session.handle(pvp.Request(method=method, id=1,
                                          params=params))
    assert response.error is None, response.error
    return response.result


def test_derive_stays_in_its_session(tmp_path):
    path, _ = _write(tmp_path, 0)
    engine = AnalysisEngine()
    a = ViewerSession(engine=engine)
    b = ViewerSession(engine=engine)
    id_a = a.open(path).id
    id_b = b.open(path).id
    shared = b.view(id_b, "top_down")
    assert a.view(id_a, "top_down") is shared   # one engine tree
    key = shared.cache_key()
    arrays = shared.columnar()
    columns = _call(b, pvp.VIEW_TABLE, profileId=id_b)["columns"]
    ref = _call(a, pvp.VIEW_SEARCH, profileId=id_a,
                pattern="Handle")["matches"][0]
    selected = _call(a, pvp.VIEW_SELECT, profileId=id_a,
                     nodeRef=ref)["metrics"]

    index = _call(a, pvp.VIEW_DERIVE, profileId=id_a, name="twice",
                  formula="cpu * 2")["metricIndex"]

    assert shared.schema.names() == ["cpu", "samples"]
    assert b.view(id_b, "top_down").schema.names() == ["cpu", "samples"]
    assert shared.columnar() is arrays and arrays.n_metrics == 2
    assert shared.cache_key() == key
    assert engine.transform(b.get(id_b).profile, "top_down") is shared
    assert _call(b, pvp.VIEW_TABLE, profileId=id_b)["columns"] == columns
    # Session A sees its column, and its handles still resolve.
    own = a.view(id_a, "top_down")
    assert own is not shared
    assert own.schema.names() == ["cpu", "samples", "twice"]
    assert own.cache_key() != key
    metrics = _call(a, pvp.VIEW_SELECT, profileId=id_a,
                    nodeRef=ref)["metrics"]
    assert metrics == dict(selected, twice=selected["cpu"] * 2)
    assert index == 2


def test_click_reports_the_metrics_of_the_handles_view(tmp_path):
    path, _ = _write(tmp_path, 0)
    ide = MockIDE()
    pid = ide.open_profile(path)
    ide.request("view/switchShape", profileId=pid, shape="bottom_up")
    ref = ide.request("view/search", profileId=pid,
                      pattern="Handle")["matches"][0]
    ide.request("view/deriveMetric", profileId=pid,
                name="cpu_per_sample", formula="cpu / samples")
    clicked = ide.request("view/click", profileId=pid, nodeRef=ref)
    assert set(clicked["metrics"]) == {"cpu", "samples", "cpu_per_sample"}
    assert clicked["metrics"]["cpu_per_sample"] == pytest.approx(
        clicked["metrics"]["cpu"] / clicked["metrics"]["samples"])


def test_store_query_of_point_records_runs_on_arrays(tmp_path):
    """The Fig. 4 leak (snapshot points) and Fig. 7 reuse (pair points)
    profiles, ingested into a store and opened by query."""
    session = ViewerSession(engine=AnalysisEngine())
    root = str(tmp_path / "store")
    profiles = {"leak": grpc_client_profile(clients=4, snapshots=3),
                "reuse": lulesh_reuse_profile(scale=1)}
    for seq, (service, profile) in enumerate(sorted(profiles.items())):
        assert profile.points
        path = str(tmp_path / ("%s.ezvw" % service))
        profile.meta.time_nanos = 1_700_000_000_000_000_000 + seq
        serialize.dump(profile, path)
        _call(session, pvp.STORE_INGEST, store=root, path=path,
              service=service)
    counters = obs.get_registry().snapshot()
    before = _builds(counters)
    parses = counters["counters"]["codec.easyview.parse_calls"]
    ids = []
    for service in sorted(profiles):
        pid = _call(session, pvp.VIEW_OPEN_QUERY, store=root,
                    query="service=%s" % service)["profileId"]
        ids.append(pid)
        assert session.view(pid, "top_down").columnar() is not None
        ref = _call(session, pvp.VIEW_SEARCH, profileId=pid,
                    pattern="main")["matches"][0]
        assert _call(session, pvp.VIEW_CLICK, profileId=pid,
                     nodeRef=ref)["metrics"]
        assert _call(session, pvp.VIEW_ZOOM, profileId=pid,
                     nodeRef=ref)["blocks"]
        assert _call(session, pvp.VIEW_TABLE_EXPAND, profileId=pid,
                     nodeRef=ref)["rows"]
        _call(session, pvp.VIEW_TABLE_EXPAND, profileId=pid, hotPath=True)
        _call(session, pvp.VIEW_SUMMARY, profileId=pid)
        _call(session, pvp.VIEW_DERIVE, profileId=pid, name="twice",
              formula="2")
        assert _call(session, pvp.VIEW_SELECT, profileId=pid,
                     nodeRef=ref)["metrics"]["twice"] == 2
    _call(session, pvp.VIEW_DIFF, baselineId=ids[0], treatmentId=ids[1])
    _call(session, pvp.VIEW_AGGREGATE, profileIds=ids)
    # Each load binds its points to the object facade, built once there
    # (serialize.from_columns); the requests build none.
    counters = obs.get_registry().snapshot()
    loads = counters["counters"]["codec.easyview.parse_calls"] - parses
    assert loads > 0
    assert _builds(counters) == [before[0] + loads, before[1]]
