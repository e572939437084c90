"""Tests for the shared analysis engine: digests, LRU cache, worker pool,
memoization, and invalidation-on-mutation."""

import pytest

from repro import ProfileBuilder
from repro.analysis.callbacks import Customization
from repro.analysis.diff import add_delta_column
from repro.analysis.formula import derive
from repro.analysis.query import search
from repro.analysis.transform import top_down, transform
from repro.core.digest import profile_digest, schema_digest, viewtree_digest
from repro.core.metric import Metric
from repro.engine import (AnalysisEngine, LRUCache, WorkerPool,
                          default_worker_count, forget_everywhere,
                          get_engine)


def build(entries, tool="test", metrics=("cpu",)):
    builder = ProfileBuilder(tool=tool)
    indices = [builder.metric(name) for name in metrics]
    for path, values in entries:
        builder.sample([(name, "s.c", 1) for name in path],
                       {indices[i]: v for i, v in enumerate(values)})
    return builder.build()


ENTRIES = [(("main", "work"), (10.0,)),
           (("main", "work", "inner"), (4.0,)),
           (("main", "idle"), (2.0,))]


class TestDigests:
    def test_profile_digest_deterministic(self):
        assert profile_digest(build(ENTRIES)) == profile_digest(build(ENTRIES))

    def test_profile_digest_insertion_order_independent(self):
        # Same samples recorded in a different order → same digest.
        assert (profile_digest(build(ENTRIES))
                == profile_digest(build(list(reversed(ENTRIES)))))

    def test_profile_digest_changes_on_new_sample(self):
        from repro.core.frame import Frame
        profile = build(ENTRIES)
        before = profile_digest(profile)
        profile.add_sample([Frame(name="main", file="s.c", line=1),
                            Frame(name="late", file="s.c", line=9)],
                           {0: 3.0})
        assert profile_digest(profile) != before

    def test_profile_digest_changes_on_value_change(self):
        changed = [(("main", "work"), (11.0,))] + ENTRIES[1:]
        assert profile_digest(build(ENTRIES)) != profile_digest(build(changed))

    def test_profile_digest_ignores_cached_inclusives(self):
        from repro.analysis.metrics import compute_inclusive
        profile = build(ENTRIES)
        before = profile_digest(profile)
        compute_inclusive(profile)
        assert profile_digest(profile) == before

    def test_profile_digest_distinguishes_chain_from_siblings(self):
        chain = build([(("a", "b", "c"), (1.0,))])
        sibs = build([(("a", "b"), (1.0,)), (("a", "c"), (0.0,))])
        assert profile_digest(chain) != profile_digest(sibs)

    def test_schema_digest_order_sensitive(self):
        p1 = build([], metrics=("cpu", "alloc"))
        p2 = build([], metrics=("alloc", "cpu"))
        assert schema_digest(p1.schema) != schema_digest(p2.schema)

    def test_viewtree_digest_stable_and_mutation_sensitive(self):
        t1 = top_down(build(ENTRIES))
        t2 = top_down(build(ENTRIES))
        assert viewtree_digest(t1) == viewtree_digest(t2)
        derive(t1, "dbl", "cpu * 2")
        assert viewtree_digest(t1) != viewtree_digest(t2)

    def test_viewtree_digest_covers_tags(self):
        from repro.analysis.diff import diff_profiles
        base = build(ENTRIES)
        d1 = diff_profiles(base, build(ENTRIES))
        d2 = diff_profiles(base, build([(("main", "work"), (99.0,))]))
        assert viewtree_digest(d1) != viewtree_digest(d2)


class TestLRUCache:
    def test_hit_miss_counters(self):
        cache = LRUCache(capacity=4)
        found, _ = cache.lookup("transform", "k1")
        assert not found
        cache.store("k1", "v1")
        found, value = cache.lookup("transform", "k1")
        assert found and value == "v1"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.per_operation["transform"] == {"hits": 1,
                                                          "misses": 1}
        assert cache.stats.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.lookup("op", "a")  # refresh a → b is now LRU
        cache.store("c", 3)
        assert cache.stats.evictions == 1
        assert cache.lookup("op", "b")[0] is False
        assert cache.lookup("op", "a") == (True, 1)
        assert cache.lookup("op", "c") == (True, 3)

    def test_forget_value_drops_only_matching_entries(self):
        cache = LRUCache()
        sentinel = object()
        cache.store("x", sentinel)
        cache.store("y", sentinel)
        cache.store("z", "other")
        assert cache.forget_value(sentinel) == 2
        assert len(cache) == 1
        assert cache.lookup("op", "z") == (True, "other")

    def test_clear_preserves_counters(self):
        cache = LRUCache()
        cache.store("a", 1)
        cache.lookup("op", "a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)


class TestWorkerPool:
    def test_inline_below_threshold(self):
        pool = WorkerPool(max_workers=4)
        assert pool.map(lambda x: x + 1, [1, 2]) == [2, 3]
        assert pool.inline_batches == 1
        assert pool.parallel_batches == 0
        pool.shutdown()

    def test_parallel_preserves_order(self):
        pool = WorkerPool(max_workers=4)
        items = list(range(20))
        assert pool.map(lambda x: x * x, items) == [x * x for x in items]
        assert pool.parallel_batches == 1
        pool.shutdown()

    def test_single_worker_runs_inline(self):
        pool = WorkerPool(max_workers=1)
        assert not pool.enabled
        assert pool.map(lambda x: -x, list(range(10))) == list(range(0, -10, -1))
        assert pool.parallel_batches == 0
        pool.shutdown()

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

    def test_large_batch_chunks_context_copies(self):
        """One context copy per chunk, not one (let alone two) per item.

        Items sharing a chunk run sequentially in the same context copy,
        so a ContextVar set by a chunk's first item is visible to the
        rest of that chunk; each fresh copy observes the default once.
        """
        import contextvars
        from repro.engine import parallel as par
        marker = contextvars.ContextVar("easyview-chunk-marker",
                                        default=False)
        fresh_contexts = []

        def fn(x):
            if not marker.get():
                marker.set(True)
                fresh_contexts.append(x)
            return x + 1

        pool = WorkerPool(max_workers=2)
        items = list(range(200))
        try:
            result = pool.map(fn, items)
        finally:
            pool.shutdown()
        assert result == [x + 1 for x in items]
        max_chunks = pool.max_workers * par.CHUNKS_PER_WORKER
        assert 1 <= len(fresh_contexts) <= max_chunks < len(items)

    def test_context_flows_into_chunked_workers(self):
        import contextvars
        var = contextvars.ContextVar("easyview-test", default="unset")
        var.set("submitted")
        pool = WorkerPool(max_workers=4)
        try:
            results = pool.map(lambda _: var.get(), list(range(50)))
        finally:
            pool.shutdown()
        assert results == ["submitted"] * 50

    def test_chunked_exceptions_propagate(self):
        pool = WorkerPool(max_workers=4)

        def boom(x):
            if x == 37:
                raise ValueError("item 37")
            return x

        try:
            with pytest.raises(ValueError, match="item 37"):
                pool.map(boom, list(range(100)))
        finally:
            pool.shutdown()


class TestEngineMemoization:
    def test_transform_shared_across_equal_profiles(self):
        engine = AnalysisEngine()
        tree1 = engine.transform(build(ENTRIES), "top_down")
        tree2 = engine.transform(build(ENTRIES), "top_down")
        assert tree1 is tree2
        stats = engine.stats()
        assert stats["operations"]["transform"] == {"hits": 1, "misses": 1}

    def test_transform_distinct_per_shape(self):
        engine = AnalysisEngine()
        profile = build(ENTRIES)
        assert (engine.transform(profile, "top_down")
                is not engine.transform(profile, "bottom_up"))
        assert engine.cache.stats.hits == 0

    def test_layout_memoized(self):
        engine = AnalysisEngine()
        tree = engine.transform(build(ENTRIES), "top_down")
        l1 = engine.layout(tree)
        assert engine.layout(tree) is l1
        assert engine.layout(tree, canvas_width=600.0) is not l1

    def test_zoomed_layout_bypasses(self):
        engine = AnalysisEngine()
        tree = engine.transform(build(ENTRIES), "top_down")
        row = search(tree, "work").rows[0]
        before = engine.cache.stats.bypasses
        engine.layout(tree, root=row)
        engine.layout(tree, root=row)
        assert engine.cache.stats.bypasses == before + 2

    def test_callback_customization_bypasses(self):
        engine = AnalysisEngine()
        custom = Customization().elide_names("idle")
        profile = build(ENTRIES)
        t1 = engine.transform(profile, "top_down", customization=custom)
        t2 = engine.transform(profile, "top_down", customization=custom)
        assert t1 is not t2
        assert engine.cache.stats.bypasses == 2
        assert not t1.find_by_name("idle")

    def test_derived_metric_customization_bypasses(self):
        # A derive-only customization passes nodes through unchanged but
        # adds a column: caching it under the plain key served the
        # derived tree to later plain requests.
        engine = AnalysisEngine()
        profile = build(ENTRIES)
        custom = Customization().derive(Metric("twice"),
                                        lambda node, env: 2.0)
        derived = engine.transform(profile, "top_down",
                                   customization=custom)
        plain = engine.transform(profile, "top_down")
        assert derived.schema.names() == ["cpu", "twice"]
        assert plain is not derived
        assert plain.schema.names() == ["cpu"]
        assert engine.cache.stats.bypasses == 1
        # An empty customization is the plain transform and shares it.
        assert engine.transform(profile, "top_down",
                                customization=Customization()) is plain

    def test_diff_profiles_memoized(self):
        engine = AnalysisEngine()
        base, treat = build(ENTRIES), build([(("main", "work"), (99.0,))])
        d1 = engine.diff_profiles(base, treat)
        assert engine.diff_profiles(base, treat) is d1
        assert engine.stats()["operations"]["diff"]["hits"] == 1

    def test_merge_trees_memoized(self):
        engine = AnalysisEngine()
        trees = [top_down(build(ENTRIES)), top_down(build(ENTRIES))]
        merged = engine.merge_trees(trees)
        assert engine.merge_trees(trees) is merged

    def test_aggregate_profiles_memoized_and_correct(self):
        from repro.analysis.aggregate import aggregate_profiles
        engine = AnalysisEngine()
        profiles = [build(ENTRIES, tool="a"),
                    build([(("main", "work"), (6.0,))], tool="b")]
        agg = engine.aggregate_profiles(profiles)
        assert engine.aggregate_profiles(profiles) is agg
        expected = aggregate_profiles(profiles)
        assert viewtree_digest(agg) == viewtree_digest(expected)

    def test_parallel_aggregation_matches_serial(self):
        # The container may have one CPU; force a real thread pool.
        from repro.analysis.aggregate import aggregate_profiles
        engine = AnalysisEngine(max_workers=4)
        profiles = [build([(("main", "f%d" % i), (float(i + 1),))],
                          tool=str(i)) for i in range(6)]
        agg = engine.aggregate_profiles(profiles)
        assert (viewtree_digest(agg)
                == viewtree_digest(aggregate_profiles(profiles)))
        assert engine.pool.parallel_batches == 1
        # Each per-profile transform was individually memoized.
        assert engine.stats()["operations"]["transform"]["misses"] == 6
        engine.pool.shutdown()

    def test_stats_shape(self):
        engine = AnalysisEngine(capacity=8, max_workers=2)
        stats = engine.stats()
        assert set(stats) >= {"hits", "misses", "evictions", "bypasses",
                              "hitRate", "operations", "size", "capacity",
                              "pool"}
        assert stats["capacity"] == 8
        assert stats["pool"]["maxWorkers"] == 2
        engine.pool.shutdown()

    def test_reset_stats_and_clear(self):
        engine = AnalysisEngine()
        engine.transform(build(ENTRIES), "top_down")
        engine.reset_stats()
        assert engine.stats()["misses"] == 0
        assert engine.stats()["size"] == 1
        engine.clear()
        assert engine.stats()["size"] == 0


class TestEngineInvalidation:
    def test_profile_mutation_invalidates(self):
        # ISSUE satellite: cache invalidation after profile mutation.
        engine = AnalysisEngine()
        profile = build(ENTRIES)
        tree = engine.transform(profile, "top_down")
        from repro.core.frame import Frame
        cpu = profile.schema.index_of("cpu")
        profile.add_sample([Frame(name="main", file="s.c", line=1),
                            Frame(name="late", file="s.c", line=9)],
                           {cpu: 3.0})
        fresh = engine.transform(profile, "top_down")
        assert fresh is not tree
        assert fresh.find_by_name("late")
        assert engine.cache.stats.hits == 0
        assert engine.cache.stats.misses == 2

    def test_derive_invalidates_every_engine(self):
        e1, e2 = AnalysisEngine(), AnalysisEngine()
        profile = build(ENTRIES)
        t1 = e1.transform(profile, "top_down")
        t2 = e2.transform(profile, "top_down")
        derive(t1, "dbl", "cpu * 2")
        # t1 was dropped from e1; e2's distinct tree is untouched.
        assert e1.transform(profile, "top_down") is not t1
        assert e2.transform(profile, "top_down") is t2

    def test_add_delta_column_invalidates(self):
        engine = AnalysisEngine()
        base, treat = build(ENTRIES), build([(("main", "work"), (99.0,))])
        diff = engine.diff_profiles(base, treat)
        add_delta_column(diff, 0)
        assert engine.diff_profiles(base, treat) is not diff

    def test_forget_keeps_arrays(self):
        engine = AnalysisEngine()
        profile = build(ENTRIES)
        tree = engine.transform(profile, "top_down")
        stale = tree.cache_key()
        tree.schema.add(Metric("late"))
        assert forget_everywhere(tree) == 1
        assert forget_everywhere(tree) == 0
        assert tree.columnar() is not None
        assert tree.cache_key() != stale  # memo dropped too
        assert engine.transform(profile, "top_down") is not tree

    def test_layout_of_mutated_tree_recomputed(self):
        engine = AnalysisEngine()
        tree = engine.transform(build(ENTRIES), "top_down")
        l1 = engine.layout(tree)
        derive(tree, "dbl", "cpu * 2")
        assert engine.layout(tree) is not l1


class TestEngineAnnotations:
    def test_code_lenses_batch_matches_per_file(self):
        from repro.ide.annotations import build_code_lenses
        engine = AnalysisEngine(max_workers=4)
        profiles = [build(ENTRIES), build([(("main", "other"), (1.0,))],
                                          tool="b")]
        tree = engine.merge_trees(
            [engine.transform(p, "top_down") for p in profiles])
        files = engine.annotated_files(tree)
        assert files
        batch = engine.code_lenses_batch(tree, files)
        for path in files:
            assert batch[path] == build_code_lenses(tree, file=path)
        engine.pool.shutdown()

    def test_attribution_memoized(self):
        engine = AnalysisEngine()
        tree = engine.transform(build(ENTRIES), "top_down")
        a1 = engine.line_attribution(tree)
        assert engine.line_attribution(tree) is a1
        assert engine.stats()["operations"]["annotation"]["hits"] == 1


class TestDefaultEngine:
    def test_get_engine_is_singleton(self):
        assert get_engine() is get_engine()

    def test_flamegraph_uses_engine(self):
        from repro.viz.flamegraph import FlameGraph
        engine = AnalysisEngine()
        profile = build(ENTRIES)
        g1 = FlameGraph.top_down(profile, engine=engine)
        g2 = FlameGraph.top_down(build(ENTRIES), engine=engine)
        assert g1.tree is g2.tree
        assert engine.cache.stats.hits == 1
