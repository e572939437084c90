"""Ablation benches for the §V-C design choices DESIGN.md calls out.

Each ablation removes one EasyView efficiency lever and measures the cost:

1. **frame interning** — canonical frames with identity-based merging vs
   freshly constructed frame objects per sample;
2. **prefix-merged CCT** — the shared-prefix tree vs flat per-sample stack
   records (the paper's storage-minimization claim, §IV-A);
3. **lazy flame-graph layout** — resolution-aware layout from the CCT vs
   materializing the full view tree and laying out every node.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.transform import top_down
from repro.converters.pprof import parse as parse_pprof
from repro.core.frame import Frame, FrameKind, intern_frame
from repro.core.serialize import dumps as dumps_native
from repro.proto import pprof_pb
from repro.viz.layout import layout, layout_profile


@pytest.fixture(scope="module")
def message(medium_bytes):
    return pprof_pb.loads(medium_bytes)


@pytest.fixture(scope="module")
def profile(medium_bytes):
    return parse_pprof(medium_bytes)


def resolve_stacks(message):
    """Pre-resolve each sample to (name, file, line, module) tuples."""
    functions = {fn.id: fn for fn in message.function}
    locations = {loc.id: loc for loc in message.location}
    stacks = []
    for sample in message.sample:
        stack = []
        for location_id in reversed(sample.location_id):
            location = locations[location_id]
            for line in reversed(location.line):
                fn = functions[line.function_id]
                stack.append((message.string(fn.name),
                              message.string(fn.filename),
                              line.line, "svc"))
        stacks.append((stack, float(sample.value[0])))
    return stacks


class TestInterningAblation:
    def test_with_interning(self, benchmark, message):
        stacks = resolve_stacks(message)

        def build():
            return [[intern_frame(*spec) for spec in stack]
                    for stack, _ in stacks]

        frames = benchmark.pedantic(build, rounds=2, iterations=1)
        # Interning makes repeated frames the same object.
        assert frames[0][0] is intern_frame(*stacks[0][0][0])

    def test_without_interning(self, benchmark, message):
        stacks = resolve_stacks(message)

        def build():
            return [[Frame(name=name, file=file, line=line, module=module)
                     for name, file, line, module in stack]
                    for stack, _ in stacks]

        frames = benchmark.pedantic(build, rounds=2, iterations=1)
        # Without interning every frame is a fresh object.
        assert frames[0][0] is not frames[-1][0] or len(frames) == 1


class TestCCTMergeAblation:
    def test_merged_cct_storage(self, benchmark, profile, message):
        """The paper's claim: prefix merging minimizes memory and disk."""
        native = benchmark.pedantic(lambda: dumps_native(profile),
                                    rounds=2, iterations=1)

        merged_contexts = profile.node_count()
        flat_frames = sum(len(s.location_id) for s in message.sample)
        print("\nAblation 2 — storage: %d merged contexts vs %d flat "
              "stack frames (%.1fx reduction)"
              % (merged_contexts, flat_frames,
                 flat_frames / merged_contexts))
        benchmark.extra_info["merged_contexts"] = merged_contexts
        benchmark.extra_info["flat_frames"] = flat_frames
        assert merged_contexts < flat_frames

    def test_flat_sample_list_storage(self, benchmark, message):
        """The ablated design: one JSON record per sample."""
        stacks = resolve_stacks(message)

        def serialize_flat():
            return "\n".join(
                json.dumps({"stack": stack, "value": value})
                for stack, value in stacks).encode()

        flat_bytes = benchmark.pedantic(serialize_flat, rounds=2,
                                        iterations=1)
        benchmark.extra_info["flat_bytes"] = len(flat_bytes)

    def test_size_comparison(self, profile, message, benchmark):
        native = dumps_native(profile)
        stacks = resolve_stacks(message)
        flat = "\n".join(json.dumps({"stack": s, "value": v})
                         for s, v in stacks).encode()
        ratio = len(flat) / len(native)
        print("\nAblation 2 — bytes: native (merged) %d vs flat %d "
              "(%.1fx smaller)" % (len(native), len(flat), ratio))
        benchmark.extra_info["ratio"] = round(ratio, 2)
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        assert len(native) < len(flat)


class TestLazyLayoutAblation:
    def test_lazy_layout(self, benchmark, profile):
        flame = benchmark.pedantic(
            lambda: layout_profile(profile, min_width=0.5),
            rounds=3, iterations=1)
        benchmark.extra_info["blocks"] = flame.laid_out_nodes

    def test_full_layout(self, benchmark, profile):
        tree = top_down(profile)  # built once, outside the timer

        flame = benchmark.pedantic(
            lambda: layout(tree, min_width=0.0),
            rounds=3, iterations=1)
        benchmark.extra_info["blocks"] = flame.laid_out_nodes

    def test_lazy_renders_fraction_of_blocks(self, profile, benchmark):
        lazy = layout_profile(profile, min_width=0.5)
        full = layout(top_down(profile), min_width=0.0)
        fraction = lazy.laid_out_nodes / full.laid_out_nodes
        print("\nAblation 3 — lazy layout renders %d of %d blocks (%.1f%%)"
              % (lazy.laid_out_nodes, full.laid_out_nodes,
                 100.0 * fraction))
        benchmark.extra_info["fraction"] = round(fraction, 4)
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        assert fraction < 0.5


class TestGcGuardAblation:
    """Ablation 4 — §V-C's manual memory management claim, measured.

    The paper: "EASYVIEW manages the memory manually to avoid frequent
    invocation of garbage collectors."  Generational collections only
    start to bite once the tree holds hundreds of thousands of young
    container objects, so this ablation runs on the *large* tier (skipped
    when EASYVIEW_BENCH_LARGE=0); the medium tier shows near-parity.
    """

    @pytest.fixture(scope="class")
    def large_bytes(self, corpus):
        if "large" not in corpus:
            pytest.skip("large tier disabled (EASYVIEW_BENCH_LARGE=0)")
        return corpus["large"]

    @pytest.fixture(scope="class")
    def warm_pool(self, large_bytes):
        # Populate the frame intern pool once so both variants measure
        # tree construction, not first-touch string interning.
        parse_pprof(large_bytes)
        return True

    def test_parse_with_gc(self, benchmark, large_bytes, warm_pool):
        import gc

        def build():
            assert gc.isenabled()
            return parse_pprof(large_bytes)

        profile = benchmark.pedantic(build, rounds=2, iterations=1)
        benchmark.extra_info["nodes"] = profile.node_count()

    def test_parse_without_gc(self, benchmark, large_bytes, warm_pool):
        from repro.core.gcguard import no_gc

        def build():
            # No collection on exit: the reclaim happens outside the
            # interactive open path (and outside the timer).
            with no_gc():
                return parse_pprof(large_bytes)

        profile = benchmark.pedantic(build, rounds=2, iterations=1)
        benchmark.extra_info["nodes"] = profile.node_count()
