"""Synthetic pprof corpus generation for the response-time study (Fig. 5).

The paper gleans real PProf profiles of industrial services from ~1 MB to
~1 GB.  Offline we generate structurally equivalent binaries: realistic
function/location/sample tables, Go-flavored symbol names, plausible stack
depths, and a long-tailed value distribution.  Sizes are scaled to a laptop
benchmark budget; the size *ratios* between tiers mirror the paper's 1 MB /
100 MB / 1 GB spread on a log scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..proto import pprof_pb

_PACKAGES = ["runtime", "net/http", "encoding/json", "database/sql",
             "google.golang.org/grpc", "github.com/acme/api",
             "github.com/acme/storage", "github.com/acme/cache",
             "bufio", "sync", "context", "crypto/tls"]
_VERBS = ["Serve", "Handle", "Read", "Write", "Marshal", "Unmarshal",
          "Get", "Put", "Flush", "Dial", "Query", "Scan", "Lock",
          "Process", "Encode", "Decode", "Merge", "Sort", "Hash"]
_NOUNS = ["Request", "Response", "Buffer", "Conn", "Row", "Block",
          "Header", "Body", "Frame", "Chunk", "Entry", "Index", "Shard"]


@dataclass(frozen=True)
class CorpusSpec:
    """Shape parameters for one synthetic pprof profile."""

    name: str
    functions: int
    samples: int
    max_depth: int
    seed: int = 1234


#: The benchmark tiers standing in for the paper's 1 MB → 1 GB range.
TIERS: Tuple[CorpusSpec, ...] = (
    CorpusSpec("small", functions=300, samples=2_000, max_depth=24),
    CorpusSpec("medium", functions=1_500, samples=20_000, max_depth=40),
    CorpusSpec("large", functions=6_000, samples=120_000, max_depth=56),
    CorpusSpec("xlarge", functions=12_000, samples=400_000, max_depth=64),
)


def tier(name: str) -> CorpusSpec:
    """Look up a tier by name."""
    for spec in TIERS:
        if spec.name == name:
            return spec
    raise KeyError("unknown corpus tier %r (have: %s)"
                   % (name, ", ".join(s.name for s in TIERS)))


def generate(spec: CorpusSpec) -> pprof_pb.Profile:
    """Generate one pprof profile message from a spec.

    The call structure is a random DAG biased toward a few hub functions
    (like real services: one HTTP loop fans into everything), and sample
    values follow a Pareto-ish tail so a handful of paths dominate — the
    regime where viewer efficiency differences show.
    """
    rng = random.Random(spec.seed)
    profile = pprof_pb.Profile()
    strings: Dict[str, int] = {"": 0}
    table = [""]

    def intern(text: str) -> int:
        index = strings.get(text)
        if index is None:
            index = len(table)
            table.append(text)
            strings[text] = index
        return index

    profile.sample_type = [
        pprof_pb.ValueType(type=intern("cpu"), unit=intern("nanoseconds")),
        pprof_pb.ValueType(type=intern("samples"), unit=intern("count")),
    ]
    profile.period_type = pprof_pb.ValueType(type=intern("cpu"),
                                             unit=intern("nanoseconds"))
    profile.period = 10_000_000  # 100 Hz

    binary = pprof_pb.Mapping(id=1, memory_start=0x400000,
                              memory_limit=0x800000,
                              filename=intern("/usr/bin/service"),
                              has_functions=True, has_filenames=True,
                              has_line_numbers=True)
    profile.mapping.append(binary)

    # Functions with Go-flavored names and plausible files.
    for i in range(spec.functions):
        package = rng.choice(_PACKAGES)
        name = "%s.(*%s).%s" % (package, rng.choice(_NOUNS),
                                rng.choice(_VERBS))
        if rng.random() < 0.3:
            name = "%s.%s%s" % (package, rng.choice(_VERBS),
                                rng.choice(_NOUNS))
        profile.function.append(pprof_pb.Function(
            id=i + 1,
            name=intern("%s#%d" % (name, i)),
            system_name=intern(name),
            filename=intern("%s/%s.go" % (package,
                                          rng.choice(_NOUNS).lower())),
            start_line=rng.randint(1, 900)))
        profile.location.append(pprof_pb.Location(
            id=i + 1, mapping_id=1,
            address=0x400000 + 64 * (i + 1),
            line=[pprof_pb.Line(function_id=i + 1,
                                line=rng.randint(1, 950))]))

    # Hub-biased call structure: low ids call high ids, hubs everywhere.
    hubs = list(range(1, min(12, spec.functions) + 1))

    def random_stack() -> List[int]:
        depth = rng.randint(3, spec.max_depth)
        stack = [rng.choice(hubs)]
        for _ in range(depth - 1):
            parent = stack[-1]
            if rng.random() < 0.2:
                nxt = rng.choice(hubs)
            else:
                lo = min(parent + 1, spec.functions)
                nxt = rng.randint(lo, spec.functions)
            stack.append(nxt)
        stack.reverse()  # pprof stacks are leaf-first
        return stack

    # A limited path pool: real profiles repeat call paths heavily, which
    # is what makes prefix-merging effective.
    pool = [random_stack() for _ in range(max(spec.samples // 20, 10))]
    for _ in range(spec.samples):
        stack = rng.choice(pool)
        if rng.random() < 0.15:
            stack = random_stack()
        cpu = int(rng.paretovariate(1.5) * profile.period)
        profile.sample.append(pprof_pb.Sample(
            location_id=list(stack), value=[cpu, max(cpu // profile.period, 1)]))

    profile.string_table = table
    profile.time_nanos = 1_700_000_000_000_000_000
    profile.duration_nanos = spec.samples * profile.period
    return profile


def generate_bytes(spec: CorpusSpec, compress: bool = True) -> bytes:
    """Generate and serialize one corpus profile."""
    return pprof_pb.dumps(generate(spec), compress=compress)


def write_corpus(directory: str,
                 tiers: Optional[Tuple[CorpusSpec, ...]] = None
                 ) -> Dict[str, str]:
    """Write every tier to ``directory``; returns name → path."""
    import os
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for spec in tiers or TIERS:
        path = os.path.join(directory, "%s.pb.gz" % spec.name)
        with open(path, "wb") as handle:
            handle.write(generate_bytes(spec))
        paths[spec.name] = path
    return paths
