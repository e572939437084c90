"""A deterministic synthetic program machine.

The paper's evaluation profiles real systems (a Go gRPC client, LULESH,
Spark).  Offline, we substitute a *program machine*: a weighted call-graph
whose deterministic execution produces profiles with prescribed shapes —
hotspots under chosen call paths, leaky allocation contexts, use/reuse
pairs, and diff-able variants.  Because the machine drives the standard
:class:`~repro.builder.ProfileBuilder`, the produced profiles exercise
exactly the code paths a real profiler's output would.

A program is a set of :class:`Func` specs.  Execution expands the call tree
from the entry function: each call contributes its ``self_cost`` (scaled by
a deterministic per-path jitter) at its context and recurses into its
callees ``calls``-many times.  Allocation, snapshot, and reuse events
attach to functions and are emitted at every expansion of that function's
context.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..builder import ProfileBuilder
from ..core.frame import Frame, intern_frame
from ..core.monitor import PointKind
from ..core.profile import Profile
from ..errors import EasyViewError


@dataclass(frozen=True)
class Callee:
    """One outgoing call edge: target function, invocation count."""

    target: str
    calls: int = 1


@dataclass
class Func:
    """One synthetic function."""

    name: str
    file: str = ""
    line: int = 0
    module: str = ""
    self_cost: float = 0.0          # exclusive metric units per expansion
    callees: List[Callee] = field(default_factory=list)
    #: bytes allocated per expansion (emitted as allocation points)
    alloc_bytes: float = 0.0
    alloc_object: str = ""

    def frame(self) -> Frame:
        return intern_frame(self.name, self.file, self.line, self.module)


class ProgramMachine:
    """Executes a synthetic program into a profile."""

    def __init__(self, functions: Sequence[Func], entry: str = "main",
                 seed: int = 42, jitter: float = 0.0,
                 recursion_limit: int = 500) -> None:
        self._functions: Dict[str, Func] = {}
        for func in functions:
            if func.name in self._functions:
                raise EasyViewError("duplicate function %r" % func.name)
            self._functions[func.name] = func
        if entry not in self._functions:
            raise EasyViewError("entry function %r is not defined" % entry)
        self.entry = entry
        self.seed = seed
        #: relative amplitude of the deterministic per-path cost jitter
        self.jitter = jitter
        #: deepest acyclic call chain the program may declare; raise it for
        #: deliberately deep shapes (e.g. the 10k-frame stress workload)
        self.recursion_limit = recursion_limit
        self._check_recursion_budget()

    def function(self, name: str) -> Func:
        try:
            return self._functions[name]
        except KeyError:
            raise EasyViewError("undefined function %r" % name) from None

    def _check_recursion_budget(self, limit: Optional[int] = None) -> None:
        """Reject call graphs with acyclic paths deeper than the limit (the
        machine expands cycles only to a bounded depth, but catches typos
        early).

        The walk is an explicit-stack depth-first search, never Python
        recursion: a program as deep as its own budget allows (see
        ``recursion_limit``) must be *checkable* without tripping the
        interpreter's recursion limit.
        """
        if limit is None:
            limit = self.recursion_limit
        # Each frame: [name, callee iterator, deepest subtree so far].
        entry_func = self._functions[self.entry]
        stack = [[self.entry, iter(entry_func.callees), 0]]
        on_path = {self.entry}
        deepest = 0
        while stack:
            frame = stack[-1]
            pushed = False
            for callee in frame[1]:
                target = callee.target
                if target in on_path:
                    # Cycle edge: the callee contributes depth 0, the edge
                    # itself still counts one level.
                    if frame[2] < 1:
                        frame[2] = 1
                    continue
                func = self._functions.get(target)
                if func is None:
                    raise EasyViewError("call edge to undefined function %r"
                                        % target)
                stack.append([target, iter(func.callees), 0])
                on_path.add(target)
                pushed = True
                break
            if pushed:
                continue
            stack.pop()
            on_path.discard(frame[0])
            reached = frame[2]
            if stack:
                if stack[-1][2] < reached + 1:
                    stack[-1][2] = reached + 1
            else:
                deepest = reached
        if deepest > limit:
            raise EasyViewError("call graph deeper than %d" % limit)

    def _path_jitter(self, path_key: str) -> float:
        """Deterministic multiplicative jitter in [1-j, 1+j] for a path."""
        if not self.jitter:
            return 1.0
        digest = hashlib.sha1((str(self.seed) + path_key).encode()).digest()
        unit = int.from_bytes(digest[:4], "big") / 2 ** 32
        return 1.0 + self.jitter * (2.0 * unit - 1.0)

    def run(self, metric: str = "cpu", unit: str = "nanoseconds",
            tool: str = "machine", max_cycle_depth: int = 3,
            snapshots: int = 0,
            snapshot_decay: Optional[Dict[str, Sequence[float]]] = None
            ) -> Profile:
        """Execute the program and return its profile.

        ``snapshots`` > 0 additionally emits that many allocation snapshot
        captures per allocating context; ``snapshot_decay`` maps function
        names to a per-snapshot multiplier series describing how that
        context's live bytes evolve (default: constant — i.e. leak-shaped).
        """
        builder = ProfileBuilder(tool=tool)
        self.record(builder, metric, unit, max_cycle_depth, snapshots,
                    snapshot_decay)
        return builder.build()

    def record(self, builder: ProfileBuilder, metric: str = "cpu",
               unit: str = "nanoseconds", max_cycle_depth: int = 3,
               snapshots: int = 0,
               snapshot_decay: Optional[Dict[str, Sequence[float]]] = None
               ) -> None:
        """Execute the program into ``builder`` (see :meth:`run`), so a
        workload can record more metrics and points before it builds."""
        cost_metric = builder.metric(metric, unit=unit)
        alloc_metric = None
        if any(f.alloc_bytes for f in self._functions.values()):
            alloc_metric = builder.metric("alloc_bytes", unit="bytes")
            inuse_metric = builder.metric("inuse_bytes", unit="bytes")

        # Iterative expansion as an enter/exit depth-first walk.  The call
        # path and per-name cycle counters are *shared* mutable state,
        # pushed on enter and popped on exit — copying them per expansion
        # (the old tuple-of-frames approach) cost O(depth) per node, which
        # made deliberately deep shapes (10k-frame chains) quadratic.
        entry = self.function(self.entry)
        path: List[Frame] = []
        cycles: Dict[str, int] = {}
        #: (func, occurrence count, entering?); exits restore shared state.
        stack: List[Tuple[Func, float, bool]] = [(entry, 1.0, True)]
        while stack:
            func, count, entering = stack.pop()
            if not entering:
                path.pop()
                cycles[func.name] -= 1
                continue
            path.append(func.frame())
            cycles[func.name] = cycles.get(func.name, 0) + 1
            stack.append((func, count, False))
            if func.self_cost or (func.alloc_bytes
                                  and alloc_metric is not None):
                path_key = "/".join(f.name for f in path)
                scale = count * self._path_jitter(path_key)
                if func.self_cost:
                    builder.sample(path,
                                   {cost_metric: func.self_cost * scale})
                if func.alloc_bytes and alloc_metric is not None:
                    object_name = func.alloc_object or ("obj@%s" % func.name)
                    builder.allocation(object_name, path, {
                        alloc_metric: func.alloc_bytes * scale})
                    for sequence in range(1, snapshots + 1):
                        decay = 1.0
                        if snapshot_decay and func.name in snapshot_decay:
                            series = snapshot_decay[func.name]
                            decay = series[min(sequence - 1,
                                               len(series) - 1)]
                        builder.snapshot(sequence, path, {
                            inuse_metric: func.alloc_bytes * scale * decay})
            for callee_edge in reversed(func.callees):
                callee = self.function(callee_edge.target)
                if cycles.get(callee.name, 0) >= max_cycle_depth:
                    continue
                stack.append((callee, count * callee_edge.calls, True))


def add_reuse_pairs(builder: ProfileBuilder,
                    pairs: Sequence[Tuple[Sequence, Sequence, Sequence, float]],
                    metric: str = "accesses") -> None:
    """Record use/reuse monitoring points on a profile being built.

    Each entry is ``(alloc_stack, use_stack, reuse_stack, count)`` with
    stacks as builder frame specs (root first).
    """
    index = builder.metric(metric, unit="count")
    for alloc_stack, use_stack, reuse_stack, count in pairs:
        builder.pair_point(PointKind.USE_REUSE,
                           [alloc_stack, use_stack, reuse_stack],
                           {index: count})
