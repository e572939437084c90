"""Workload library: synthetic equivalents of the paper's case studies.

Each generator reproduces the *shape* the corresponding section of the
paper relies on:

* :func:`grpc_client_profile` — §VII-C1 / Fig. 4: a Go gRPC benchmark
  client whose HTTP-client creation paths (``bufio.NewReaderSize``,
  ``transport.newBufWriter``) leak, while ``passthrough`` reclaims.
* :func:`lulesh_profile` — §VII-C2 / Fig. 6: LULESH with a ``brk``/libc
  hotspot under many allocation call paths; swapping the allocator model to
  TCMalloc recovers ≈30% of total time.
* :func:`lulesh_reuse_profile` — Fig. 7: DrCCTProf-style use/reuse pairs in
  ``CalcVolumeForceForElems``/``CalcHourglassForceForElems``; fusing the
  flagged loops recovers ≈28%.
* :func:`spark_profile` — Fig. 3: Async-Profiler-style Java stacks for a
  SparkBench run with RDD vs SQL Dataset APIs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.profile import Profile
from .machine import Callee, Func, ProgramMachine, add_reuse_pairs

GO_MOD = "rpcx-benchmark"
GRPC_MOD = "google.golang.org/grpc"
BUFIO_MOD = "bufio"
LIBC = "libc-2.31.so"
LULESH_MOD = "lulesh2.0"
TCMALLOC = "libtcmalloc.so"


def grpc_client_profile(clients: int = 50, snapshots: int = 20,
                        seed: int = 7) -> Profile:
    """Memory profile of the rpcx-benchmark gRPC client with PProf-style
    periodic heap snapshots.

    Two allocation contexts on the client-creation path retain their memory
    across all snapshots (the potential leaks: connections never closed);
    the request-serving ``passthrough`` buffers are reclaimed toward the end
    of the run (healthy).
    """
    leak_profile = [1.0] * snapshots  # continuously high, no reclamation
    grow_profile = [min(1.0, 0.3 + 0.05 * i) for i in range(snapshots)]
    healthy_profile = [max(0.05, 1.0 - 0.09 * i) for i in range(snapshots)]

    functions = [
        Func("main", "client/main.go", 12, GO_MOD,
             callees=[Callee("benchmark.Run")]),
        Func("benchmark.Run", "client/bench.go", 40, GO_MOD, self_cost=5e6,
             callees=[Callee("grpc.Dial", calls=clients),
                      Callee("client.Invoke", calls=clients * 4)]),
        Func("grpc.Dial", "clientconn.go", 104, GRPC_MOD, self_cost=2e6,
             callees=[Callee("transport.newHTTP2Client")]),
        Func("transport.newHTTP2Client", "http2_client.go", 212, GRPC_MOD,
             self_cost=1e6,
             callees=[Callee("bufio.NewReaderSize"),
                      Callee("transport.newBufWriter")]),
        Func("bufio.NewReaderSize", "bufio.go", 60, BUFIO_MOD,
             self_cost=4e5, alloc_bytes=32768,
             alloc_object="bufio.Reader"),
        Func("transport.newBufWriter", "http2_client.go", 380, GRPC_MOD,
             self_cost=3e5, alloc_bytes=65536,
             alloc_object="transport.bufWriter"),
        Func("client.Invoke", "call.go", 35, GRPC_MOD, self_cost=8e5,
             callees=[Callee("codec.Marshal"), Callee("passthrough")]),
        Func("codec.Marshal", "codec.go", 88, GRPC_MOD, self_cost=5e5,
             alloc_bytes=2048, alloc_object="marshalBuf"),
        Func("passthrough", "resolver.go", 21, GRPC_MOD, self_cost=6e5,
             alloc_bytes=16384, alloc_object="passthroughBuf"),
    ]
    machine = ProgramMachine(functions, entry="main", seed=seed,
                             jitter=0.05)
    return machine.run(metric="cpu", tool="pprof", snapshots=snapshots,
                       snapshot_decay={
                           "bufio.NewReaderSize": leak_profile,
                           "transport.newBufWriter": grow_profile,
                           "codec.Marshal": healthy_profile,
                           "passthrough": healthy_profile,
                       })


#: Fraction of total LULESH time the libc allocator (brk et al.) consumes in
#: the paper's measurement; the TCMalloc swap eliminates most of it for the
#: reported ≈30% whole-program speedup.
LULESH_ALLOCATOR_SHARE = 0.33


def lulesh_profile(allocator: str = "libc", scale: int = 8,
                   seed: int = 11) -> Profile:
    """CPU-time profile of a LULESH-like run (HPCToolkit-style).

    With ``allocator="libc"``, memory management (``malloc``/``free`` →
    ``brk``) is the dominant leaf across several call paths, exactly the
    Fig. 6 picture.  With ``allocator="tcmalloc"``, the allocator leaf
    costs shrink to ~10% of their libc values, modeling the TCMalloc swap.
    """
    if allocator not in ("libc", "tcmalloc"):
        raise ValueError("allocator must be 'libc' or 'tcmalloc'")
    cheap = allocator == "tcmalloc"
    alloc_module = TCMALLOC if cheap else LIBC
    alloc_leaf = "tc_alloc" if cheap else "brk"
    # Allocator leaf cost, tuned so libc's brk consumes ≈26% of total time
    # (0.9× of which the TCMalloc model eliminates ⇒ ≈1.3× whole-program
    # speedup, the paper's "30% speedup" observation).
    brk_cost = 1.5e5 * (0.10 if cheap else 1.0)

    functions = [
        Func("main", "lulesh.cc", 2650, LULESH_MOD,
             callees=[Callee("LagrangeLeapFrog", calls=scale)]),
        Func("LagrangeLeapFrog", "lulesh.cc", 2350, LULESH_MOD,
             self_cost=2e5,
             callees=[Callee("LagrangeNodal"),
                      Callee("LagrangeElements")]),
        Func("LagrangeNodal", "lulesh.cc", 1050, LULESH_MOD, self_cost=3e5,
             callees=[Callee("CalcForceForNodes")]),
        Func("CalcForceForNodes", "lulesh.cc", 980, LULESH_MOD,
             self_cost=2e5,
             callees=[Callee("CalcVolumeForceForElems")]),
        Func("CalcVolumeForceForElems", "lulesh.cc", 890, LULESH_MOD,
             self_cost=9e5,
             callees=[Callee("CalcHourglassForceForElems"),
                      Callee("Allocate", calls=3)]),
        Func("CalcHourglassForceForElems", "lulesh.cc", 720, LULESH_MOD,
             self_cost=14e5,
             callees=[Callee("Allocate", calls=4),
                      Callee("Release", calls=4)]),
        Func("LagrangeElements", "lulesh.cc", 1900, LULESH_MOD,
             self_cost=4e5,
             callees=[Callee("CalcLagrangeElements"),
                      Callee("ApplyMaterialPropertiesForElems")]),
        Func("CalcLagrangeElements", "lulesh.cc", 1450, LULESH_MOD,
             self_cost=6e5,
             callees=[Callee("Allocate", calls=2), Callee("Release")]),
        Func("ApplyMaterialPropertiesForElems", "lulesh.cc", 2200,
             LULESH_MOD, self_cost=5e5,
             callees=[Callee("EvalEOSForElems")]),
        Func("EvalEOSForElems", "lulesh.cc", 2050, LULESH_MOD,
             self_cost=5e5,
             callees=[Callee("Allocate", calls=2), Callee("Release")]),
        Func("Allocate", "lulesh.cc", 120, LULESH_MOD, self_cost=5e4,
             callees=[Callee("malloc")]),
        Func("Release", "lulesh.cc", 131, LULESH_MOD, self_cost=3e4,
             callees=[Callee("free")]),
        Func("malloc", "malloc.c", 3060, alloc_module, self_cost=1e5,
             callees=[Callee(alloc_leaf)]),
        Func("free", "malloc.c", 3101, alloc_module, self_cost=8e4,
             callees=[Callee(alloc_leaf)]),
        Func(alloc_leaf, "sbrk.c" if not cheap else "tcmalloc.cc",
             45, alloc_module, self_cost=brk_cost),
    ]
    machine = ProgramMachine(functions, entry="main", seed=seed,
                             jitter=0.03)
    return machine.run(metric="cpu_time", unit="nanoseconds",
                       tool="hpctoolkit")


def lulesh_reuse_profile(scale: int = 4, seed: int = 13) -> Profile:
    """LULESH with DrCCTProf-style use/reuse pairs attached (Fig. 7).

    The dominant pair lives in ``CalcVolumeForceForElems`` →
    ``CalcHourglassForceForElems``: the hourglass-force loop re-reads the
    element arrays the volume-force loop just produced, from sibling call
    sites — the fusable pattern whose optimization the paper credits with a
    28% speedup.
    """
    profile = lulesh_profile(scale=scale, seed=seed)
    base = [("main", "lulesh.cc", 2650, LULESH_MOD),
            ("LagrangeLeapFrog", "lulesh.cc", 2350, LULESH_MOD),
            ("LagrangeNodal", "lulesh.cc", 1050, LULESH_MOD),
            ("CalcForceForNodes", "lulesh.cc", 980, LULESH_MOD)]
    volume = base + [("CalcVolumeForceForElems", "lulesh.cc", 890,
                      LULESH_MOD)]
    hourglass = volume + [("CalcHourglassForceForElems", "lulesh.cc", 720,
                           LULESH_MOD)]
    elements = [("main", "lulesh.cc", 2650, LULESH_MOD),
                ("LagrangeLeapFrog", "lulesh.cc", 2350, LULESH_MOD),
                ("LagrangeElements", "lulesh.cc", 1900, LULESH_MOD),
                ("CalcLagrangeElements", "lulesh.cc", 1450, LULESH_MOD)]
    alloc_dvdx = volume + [("Allocate", "lulesh.cc", 120, LULESH_MOD),
                           ("dvdx[]", "lulesh.cc", 890, LULESH_MOD)]
    alloc_determ = base + [("Allocate", "lulesh.cc", 120, LULESH_MOD),
                           ("determ[]", "lulesh.cc", 980, LULESH_MOD)]
    pairs = [
        # The headline pair: produced in the volume loop, re-read in the
        # hourglass loop — sibling calls under CalcVolumeForceForElems.
        (alloc_dvdx,
         volume + [("IntegrateStressForElems", "lulesh.cc", 850, LULESH_MOD)],
         hourglass + [("CalcFBHourglassForceForElems", "lulesh.cc", 610,
                       LULESH_MOD)],
         48000.0 * scale),
        # A smaller cross-phase reuse (not fusable: different iterations).
        (alloc_determ,
         volume + [("IntegrateStressForElems", "lulesh.cc", 850, LULESH_MOD)],
         elements + [("CalcKinematicsForElems", "lulesh.cc", 1380,
                      LULESH_MOD)],
         9000.0 * scale),
        # Self-reuse inside the hourglass loop (already local).
        (alloc_dvdx,
         hourglass + [("CalcFBHourglassForceForElems", "lulesh.cc", 610,
                       LULESH_MOD)],
         hourglass + [("CalcFBHourglassForceForElems", "lulesh.cc", 612,
                       LULESH_MOD)],
         15000.0 * scale),
    ]
    return add_reuse_pairs(profile, pairs)


#: Fraction of hourglass-loop time the fused variant saves (paper: ≈28%
#: whole-program; our model applies the saving to the fused loops' costs).
LULESH_FUSION_SAVING = 0.55


def lulesh_fused_profile(scale: int = 4, seed: int = 13) -> Profile:
    """LULESH after the loop fusion of §VII-C2 (for before/after benches).

    The fused loop eliminates the redundant traversal in
    ``CalcHourglassForceForElems`` and part of the volume loop's stores.
    """
    profile = lulesh_profile(scale=scale, seed=seed)
    index = profile.schema.index_of("cpu_time")
    # Model the fusion: the fused loop eliminates the hourglass loop's
    # redundant traversal *and* its temporary allocations, so the whole
    # subtree under CalcHourglassForceForElems shrinks; the volume loop
    # loses part of its stores.
    for root in profile.find_by_name("CalcHourglassForceForElems"):
        for node in root.walk():
            node.set_value(index, node.exclusive(index)
                           * (1 - LULESH_FUSION_SAVING))
    for node in profile.find_by_name("CalcVolumeForceForElems"):
        node.set_value(index, node.exclusive(index) * (1 - 0.35))
    return profile


SPARK_MOD = "spark-assembly"
SCALA_MOD = "scala-library"


def spark_profile(api: str = "rdd", scale: int = 6, seed: int = 17
                  ) -> Profile:
    """Async-Profiler-style CPU profile of a SparkBench job (Fig. 3).

    ``api="rdd"`` runs through ``ShuffleMapTask`` with the costly
    iterator/shuffle pipeline; ``api="sql"`` keeps the common executor
    scaffolding but replaces the RDD iterator chain with the (cheaper)
    SQL execution engine and bypasses most of the shuffle.
    """
    if api not in ("rdd", "sql"):
        raise ValueError("api must be 'rdd' or 'sql'")

    common = [
        Func("java.lang.Thread.run", "Thread.java", 748, "rt.jar",
             callees=[Callee("ThreadPoolExecutor$Worker.run")]),
        Func("ThreadPoolExecutor$Worker.run", "ThreadPoolExecutor.java",
             624, "rt.jar",
             callees=[Callee("ThreadPoolExecutor.runWorker")]),
        Func("ThreadPoolExecutor.runWorker", "ThreadPoolExecutor.java",
             1149, "rt.jar",
             callees=[Callee("Executor$TaskRunner.run")]),
        Func("Executor$TaskRunner.run", "Executor.scala", 414, SPARK_MOD,
             self_cost=2e5,
             callees=[Callee("Task.run", calls=scale)]),
        Func("Task.run", "Task.scala", 123, SPARK_MOD, self_cost=1e5,
             callees=[Callee("ShuffleMapTask.runTask")]),
    ]
    if api == "rdd":
        variant = [
            Func("ShuffleMapTask.runTask", "ShuffleMapTask.scala", 99,
                 SPARK_MOD, self_cost=2e5,
                 callees=[Callee("RDD.iterator", calls=2),
                          Callee("BypassMergeSortShuffleWriter.write")]),
            Func("RDD.iterator", "RDD.scala", 288, SPARK_MOD, self_cost=3e5,
                 callees=[Callee("MapPartitionsRDD.compute")]),
            Func("MapPartitionsRDD.compute", "MapPartitionsRDD.scala", 52,
                 SPARK_MOD, self_cost=4e5,
                 callees=[Callee("Iterator$$anon$11.next", calls=3)]),
            Func("Iterator$$anon$11.next", "Iterator.scala", 410, SCALA_MOD,
                 self_cost=5e5,
                 callees=[Callee("CartesianRDD.compute")]),
            Func("CartesianRDD.compute", "CartesianRDD.scala", 75,
                 SPARK_MOD, self_cost=5e5),
            Func("BypassMergeSortShuffleWriter.write",
                 "BypassMergeSortShuffleWriter.java", 205, SPARK_MOD,
                 self_cost=16e5,
                 callees=[Callee("DiskBlockObjectWriter.write", calls=2)]),
            Func("DiskBlockObjectWriter.write",
                 "DiskBlockObjectWriter.scala", 248, SPARK_MOD,
                 self_cost=8e5),
        ]
    else:
        variant = [
            Func("ShuffleMapTask.runTask", "ShuffleMapTask.scala", 99,
                 SPARK_MOD, self_cost=2e5,
                 callees=[Callee("WholeStageCodegenExec.doExecute"),
                          Callee("UnsafeShuffleWriter.write")]),
            Func("WholeStageCodegenExec.doExecute",
                 "WholeStageCodegenExec.scala", 608, SPARK_MOD,
                 self_cost=5e5,
                 callees=[Callee("GeneratedIterator.processNext", calls=3)]),
            Func("GeneratedIterator.processNext", "generated.java", 41,
                 SPARK_MOD, self_cost=9e5,
                 callees=[Callee("UnsafeRow.write")]),
            Func("UnsafeRow.write", "UnsafeRow.java", 183, SPARK_MOD,
                 self_cost=3e5),
            Func("UnsafeShuffleWriter.write", "UnsafeShuffleWriter.java",
                 175, SPARK_MOD, self_cost=9e5),
        ]
    machine = ProgramMachine(common + variant,
                             entry="java.lang.Thread.run", seed=seed,
                             jitter=0.04)
    profile = machine.run(metric="cpu", unit="nanoseconds",
                          tool="async-profiler")
    profile.meta.attributes["api"] = api
    return profile


def redundancy_workload(scale: int = 4, seed: int = 23) -> Profile:
    """A RedSpy/Witch-style redundancy profile (§IV-A pairs).

    The shape is the classic dead-store pattern: an initialization loop
    zeroes a matrix that the compute loop immediately overwrites (a
    cross-function dead/killing pair whose fix hoists to their common
    caller), plus an intra-function pair where a temporary is written
    twice on the same path.
    """
    from ..builder.builder import _coerce_frame
    from ..core.monitor import MonitoringPoint, PointKind

    functions = [
        Func("main", "solver.c", 10, "solver",
             callees=[Callee("iterate", calls=scale)]),
        Func("iterate", "solver.c", 40, "solver", self_cost=2e5,
             callees=[Callee("init_matrix"), Callee("compute_matrix")]),
        Func("init_matrix", "solver.c", 80, "solver", self_cost=6e5),
        Func("compute_matrix", "solver.c", 120, "solver", self_cost=18e5,
             callees=[Callee("update_cell", calls=4)]),
        Func("update_cell", "solver.c", 160, "solver", self_cost=3e5),
    ]
    machine = ProgramMachine(functions, entry="main", seed=seed,
                             jitter=0.02)
    profile = machine.run(metric="stores", unit="count", tool="redspy")

    ops = profile.schema.get("redundant_ops")
    if ops is None:
        from ..core.metric import Metric
        ops = profile.add_metric(Metric("redundant_ops", unit="count"))

    base = [("main", "solver.c", 10, "solver"),
            ("iterate", "solver.c", 40, "solver")]
    init = base + [("init_matrix", "solver.c", 80, "solver")]
    compute = base + [("compute_matrix", "solver.c", 120, "solver")]
    cell_a = compute + [("update_cell", "solver.c", 160, "solver")]

    def ctx(stack):
        return profile.cct.add_path([_coerce_frame(s) for s in stack])

    # Cross-function: the zeroing stores die in the compute loop.
    profile.add_point(MonitoringPoint(
        kind=PointKind.REDUNDANCY,
        contexts=[ctx(init), ctx(compute)],
        values={ops: 90_000.0 * scale}))
    # Intra-function: update_cell writes the same cell twice.
    profile.add_point(MonitoringPoint(
        kind=PointKind.REDUNDANCY,
        contexts=[ctx(cell_a), ctx(cell_a)],
        values={ops: 12_000.0 * scale}))
    return profile


def false_sharing_workload(threads: int = 2, scale: int = 4,
                           seed: int = 29) -> Profile:
    """A Cheetah/Featherlight-style contention profile (§IV-A pairs).

    Two worker threads increment adjacent counters in one ``stats``
    struct: their accesses ping-pong the cache line (false sharing on the
    named object), and an unsynchronized flag update forms a data race.
    """
    from ..builder.builder import _coerce_frame
    from ..core.frame import FrameKind, intern_frame
    from ..core.metric import Metric
    from ..core.monitor import MonitoringPoint, PointKind

    functions = [
        Func("main", "server.c", 5, "server",
             callees=[Callee("worker_loop", calls=threads)]),
        Func("worker_loop", "server.c", 30, "server", self_cost=4e5,
             callees=[Callee("bump_counter", calls=8 * scale),
                      Callee("set_flag")]),
        Func("bump_counter", "server.c", 60, "server", self_cost=1e5),
        Func("set_flag", "server.c", 90, "server", self_cost=2e4),
    ]
    machine = ProgramMachine(functions, entry="main", seed=seed)
    profile = machine.run(metric="cpu", unit="nanoseconds",
                          tool="featherlight")
    events = profile.add_metric(Metric("pingpongs", unit="count"))

    def access(thread, fn, line):
        stack = [
            intern_frame("main", "server.c", 5, "server"),
            intern_frame("thread-%d" % thread, kind=FrameKind.THREAD),
            intern_frame("stats", "server.c", 12, "server",
                         kind=FrameKind.DATA_OBJECT),
            intern_frame(fn, "server.c", line, "server"),
        ]
        return profile.cct.add_path(stack)

    # False sharing: each thread's counter bumps hit one cache line.
    profile.add_point(MonitoringPoint(
        kind=PointKind.FALSE_SHARING,
        contexts=[access(0, "bump_counter", 61),
                  access(1, "bump_counter", 62)],
        values={events: 50_000.0 * scale}))
    # A smaller ping-pong on the flag field.
    profile.add_point(MonitoringPoint(
        kind=PointKind.FALSE_SHARING,
        contexts=[access(0, "set_flag", 91),
                  access(1, "bump_counter", 62)],
        values={events: 4_000.0 * scale}))
    # And a genuine race on the flag.
    profile.add_point(MonitoringPoint(
        kind=PointKind.DATA_RACE,
        contexts=[access(0, "set_flag", 91), access(1, "set_flag", 91)],
        values={events: 700.0 * scale}))
    return profile


def scaling_workload(ranks: int, seed: int = 31) -> Profile:
    """An MPI-style memory profile at a given rank count (ScaAnalyzer).

    Per-rank memory for one rank's profile: the halo-exchange buffers grow
    with the rank count (the classic memory-scaling loss — each rank keeps
    a buffer per peer), a replicated lookup table is constant, and the
    domain arrays *shrink* as the domain is partitioned finer.
    """
    if ranks < 1:
        raise ValueError("ranks must be positive")
    functions = [
        Func("main", "mpi_app.c", 8, "mpi_app",
             callees=[Callee("setup"), Callee("exchange_halos"),
                      Callee("solve")]),
        Func("setup", "mpi_app.c", 30, "mpi_app", self_cost=1e5,
             # Replicated table: constant per rank regardless of scale.
             alloc_bytes=4 * 1024 * 1024, alloc_object="lookup_table"),
        Func("exchange_halos", "mpi_app.c", 70, "mpi_app", self_cost=2e5,
             # One buffer per peer: grows linearly with ranks.
             alloc_bytes=64 * 1024 * ranks, alloc_object="halo_buffers"),
        Func("solve", "mpi_app.c", 120, "mpi_app", self_cost=8e5,
             # Partitioned domain: shrinks as ranks grow.
             alloc_bytes=max(256 * 1024 * 1024 // ranks, 1),
             alloc_object="domain_arrays"),
    ]
    machine = ProgramMachine(functions, entry="main", seed=seed)
    profile = machine.run(metric="cpu", unit="nanoseconds",
                          tool="scaanalyzer")
    profile.meta.attributes["ranks"] = str(ranks)
    # Fold allocation points into per-node alloc_bytes metrics for the
    # scaling comparison (live-bytes semantics, one value per run).
    from ..core.monitor import PointKind
    index = profile.schema.index_of("alloc_bytes")
    for point in profile.points_of_kind(PointKind.ALLOCATION):
        point.primary().add_value(index, point.value(index))
    return profile


def go_service_profile(requests: int = 200, seed: int = 37) -> Profile:
    """A Go-service CPU profile with the three Task II inefficiencies.

    §VII-D's Task II asks analysts to find hot memory allocation, garbage
    collection, and lock wait, *and where they are called from* — the
    bottom-up use case.  This workload plants all three with distinct
    caller sets: ``runtime.mallocgc`` called from two request handlers,
    ``runtime.gcBgMarkWorker`` driven by the allocation volume, and
    ``sync.(*Mutex).Lock`` contended from the session-store paths.
    """
    rt = "runtime"
    svc = "api-server"
    functions = [
        Func("main", "main.go", 10, svc,
             callees=[Callee("http.Serve")]),
        Func("http.Serve", "server.go", 30, svc, self_cost=2e5,
             callees=[Callee("handleUpload", calls=requests // 2),
                      Callee("handleQuery", calls=requests),
                      Callee("runtime.gcBgMarkWorker", calls=8)]),
        Func("handleUpload", "upload.go", 44, svc, self_cost=3e5,
             callees=[Callee("decodeBody"),
                      Callee("sessionStore.Put")]),
        Func("handleQuery", "query.go", 61, svc, self_cost=2e5,
             callees=[Callee("renderRows"),
                      Callee("sessionStore.Get")]),
        Func("decodeBody", "upload.go", 88, svc, self_cost=1e5,
             callees=[Callee("runtime.mallocgc", calls=3)]),
        Func("renderRows", "query.go", 99, svc, self_cost=2e5,
             callees=[Callee("runtime.mallocgc", calls=2)]),
        Func("sessionStore.Put", "store.go", 25, svc, self_cost=5e4,
             callees=[Callee("sync.(*Mutex).Lock")]),
        Func("sessionStore.Get", "store.go", 40, svc, self_cost=5e4,
             callees=[Callee("sync.(*Mutex).Lock")]),
        Func("runtime.mallocgc", "malloc.go", 900, rt, self_cost=2.5e5),
        Func("runtime.gcBgMarkWorker", "mgc.go", 1200, rt, self_cost=9e5),
        Func("sync.(*Mutex).Lock", "mutex.go", 72, rt, self_cost=1.8e5),
    ]
    machine = ProgramMachine(functions, entry="main", seed=seed,
                             jitter=0.04)
    profile = machine.run(metric="cpu", unit="nanoseconds", tool="pprof")
    # Companion metrics the real pprof would report separately.
    from ..core.metric import Metric
    alloc = profile.add_metric(Metric("alloc_ops", unit="count"))
    lock = profile.add_metric(Metric("lock_wait", unit="nanoseconds"))
    cpu = profile.schema.index_of("cpu")
    for node in profile.find_by_name("runtime.mallocgc"):
        node.add_value(alloc, node.exclusive(cpu) / 250.0)
    for node in profile.find_by_name("sync.(*Mutex).Lock"):
        node.add_value(lock, node.exclusive(cpu) * 3.0)
    profile.cct.clear_inclusive_cache()
    return profile


def deep_path_profile(depth: int = 10000, fanout_every: int = 500,
                      seed: int = 41) -> Profile:
    """A deliberately deep profile: one ``depth``-frame call chain.

    Real async/actor runtimes and instrumented interpreters routinely
    produce stacks thousands of frames deep; any recursive walk over the
    CCT dies on them long before the paper's large-profile tiers do.  This
    shape is the stress fixture for that audit: a single linear chain of
    ``depth`` frames (every ``fanout_every``-th frame also carries a tiny
    side branch and a bit of exclusive cost, so traversals, aggregation,
    and diffs all see interior structure, not just one path).
    """
    functions: List[Func] = []
    for index in range(depth):
        callees = []
        if index + 1 < depth:
            callees.append(Callee("f%d" % (index + 1)))
        side_cost = 0.0
        if fanout_every and index % fanout_every == 0:
            callees.append(Callee("side%d" % index))
            functions.append(Func("side%d" % index, "deep.py",
                                  5 * index + 3, "deepmod",
                                  self_cost=7.0))
            side_cost = 3.0
        functions.append(Func("f%d" % index, "deep.py", 5 * index + 1,
                              "deepmod",
                              self_cost=side_cost if callees else 11.0,
                              callees=callees))
    machine = ProgramMachine(functions, entry="f0", seed=seed,
                             recursion_limit=depth + 1)
    return machine.run(metric="cpu", unit="nanoseconds", tool="deepgen")


def checkout_service_profile(slow: bool = False, scale: int = 20,
                             seed: int = 43) -> Profile:
    """A small web-service request profile for the continuous loop.

    The shape is one request handler fanning into three phases —
    ``parse_payload``, ``db_query``, ``render`` — whose costs are
    deterministic per seed.  With ``slow=True`` the payload parser's
    exclusive cost quadruples (a "someone swapped in a pure-Python JSON
    decoder" regression): exactly one frame moves, which is what the
    regression watch's self-delta attribution must pin — the report has
    to rank ``parse_payload`` first, not its ancestors, whose inclusive
    time grows just as much.
    """
    svc = "checkout"
    parse_cost = 2e5 * (4.0 if slow else 1.0)
    functions = [
        Func("main", "checkout/main.py", 8, svc,
             callees=[Callee("handle_request", calls=scale)]),
        Func("handle_request", "checkout/handler.py", 21, svc,
             self_cost=5e4,
             callees=[Callee("parse_payload"), Callee("db_query"),
                      Callee("render")]),
        Func("parse_payload", "checkout/codec.py", 44, svc,
             self_cost=parse_cost),
        Func("db_query", "checkout/db.py", 67, svc, self_cost=3e5,
             callees=[Callee("pool_acquire")]),
        Func("pool_acquire", "checkout/db.py", 112, svc, self_cost=8e4),
        Func("render", "checkout/render.py", 30, svc, self_cost=1.5e5),
    ]
    # Small deterministic jitter: distinct seeds yield distinct captures
    # (so a capture stream survives collector dedup), same seed yields
    # byte-identical ones (so no-change windows diff to exactly zero).
    machine = ProgramMachine(functions, entry="main", seed=seed,
                             jitter=0.02)
    return machine.run(metric="cpu", unit="nanoseconds", tool="easyview")


#: Workload builders addressable by name — the capture agent's
#: ``--scenario`` flag and :class:`repro.continuous.MachineSource` resolve
#: through this table, so a new workload becomes a shippable capture
#: source by adding one entry.
SCENARIOS = {
    "grpc-client": grpc_client_profile,
    "lulesh": lulesh_profile,
    "lulesh-reuse": lulesh_reuse_profile,
    "spark": spark_profile,
    "go-service": go_service_profile,
    "checkout": checkout_service_profile,
}
