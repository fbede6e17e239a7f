"""The equivalence gate: every driver against the single-domain reference.

The paper's claim is that the decomposed cluster computes what one
node computes.  :data:`ROWS` checks it as one case table.  A row is a
driver (the single solver, a serial or process-backed cluster, the
SPMD rank program), a node (CPU under the default kernel rule, CPU
``split``, simulated GPU), a problem (shape, faces: periodic, bounded
with the inlet/outflow pair, or mixed, and any body force), an
arrangement and cuts, and an observer (none, tracing, telemetry, the
watchdog).  The configurations are the benchmark workloads at toy
scale, on the voxelized city mask.

Every row starts from one seeded state of its problem and must equal
the reference after *every* step, a reconstructed gather at odd
parity included.  The reference is built once per problem: the
``split`` single solver, or a one-rank ``split`` cluster for mixed
faces (a single solver has one periodic flag).  Each row then reads
its properties off the driver: the resolved kernel and its ``rule:``
reason, ``stacked``, one distribution array (or an untouched spare
shared buffer), the SPMD per-channel message count against the route
table, one trace track per rank and a valid Chrome export,
``steps.total``, heartbeats and valid JSONL snapshots, and no
leaked segment or orphaned worker once a processes row is closed.  A
simulated-GPU row also steps a serial twin whose ranks run the
per-pass engine (the path without a compiler) and must match it after
every step in every texel, ghost rims included, and every charge.

``python -m repro check [SLICE ...]`` runs the rows in any named slice
(a driver, node, faces, cuts, observer or workload name; see
:data:`SLICES`), or all of them.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Steps every row takes: two AA pairs, so both parities are compared.
STEPS = 4
#: A disabled recorder's per-call budget for its region entry points
#: (``phase``, ``add_span``) and its record entry points (``metric``,
#: ``alloc``), microseconds.
REGION_BUDGET_US = 25.0
RECORD_BUDGET_US = 1.0
#: The watchdog row's stall threshold and how long it waits for the flag.
STALL_S = 0.4
DETECT_S = 20.0

MIXED = (True, False, True)
INLET_Y = (1, "low", (0.0, 0.04, 0.0), 1.0)
OUTFLOW_Y = (1, "high")


@lru_cache(maxsize=None)
def _scenario(shape):
    """The dispersion scenario at the workloads' toy resolution."""
    from repro.urban import DispersionScenario
    return DispersionScenario(shape, resolution_m=76.0)


@dataclass(frozen=True)
class Problem:
    """One global problem on the city mask: ``faces`` is
    ``"periodic"``, ``"bounded"`` (every face closed, the dispersion
    scenario's inlet/outflow pair on x) or ``"mixed"`` (x and z
    periodic, y bounded with an inlet/outflow pair on y), with an
    optional constant body ``force``."""

    shape: tuple
    tau: float
    faces: str
    force: tuple | None = None

    @property
    def solid(self) -> np.ndarray:
        return _scenario(self.shape).solid

    @property
    def periodic(self) -> tuple:
        return {"periodic": (True,) * 3, "bounded": (False,) * 3,
                "mixed": MIXED}[self.faces]

    @property
    def pair(self) -> dict:
        if self.faces == "bounded":
            scenario = _scenario(self.shape)
            return {"inlet": scenario.inlet, "outflow": scenario.outflow}
        if self.faces == "mixed":
            return {"inlet": INLET_Y, "outflow": OUTFLOW_Y}
        return {"inlet": None, "outflow": None}

    def solver(self, **kwargs):
        """The single-domain solver, built as
        ``DispersionScenario.make_single_solver`` builds it."""
        from repro.core.cpu_node import rank_boundaries
        from repro.lbm.solver import LBMSolver
        return LBMSolver(self.shape, self.tau, solid=self.solid,
                         boundaries=rank_boundaries(**self.pair),
                         periodic=self.faces == "periodic",
                         force=self.force, **kwargs)


CITY = Problem((24, 20, 8), 0.55, "bounded")
TORUS = Problem((16, 16, 8), 0.6, "periodic")
PAIR = Problem((16, 8, 8), 0.6, "periodic")
MIXED_CITY = Problem((24, 20, 8), 0.55, "mixed")
FORCED_CITY = Problem((24, 20, 8), 0.55, "bounded", (2e-5, 0.0, 0.0))
UNEVEN = ((10, 14), (8, 12), (8,))


@dataclass(frozen=True)
class Row:
    """One case: ``name`` is the workload it stands for (or a label),
    ``driver`` one of ``single``/``serial``/``processes``/``spmd`` (or
    ``budget``: the disabled recorder's costs)."""

    name: str
    driver: str
    problem: Problem | None = None
    node: str = "cpu"
    arrangement: tuple = (1, 1, 1)
    cuts: tuple | None = None
    observer: str | None = None

    @property
    def slices(self) -> set:
        if self.problem is None:
            return {self.name, self.driver}
        return {self.name, self.driver, self.node, self.problem.faces,
                "uneven" if self.cuts else "uniform", self.observer} - {None}

    def __str__(self) -> str:
        if self.problem is None:
            return self.name
        parts = [self.name, self.driver, self.node, self.problem.faces,
                 "x".join(map(str, self.arrangement))]
        return " ".join(parts + sorted(self.slices & {"uneven", self.observer}))


ROWS = (
    Row("city_single", "single", CITY),
    Row("city_procs", "processes", CITY, arrangement=(2, 1, 1)),
    Row("gpu_city", "serial", CITY, "gpu", (2, 2, 1)),
    Row("city", "serial", CITY, "split", (2, 2, 1), observer="telemetry"),
    Row("city", "serial", CITY, arrangement=(2, 2, 1), cuts=UNEVEN,
        observer="trace"),
    Row("city", "spmd", CITY, arrangement=(2, 1, 1)),
    Row("strong_serial", "serial", TORUS, arrangement=(4, 4, 2)),
    Row("torus", "single", TORUS),
    Row("torus", "serial", TORUS, "gpu", (2, 2, 1)),
    Row("spmd_pair", "spmd", PAIR, arrangement=(2, 1, 1)),
    Row("mixed", "serial", MIXED_CITY, arrangement=(2, 2, 1)),
    Row("mixed", "serial", MIXED_CITY, "gpu", (2, 2, 1)),
    Row("mixed", "processes", MIXED_CITY, arrangement=(2, 2, 1),
        observer="trace"),
    Row("mixed", "spmd", MIXED_CITY, arrangement=(2, 2, 1)),
    Row("forced", "serial", FORCED_CITY, arrangement=(2, 2, 1)),
    Row("forced", "serial", FORCED_CITY, "gpu", (2, 2, 1)),
    Row("forced", "processes", FORCED_CITY, arrangement=(2, 1, 1),
        observer="telemetry"),
    Row("watchdog", "processes", TORUS, arrangement=(2, 1, 1),
        observer="watchdog"),
    Row("budget", "budget"),
)
SLICES = frozenset().union(*(row.slices for row in ROWS))


@lru_cache(maxsize=None)
def reference(problem: Problem) -> tuple[np.ndarray, list]:
    """The problem's seeded initial state and the reference's
    distributions after each of :data:`STEPS` steps."""
    from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
    shape = problem.shape
    u = (0.02 * np.random.default_rng(11).standard_normal((3,) + shape)
         ).astype(np.float32)
    u[:, problem.solid] = 0
    ref = problem.solver(kernel="split")
    ref.initialize(rho=np.ones(shape, np.float32), u=u)
    f0 = ref.f.copy()
    if problem.faces == "mixed":
        ref = CPUClusterLBM(ClusterConfig(
            sub_shape=shape, arrangement=(1, 1, 1), tau=problem.tau,
            periodic=problem.periodic, solid=problem.solid, kernel="split",
            **problem.pair))
        ref.load_global_distributions(f0)
    state = getattr(ref, "gather_distributions", lambda: ref.f)
    want = []
    for _ in range(STEPS):
        ref.step(1)
        want.append(state().copy())
    for f in (f0, *want):           # shared by every row of the problem
        f.setflags(write=False)
    return f0, want


def route_messages(decomp) -> int:
    """Messages per exchange the decomposition's route tables imply:
    one per distinct neighbor per axis phase (a periodic extent-2 axis
    has one both-sides message; self-wraps and zero-gradient edges are
    local)."""
    from repro.core.exchange import build_routes
    return sum(len(route.sends)
               for rank in range(decomp.n_nodes)
               for route in build_routes(decomp.neighbors(rank),
                                         decomp.periodic))


def _single(row: Row) -> str:
    f0, want = reference(row.problem)
    solver = row.problem.solver()      # no kernel named: the rule picks
    solver.load_distributions(f0)
    for t, f in enumerate(want, 1):
        solver.step(1)
        assert solver.kernel_used == "aa", solver.kernel_reason
        assert np.array_equal(solver.f, f), f"diverged at step {t}"
    assert solver._fg_next_buf is None, "a second distribution array"
    return f"aa ({solver.kernel_reason})"


def _spmd(row: Row) -> str:
    from repro.core.decomposition import BlockDecomposition
    from repro.core.spmd import SPMDClusterLBM
    from repro.net.simmpi import SimCluster
    from repro.perf.recorder import Tracer
    prob = row.problem
    f0, want = reference(prob)
    decomp = BlockDecomposition(prob.shape, row.arrangement,
                                periodic=prob.periodic)
    spmd = SPMDClusterLBM(decomp, tau=prob.tau, solid=prob.solid, f0=f0,
                          **prob.pair)
    for t, f in enumerate(want, 1):     # each run restarts from f0
        tracer = Tracer()
        got, _ = spmd.run(t, SimCluster(decomp.n_nodes, recorder=tracer))
        assert np.array_equal(got, f), f"diverged at step {t}"
    channels = Counter((e.meta["src"], e.meta["dst"], e.meta["tag"])
                       for e in tracer.events if e.name == "mpi.msg")
    want_channels = route_messages(decomp)
    assert (len(channels) == want_channels
            and set(channels.values()) == {STEPS}), (
        f"expected {want_channels} channels with one message per step, "
        f"traced {dict(channels)}")
    return f"{want_channels} messages/step, one per channel"


def _trace(cluster):
    tracer = cluster.enable_tracing()

    def check() -> str:
        from repro.perf.recorder import validate_chrome
        seen = {e.rank for e in tracer.events if e.rank >= 0}
        assert seen == set(range(cluster.decomp.n_nodes)), (
            f"trace tracks for ranks {sorted(seen)}")
        return f"{validate_chrome(tracer.to_chrome())} spans"
    return check


def _telemetry(cluster):
    from repro.perf.telemetry import validate_snapshot
    tmp = tempfile.TemporaryDirectory()
    path = os.path.join(tmp.name, "telemetry.jsonl")
    session = cluster.enable_telemetry(jsonl_path=path)

    def check() -> str:
        counters = session.snapshot()["metrics"]["counters"]
        total = int(sum(counters["steps.total"].values()))
        assert total == STEPS, f"steps.total {total}"
        seen = {r.rank for r in session.check_health().rows
                if r.status != "unknown"}
        assert seen == set(range(cluster.decomp.n_nodes)), (
            f"heartbeats from ranks {sorted(seen)}")
        session.close()
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        tmp.cleanup()
        assert lines, "no JSONL snapshots"
        instruments = [validate_snapshot(line) for line in lines]
        return f"{instruments[-1]} instruments, {len(lines)} snapshots"
    return check


def _watchdog(cluster):
    session = cluster.enable_telemetry(stall_timeout_s=STALL_S)

    def check() -> str:
        final = session.check_health()
        assert final.worst == "ok", final.summary()
        return "stalled rank 0 flagged, recovered"
    return check


def _stalled_step(cluster) -> None:
    """Step once with rank 0's worker SIGSTOPped: the watchdog must
    flag it ``stalled`` while the step is outstanding, and the step
    must complete once the worker resumes."""
    session = cluster.telemetry
    victim = cluster._proc_backend.worker_pids()[0]
    thread = threading.Thread(target=cluster.step, daemon=True)
    os.kill(victim, signal.SIGSTOP)
    try:
        thread.start()
        deadline = time.perf_counter() + DETECT_S
        while session.check_health().rows[0].status != "stalled":
            assert time.perf_counter() < deadline, (
                "watchdog never flagged the SIGSTOPped worker as stalled")
            time.sleep(0.05)
    finally:
        os.kill(victim, signal.SIGCONT)
    thread.join(timeout=30.0)
    assert not thread.is_alive(), "stalled step never completed"


def _per_pass_twin(cfg):
    """A GPU cluster of ``cfg`` whose ranks render every pass
    through the per-pass engine (``run_pass`` and the numpy bodies,
    charged pass by pass: the path without a compiler), so a GPU row
    also pins the compiled step's rims and charges."""
    from repro.core.cluster_lbm import GPUClusterLBM
    twin = GPUClusterLBM(cfg)
    for node in twin.nodes:
        node.solver._lib = None
    return twin


def _same_ranks(nodes, twins, t) -> None:
    """Every texel (rims included) and device charge of each rank."""
    for node, other in zip(nodes, twins):
        a, b = node.solver, other.solver
        for (name, x), y in zip(a.bindings().items(), b.bindings().values()):
            assert np.array_equal(x.data.view(np.uint32), y.data.view(np.uint32)), (
                f"rank {node.rank} texture {name} differs from the per-pass "
                f"engine's at step {t}")
        assert (node.device.clock_s, node.device.pass_seconds,
                node.device.pass_counts) == (other.device.clock_s,
                                             other.device.pass_seconds,
                                             other.device.pass_counts), (
            f"rank {node.rank} charges differ from the per-pass engine's "
            f"at step {t}")


def _cluster(row: Row) -> str:
    from repro.core.cluster_lbm import (ClusterConfig, CPUClusterLBM,
                                        GPUClusterLBM)
    from repro.core.shm import leaked_segments
    prob = row.problem
    f0, want = reference(prob)
    cls = GPUClusterLBM if row.node == "gpu" else CPUClusterLBM
    cfg = ClusterConfig(
        sub_shape=tuple(s // a for s, a in zip(prob.shape, row.arrangement)),
        arrangement=row.arrangement, tau=prob.tau, periodic=prob.periodic,
        solid=prob.solid, force=prob.force, cuts=row.cuts,
        backend=row.driver,
        kernel="split" if row.node == "split" else "auto", **prob.pair)
    procs = row.driver == "processes"
    aa = row.node == "cpu"
    twin = _per_pass_twin(cfg) if row.node == "gpu" else None
    with cls(cfg) as cluster, twin or contextlib.nullcontext():
        reason = cluster.kernel_reason
        assert cluster.resolved_kernel == ("aa" if aa else cfg.kernel), reason
        assert reason.startswith("rule:" if aa else "configured"), reason
        assert cluster.stacked == (aa and not procs), "stacked"
        check = _OBSERVERS[row.observer](cluster) if row.observer else None
        # An AA rank's second shared buffer only stages odd-parity
        # gathers: stepping must leave it as the last gather did.
        segments = cluster._proc_backend.segments if procs and aa else ()
        spare = []
        cluster.load_global_distributions(f0)
        if twin is not None:
            twin.load_global_distributions(f0)
        for t, f in enumerate(want, 1):
            if row.observer == "watchdog" and t == 2:
                _stalled_step(cluster)
            else:
                timing = cluster.step(1)
            if twin is not None:
                assert twin.step(1) == timing, f"step timing at step {t}"
                _same_ranks(cluster.nodes, twin.nodes, t)
            assert all(np.array_equal(seg.fg_bufs[1], s)
                       for seg, s in zip(segments, spare)), (
                f"second shared buffer written during step {t}")
            assert np.array_equal(cluster.gather_distributions(), f), (
                f"diverged at step {t}")
            spare = [seg.fg_bufs[1].copy() for seg in segments]
        ranks = cluster.kernel_report()
        kernel = {"cpu": "aa", "split": "split", "gpu": "gpu"}[row.node]
        assert {r["kernel"] for r in ranks} == {kernel}, ranks
        assert not aa or all(r["reason"].startswith("rule:") for r in ranks)
        assert not aa or procs or all(
            n.solver._fg_next_buf is None for n in cluster.nodes), (
            "a second distribution array")
        detail = check() if check else ""
        pids = cluster._proc_backend.worker_pids() if procs else ()
    if procs:
        assert leaked_segments() == [], "leaked shared-memory segments"
        for pid in pids:
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                continue
            raise AssertionError(f"orphaned worker process {pid}")
    return f"{kernel} ({reason}) {detail}".rstrip()


def _budget(row: Row) -> str:
    from repro.perf.recorder import disabled_overhead_ns
    ns = disabled_overhead_ns()
    for names, budget_us in ((("phase", "add_span"), REGION_BUDGET_US),
                             (("metric", "alloc"), RECORD_BUDGET_US)):
        for name in names:
            assert ns[name] <= budget_us * 1e3, (
                f"disabled {name}() costs {ns[name]:.0f} ns/call, over "
                f"{budget_us * 1e3:.0f} ns")
    return ", ".join(f"{k} {v:.0f} ns" for k, v in ns.items())


_OBSERVERS = {"trace": _trace, "telemetry": _telemetry,
              "watchdog": _watchdog}
_RUN = {"single": _single, "serial": _cluster, "processes": _cluster,
        "spmd": _spmd, "budget": _budget}


def run(slices=(), out=print) -> list[Row]:
    """Run the rows in any of ``slices`` (every row when empty); each
    row's result goes to ``out``.  Raises ``AssertionError`` (naming the
    row) at the first failure; returns the rows run."""
    if not __debug__:
        raise RuntimeError("the checks are assertions: run without -O")
    unknown = set(slices) - SLICES
    if unknown:
        raise ValueError(f"unknown slice(s) {sorted(unknown)}; "
                         f"known: {sorted(SLICES)}")
    rows = [r for r in ROWS if not slices or r.slices & set(slices)]
    for row in rows:
        t0 = time.perf_counter()
        try:
            detail = _RUN[row.driver](row)
        except AssertionError as exc:
            raise AssertionError(f"{row}: {exc}") from None
        out(f"ok  {row}  {time.perf_counter() - t0:.2f} s  {detail}")
    return rows
