"""The six workloads: each is a *problem*, never a tuning knob.

A workload builds its inputs from the seed, hands the program only the
generated arrays, and drives it through public entry points with
default settings — no ``wire``, ``kernel``, ``layout``, ``autotune``,
``sparse_threshold``, ``max_workers``, ``overlap``, ``compression``,
``decomposition`` or ``cuts`` is ever passed, so a later change that
deletes or re-defaults one of them is measured, not broken.

Every class offers the same small surface to ``run.py``:

``setup()``     build problem + driver + first operation; returns the
                named parts whose sum is one set-up sample
``op()``        one closed-loop operation (``step(1)``; ``run(10)`` for
                SPMD; one model sweep for ``paper_model``)
``verify()``    max |f - f_ref| after the 8-step verification prefix
``finite()``    no NaN/Inf in the current state
``sim()``       exact simulated statistics and counts
``layers()``    host-time per-layer metrics of a traced pass
``teardown()``  release workers and shared memory
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core import (BlockDecomposition, ClusterConfig, CPUClusterLBM,
                        SPMDClusterLBM)
from repro.lbm import LBMSolver
from repro.net.simmpi import SimCluster
from repro.perf import Tracer
from repro.perf.model import (PAPER_TABLE1, strong_scaling_rows, table1_rows,
                              table2_rows)
from repro.urban import DispersionScenario, times_square_like

from spans import SpanRecorder, layer_budget

VERIFY_STEPS = 8
GOLDEN_SEED = 7
GOLDEN_TOLERANCE = 1e-6
GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "city_single.json"
#: Traced steps a spannable workload records at least (ISSUE: >= 30).
MIN_TRACED_STEPS = 30
BLOCK = 10

#: Computed — not measured — main-memory bytes per cell update of each
#: reference-solver hot path (float32 D3Q19: one pass over the
#: distributions moves 19 x 4 = 76 B per cell).  Write-allocate
#: traffic, the rho/u/feq temporaries and the solid mask are left out,
#: so these are lower bounds on what the hardware moves.
#:   split  collide reads and rewrites f in place (2 x 76), then stream
#:          reads f and writes the back buffer (2 x 76)
#:   fused  one sweep reads f and writes the back buffer (2 x 76)
#:   aa     one in-place sweep reads and rewrites the single array
BYTES_PER_CELL = {"split": 4 * 76, "fused": 2 * 76, "aa": 2 * 76}

CPU_LAYERS = {
    "solver.collide": "lbm.collide_ms",
    "solver.collide_inner": "lbm.collide_ms",
    "solver.collide_boundary": "lbm.collide_boundary_ms",
    "solver.stream": "lbm.stream_ms",
    "solver.post_stream": "lbm.boundary_ms",
    "solver.pre_stream": "lbm.boundary_ms",
    "solver.fill_ghosts": "lbm.boundary_ms",
    "kernel.relax_stream": "lbm.sweep_ms",
    "kernel.step_once": "lbm.sweep_ms",
    "node.read_packed": "wire.pack",
    "node.write_packed": "wire.unpack",
    "node.fill_ghost_zero_gradient": "halo.fill",
    "switch.phase_time": "net.switch.host_ms",
}
GPU_LAYERS = {
    "node.collide_phase": "gpu.collide_ms",
    "node.collide_boundary_phase": "gpu.collide_ms",
    "node.collide_inner_phase": "gpu.collide_ms",
    "node.finish_step": "gpu.stream_ms",
    "node.read_packed": "gpu.transfer_ms",
    "node.write_packed": "gpu.transfer_ms",
    "node.fill_ghost_zero_gradient": "gpu.transfer_ms",
    "switch.phase_time": "net.switch.host_ms",
}
LBM_LAYERS = ("lbm.collide_ms", "lbm.collide_boundary_ms", "lbm.stream_ms",
              "lbm.boundary_ms", "lbm.sweep_ms")


def build_city(w) -> float:
    """Seeded city scenario at the workload's (or its toy) size, voxelized.

    Sets ``w.scenario``; returns the seconds generation + voxelizing took.
    """
    shape, res = ((w.toy_shape, w.toy_resolution_m) if w.toy
                  else (w.shape, w.resolution_m))
    t0 = time.perf_counter()
    w.scenario = DispersionScenario(shape, resolution_m=res, tau=0.55,
                                    city=times_square_like(seed=w.seed))
    w.scenario.solid
    return time.perf_counter() - t0


def perturbed_rest_state(seed: int, shape, tau: float):
    """Reference solver holding equilibrium at rho=1, u ~ N(0, 0.02)."""
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 0.02, (3,) + tuple(shape)).astype(np.float32)
    ref = LBMSolver(shape, tau)
    ref.initialize(1.0, u)
    return ref


def timed_ops(op, seconds: float, min_ops: int = 1) -> list[float]:
    samples: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(samples) < min_ops or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        op()
        samples.append(time.perf_counter() - t0)
    return samples


def traced_blocks(op, install, seconds: float, min_traced: int, block: int):
    """Alternate untraced and traced blocks of ``op`` so drift hits both.

    Returns the recorder (every traced block's spans) and the untraced
    and traced operation times.
    """
    rec = SpanRecorder()
    untraced: list[float] = []
    traced: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < min_traced or time.perf_counter() < deadline:
        untraced += timed_ops(op, 0.0, block)
        install(rec)
        try:
            traced += timed_ops(op, 0.0, block)
        finally:
            rec.restore()
    return rec, untraced, traced


def budget_metrics(budget: dict, names) -> dict:
    return {name: budget.get(name, 0.0) * 1e3 for name in names}


def kernel_of(report: list[dict]) -> str:
    """The hot path the fullest rank reports having run."""
    return max(report, key=lambda row: row["cells"])["kernel"]


def roofline(kernel: str, kernel_mlups: float, copy_gbs: float) -> dict:
    bytes_per_cell = BYTES_PER_CELL.get(kernel, 0)
    frac = (kernel_mlups * 1e6 * bytes_per_cell / (copy_gbs * 1e9)
            if copy_gbs else 0.0)
    return {"lbm.kernel_mlups": kernel_mlups,
            "lbm.bytes_per_cell": bytes_per_cell,
            "lbm.roofline_frac": frac}


def rank_block_probe(config: ClusterConfig, seconds: float, min_steps: int):
    """Step one rank's block alone, spanned: its lbm split and its rate.

    The block runs as a one-rank serial cluster with default settings:
    shell collide, core collide, ghost closure, stream, boundaries — the
    cells and arithmetic of a rank of the real run (a process rank does
    its collide in one pass instead of shell + core).
    """
    with CPUClusterLBM(config) as probe:
        probe.step(1)
        rec = SpanRecorder()
        rec.install_cluster(probe)
        try:
            times = timed_ops(lambda: probe.step(1), seconds, min_steps)
        finally:
            rec.restore()
        kernel = kernel_of(probe.kernel_report())
        cells = probe.cells_total()
    step_s = statistics.median(times)
    out = budget_metrics(layer_budget(rec, CPU_LAYERS.get), LBM_LAYERS)
    return out, kernel, cells / step_s / 1e6, step_s


def cluster_sim(cluster) -> dict:
    """Simulated step timing and exact halo counts of a stepped cluster."""
    timing = cluster.last_timing
    return {
        "sim_step_ms": timing.total_s * 1e3,
        "net.switch.sim_net_ms": timing.net_total_s * 1e3,
        "net.switch.sim_nonoverlap_ms": timing.net_nonoverlap_s * 1e3,
        "core.halo.msgs_per_step": sum(
            sum(r) for r in cluster.schedule.round_messages()),
        "core.halo.bytes_per_step": sum(
            sum(r) for r in cluster.schedule.round_bytes()),
    }


class Workload:
    name = ""
    #: Largest ``ref_max_abs_err`` that still counts as correct: cluster
    #: paths are bit-identical to the single-domain solver.
    tolerance = 0.0
    #: Average consecutive operations in pairs before taking quantiles
    #: (an operation is one time step, whose cost may alternate).
    pair_steps = True
    #: Set-ups per run (``setup_s`` is the fastest of them); workloads
    #: whose set-up is a fraction of a second afford more.
    setups = 5

    def __init__(self, seed: int, toy: bool = False) -> None:
        self.seed = int(seed)
        self.toy = bool(toy)
        #: Operations per traced/untraced block, and traced ones wanted.
        self.block = 2 if toy else BLOCK
        self.min_traced = 2 if toy else MIN_TRACED_STEPS
        self.cells_per_op = 0
        #: Wall seconds of each reference-solver step taken by verify().
        self.reference_step_s: list[float] = []

    def teardown(self) -> None:
        pass

    def finite(self) -> bool:
        return bool(np.isfinite(self.state()).all())

    def sim(self) -> dict:
        return {}

    def layers(self, seconds: float, context: dict) -> dict:
        return {}


class _ClusterWorkload(Workload):
    """A coordinator-driven cluster checked against the single-domain
    solver of the same global problem."""

    layer_map = CPU_LAYERS

    def op(self) -> None:
        self.cluster.step(1)

    def state(self) -> np.ndarray:
        return self.cluster.gather_distributions()

    def teardown(self) -> None:
        cluster = getattr(self, "cluster", None)
        if cluster is not None:
            cluster.shutdown()

    def verify(self) -> float:
        """Setup already took step 1; take the rest of the prefix."""
        ref = self.reference()
        for _ in range(VERIFY_STEPS):
            t0 = time.perf_counter()
            ref.step(1)
            self.reference_step_s.append(time.perf_counter() - t0)
        for _ in range(VERIFY_STEPS - 1):
            self.cluster.step(1)
        return float(np.abs(self.state() - ref.f).max())

    def sim(self) -> dict:
        cluster = self.cluster
        fluid = (np.ones(cluster.config.global_shape, bool)
                 if cluster.config.solid is None else ~cluster.config.solid)
        per_rank = [float(part.sum())
                    for part in cluster.decomp.scatter_field(fluid)]
        out = cluster_sim(cluster)
        out["core.decomposition.imbalance"] = (
            max(per_rank) / (sum(per_rank) / len(per_rank)))
        return out

    def span_budget(self, seconds: float) -> tuple[dict, dict]:
        """Traced pass over the live cluster: budget plus overheads."""
        rec, untraced, traced = traced_blocks(
            self.op, lambda r: r.install_cluster(self.cluster), seconds,
            self.min_traced, self.block)
        self.recorder = rec
        budget = layer_budget(rec, self.layer_map.get)
        timing = self.cluster.last_timing
        exchange_s = getattr(timing, "measured_exchange_s", 0.0)
        out = {
            "core.cluster_lbm.coordinator_ms": budget["coordinator"] * 1e3,
            "core.cluster_lbm.exchange_ms": budget["exchange_extent"] * 1e3,
            "core.cluster_lbm.overlap_hidden_frac":
                (getattr(timing, "measured_window_s", 0.0) / exchange_s
                 if exchange_s else 0.0),
            "net.switch.host_ms": budget.get("net.switch.host_ms", 0.0) * 1e3,
            "perf.attributed_frac": budget["attributed_frac"],
            "perf.bench_trace_overhead_frac":
                statistics.median(traced) / statistics.median(untraced) - 1.0,
        }
        return budget, out


class CityProcs(_ClusterWorkload):
    name = "city_procs"
    shape, resolution_m = (192, 160, 32), 9.5
    toy_shape, toy_resolution_m = (24, 20, 8), 76.0
    arrangement = (2, 1, 1)

    def setup(self) -> dict:
        voxelize_s = build_city(self)
        sc = self.scenario
        t1 = time.perf_counter()
        sub = tuple(s // a for s, a in zip(sc.shape, self.arrangement))
        self.cluster = CPUClusterLBM(ClusterConfig(
            sub_shape=sub, arrangement=self.arrangement, tau=sc.tau,
            periodic=(False, False, False), solid=sc.solid, inlet=sc.inlet,
            outflow=sc.outflow, backend="processes"))
        t2 = time.perf_counter()
        self.cluster.step(1)
        t3 = time.perf_counter()
        self.cells_per_op = self.cluster.cells_total()
        return {"urban.voxelize_s": voxelize_s,
                "core.procpool.spawn_s": t2 - t1,
                "core.procpool.first_step_s": t3 - t2}

    def reference(self) -> LBMSolver:
        return self.scenario.make_single_solver()

    def layers(self, seconds: float, context: dict) -> dict:
        """Ranks live in other processes: only ``cluster.step`` can be
        spanned, so the lbm split comes from the fullest rank's block
        stepped alone and the rest from step-level timing."""
        cluster, sc = self.cluster, self.scenario
        counters = getattr(cluster, "counters", None)
        if counters is not None:
            counters.reset()
        rec, untraced, traced = traced_blocks(
            self.op, lambda r: r.install_cluster(cluster), 0.5 * seconds, 0,
            self.block)
        self.recorder = rec
        step_s = statistics.median(untraced)
        stats = counters.summary() if counters is not None else {}
        rank_s = cluster.decomp.n_nodes * stats.get(
            "cluster.proc_step", {}).get("seconds", 0.0)
        out = {
            "perf.bench_trace_overhead_frac":
                statistics.median(traced) / step_s - 1.0,
            # Share of rank time inside the workers' exchange phase
            # (pack, barrier wait, unpack), read from the program's own
            # public per-phase counters: the one number not timed from
            # outside, because the ranks are not in this process.
            "core.procpool.wait_frac":
                (stats.get("cluster.exchange", {}).get("seconds", 0.0)
                 / rank_s if rank_s else 0.0),
        }
        batch = 8
        batched = timed_ops(lambda: cluster.step(batch), 0.0, 2)
        out["core.procpool.batch_ratio"] = (
            step_s / (statistics.median(batched) / batch))

        solids = cluster.decomp.scatter_field(sc.solid)
        fullest = min(range(len(solids)), key=lambda r: solids[r].sum())
        lbm, kernel, kernel_mlups, block_s = rank_block_probe(ClusterConfig(
            sub_shape=cluster.decomp.block_shape(fullest),
            arrangement=(1, 1, 1), tau=sc.tau,
            periodic=(False, False, False), solid=solids[fullest],
            inlet=sc.inlet, outflow=sc.outflow), 0.15 * seconds, self.block)
        out.update(lbm)
        out.update(roofline(kernel, kernel_mlups, context["copy_gbs"]))
        out["core.procpool.step_overhead_ms"] = (step_s - block_s) * 1e3
        if context["reference_step_s"]:
            single_s = statistics.median(context["reference_step_s"])
            out["core.parallel_efficiency"] = (
                single_s / (cluster.decomp.n_nodes * step_s))
        return out


class CitySingle(Workload):
    name = "city_single"
    tolerance = GOLDEN_TOLERANCE
    shape, resolution_m = CityProcs.shape, CityProcs.resolution_m
    toy_shape, toy_resolution_m = (CityProcs.toy_shape,
                                   CityProcs.toy_resolution_m)

    def setup(self) -> dict:
        voxelize_s = build_city(self)
        t1 = time.perf_counter()
        self.solver = self.scenario.make_single_solver()
        t2 = time.perf_counter()
        self.solver.step(1)
        t3 = time.perf_counter()
        self.cells_per_op = int(np.prod(self.scenario.shape))
        return {"urban.voxelize_s": voxelize_s, "construct_s": t2 - t1,
                "first_step_s": t3 - t2}

    def op(self) -> None:
        self.solver.step(1)

    def state(self) -> np.ndarray:
        return self.solver.f

    def golden_probe(self) -> dict:
        """Probes of the golden-seed problem after the 8-step prefix."""
        w = self
        if self.seed != GOLDEN_SEED or self.solver.time_step != 1:
            w = CitySingle(GOLDEN_SEED, self.toy)
            w.setup()
        for _ in range(VERIFY_STEPS - 1):
            w.solver.step(1)
        f = w.solver.f
        rng = np.random.default_rng(0)
        index = np.column_stack([rng.integers(0, n, 64) for n in f.shape])
        return {"seed": GOLDEN_SEED, "steps": VERIFY_STEPS,
                "shape": list(f.shape[1:]), "index": index.tolist(),
                "f": [float(v) for v in f[tuple(index.T)]],
                "mass": float(f.sum(dtype=np.float64))}

    def verify(self) -> float:
        """Against the committed probes (the anchor every cluster
        workload's reference solver is in turn checked by)."""
        key = "toy" if self.toy else "full"
        golden = json.loads(GOLDEN_PATH.read_text())[key]
        probe = self.golden_probe()
        if probe["index"] != golden["index"]:
            return float("inf")
        err = np.abs(np.array(probe["f"]) - np.array(golden["f"])).max()
        mass = abs(probe["mass"] - golden["mass"]) / golden["mass"]
        return float(max(err, mass))

    def layers(self, seconds: float, context: dict) -> dict:
        rec, untraced, traced = traced_blocks(
            self.op, lambda r: r.install_solver(self.solver, root=True),
            0.5 * seconds, self.min_traced, self.block)
        self.recorder = rec
        budget = layer_budget(rec, CPU_LAYERS.get)
        step_s = statistics.median(untraced)
        out = budget_metrics(budget, LBM_LAYERS)
        out["perf.attributed_frac"] = budget["attributed_frac"]
        out["perf.bench_trace_overhead_frac"] = (
            statistics.median(traced) / step_s - 1.0)
        out.update(roofline(self.solver.kernel_used,
                            self.cells_per_op / step_s / 1e6,
                            context["copy_gbs"]))
        return out


class StrongSerial(_ClusterWorkload):
    name = "strong_serial"
    sub_shape, toy_sub_shape = (12, 12, 12), (4, 4, 4)
    arrangement = (4, 4, 2)
    tau = 0.6
    setups = 15

    def setup(self) -> dict:
        sub = self.toy_sub_shape if self.toy else self.sub_shape
        shape = tuple(s * a for s, a in zip(sub, self.arrangement))
        t0 = time.perf_counter()
        self._reference = perturbed_rest_state(self.seed, shape, self.tau)
        f0 = self._reference.f.copy()
        t1 = time.perf_counter()
        self.cluster = CPUClusterLBM(ClusterConfig(
            sub_shape=sub, arrangement=self.arrangement, tau=self.tau))
        self.cluster.load_global_distributions(f0)
        t2 = time.perf_counter()
        self.cluster.step(1)
        t3 = time.perf_counter()
        self.cells_per_op = self.cluster.cells_total()
        return {"problem_s": t1 - t0, "construct_s": t2 - t1,
                "first_step_s": t3 - t2}

    def reference(self) -> LBMSolver:
        return self._reference

    def layers(self, seconds: float, context: dict) -> dict:
        cluster = self.cluster
        budget, out = self.span_budget(0.5 * seconds)
        out.update(budget_metrics(budget, LBM_LAYERS))
        out["core.wire.pack_us"] = budget.get("call:node.read_packed", 0.0) * 1e6
        out["core.wire.unpack_us"] = budget.get("call:node.write_packed", 0.0) * 1e6

        # Program tracing on vs off, alternating blocks on this cluster.
        on: list[float] = []
        off: list[float] = []
        deadline = time.perf_counter() + 0.2 * seconds
        while time.perf_counter() < deadline:
            cluster.enable_tracing()
            on += timed_ops(self.op, 0.0, self.block)
            cluster.enable_tracing(Tracer(enabled=False))
            off += timed_ops(self.op, 0.0, self.block)
        out["perf.trace.enabled_overhead_frac"] = (
            statistics.median(on) / statistics.median(off) - 1.0)

        _, kernel, kernel_mlups, _ = rank_block_probe(ClusterConfig(
            sub_shape=cluster.decomp.block_shape(0), arrangement=(1, 1, 1),
            tau=self.tau), 0.1 * seconds, self.block)
        out.update(roofline(kernel, kernel_mlups, context["copy_gbs"]))
        return out


class GpuCity(_ClusterWorkload):
    name = "gpu_city"
    shape, resolution_m = (96, 80, 16), 19.0
    toy_shape, toy_resolution_m = (24, 20, 8), 76.0
    arrangement = (2, 2, 1)
    layer_map = GPU_LAYERS
    setups = 15

    def setup(self) -> dict:
        voxelize_s = build_city(self)
        t1 = time.perf_counter()
        self.cluster = self.scenario.make_cluster(self.arrangement)
        t2 = time.perf_counter()
        self.cluster.step(1)
        t3 = time.perf_counter()
        self.cells_per_op = self.cluster.cells_total()
        return {"urban.voxelize_s": voxelize_s, "construct_s": t2 - t1,
                "first_step_s": t3 - t2}

    def reference(self) -> LBMSolver:
        return self.scenario.make_single_solver()

    def sim(self) -> dict:
        out = super().sim()
        timing = self.cluster.last_timing
        out.update({"gpu.sim_compute_ms": timing.compute_s * 1e3,
                    "gpu.sim_agp_ms": timing.agp_s * 1e3})
        return out

    def layers(self, seconds: float, context: dict) -> dict:
        budget, out = self.span_budget(0.6 * seconds)
        out.update(budget_metrics(
            budget, ("gpu.collide_ms", "gpu.stream_ms", "gpu.transfer_ms")))
        # Exact: payload bytes through the readback (GPU -> host) and
        # upload (host -> GPU) boundaries, counted where they are timed.
        counted = self.recorder.bytes
        out["gpu.bytes_up_per_step"] = (
            counted["node.read_packed"] / budget["steps"])
        out["gpu.bytes_down_per_step"] = (
            counted["node.write_packed"] / budget["steps"])
        return out


class SpmdPair(Workload):
    name = "spmd_pair"
    shape, toy_shape = (128, 64, 64), (16, 8, 8)
    arrangement = (2, 1, 1)
    tau = 0.6
    steps_per_op = 10
    pair_steps = False

    def setup(self) -> dict:
        shape = self.toy_shape if self.toy else self.shape
        if self.toy:
            self.steps_per_op = 2
        t0 = time.perf_counter()
        self._reference = perturbed_rest_state(self.seed, shape, self.tau)
        f0 = self._reference.f.copy()
        t1 = time.perf_counter()
        self.spmd = SPMDClusterLBM(
            BlockDecomposition(shape, self.arrangement,
                               periodic=(True, True, True)),
            tau=self.tau, f0=f0)
        t2 = time.perf_counter()
        self.op()
        t3 = time.perf_counter()
        self.cells_per_op = int(np.prod(shape)) * self.steps_per_op
        return {"problem_s": t1 - t0, "construct_s": t2 - t1,
                "first_step_s": t3 - t2}

    def op(self) -> None:
        """Every call restarts from f0: the API has no per-step boundary."""
        self.f, self.clocks = self.spmd.run(
            self.steps_per_op, SimCluster(int(np.prod(self.arrangement))))

    def state(self) -> np.ndarray:
        return self.f

    def verify(self) -> float:
        f, _ = self.spmd.run(VERIFY_STEPS,
                             SimCluster(int(np.prod(self.arrangement))))
        self._reference.step(VERIFY_STEPS)
        return float(np.abs(f - self._reference.f).max())

    def sim(self) -> dict:
        per_step = max(self.clocks) / self.steps_per_op * 1e3
        return {"sim_step_ms": per_step,
                "net.simmpi.sim_clock_ms_per_step": per_step}

    def layers(self, seconds: float, context: dict) -> dict:
        """The rank programs build their solvers inside ``run``; nothing
        is exposed to span, so the layer number is the call itself."""
        times = timed_ops(self.op, 0.5 * seconds, 3)
        return {"core.spmd.host_ms_per_step":
                statistics.median(times) / self.steps_per_op * 1e3}


class PaperModel(Workload):
    """Timing-only: the seed has nothing to drive, the inputs are the
    paper's published configurations."""

    name = "paper_model"
    shape, arrangement = (480, 400, 80), (6, 5, 1)
    pair_steps = False
    setups = 15

    def setup(self) -> dict:
        t0 = time.perf_counter()
        self.scenario = DispersionScenario(self.shape)
        t1 = time.perf_counter()
        self.tables_s: list[float] = []
        self.dispersion_s: list[float] = []
        self.op()
        t2 = time.perf_counter()
        rows1, rows2, rows3, _ = self.result
        # Lattice cells of every cluster step the sweep models (each
        # table row evaluates one GPU and one CPU cluster).
        self.cells_per_op = (
            2 * 80 ** 3 * (sum(r.nodes for r in rows1)
                           + sum(r.nodes for r in rows2))
            + 2 * sum(int(np.prod(r["sub_shape"])) * r["nodes"] for r in rows3)
            + int(np.prod(self.shape)))
        return {"construct_s": t1 - t0, "first_step_s": t2 - t1}

    def op(self) -> None:
        t0 = time.perf_counter()
        tables = (table1_rows(), table2_rows(), strong_scaling_rows())
        t1 = time.perf_counter()
        self.cluster = self.scenario.make_cluster(self.arrangement,
                                                  timing_only=True)
        timing = self.cluster.step()
        t2 = time.perf_counter()
        self.tables_s.append(t1 - t0)
        self.dispersion_s.append(t2 - t1)
        self.result = tables + (timing,)

    def numbers(self) -> np.ndarray:
        rows1, rows2, rows3, timing = self.result
        return np.array(
            [v for r in rows1 for v in (r.cpu_total, r.gpu_compute, r.gpu_agp,
                                        r.net_total, r.net_nonoverlap,
                                        r.gpu_total)]
            + [v for r in rows2 for v in (r.cells_per_s, r.speedup or 0.0,
                                          r.efficiency or 0.0)]
            + [v for r in rows3 for v in (r["gpu_total_ms"], r["cpu_total_ms"])]
            + list(timing.ms().values()))

    def state(self) -> np.ndarray:
        return self.numbers()

    def verify(self) -> float:
        """The model is deterministic: a second sweep repeats the first."""
        first = self.numbers()
        self.op()
        return float(np.abs(self.numbers() - first).max())

    def sim(self) -> dict:
        rows1, _, _, timing = self.result
        errs = [abs(r.gpu_total - PAPER_TABLE1[r.nodes][4])
                / PAPER_TABLE1[r.nodes][4] for r in rows1]
        errs.append(abs(timing.total_s - 0.31) / 0.31)
        out = cluster_sim(self.cluster)
        out.update({
            "sim_paper_err": sum(errs) / len(errs),
            "gpu.sim_compute_ms": timing.compute_s * 1e3,
            "gpu.sim_agp_ms": timing.agp_s * 1e3,
        })
        return out

    def layers(self, seconds: float, context: dict) -> dict:
        self.tables_s.clear()
        self.dispersion_s.clear()
        timed_ops(self.op, 0.5 * seconds, self.block)
        return {"perf.model.tables_ms": statistics.median(self.tables_s) * 1e3,
                "perf.model.dispersion_ms":
                    statistics.median(self.dispersion_s) * 1e3}


WORKLOADS = {cls.name: cls for cls in (CityProcs, CitySingle, StrongSerial,
                                       GpuCity, SpmdPair, PaperModel)}
