"""The GPU-cluster and CPU-cluster parallel LBM drivers (Secs 4.3-4.4).

:class:`GPUClusterLBM` orchestrates one :class:`~repro.core.gpu_node.GPUNode`
per cluster node through the paper's per-step protocol:

1. collision passes on every GPU, rendered once over the interior and
   charged per Sec-4.3 rectangle (the inner rectangle's charge is the
   overlap window, ~120 ms at 80^3);
2. border gather + a single AGP readback per node, then the scheduled
   pairwise network exchange (Fig 7) with indirect two-hop routing of
   the diagonal traffic, then ghost uploads;
3. streaming + boundary passes;
4. a :class:`StepTiming` decomposition in exactly Table 1's columns:
   computation, GPU<->CPU communication, total network time, and the
   non-overlapping remainder ``max(0, T_net - T_window)``.

:class:`CPUClusterLBM` is the paper's baseline: the same decomposition
and schedule with software nodes whose second thread overlaps the whole
compute time (modeled; executed ranks collide whole, then exchange).
On the serial backend its AA ranks are not stepped one by one: their
arrays are slots of stacked arenas, and each step runs one AA phase
per arena and the halo exchange along the rank axis
(:mod:`repro.core.stack`).

Both drivers run in two modes: *numeric* (every value computed for
real; gather/compare against the single-domain reference solver) and
*timing-only* (paper-scale sweeps through the calibrated model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cpu_node import CPUNode, cluster_kernel
from repro.core.decomposition import BlockDecomposition, arrange_nodes_2d
from repro.core.exchange import RankLoop, attach_recorder, halo_faces, local_engines
from repro.core.gpu_node import GPUNode, GPURankGroup
from repro.core.halo import HaloPlan
from repro.core.procpool import ProcessBackend
from repro.core.schedule import CommSchedule
from repro.core.stack import RankStack
from repro.gpu.specs import AGP_8X, BusSpec
from repro.net.switch import GigabitSwitch
from repro.perf.recorder import Recorder
from repro.perf.telemetry import TelemetrySession


@dataclass(frozen=True)
class StepTiming:
    """Per-step time decomposition, Table-1 shaped (seconds).

    Every field is a *modeled* quantity (simulated clocks and the
    calibrated network model), so the decomposition is deterministic.
    """

    nodes: int
    compute_s: float
    agp_s: float
    net_total_s: float
    overlap_window_s: float

    @property
    def net_nonoverlap_s(self) -> float:
        """Network time the overlap window could not hide."""
        return max(0.0, self.net_total_s - self.overlap_window_s)

    @property
    def total_s(self) -> float:
        """The Table-1 'Total': compute + GPU/CPU transfer + remainder."""
        return self.compute_s + self.agp_s + self.net_nonoverlap_s

    def ms(self) -> dict[str, float]:
        """Milliseconds view for printing Table-1 rows."""
        return {
            "compute": self.compute_s * 1e3,
            "agp": self.agp_s * 1e3,
            "net_total": self.net_total_s * 1e3,
            "net_nonoverlap": self.net_nonoverlap_s * 1e3,
            "total": self.total_s * 1e3,
        }


@dataclass
class ClusterConfig:
    """Configuration shared by both cluster drivers.

    Attributes
    ----------
    sub_shape:
        Per-node sub-domain (the paper fixes 80^3 for Table 1).
    arrangement:
        Node grid (W, H, D); use :func:`arrange_nodes_2d` for the
        paper's 2D layouts.
    tau:
        BGK relaxation time.
    periodic:
        Global per-axis periodicity.
    timing_only:
        Skip numerics (paper-scale sweeps).
    solid:
        Optional *global* obstacle mask.
    inlet / outflow / force:
        Global boundary conditions, applied on the nodes that own the
        corresponding global boundary.
    bus / switch:
        The E12 what-if knobs (:mod:`repro.perf.whatif`): the
        GPU<->host bus each GPU node's readbacks and uploads are
        charged on (default AGP 8x), and the simulated switch the halo
        schedule is timed on (None, the default, builds a fresh
        :class:`~repro.net.switch.GigabitSwitch`).  The node models are
        fixed to the paper's GeForce FX 5800 Ultra and 2.4 GHz Xeon.
    backend:
        Execution backend for the per-node phases:

        * ``"serial"`` (default): every rank in the coordinator's
          process, on the calling thread.  When every rank runs the AA
          kernel (the rule's default for CPU clusters) the ranks are
          one stacked lattice: their padded arrays are slots of one
          arena per block shape, each step sweeps each arena with one
          AA phase and exchanges halos along the rank axis
          (:mod:`repro.core.stack`, :attr:`CPUClusterLBM.stacked`).
          Numeric simulated-GPU ranks step as one group, each phase
          one compiled call over all of them split across the host's
          CPUs (:class:`GPURankGroup`); ``split`` ranks, timing-only
          ranks and GPU ranks on the per-pass engine are advanced one
          after another.
        * ``"processes"``: one persistent worker process per rank with
          shared-memory sub-domains and zero-copy halo mailboxes
          (:mod:`repro.core.procpool`) — ranks genuinely run in
          parallel on multi-core hosts.  Numeric :class:`CPUClusterLBM`
          only: :class:`GPUClusterLBM` refuses it, since a simulated
          GPU's time is modelled and worker processes would add no
          paper number.  A worker steps its rank as an SPMD rank does
          (:func:`repro.core.exchange.step_rank`).

        Both backends build every rank's node from one description
        (:meth:`BlockDecomposition.rank_args`), run the same halo
        engine (:mod:`repro.core.exchange`) and produce bit-identical
        distributions and the same :class:`StepTiming`.  Every rank
        collides whole, then exchanges, then streams; the Sec-4.4
        overlap is modeled, never executed: a CPU rank's window is its
        whole compute time, a :class:`GPUClusterLBM` rank's is the
        device charge of its inner render rectangle, charged after the
        border rectangles (:meth:`GPUNode.collide_phase`).
    kernel:
        ``"auto"`` (default) or ``"split"``, for the CPU ranks,
        resolved by one rule before any node is built or worker
        spawned: under ``"auto"`` the cluster runs the swap-free
        AA-pattern kernel (:class:`~repro.lbm.aa.AAStepKernel`) on
        every rank, body force or not, unless the run is timing-only
        or the compiled sweep does not load (no working C compiler,
        named in ``kernel_reason``); otherwise every rank runs
        ``"split"``.  Each rank is built with its ``halo_faces``
        accordingly, its solver resolves its kernel by its own rule,
        and the node refuses a rank where the two disagree.  Under
        AA the driver ships only the neighbour messages (forward after
        even phases, reverse after odd ones); each rank's sweep closes
        its true domain edges and periodic self-wraps itself
        (:mod:`repro.lbm.native`); per-rank inlet/outflow handlers run through the rotated
        closure, :mod:`repro.lbm.esoteric`.  Both kernels are
        bit-identical at every step count, loads included;
        :meth:`kernel_report` and the recorder's ``kernel.*`` markers
        record what each rank ran and why.
    cuts:
        Explicit per-axis block extents (three sequences matching the
        arrangement and summing to the global extents); None (default)
        keeps the paper's equal boxes.  Any set of cuts is
        bit-identical to the single-domain reference (the cut
        positions are shared per axis, so neighbouring face shapes
        always match and the halo protocol is unchanged).
    """

    sub_shape: tuple[int, int, int]
    arrangement: tuple[int, int, int]
    tau: float = 0.6
    periodic: tuple[bool, bool, bool] = (True, True, True)
    timing_only: bool = False
    solid: np.ndarray | None = None
    inlet: tuple | None = None
    outflow: tuple | None = None
    force: tuple | None = None
    bus: BusSpec = AGP_8X
    switch: GigabitSwitch | None = None
    backend: str = "serial"
    kernel: str = "auto"
    cuts: tuple | None = None

    def __post_init__(self) -> None:
        if self.cuts is not None:
            if len(self.cuts) != 3:
                raise ValueError("cuts must have one sequence per axis")
            norm = []
            for axis, (c, s, a) in enumerate(zip(self.cuts, self.global_shape,
                                                 self.arrangement)):
                c = tuple(int(x) for x in c)
                if len(c) != a:
                    raise ValueError(
                        f"cuts axis {axis}: {len(c)} blocks for "
                        f"arrangement extent {a}")
                if any(x < 2 for x in c):
                    raise ValueError(
                        f"cuts axis {axis}: block extents must be >= 2 "
                        f"(ghost layers), got {c}")
                if sum(c) != s:
                    raise ValueError(
                        f"cuts axis {axis}: {c} sums to {sum(c)}, "
                        f"expected global extent {s}")
                norm.append(c)
            self.cuts = tuple(norm)
        if self.kernel not in ("auto", "split"):
            raise ValueError(
                f"kernel must be 'auto' or 'split', got {self.kernel!r}")
        if self.backend not in ("serial", "processes"):
            raise ValueError(
                f"backend must be 'serial' or 'processes', "
                f"got {self.backend!r}")
        if self.backend == "processes" and self.timing_only:
            raise ValueError(
                "backend='processes' runs real numerics; use the default "
                "serial backend for timing_only sweeps")
        if len(self.sub_shape) != 3 or any(s < 2 for s in self.sub_shape):
            raise ValueError(f"sub_shape must be 3D with extents >= 2, "
                             f"got {self.sub_shape}")
        if len(self.arrangement) != 3 or any(a < 1 for a in self.arrangement):
            raise ValueError(f"bad arrangement {self.arrangement}")
        if self.tau <= 0.5:
            raise ValueError(f"tau must be > 0.5, got {self.tau}")
        for name, bc in (("inlet", self.inlet), ("outflow", self.outflow)):
            if bc is not None:
                axis = bc[0]
                if not 0 <= axis <= 2:
                    raise ValueError(f"{name} axis must be 0..2")
                if self.periodic[axis]:
                    raise ValueError(
                        f"{name} on axis {axis} conflicts with periodicity; "
                        f"set periodic[{axis}] = False")
        if self.solid is not None and np.asarray(self.solid).shape != self.global_shape:
            raise ValueError(
                f"solid mask shape {np.asarray(self.solid).shape} != global "
                f"lattice {self.global_shape}")

    @property
    def global_shape(self) -> tuple[int, int, int]:
        return tuple(s * a for s, a in zip(self.sub_shape, self.arrangement))

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.arrangement))


class _ClusterLBMBase:
    """Shared coordinator: decomposition, schedule, exchange, timing."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.decomp = BlockDecomposition(config.global_shape, config.arrangement,
                                         periodic=config.periodic,
                                         cuts=config.cuts)
        self.plan = HaloPlan(self.decomp.max_block_shape())
        self.schedule = CommSchedule(self.decomp, self.plan)
        self.switch = config.switch if config.switch is not None else GigabitSwitch()
        solids = (self.decomp.scatter_field(config.solid)
                  if config.solid is not None else [None] * self.decomp.n_nodes)
        #: The driver's one recorder: coordinator regions on its own
        #: rank, each in-process node and solver on a per-rank view,
        #: worker processes' drains absorbed under their rank.
        self.recorder = Recorder()
        #: The kernel the cluster runs and why, resolved before any
        #: node is built or worker spawned — the one attribute the halo
        #: protocol (exchange mode, shared-memory adoption, odd-parity
        #: gather) consults, through :attr:`aa_protocol`.
        self.resolved_kernel, self.kernel_reason = self._resolve_kernel()
        self._proc_backend: ProcessBackend | None = None
        #: The serial ranks' stacked arena, or None (see :attr:`stacked`).
        self._stack: RankStack | None = None
        if config.backend == "processes":
            self._proc_backend = ProcessBackend(
                self.decomp, [self._node_args(rank, solids[rank])
                              for rank in range(self.decomp.n_nodes)])
            self.nodes = self._proc_backend.proxies
        else:
            if self._stacks():
                self._stack = RankStack(self.decomp)
            self.nodes = []
            for rank in range(self.decomp.n_nodes):
                node = self._make_node(rank, solids[rank])
                attach_recorder(node, self.recorder.for_rank(rank))
                if self._stack is not None:
                    self._stack.adopt(rank, node.solver)
                self.nodes.append(node)
            if self._stack is not None:
                self._stack.bind(self.nodes, self.recorder)
        self.time_step = 0
        self.last_timing: StepTiming | None = None
        self.telemetry: TelemetrySession | None = None
        self._halo_meta = {
            "bytes": sum(sum(rnd) for rnd in self.schedule.round_bytes()),
            "msgs": sum(sum(rnd) for rnd in self.schedule.round_messages())}
        #: How the serial backend steps its ranks: the stacked arena, or
        #: one halo engine per in-process rank (timing-only nodes
        #: exchange nothing) under :meth:`_rank_program`.
        self._ranks = self._stack
        if self._proc_backend is None and self._stack is None:
            self._ranks = self._rank_program(None if config.timing_only else local_engines(
                self.decomp, self.nodes, aa=self.aa_protocol, recorder=self.recorder))

    @property
    def counters(self) -> Recorder:
        """The recorder, under the name its per-phase report had."""
        return self.recorder

    def _resolve_kernel(self) -> tuple[str, str]:
        """The cluster's kernel and its reason (GPU nodes: as configured)."""
        return self.config.kernel, f"configured kernel={self.config.kernel!r}"

    def _rank_program(self, halo):
        """The serial ranks' step when they are not stacked."""
        return RankLoop(self.nodes, halo, self.recorder)

    def _stacks(self) -> bool:
        """Whether the serial ranks are swept as one stacked lattice
        (:mod:`repro.core.stack`); only CPU clusters stack."""
        return False

    @property
    def stacked(self) -> bool:
        """True when the ranks' arrays are slots of stacked arenas and
        every step runs one AA phase per arena and the rank-axis halo
        exchange instead of the per-rank loop."""
        return self._stack is not None

    @property
    def aa_protocol(self) -> bool:
        """Whether every rank runs the in-place AA kernel, so the
        driver runs its halo protocol (forward exchange after even
        phases, reverse scatter exchange after odd ones)."""
        return self.resolved_kernel == "aa"

    def _node_args(self, rank: int, solid) -> dict:
        """The keyword arguments rank ``rank``'s node is built from,
        in this process or in a worker: the decomposition's rank
        description (:meth:`BlockDecomposition.rank_args`) plus what
        every rank shares."""
        cfg = self.config
        return {**self.decomp.rank_args(rank, cfg.inlet, cfg.outflow),
                "tau": cfg.tau, "solid": solid, "force": cfg.force,
                "timing_only": cfg.timing_only}

    def kernel_report(self, cluster: bool = False) -> list[dict]:
        """Per-rank hot-path choice and local solid occupancy.

        One row per rank — ``{"rank", "kernel", "solid_fraction",
        "reason", "block", "cells"}`` — for the timing summary: which
        kernel the rank runs (``"aa"``, ``"split"``, ``"gpu"``, or
        ``"model"`` on a timing-only rank; a worker process reports its
        rank's when it is ready), the rank-local solid fraction and
        *why* the kernel was selected (forced or the solver's rule).  ``block``
        and ``cells`` are the rank's block shape and cell count
        (unequal under explicit non-uniform ``cuts``).

        With ``cluster=True`` one cluster-level row follows the rank
        rows: ``{"rank": "cluster", "kernel", "reason", "cells"}`` —
        the resolved kernel and the rule line that chose it.
        """
        rows = [{"rank": getattr(node, "rank", i),
                 "kernel": getattr(node, "kernel_used", "n/a"),
                 "solid_fraction": float(getattr(node, "solid_fraction", 0.0)),
                 "reason": getattr(node, "kernel_reason", None),
                 "block": self.decomp.block_shape(i),
                 "cells": self.decomp.blocks[i].cells}
                for i, node in enumerate(self.nodes)]
        if cluster:
            rows.append({"rank": "cluster", "kernel": self.resolved_kernel,
                         "reason": self.kernel_reason,
                         "cells": self.cells_total()})
        return rows

    # -- observability -----------------------------------------------------
    def enable_tracing(self, tracer: Recorder | None = None) -> Recorder:
        """Start a fresh timeline: the recorder (returned) keeps one
        event per region of every layer — coordinator phases, per-rank
        node and solver phases, the switch's scheduled rounds — and
        folds the earlier events into its aggregates.  ``tracer`` sets
        the recorder's flags instead, e.g. ``Tracer(enabled=False)``
        turns tracing off.  Worker processes follow the flag through one
        pipe command, which also syncs their clocks; their events are
        re-based onto the coordinator's at every step reply.  Tracing
        observes only: traced runs stay bit-identical to the reference
        (``python -m repro check`` enforces this).
        """
        rec = self.recorder
        if tracer is None:
            rec.trace()
        else:
            rec.enabled, rec.tracing = tracer.enabled, tracer.tracing
        self.switch.recorder = rec
        if self._proc_backend is not None:
            self._proc_backend.set_tracing(rec.enabled and rec.tracing)
        return rec

    def enable_telemetry(self, **kwargs) -> TelemetrySession:
        """Attach the live view and the health watchdog to this driver.

        The step loop hands the session every step count; it derives
        step rate, MLUPS, per-rank busy time and imbalance from the
        recorder and feeds the watchdog from the workers' shared-memory
        heartbeats (processes backend; the clocks are synced first).
        Keyword arguments reach
        :class:`~repro.perf.telemetry.TelemetrySession` (``jsonl_path=``,
        ``stall_timeout_s=``, ``slow_factor=``).  Telemetry observes
        only: monitored runs stay bit-identical (``repro check``).
        """
        self.telemetry = TelemetrySession(self, **kwargs)
        if self._proc_backend is not None:
            # The flag unchanged, for the command's clock handshake.
            self._proc_backend.set_tracing(self._proc_backend.tracing)
        return self.telemetry

    def shutdown(self) -> None:
        """Release the worker processes and shared memory (idempotent)."""
        if self.telemetry is not None:
            try:
                self.telemetry.close()
            except Exception:
                pass
            self.telemetry = None
        if self._proc_backend is not None:
            self._proc_backend.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- node construction -------------------------------------------------
    def _make_node(self, rank: int, solid):  # pragma: no cover - abstract
        raise NotImplementedError

    def load_global_distributions(self, f: np.ndarray) -> None:
        """Scatter a global distribution field to the nodes.

        Valid at any step count, AA clusters included: a canonical
        load re-bases every rank's AA phase, so the next step runs the
        even phase (see :meth:`repro.lbm.LBMSolver.load_distributions`).
        """
        parts = self.decomp.scatter_field(f)
        nodes = self._numeric_nodes()
        if self._proc_backend is not None:
            self._proc_backend.load_parts(parts)
            return
        for node, part in zip(nodes, parts):
            node.solver.load_distributions(part)

    # -- the per-step protocol ----------------------------------------------
    def _exchange(self) -> None:
        """Run the halo exchange — per axis every rank posts, then every
        rank completes — as the ``cluster.exchange`` region."""
        with self.recorder.phase("cluster.exchange", **self._halo_meta):
            self._ranks.exchange()

    def step(self, n: int = 1) -> StepTiming:
        """Advance ``n`` time steps; returns the last step's timing.

        Every step collides, exchanges (numeric runs), then streams, on
        the calling thread: node by node (:class:`RankLoop`), or
        together — :attr:`stacked` CPU ranks one AA phase per arena and
        the rank-axis exchange, compiled GPU ranks one call per phase
        (:class:`GPURankGroup`).  A GPU node models the Sec-4.4 window
        in its collide's device charges
        (:meth:`GPUNode.collide_phase`).  Each step is one
        ``cluster.step`` region.
        """
        if self._proc_backend is not None:
            return self._step_processes(n)
        timing = self.last_timing
        rec, ranks = self.recorder, self._ranks
        for _ in range(n):
            rec.begin_step(self.time_step)
            with rec.phase("cluster.step"):
                ranks.collide()
                if not self.config.timing_only:
                    self._exchange()
                net_total = self._net_total()
                ranks.finish()
                timing = self._timing(net_total)
            self.time_step += 1
            if self.telemetry is not None:
                self.telemetry.record_steps(1)
        self.last_timing = timing
        return timing

    def _net_total(self) -> float:
        """The scheduled exchange phase's modelled network time."""
        if self.decomp.n_nodes == 1:
            return 0.0
        return self.switch.phase_time(
            self.schedule.round_bytes(), self.decomp.n_nodes,
            round_messages=self.schedule.round_messages())

    def _timing(self, net_total: float) -> StepTiming:
        return StepTiming(
            nodes=self.decomp.n_nodes,
            compute_s=max(nd.compute_s for nd in self.nodes),
            agp_s=max(nd.agp_s for nd in self.nodes),
            net_total_s=net_total,
            overlap_window_s=max(nd.overlap_window_s for nd in self.nodes),
        )

    def _step_processes(self, n: int) -> StepTiming:
        """Advance ``n`` steps on the persistent worker processes.

        One command round-trip per call: the workers run all ``n``
        steps (exchanging halos among themselves through the shared
        mailboxes), then reply with the last step's timing buckets and
        their recorder drains, absorbed into this driver's recorder
        under each rank.  The batch is one ``cluster.proc_step`` region;
        the workers' tracing follows the recorder's flag.
        """
        rec, backend, tel = self.recorder, self._proc_backend, self.telemetry
        tracing = rec.enabled and rec.tracing
        if backend.tracing != tracing:
            backend.set_tracing(tracing)
        rec.begin_step(self.time_step)
        if tel is not None:
            tel.note_step_command(n)
        with rec.phase("cluster.proc_step", steps=n):
            payloads = backend.step(n)
        for rank, payload in enumerate(payloads):
            rec.absorb(payload["recorder"], rank, backend.clock_offset(rank))
        timing = self._timing(self._net_total())
        self.time_step += n
        self.last_timing = timing
        if tel is not None:
            tel.record_steps(n)
        return timing

    # -- observables -----------------------------------------------------------
    def _numeric_nodes(self):
        if self.config.timing_only:
            raise RuntimeError("no numeric state in timing_only mode")
        return self.nodes

    def gather_distributions(self) -> np.ndarray:
        """Assemble the global (19, nx, ny, nz) distribution field."""
        if self._proc_backend is not None:
            self._numeric_nodes()
            parts = self._proc_backend.gather_parts()
        else:
            parts = [self._node_distributions(nd) for nd in self._numeric_nodes()]
        return self.decomp.gather_field(parts)

    def gather_macroscopic(self) -> tuple[np.ndarray, np.ndarray]:
        """Global (rho, u) fields."""
        from repro.lbm.macroscopic import macroscopic
        from repro.lbm.lattice import D3Q19
        f = self.gather_distributions()
        return macroscopic(D3Q19, f)

    def _node_distributions(self, node) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def cells_total(self) -> int:
        """Total lattice cells across the cluster."""
        return int(np.prod(self.config.global_shape))


class GPUClusterLBM(_ClusterLBMBase):
    """The paper's system: one simulated GPU per node (Sec 4.3).

    Its ranks run on the serial backend only: a simulated GPU's time
    is modelled, so worker processes would add no paper number.
    """

    def __init__(self, config: ClusterConfig) -> None:
        if config.backend == "processes":
            raise ValueError(
                "backend='processes' steps CPU ranks only: run simulated "
                "GPU ranks on the serial backend (backend='serial')")
        super().__init__(config)

    def _make_node(self, rank: int, solid):
        return GPUNode(rank, bus=self.config.bus,
                       **self._node_args(rank, solid))

    def _rank_program(self, halo):
        """Numeric ranks step as a group (:class:`GPURankGroup`)."""
        if halo is None:
            return super()._rank_program(halo)
        return GPURankGroup(self.nodes, halo, self.recorder)

    def _node_distributions(self, node) -> np.ndarray:
        return node.solver.distributions()


class CPUClusterLBM(_ClusterLBMBase):
    """The paper's baseline: software LBM per node (Sec 4.4).

    The second-thread overlap is modeled (window = whole compute time);
    executed ranks collide whole, then exchange, on both backends.
    Serial-backend AA ranks are swept as one stacked lattice
    (:mod:`repro.core.stack`): same distributions, same
    :class:`StepTiming`, no per-rank dispatch.
    """

    def _resolve_kernel(self) -> tuple[str, str]:
        """The CPU cluster rule,
        :func:`~repro.core.cpu_node.cluster_kernel`."""
        return cluster_kernel(self.config.kernel, self.config.timing_only)

    def _stacks(self) -> bool:
        """Serial AA ranks stack (timing-only ranks never resolve AA)."""
        return self.config.backend == "serial" and self.aa_protocol

    def _node_args(self, rank: int, solid) -> dict:
        """Adds the rank's kernel, the configured one, which the rank's
        solver resolves by its own rule, and under :attr:`aa_protocol`
        the faces the driver ships AA halo messages over
        (``halo_faces``); the node checks that the two agree."""
        faces = (halo_faces(self.decomp.neighbors(rank), self.decomp.periodic)
                 if self.aa_protocol else None)
        return {**super()._node_args(rank, solid),
                "kernel": self.config.kernel, "halo_faces": faces}

    def _make_node(self, rank: int, solid):
        return CPUNode(rank, **self._node_args(rank, solid))

    def _node_distributions(self, node) -> np.ndarray:
        return node.solver.f.copy()
