"""One cluster node's CPU sub-domain — the paper's baseline (Sec 4.4).

The CPU implementation runs the same decomposed LBM in software on one
Xeon thread per node, with "the network communication time ...
overlapped with the computation by using a second thread": its overlap
window is the whole compute time, which is why Table 1's CPU column
shows computation only.  That window is modeled; the executed rank
collides whole and then exchanges (an in-process coordinator has no
second thread's worth of concurrency to hide the exchange behind).

The numerics reuse the reference :class:`~repro.lbm.LBMSolver` (same
ghost-padded layout), so the CPU and GPU cluster paths are checked
against each other and against the single-domain solver.

:meth:`CPUNode.collide_phase` / :meth:`CPUNode.finish_step` step one
rank: a process worker's, an SPMD rank's, a serial ``split`` rank's,
a timing-only rank's.  Where the cluster rule says ``aa`` (always, for
an SPMD rank) the numeric rank is built with its ``halo_faces`` and
runs the in-place AA kernel; its solver owns that kernel, which refers
back to it only weakly, so a dropped node frees its distributions by
refcount.
A serial cluster's AA ranks are stepped together instead — their
``solver.fg`` are slots of a stacked arena (:mod:`repro.core.stack`) —
and the node then only carries the rank's solver, its cached
:attr:`CPUNode.model_compute_s` and its per-step timing fields.
"""

from __future__ import annotations

import numpy as np

from repro.core.exchange import SolverPort
from repro.lbm.aa import AAStepKernel, unavailable
from repro.lbm.lattice import D3Q19
from repro.lbm.solver import LBMSolver
from repro.gpu.specs import XEON_2_4, CPUSpec
from repro.perf import calibration as cal
from repro.perf.recorder import NULL_RECORDER


def rank_boundaries(inlet, outflow) -> list:
    """Boundary handlers of a rank owning the given global faces.

    ``inlet`` is ``(axis, side, velocity, rho)`` and ``outflow``
    ``(axis, side)`` (None where the rank does not touch that face).
    """
    from repro.lbm.boundaries import EquilibriumVelocityInlet, OutflowBoundary
    bcs = []
    if inlet is not None:
        bcs.append(EquilibriumVelocityInlet(D3Q19, *inlet))
    if outflow is not None:
        bcs.append(OutflowBoundary(D3Q19, *outflow))
    return bcs


def cluster_kernel(kernel: str = "auto",
                   timing_only: bool = False) -> tuple[str, str]:
    """The kernel every CPU cluster rank runs, and the rule line that
    chose it: AA under ``"auto"`` or ``"aa"`` unless the run is
    timing-only or the compiled sweep does not load, else ``split``.
    Nothing is measured; the cluster drivers and the SPMD ranks share
    this one rule."""
    if kernel == "split":
        return "split", "configured kernel='split'"
    if timing_only:
        return "split", "rule: timing-only (no numeric ranks)"
    missing = unavailable(D3Q19, np.dtype(np.float32))
    if missing:
        return "split", f"rule: {missing}"
    return "aa", f"rule: kernel={kernel!r}, numeric CPU ranks"


class CPUNode(SolverPort):
    """One sub-domain computed in software on a host CPU.

    Parameters mirror :class:`~repro.core.gpu_node.GPUNode`; see there.
    The halo engine packs, unpacks and closes this rank's shell through
    the inherited :class:`~repro.core.exchange.SolverPort` methods.
    ``halo_faces`` (:func:`~repro.core.exchange.halo_faces`) says the
    driver ships the rank's AA halo messages (forward exchange after
    even phases, reverse after odd ones) and which faces they are,
    which lets a rank stepped phase by phase run the in-place AA
    kernel.  ``recorder`` is the rank's handle
    (:func:`~repro.core.exchange.attach_recorder`): a numeric rank's
    collide and finish are its ``cluster.collide`` / ``cluster.finish``
    regions.
    """

    recorder = NULL_RECORDER

    def __init__(self, rank: int, sub_shape, tau: float, solid=None,
                 face_dirs=(), edge_dirs=(), timing_only: bool = False,
                 cpu_spec: CPUSpec = XEON_2_4, inlet=None, outflow=None,
                 force=None, kernel: str = "auto",
                 halo_faces: tuple | None = None) -> None:
        self.rank = rank
        self.tau = float(tau)
        self.face_dirs = list(face_dirs)
        self.edge_dirs = list(edge_dirs)
        self.timing_only = bool(timing_only)
        self.cpu_spec = cpu_spec
        solver = None
        if not timing_only:
            solver = LBMSolver(sub_shape, tau, solid=solid,
                               boundaries=rank_boundaries(inlet, outflow),
                               force=force, periodic=False, kernel=kernel)
            # The cluster driver steps this solver phase by phase
            # (collide / exchange / stream).
            solver.phase_driven = True
            solver.halo_faces = halo_faces
            if halo_faces is not None:
                # The driver's exchange is only correct if this rank
                # really runs the AA phases: refuse a silent fallback.
                if not AAStepKernel.eligible(solver):
                    raise ValueError(
                        "kernel='aa' on a cluster rank requires a plain "
                        "BGK sub-domain with only face-resident boundary "
                        "handlers")
                missing = unavailable(solver.lattice, solver.dtype)
                if missing:
                    raise ValueError(f"kernel='aa' on a cluster rank: {missing}")
        super().__init__(solver, sub_shape)
        #: The modeled per-step compute: a function of the block shape,
        #: its face/edge neighbours and ``cpu_spec`` only (the SSE build
        #: is a spec of its own, :data:`~repro.gpu.specs.XEON_2_4_SSE`).
        self.model_compute_s = self._model_compute_s()
        self.compute_s = 0.0
        self.agp_s = 0.0           # always 0: no GPU on this path
        self.overlap_window_s = 0.0

    # -- kernel report ----------------------------------------------------
    @property
    def solid_fraction(self) -> float:
        """Local solid occupancy (0.0 in timing-only mode)."""
        return 0.0 if self.solver is None else self.solver.solid_fraction

    @property
    def kernel_used(self) -> str:
        """Which hot path this rank's last step ran."""
        if self.solver is None:
            return "model"
        return self.solver.kernel_used or "unstepped"

    @property
    def kernel_reason(self) -> str | None:
        """Why the hot path was selected (forced or the solver's rule)."""
        return None if self.solver is None else self.solver.kernel_reason

    # -- geometry ---------------------------------------------------------
    @property
    def cells(self) -> int:
        return int(np.prod(self.sub_shape))

    def face_cells(self, axis: int) -> int:
        return int(np.prod([s for a, s in enumerate(self.sub_shape) if a != axis]))

    # -- timing model -------------------------------------------------------
    def _model_compute_s(self) -> float:
        ns = self.cpu_spec.lbm_ns_per_cell
        t = self.cells * ns * 1e-9
        for (axis, _) in self.face_dirs:
            t += (cal.CPU_BORDER_COMPUTE_S_PER_DIR
                  * self.face_cells(axis) / cal.BORDER_COMPUTE_REF_FACE_CELLS)
        for (aa, _, ab, _) in self.edge_dirs:
            other = next(a for a in range(3) if a not in (aa, ab))
            t += cal.CPU_BORDER_COMPUTE_S_PER_DIR * self.sub_shape[other] / 80.0
        return t

    # -- per-step protocol ----------------------------------------------------
    def begin_step(self) -> None:
        self.compute_s = 0.0
        self.agp_s = 0.0
        self.overlap_window_s = 0.0

    def collide_phase(self) -> None:
        """Collision (software), one whole pass; the driver exchanges
        halos after it.  The paper's second thread overlaps the network
        with the *entire* computation, so the modeled window is set at
        finish."""
        if not self.timing_only:
            with self.recorder.phase("cluster.collide"):
                self.solver.collide()

    def charge_transfers(self) -> None:
        """No GPU bus on the CPU path; MPI buffers are packed on the
        compute thread (folded into the border compute term)."""
        self.agp_s = 0.0

    def finish_step(self) -> None:
        if not self.timing_only:
            with self.recorder.phase("cluster.finish"):
                self.solver.stream()
                self.solver.post_stream()
                self.solver.time_step += 1
        self.compute_s = self.model_compute_s
        self.overlap_window_s = self.compute_s
