"""One cluster node's CPU sub-domain — the paper's baseline (Sec 4.4).

The CPU implementation runs the same decomposed LBM in software on one
Xeon thread per node, with "the network communication time ...
overlapped with the computation by using a second thread": its overlap
window is the whole compute time, which is why Table 1's CPU column
shows computation only.

The numerics reuse the reference :class:`~repro.lbm.LBMSolver` (same
ghost-padded layout), so the CPU and GPU cluster paths are checked
against each other and against the single-domain solver.
"""

from __future__ import annotations

import time

import numpy as np

from repro.lbm.solver import LBMSolver
from repro.gpu.specs import XEON_2_4, CPUSpec
from repro.perf import calibration as cal


def rank_boundaries(inlet, outflow) -> list:
    """Boundary handlers of a rank owning the given global faces.

    ``inlet`` is ``(axis, side, velocity, rho)`` and ``outflow``
    ``(axis, side)`` (None where the rank does not touch that face).
    Shared by the rank's solver and by the coordinator's description
    of the rank for the kernel probe.
    """
    from repro.lbm.boundaries import EquilibriumVelocityInlet, OutflowBoundary
    from repro.lbm.lattice import D3Q19
    bcs = []
    if inlet is not None:
        bcs.append(EquilibriumVelocityInlet(D3Q19, *inlet))
    if outflow is not None:
        bcs.append(OutflowBoundary(D3Q19, *outflow))
    return bcs


class CPUNode:
    """One sub-domain computed in software on a host CPU.

    Parameters mirror :class:`~repro.core.gpu_node.GPUNode`; see there.
    ``kernel_choice`` is a decision the cluster coordinator already
    measured for this rank (the solver adopts it instead of probing);
    ``aa_halo_managed`` says the driver runs the AA halo protocol
    (forward exchange after even phases, reverse scatter exchange
    after odd ones), which is what lets a rank stepped phase by phase
    run the in-place AA kernel.
    """

    def __init__(self, rank: int, sub_shape, tau: float, solid=None,
                 face_dirs=(), edge_dirs=(), timing_only: bool = False,
                 cpu_spec: CPUSpec = XEON_2_4, inlet=None, outflow=None,
                 force=None, use_sse: bool = False, kernel: str = "auto",
                 sparse_threshold: float = 0.5,
                 autotune: str = "heuristic", layout: str = "soa",
                 kernel_choice=None, aa_halo_managed: bool = False) -> None:
        self.rank = rank
        self.sub_shape = tuple(int(s) for s in sub_shape)
        self.tau = float(tau)
        self.face_dirs = list(face_dirs)
        self.edge_dirs = list(edge_dirs)
        self.timing_only = bool(timing_only)
        self.cpu_spec = cpu_spec
        self.use_sse = bool(use_sse)
        self._boundaries = []
        if timing_only:
            self.solver = None
        else:
            self.solver = LBMSolver(self.sub_shape, tau, solid=solid,
                                    boundaries=rank_boundaries(inlet, outflow),
                                    force=force, periodic=False,
                                    kernel=kernel,
                                    sparse_threshold=sparse_threshold,
                                    autotune=autotune, layout=layout)
            # The cluster driver steps this solver phase by phase
            # (collide / exchange / stream).
            self.solver.phase_driven = True
            self.solver.aa_halo_managed = bool(aa_halo_managed)
            if kernel_choice is not None:
                self.solver.adopt_kernel_choice(kernel_choice)
            if aa_halo_managed:
                # The driver's exchange is only correct if this rank
                # really runs the AA phases: refuse a silent fallback.
                from repro.lbm.aa import AAStepKernel
                if not AAStepKernel.eligible(self.solver):
                    raise ValueError(
                        "kernel='aa' on a cluster rank requires a plain "
                        "BGK sub-domain whose boundary handlers the "
                        "rotated closure supports (inlet/outflow only)")
        self.compute_s = 0.0
        self.agp_s = 0.0           # always 0: no GPU on this path
        self.overlap_window_s = 0.0
        #: *Measured* wall seconds this rank spent computing during the
        #: last step (vs the modeled ``compute_s``).  Telemetry's
        #: per-rank imbalance gauge reads this; two perf_counter calls
        #: per phase keep it far below kernel cost.
        self.busy_s = 0.0

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
        """Why the hot path was selected (heuristic vs measured probe)."""
        return None if self.solver is None else self.solver.kernel_reason

    @property
    def kernel_rates(self) -> dict | None:
        """Measured probe MLUPS per candidate (measured autotune only)."""
        return None if self.solver is None else self.solver.kernel_rates

    @property
    def kernel_layout(self) -> str:
        """Concrete memory layout of this rank's distribution array."""
        return "soa" if self.solver is None else self.solver.layout

    @property
    def aa_odd(self) -> bool:
        """Whether this rank's next AA phase is the odd one (so the
        step's halo exchange is the reverse scatter)."""
        return self.solver is not None and self.solver.aa_odd

    # -- geometry ---------------------------------------------------------
    @property
    def cells(self) -> int:
        return int(np.prod(self.sub_shape))

    def face_cells(self, axis: int) -> int:
        return int(np.prod([s for a, s in enumerate(self.sub_shape) if a != axis]))

    # -- timing model -------------------------------------------------------
    def _model_compute_s(self) -> float:
        ns = self.cpu_spec.lbm_ns_per_cell
        if self.use_sse:
            ns /= self.cpu_spec.sse_speedup
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
        self.busy_s = 0.0

    def collide_phase(self) -> None:
        """Collision (software); the second thread overlaps the network
        with the *entire* computation, so the window is set at finish."""
        if not self.timing_only:
            t0 = time.perf_counter()
            self.solver.collide()
            for b in self.solver.boundaries:
                b.pre_stream(self.solver.fg)
            self.busy_s += time.perf_counter() - t0

    # -- split collide (executed overlap protocol) ------------------------
    @property
    def overlap_safe(self) -> bool:
        """Whether the split protocol is bit-identical here.

        A ``pre_stream`` override could snapshot border populations, and
        the split path runs it after the exchange has already read the
        borders — so any boundary with a non-trivial ``pre_stream``
        forces the sequential protocol.
        """
        if self.timing_only:
            return True
        from repro.lbm.boundaries import Boundary
        return all(type(b).pre_stream is Boundary.pre_stream
                   for b in self.solver.boundaries)

    def collide_boundary_phase(self) -> None:
        """Collide the depth-1 shell so borders are exchange-ready."""
        if not self.timing_only:
            t0 = time.perf_counter()
            self.solver.collide_boundary()
            self.busy_s += time.perf_counter() - t0

    def collide_inner_phase(self) -> None:
        """Collide the inner core (runs while the exchange is in flight;
        touches no border or ghost memory)."""
        if not self.timing_only:
            t0 = time.perf_counter()
            self.solver.collide_inner()
            for b in self.solver.boundaries:
                b.pre_stream(self.solver.fg)
            self.busy_s += time.perf_counter() - t0

    # -- ghost-layer plumbing on the padded array ----------------------------
    def _layer_index(self, axis: int, side: str, ghost: bool) -> int:
        if side == "low":
            return 0 if ghost else 1
        return self.sub_shape[axis] + 1 if ghost else self.sub_shape[axis]

    def read_borders(self, axis: int,
                     out: dict[int, np.ndarray] | None = None) -> dict[int, np.ndarray]:
        """Copy both border faces along ``axis``.

        With ``out`` (a ``{-1: buf, 1: buf}`` pair of preallocated face
        arrays) the layers are copied in place, so the per-step halo
        exchange allocates nothing.
        """
        res: dict[int, np.ndarray] = {} if out is None else out
        for direction in (-1, 1):
            side = "low" if direction == -1 else "high"
            idx = self._layer_index(axis, side, ghost=False)
            sl = [slice(None)] * 4
            sl[1 + axis] = idx
            layer = self.solver.fg[tuple(sl)]
            if out is None:
                res[direction] = layer.copy()
            else:
                np.copyto(res[direction], layer)
        return res

    def read_packed(self, manifest, out: np.ndarray) -> np.ndarray:
        """Pack this rank's merged per-neighbor payload into ``out``.

        ``manifest`` is a :class:`~repro.core.halo.NeighborManifest`;
        the source layer (border for the forward modes, ghost shell for
        ``aa_reverse``) and link slots follow from it.  Allocation-free
        given a preallocated ``out``.
        """
        from repro.core.wire import pack_halo
        return pack_halo(self.solver.fg, self.sub_shape, manifest, out)

    def write_packed(self, manifest, buf: np.ndarray) -> None:
        """Unpack a neighbor's merged payload into this rank's shell.

        The sender's side-``s`` segment lands on this rank's side
        ``-s``: the ghost layer for the forward modes, the border layer
        (crossing fold) for ``aa_reverse``.
        """
        from repro.core.wire import unpack_halo
        unpack_halo(self.solver.fg, self.sub_shape, manifest, buf)

    def write_ghost(self, axis: int, direction: int, data: np.ndarray) -> None:
        side = "low" if direction == -1 else "high"
        idx = self._layer_index(axis, side, ghost=True)
        sl = [slice(None)] * 4
        sl[1 + axis] = idx
        self.solver.fg[tuple(sl)] = data

    def read_ghost_planes(self, axis: int,
                          out: dict[int, np.ndarray] | None = None,
                          ) -> dict[int, np.ndarray]:
        """Copy both ghost planes along ``axis`` (AA reverse exchange).

        After an AA odd phase the ghost shell holds post-collision
        populations scattered by border cells; they belong to the
        neighbouring sub-domain and are shipped there instead of being
        received (the mirror image of :meth:`read_borders`).
        """
        res: dict[int, np.ndarray] = {} if out is None else out
        for direction in (-1, 1):
            side = "low" if direction == -1 else "high"
            idx = self._layer_index(axis, side, ghost=True)
            sl = [slice(None)] * 4
            sl[1 + axis] = idx
            layer = self.solver.fg[tuple(sl)]
            if out is None:
                res[direction] = layer.copy()
            else:
                np.copyto(res[direction], layer)
        return res

    def write_border_crossing(self, axis: int, direction: int,
                              data: np.ndarray) -> None:
        """Fold a neighbour's ghost plane onto this rank's border layer.

        Only the link slots that actually cross the shared face
        (``c_i[axis] == -direction`` for the border at side
        ``direction``) are written — the rest of the border layer holds
        this rank's own just-scattered populations and must survive.
        Mirrors :func:`repro.lbm.streaming.fold_ghosts_periodic`.
        """
        slots = self._crossing_slots(axis, direction)
        side = "low" if direction == -1 else "high"
        idx = self._layer_index(axis, side, ghost=False)
        sl: list = [slice(None)] * 4
        sl[0] = slots
        sl[1 + axis] = idx
        self.solver.fg[tuple(sl)] = data[slots]

    def _crossing_slots(self, axis: int, direction: int) -> np.ndarray:
        cache = getattr(self, "_crossing_slot_cache", None)
        if cache is None:
            cache = self._crossing_slot_cache = {}
        key = (axis, direction)
        if key not in cache:
            c = self.solver.lattice.c
            cache[key] = np.flatnonzero(c[:, axis] == -direction)
        return cache[key]

    def fold_border_zero_gradient(self, axis: int, direction: int) -> None:
        """Zero-gradient closure of an AA odd scatter at a true edge.

        On a non-periodic cluster boundary face there is no neighbour
        to ship the outward-pushed crossing populations to; they fold
        back onto the border layer locally, exactly as the
        single-domain AA kernel's ghost fold does on a bounded box.
        """
        from repro.lbm.streaming import fold_face_zero_gradient
        fold_face_zero_gradient(self.solver.lattice, self.solver.fg,
                                axis, direction)

    def fill_ghost_zero_gradient(self, axis: int, direction: int) -> None:
        side = "low" if direction == -1 else "high"
        src = self._layer_index(axis, side, ghost=False)
        dst = self._layer_index(axis, side, ghost=True)
        sl_s = [slice(None)] * 4
        sl_d = [slice(None)] * 4
        sl_s[1 + axis] = src
        sl_d[1 + axis] = dst
        self.solver.fg[tuple(sl_d)] = self.solver.fg[tuple(sl_s)]

    def charge_transfers(self) -> None:
        """No GPU bus on the CPU path; MPI buffers are packed on the
        compute thread (folded into the border compute term)."""
        self.agp_s = 0.0

    def finish_step(self) -> None:
        if not self.timing_only:
            t0 = time.perf_counter()
            self.solver.stream()
            self.solver.post_stream()
            self.solver.time_step += 1
            self.busy_s += time.perf_counter() - t0
        self.compute_s = self._model_compute_s()
        self.overlap_window_s = self.compute_s
