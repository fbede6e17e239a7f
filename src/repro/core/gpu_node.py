"""One cluster node's GPU sub-domain (Secs 4.2-4.3).

A :class:`GPUNode` wraps a padded-mode :class:`~repro.gpu.GPULBMSolver`
on its own :class:`~repro.gpu.SimulatedGPU` and implements the node's
side of the cluster protocol:

* one macro + collide over the whole interior, charged to the device
  per Sec-4.3 rectangle (shell pieces, then the inner core, whose
  device time is the ~120 ms overlap window of Sec 4.4) from a plan
  of charges built once per node;
* gather of all outgoing border distributions followed by a *single*
  readback over AGP ("we minimize the overhead of initializing the
  read operations", Sec 4.3), and ghost uploads of received data;
* stream, bounce-back, inlet and outflow.

Compiled, each is one call into :data:`repro.gpu.lbm_gpu.UNIT` (one per
face copy; :class:`GPURankGroup` makes one per phase for all ranks);
without a compiler, the per-pass engine runs them.

In ``timing_only`` mode no numerics run: the node reports the same
timing decomposition from the closed-form model, allowing paper-scale
(80^3 x 32) sweeps.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.exchange import RankLoop
from repro.gpu.device import SimulatedGPU
from repro.gpu.fragment import FragmentProgram
from repro.gpu.lbm_gpu import COLLIDE, CROSSING, GPULBMSolver, threads
from repro.gpu.packing import link_location
from repro.gpu.specs import AGP_8X, GEFORCE_FX_5800_ULTRA, BusSpec, GPUSpec
from repro.perf import calibration as cal
from repro.perf.recorder import NULL_RECORDER

#: Declared per-fragment cost of the border gather/scatter passes that
#: pack outgoing distributions into the transfer texture (Sec 4.3).
GATHER_PROGRAM = FragmentProgram("gather", kernel=None, alu_ops=4, tex_fetches=2)


class GPUNode:
    """One sub-domain on one simulated GPU.

    Parameters
    ----------
    rank:
        Cluster rank (for diagnostics).
    sub_shape:
        The node's lattice block.
    tau:
        BGK relaxation time.
    solid:
        Local obstacle mask.
    face_dirs:
        Active face-exchange directions ``(axis, direction)``.
    edge_dirs:
        Active diagonal-edge directions (for AGP edge overhead).
    timing_only:
        Skip numerics, model timing only.

    ``recorder`` is the rank's handle: a numeric rank's collide and
    finish are its ``cluster.collide`` / ``cluster.finish`` regions.
    """

    recorder = NULL_RECORDER

    def __init__(self, rank: int, sub_shape, tau: float, solid=None,
                 face_dirs=(), edge_dirs=(), timing_only: bool = False,
                 gpu_spec: GPUSpec = GEFORCE_FX_5800_ULTRA,
                 bus: BusSpec = AGP_8X, inlet=None, outflow=None,
                 force=None) -> None:
        self.rank = rank
        self.sub_shape = tuple(int(s) for s in sub_shape)
        self.tau = float(tau)
        self.face_dirs = list(face_dirs)
        self.edge_dirs = list(edge_dirs)
        self.timing_only = bool(timing_only)
        self.device = SimulatedGPU(spec=gpu_spec, bus=bus,
                                   enforce_memory=not timing_only)
        if timing_only:
            self.solver = None
        else:
            self.solver = GPULBMSolver(self.sub_shape, tau, device=self.device,
                                       mode="padded", solid=solid, inlet=inlet,
                                       outflow=outflow, force=force)
            # The collide's charges per Sec-4.3 rectangle, as data: the
            # shell pieces', then the inner ones' (the window).
            self._plan = [[entry for rect, zr in pieces
                           for entry in self.solver.pass_plan(COLLIDE, rect, zr)]
                          for pieces in self.solver.split_pieces()]
        # The modeled border and AGP terms are constant per node.
        self._border_s = self._border_compute_s()
        self._agp_s = self._model_agp_s()
        #: ``(id(manifest), how)`` -> the manifest, the buffer and its
        #: face calls (:meth:`_wire`).
        self._wires: dict[tuple, tuple] = {}
        #: ``(axis, direction)`` -> its zero-gradient fill's face table.
        self._fills: dict[tuple, int] = {}
        # Per-step timing buckets (seconds).
        self.compute_s = 0.0
        self.agp_s = 0.0
        self.overlap_window_s = 0.0
        # Kernel-report attributes; the reason says why the passes run
        # their numpy bodies (None: compiled, or no numerics at all).
        self.kernel_used = "gpu"
        self.kernel_reason = None if timing_only else self.solver.kernel_reason
        self.solid_fraction = (float(np.asarray(solid, dtype=bool).mean())
                               if solid is not None else 0.0)

    # -- geometry helpers -------------------------------------------------
    @property
    def cells(self) -> int:
        return int(np.prod(self.sub_shape))

    def inner_cells(self) -> int:
        return int(np.prod([max(0, s - 2) for s in self.sub_shape]))

    def face_cells(self, axis: int) -> int:
        return int(np.prod([s for a, s in enumerate(self.sub_shape) if a != axis]))

    # -- timing-model pieces ----------------------------------------------
    def _border_compute_s(self) -> float:
        """Fitted border-handling overhead: ~3 ms per border direction
        (faces and edges alike) at the 80^3 reference, scaled with the
        border size (see BORDER_COMPUTE_S_PER_DIR provenance)."""
        border = 0.0
        for (axis, _) in self.face_dirs:
            border += (cal.BORDER_COMPUTE_S_PER_DIR
                       * self.face_cells(axis) / cal.BORDER_COMPUTE_REF_FACE_CELLS)
        for (aa, _, ab, _) in self.edge_dirs:
            other = next(a for a in range(3) if a not in (aa, ab))
            border += cal.BORDER_COMPUTE_S_PER_DIR * self.sub_shape[other] / 80.0
        return border

    def _model_compute_s(self) -> float:
        base = self.cells * cal.lbm_step_compute_ns_per_cell() * 1e-9
        base /= self.device.spec.lbm_throughput_scale
        return base + self._border_s

    def _model_window_s(self) -> float:
        per_cell = (290 * cal.GPU_NS_PER_ALU + 20 * cal.GPU_NS_PER_FETCH) * 1e-9
        return self.inner_cells() * per_cell / self.device.spec.lbm_throughput_scale

    def _model_agp_s(self) -> float:
        if not self.face_dirs and not self.edge_dirs:
            return 0.0
        up_rate = cal.effective_upstream_bytes_per_s(self.device.bus)
        down_rate = cal.effective_downstream_bytes_per_s(self.device.bus)
        t = cal.READBACK_FLUSH_S
        for (axis, _) in self.face_dirs:
            nbytes = 5 * self.face_cells(axis) * 4
            t += nbytes / up_rate                       # single gathered read
            t += cal.UPLOAD_OVERHEAD_S + nbytes / down_rate
            t += 2 * self.device.pass_time_s(GATHER_PROGRAM, self.face_cells(axis))
        for _ in self.edge_dirs:
            t += cal.EDGE_PACK_OVERHEAD_S + cal.UPLOAD_OVERHEAD_S
        return t

    # -- per-step protocol --------------------------------------------------
    def begin_step(self) -> None:
        """Reset the step's timing buckets."""
        self.compute_s = 0.0
        self.agp_s = 0.0
        self.overlap_window_s = 0.0
        if not self.timing_only:
            self.device.reset_clock()

    def collide_phase(self) -> None:
        """Macro + collision over the whole interior, uncharged; the
        device is then charged what rendering the Sec-4.3 rectangles of
        :meth:`~repro.gpu.GPULBMSolver.split_pieces` would charge, the
        shell's then the inner core's (the overlap window): the node's
        plan, or on the per-pass engine one
        :meth:`~repro.gpu.GPULBMSolver.charge_collide_passes` per piece.
        """
        if self.timing_only:
            self.overlap_window_s = self._model_window_s()
            return
        with self.recorder.phase("cluster.collide"):
            solver, device = self.solver, self.device
            solver.collide(charge=False)
            if solver._lib is None:
                shell, inner = solver.split_pieces()
                for rect, zr in shell:
                    solver.charge_collide_passes(rect, zr)
                before = device.clock_s
                for rect, zr in inner:
                    solver.charge_collide_passes(rect, zr)
                self.overlap_window_s = device.clock_s - before
            else:
                self.charge_collide()

    def charge_collide(self) -> None:
        """Charge the compiled collide's plan: the shell rectangles',
        then the inner ones' (the window)."""
        device = self.device
        device.apply(self._plan[0])
        before = device.clock_s
        device.apply(self._plan[1])
        self.overlap_window_s = device.clock_s - before

    # -- the halo engine's port, over textures (see core.exchange) --------
    def read_packed(self, manifest, out: np.ndarray) -> np.ndarray:
        """Gather the merged per-neighbor payload from the border layer."""
        self._wire(manifest, out, 1)
        return out

    def write_packed(self, manifest, buf: np.ndarray) -> None:
        """Scatter a received merged payload into the ghost texels."""
        self._wire(manifest, buf, 2)

    def _wire(self, manifest, buf: np.ndarray, how: int) -> None:
        """Gather (``how`` 1) the border planes into, or scatter (2) the
        ghost planes from, a message ``buf`` (GPU ranks run the pull
        exchange only), segment by segment: compiled, one face call
        each for a float32 buffer, from its face tables resolved at the
        first call with this manifest and buffer (:meth:`_face_calls`);
        else :meth:`~repro.gpu.GPULBMSolver.get_border_layer` /
        :meth:`~repro.gpu.GPULBMSolver.set_ghost_layer`."""
        solver = self.solver
        if solver._lib is not None:
            key = (id(manifest), how)
            hit = self._wires.get(key)
            if hit is None or hit[0] is not manifest or hit[1] is not buf:
                hit = self._wires[key] = (manifest, buf,
                                          self._face_calls(manifest, buf, how))
            if hit[2] is not None:
                tex, face = solver._texels(), solver._lib.gpu_face
                for at, g in hit[2]:
                    face(tex, at, g)
                return
        if manifest.mode != "pull":
            raise ValueError("GPU ranks only run the pull exchange; "
                             f"got manifest mode {manifest.mode!r}")
        axis, flat = manifest.axis, buf.reshape(-1)
        for seg in manifest.segments:
            view = flat[seg.offset:seg.offset + seg.floats].reshape(
                (len(seg.links),) + manifest.plane_shape)
            name = "low" if (seg.side if how == 1 else -seg.side) == -1 else "high"
            if how == 1:
                solver.get_border_layer(axis, name, out=view, links=seg.links)
            else:
                solver.set_ghost_layer(view, axis, name, links=seg.links)

    def _face_calls(self, manifest, buf: np.ndarray, how: int) -> list | None:
        """``(address, face table)`` of each segment's face call, or
        None where ``buf`` is not a contiguous float32 array, or the
        manifest is not a pull one (:meth:`_wire` refuses it)."""
        if (manifest.mode != "pull" or buf.dtype != np.float32
                or not buf.flags.c_contiguous):
            return None
        axis, n = manifest.axis, self.sub_shape[manifest.axis]
        calls = []
        for seg in manifest.segments:
            side = seg.side if how == 1 else -seg.side          # of our texels
            at = (1 if side == -1 else n) if how == 1 else (0 if side == -1 else n + 1)
            calls.append((buf.ctypes.data + 4 * seg.offset,
                          self.solver._face_g(how, axis, at, seg.links)[1]))
        return calls

    def fill_ghost_zero_gradient(self, axis: int, direction: int) -> None:
        """Global non-periodic boundary: copy own border outward, the
        full padded plane, for the ten links with ``c[axis] != 0`` (the
        only ones a stream reads there, as the CPU port): one face call,
        or one slice assignment per link."""
        n = self.sub_shape[axis]
        ghost, border = (0, 1) if direction == -1 else (n + 1, n)
        solver = self.solver
        if solver._lib is not None:
            g = self._fills.get((axis, direction))
            if g is None:
                g = self._fills[axis, direction] = solver._face_g(
                    0, axis, ghost, CROSSING[axis], border)[1]
            solver._lib.gpu_face(solver._texels(), None, g)
            return
        for s, ch in map(link_location, CROSSING[axis]):
            planes = solver.f_stacks[s].data[..., ch].swapaxes(0, 2 - axis)
            planes[ghost] = planes[border]                  # data[z, y, x]

    def charge_transfers(self) -> None:
        """Charge the step's modeled AGP cost, identically in both modes."""
        self.agp_s = self._agp_s

    def finish_step(self) -> None:
        """Stream, bounce-back, inlet and outflow; close out compute
        accounting."""
        if self.timing_only:
            self.compute_s = self._model_compute_s()
            return
        with self.recorder.phase("cluster.finish"):
            self.solver.finish()
        # Everything charged on the device this step is compute; the AGP
        # bucket is modeled separately by charge_transfers().
        self.compute_s = self.device.clock_s + self._border_s


class GPURankGroup(RankLoop):
    """A serial cluster's numeric GPU ranks, stepped together while
    every rank's unit is compiled (else node by node): one
    ``gpu_collide`` over the ranks' rows, each rank's collide charges,
    :class:`RankLoop`'s exchange, one ``gpu_sweep``, each rank's finish
    charges.  The unit splits the rows across
    :func:`~repro.gpu.lbm_gpu.threads` of the host's cores; a rank
    touches only its own textures.  Each call is recorded as per-rank
    cell-share slices (:meth:`~repro.perf.recorder.Recorder.slices`)."""

    def __init__(self, nodes, halo, recorder) -> None:
        super().__init__(nodes, halo, recorder)
        self.solvers = [node.solver for node in self.nodes]
        #: ``gpu_collide``'s and ``gpu_sweep``'s rank tables.
        self._rows = {}
        for name in ("collide", "sweep"):
            table = np.concatenate([getattr(s, f"_{name}_row")[0] for s in self.solvers])
            self._rows[name] = (table, table.ctypes.data)
        self.threads = threads(len(self.nodes))
        cells = np.array([node.cells for node in self.nodes], float)
        self._edges = np.concatenate(([0.0], np.cumsum(cells / cells.sum()))).tolist()
        self._lib = None            # this step's unit; None: node by node

    def _call(self, name: str) -> None:
        for solver in self.solvers:
            solver._texels()
        getattr(self._lib, f"gpu_{name}")(self._rows[name][1], len(self.solvers),
                                          self.threads)

    def collide(self) -> None:
        lib = self.solvers[0]._lib
        self._lib = lib if all(s._lib is lib for s in self.solvers) else None
        if self._lib is None:
            return super().collide()
        for node in self.nodes:
            node.begin_step()
        t0 = perf_counter()
        self._call("collide")
        for node in self.nodes:
            node.charge_collide()
        self.recorder.slices("cluster.collide", t0, perf_counter(), self._edges)

    def finish(self) -> None:
        if self._lib is None:
            return super().finish()
        t0 = perf_counter()
        self._call("sweep")
        for node in self.nodes:
            node.charge_transfers()
            node.device.apply(node.solver._plan["finish"])
            node.compute_s = node.device.clock_s + node._border_s
        self.recorder.slices("cluster.finish", t0, perf_counter(), self._edges)
