"""A serial cluster's CPU ranks swept as one stacked lattice.

The serial backend advances every rank on the calling thread.  Where
ranks are small — Sec 4.4's fixed problem size, 32 ranks of 12^3 — most
of a step is per-rank Python dispatch, not lattice work: ~240 numpy
calls per rank per AA phase, 80 halo messages packed and unpacked one
by one, and per-rank bookkeeping.  When every rank runs the in-place AA
kernel, :class:`RankStack` replaces the per-rank loop:

* **arena** — ranks are grouped by block shape, and each group's padded
  arrays are the slots of one slot-major arena ``(Q, R, nx+2, ny+2,
  nz+2)``; all arenas are carved from one flat buffer
  (:func:`carve_arenas`).  Each rank adopts its slot right after it is
  built (``solver.fg = arena[:, r]``, the way process workers adopt
  their shared segments), so a full second copy is never resident.
  Uniform cuts give one group; unequal ``cuts`` give several, on the
  same path.
* **collide** — one AA phase per group per step: an
  :class:`~repro.lbm.aa.AAStepKernel` call over the whole arena.
* **exchange** — :class:`~repro.core.exchange.RankAxisExchange`: the
  engine's routes and manifests run as one fancy-index copy per route
  kind.
* **finish** — O(1) Python per rank: ``time_step``, the parity flags
  and ``post_stream`` only on ranks with solids or handlers, and the
  node's cached modelled compute.

Each rank keeps its own kernel, which is never swept but reconstructs
the rank's canonical distributions over its slot at odd parity, so
gather and load work unchanged.  Observability is per rank
by apportioning: the batch collide and the batch finish are each
recorded as one ``cluster.collide`` / ``cluster.finish`` region per
rank, consecutive slices of the batch's interval in proportion to the
rank's cells (:meth:`~repro.perf.recorder.Recorder.slices`), so
telemetry's per-rank busy time is the batch time split by cell share.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.exchange import RankAxisExchange
from repro.lbm.aa import AAStepKernel


def carve_arenas(decomp, q: int, dtype) -> dict[int, tuple[np.ndarray, int]]:
    """Map every rank to ``(arena, slot)``: one ``(q, R) + padded``
    arena per block shape (ranks in rank order), all views of one flat
    uninitialised buffer."""
    groups: dict[tuple, list[int]] = {}
    for rank in range(decomp.n_nodes):
        groups.setdefault(decomp.block_shape(rank), []).append(rank)
    shapes = {shape: (q, len(ranks)) + tuple(n + 2 for n in shape)
              for shape, ranks in groups.items()}
    flat = np.empty(sum(int(np.prod(s)) for s in shapes.values()), dtype)
    slots, offset = {}, 0
    for shape, ranks in groups.items():
        size = int(np.prod(shapes[shape]))
        arena = flat[offset:offset + size].reshape(shapes[shape])
        offset += size
        for slot, rank in enumerate(ranks):
            slots[rank] = (arena, slot)
    return slots


class RankStack:
    """The stacked ranks of one serial CPU cluster (module docstring).

    Build it before the nodes, :meth:`adopt` each rank's solver as soon
    as it exists, then :meth:`bind` the finished node list.
    """

    def __init__(self, decomp) -> None:
        self.decomp = decomp
        #: rank -> (arena, slot), carved for the first adopted solver's
        #: link count and dtype (:func:`carve_arenas`).
        self.slots: dict | None = None

    def adopt(self, rank: int, solver) -> None:
        """Move ``solver``'s padded array into its arena slot."""
        if self.slots is None:
            self.slots = carve_arenas(self.decomp, solver.fg.shape[0],
                                      solver.fg.dtype)
        arena, slot = self.slots[rank]
        view = arena[:, slot]
        view[...] = solver.fg
        solver.fg = view

    def bind(self, nodes, recorder) -> None:
        """Build the batch kernels and the rank-axis exchange."""
        self.nodes = list(nodes)
        self.solvers = [node.solver for node in self.nodes]
        for solver in self.solvers:
            if solver._select_kernel() != "aa":
                raise ValueError(
                    f"stacked rank resolved {solver.kernel_reason!r}; "
                    "only AA ranks stack")
            solver._enter_aa()
        members: dict[int, tuple[np.ndarray, list]] = {}
        for rank, solver in enumerate(self.solvers):
            arena, _ = self.slots[rank]
            members.setdefault(id(arena), (arena, []))[1].append(solver)
        self.kernels = []
        for arena, group in members.values():
            self.kernels.append(AAStepKernel(group[0], arena=arena,
                                             members=group))
        self.halo = RankAxisExchange(self.decomp, self.slots, recorder)
        self.recorder = recorder
        self._post = [s for s in self.solvers
                      if s.boundaries or s.solid.any()]
        cells = np.array([b.cells for b in self.decomp.blocks], float)
        self._edges = np.concatenate(([0.0], np.cumsum(cells / cells.sum()))
                                     ).tolist()
        self._odd = False

    # -- the per-step protocol -------------------------------------------
    def collide(self) -> None:
        """One AA phase of every rank, by group."""
        t0 = perf_counter()
        self._odd = self.solvers[0].aa_odd
        for kernel in self.kernels:
            if self._odd:
                kernel.odd_phase()
            else:
                kernel.even_phase()
        self.recorder.slices("cluster.collide", t0, perf_counter(),
                             self._edges, kernel="aa")

    def exchange(self) -> None:
        """The halo exchange the phase just run asks for."""
        self.halo.run("aa_reverse" if self._odd else "aa_forward")

    def finish(self) -> None:
        """Close the step on every rank; charge the nodes."""
        t0 = perf_counter()
        rotated = not self._odd
        for solver in self._post:
            solver._aa_rotated = rotated
            solver.post_stream()
        for solver in self.solvers:
            solver.kernel_used = "aa"
            solver.time_step += 1
        for node in self.nodes:
            node.compute_s = node.overlap_window_s = node.model_compute_s
            node.agp_s = 0.0
        self.recorder.slices("cluster.finish", t0, perf_counter(),
                             self._edges, kernel="aa")
